"""Renyi block accounting payoff: admission gain + scan-speed parity.

Two claims, both gated in CI:

* **Admission gain.**  At an equal ``(epsilon_global, delta_global)`` target
  a block filtered by :class:`RenyiCompositionFilter` admits strictly more
  charges than :class:`StrongCompositionFilter` in a DP-SGD-style
  many-small-charges workload -- both for plain ``(epsilon, delta)`` charges
  (the pure-DP RDP reduction vs Rogers' constant) and, far more so, for
  Gaussian-mechanism charges carrying their exact RDP curve
  (``--assert-admission-gain``).
* **Scan parity.**  The order-extended ``(n, 4 + len(orders))`` store keeps
  whole-stream scans a single vectorized pass: the Renyi accountant's
  ``usable_blocks`` + ``can_charge`` hot path must beat a per-block loop
  over the store rows (:func:`renyi_admits_row` one block at a time) by
  the usual factor (``--assert-speedup``) and
  stay within a small constant of the 4-column strong filter's scans
  (``--assert-scan-ratio``).

Run as a script (``PYTHONPATH=src python benchmarks/bench_renyi_filter.py``)
or through pytest; emits ``results/bench_renyi_filter.json``.
"""

import argparse
import json
import sys
import time
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

import numpy as np

from benchjson import (
    RESULTS_DIR,
    write_bench_json,
    write_bench_report,
    write_text_atomic,
)
from repro.core.accountant import BlockAccountant
from repro.core.filters import (
    BasicCompositionFilter,
    RenyiCompositionFilter,
    StrongCompositionFilter,
)
from repro.dp.budget import PrivacyBudget
from repro.dp.rdp import gaussian_mechanism_budget

EPSILON_GLOBAL = 1.0
DELTA_GLOBAL = 1e-6
# DP-SGD-style small charges: many low-epsilon queries against one block.
SGD_CHARGE = dict(epsilon=0.01, delta=1e-9)
GAUSSIAN_CHARGE = dict(q=0.005, sigma=3.0, steps=20, delta=1e-9)
MAX_CHARGES = 6_000
SCAN_BLOCKS = 10_000
CHARGE_FRACTION = 0.2
WINDOW = 256


# ----------------------------------------------------------------------
# Admission gain: charges absorbed by one block before refusal
# ----------------------------------------------------------------------
def count_admitted(filter_obj, charge) -> int:
    totals = np.zeros((1, filter_obj.totals_width))
    admitted = 0
    while admitted < MAX_CHARGES and filter_obj.admits_batch(totals, charge)[0]:
        totals += filter_obj.contribution(charge)
        admitted += 1
    return admitted


def admission_counts():
    plain = PrivacyBudget(SGD_CHARGE["epsilon"], SGD_CHARGE["delta"])
    gaussian = gaussian_mechanism_budget(**GAUSSIAN_CHARGE)
    filters = {
        "basic": BasicCompositionFilter,
        "strong": StrongCompositionFilter,
        "renyi": RenyiCompositionFilter,
    }
    counts = {}
    for name, factory in filters.items():
        filter_obj = factory(EPSILON_GLOBAL, DELTA_GLOBAL)
        counts[name] = count_admitted(filter_obj, plain)
        counts[f"{name}_gaussian"] = count_admitted(filter_obj, gaussian)
    return counts, gaussian.epsilon


# ----------------------------------------------------------------------
# Scan parity: the accountant's vectorized hot path on the wide store
# ----------------------------------------------------------------------
def build_accountant(factory, n_blocks: int, seed: int = 0) -> BlockAccountant:
    acc = BlockAccountant(EPSILON_GLOBAL, DELTA_GLOBAL, filter_factory=factory)
    acc.register_blocks(range(n_blocks))
    rng = np.random.default_rng(seed)
    charged = rng.choice(
        n_blocks, size=int(CHARGE_FRACTION * n_blocks), replace=False
    )
    acc.charge_many(
        ([int(key)], PrivacyBudget(float(rng.uniform(0.05, 0.5)), 0.0))
        for key in charged
    )
    return acc


def renyi_admits_row(filter_obj, candidate, totals: tuple) -> bool:
    """The Renyi filter decided on one totals row: the seed's per-ledger
    rule, which coerced and checked the row, then ran a one-row
    ``admits_batch``."""
    matrix = np.asarray(totals, dtype=np.float64).reshape(1, -1)
    if matrix.shape[1] != filter_obj.totals_width:
        raise ValueError(f"totals row of width {matrix.shape[1]}")
    return bool(filter_obj.admits_batch(matrix, candidate)[0])


def scalar_scan(acc: BlockAccountant, floor, window, charge):
    """The seed's per-ledger loop, as a baseline on the same store rows:
    the filter asked one block at a time."""
    filt = acc.batch_filter
    rows = acc.store.totals.tolist()
    usable = []
    for key, row in zip(acc.block_keys, rows):
        if not renyi_admits_row(filt, acc.retirement_budget, tuple(row)):
            continue  # retired
        if renyi_admits_row(filt, floor, tuple(row)):
            usable.append(key)
    ok = all(
        renyi_admits_row(filt, charge, tuple(rows[row]))
        for row in acc.rows_for_keys(window)
    )
    return usable, ok


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def scan_times(n_blocks: int, repeats: int = 5):
    floor = PrivacyBudget(0.05, 0.0)
    charge = PrivacyBudget(0.05, 0.0)
    window = list(range(0, n_blocks, max(1, n_blocks // WINDOW)))[:WINDOW]

    renyi = build_accountant(RenyiCompositionFilter, n_blocks)
    strong = build_accountant(StrongCompositionFilter, n_blocks)

    expected = scalar_scan(renyi, floor, window, charge)
    got = (renyi.usable_blocks(floor), renyi.can_charge(window, charge))
    if got != expected:
        raise AssertionError(
            "vectorized Renyi scan diverged from the per-ledger loop"
        )

    t_renyi = _best_of(
        lambda: (renyi.usable_blocks(floor), renyi.can_charge(window, charge)),
        repeats,
    )
    t_strong = _best_of(
        lambda: (strong.usable_blocks(floor), strong.can_charge(window, charge)),
        repeats,
    )
    t_scalar = _best_of(lambda: scalar_scan(renyi, floor, window, charge), repeats)
    return t_scalar, t_strong, t_renyi


def run(
    n_blocks: int = SCAN_BLOCKS,
    assert_admission_gain: bool = False,
    assert_speedup: float = 0.0,
    assert_scan_ratio: float = 0.0,
):
    counts, gaussian_eps = admission_counts()
    t_scalar, t_strong, t_renyi = scan_times(n_blocks)
    speedup = t_scalar / t_renyi
    ratio = t_renyi / t_strong

    scan_case = write_bench_json(
        "renyi_scan",
        {
            "blocks": n_blocks,
            "charge_fraction": CHARGE_FRACTION,
            "window": WINDOW,
            "strong_ms": t_strong * 1e3,
        },
        t_scalar * 1e3,
        t_renyi * 1e3,
        bench="renyi_filter",
    )
    table = write_bench_report(
        "renyi_filter",
        "Renyi vs strong composition at equal "
        f"(eps_g={EPSILON_GLOBAL}, delta_g={DELTA_GLOBAL})",
        [scan_case],
        columns=("per-ledger", "renyi (73 cols)"),
        notes=[
            f"strong (4 cols) scans the same hot path in {t_strong * 1e3:.2f}ms "
            f"(renyi takes {ratio:.1f}x strong's time)",
            f"admitted per block, plain eps={SGD_CHARGE['epsilon']} "
            f"delta={SGD_CHARGE['delta']}: basic {counts['basic']}, "
            f"strong {counts['strong']}, renyi {counts['renyi']} "
            f"({counts['renyi'] / max(1, counts['strong']):.1f}x strong)",
            f"admitted per block, Gaussian q={GAUSSIAN_CHARGE['q']} "
            f"sigma={GAUSSIAN_CHARGE['sigma']} steps={GAUSSIAN_CHARGE['steps']} "
            f"(converted eps={gaussian_eps:.3f}): "
            f"basic {counts['basic_gaussian']}, "
            f"strong {counts['strong_gaussian']}, "
            f"renyi {counts['renyi_gaussian']} "
            f"({counts['renyi_gaussian'] / max(1, counts['strong_gaussian']):.1f}x strong)",
        ],
    )

    RESULTS_DIR.mkdir(exist_ok=True)
    payload = {
        "name": "renyi_filter",
        "meta": scan_case["meta"],
        "params": {
            "epsilon_global": EPSILON_GLOBAL,
            "delta_global": DELTA_GLOBAL,
            "sgd_charge": SGD_CHARGE,
            "gaussian_charge": GAUSSIAN_CHARGE,
            "gaussian_converted_epsilon": gaussian_eps,
            "scan_blocks": n_blocks,
            "charge_fraction": CHARGE_FRACTION,
            "window": WINDOW,
        },
        "admitted": counts,
        "admission_gain": counts["renyi"] / max(1, counts["strong"]),
        "admission_gain_gaussian": counts["renyi_gaussian"]
        / max(1, counts["strong_gaussian"]),
        "scan": {
            "scalar_ms": t_scalar * 1e3,
            "strong_ms": t_strong * 1e3,
            "renyi_ms": t_renyi * 1e3,
            "speedup_vs_scalar": speedup,
            "ratio_vs_strong": ratio,
        },
    }
    write_text_atomic(
        RESULTS_DIR / "bench_renyi_filter.json",
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
    )

    if assert_admission_gain:
        if not counts["renyi"] > counts["strong"]:
            raise AssertionError(
                f"no admission gain on plain charges: renyi {counts['renyi']} "
                f"vs strong {counts['strong']}"
            )
        if not counts["renyi_gaussian"] > counts["strong_gaussian"]:
            raise AssertionError(
                f"no admission gain on Gaussian charges: "
                f"renyi {counts['renyi_gaussian']} vs "
                f"strong {counts['strong_gaussian']}"
            )
    if assert_speedup and speedup < assert_speedup:
        raise AssertionError(
            f"Renyi scan speedup {speedup:.1f}x over the per-ledger loop is "
            f"below the required {assert_speedup}x"
        )
    if assert_scan_ratio and ratio > assert_scan_ratio:
        raise AssertionError(
            f"Renyi scan takes {ratio:.1f}x the strong filter's time, over "
            f"the allowed {assert_scan_ratio}x"
        )
    return table


def test_admission_gain_and_scan_parity():
    """Acceptance: strictly more admitted charges than strong composition
    at equal targets, with scans still vectorized-fast on the wide store."""
    run(n_blocks=2_000, assert_admission_gain=True, assert_speedup=3.0)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--blocks", type=int, default=SCAN_BLOCKS)
    parser.add_argument(
        "--assert-admission-gain",
        action="store_true",
        help="fail unless Renyi admits strictly more charges than strong "
        "composition in both scenarios",
    )
    parser.add_argument(
        "--assert-speedup",
        type=float,
        default=0.0,
        help="fail unless the vectorized Renyi scan beats the per-ledger "
        "loop by this factor",
    )
    parser.add_argument(
        "--assert-scan-ratio",
        type=float,
        default=0.0,
        help="fail if the Renyi scan takes more than this multiple of the "
        "strong filter's scan time",
    )
    args = parser.parse_args()
    print(
        run(
            n_blocks=args.blocks,
            assert_admission_gain=args.assert_admission_gain,
            assert_speedup=args.assert_speedup,
            assert_scan_ratio=args.assert_scan_ratio,
        )
    )


if __name__ == "__main__":
    main()
