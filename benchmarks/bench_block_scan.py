"""Block-ledger scan throughput: vectorized store vs. per-ledger loop.

The ROADMAP's north star is streams with thousands of hours of blocks, so
``usable_blocks`` / ``can_charge`` scans -- executed by every session of
every pipeline, every simulated hour -- must not be Python-object loops.
This bench times the accountant's vectorized struct-of-arrays scans against
the seed's per-ledger loop -- a Python loop over the store rows applying
the basic filter's per-row rule (:func:`basic_admits_row`) one block at a
time -- at 1k / 10k / 100k registered blocks.

Run as a script (``PYTHONPATH=src python benchmarks/bench_block_scan.py``)
or through pytest (the 10k case asserts the >= 5x acceptance threshold and
serves as the CI smoke test).
"""

import argparse
import sys
import time
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

import numpy as np

from benchjson import write_bench_json, write_bench_report
from repro.core.accountant import TOT_DELTA, TOT_EPS, BlockAccountant
from repro.dp.budget import PrivacyBudget

SIZES = (1_000, 10_000, 100_000)
CHARGE_FRACTION = 0.2  # share of blocks carrying some spend
WINDOW = 256  # keys named per can_charge call


def build_accountant(n_blocks: int, seed: int = 0) -> BlockAccountant:
    acc = BlockAccountant(1.0, 1e-6)
    acc.register_blocks(range(n_blocks))
    rng = np.random.default_rng(seed)
    charged = rng.choice(n_blocks, size=int(CHARGE_FRACTION * n_blocks), replace=False)
    acc.charge_many(
        ([int(key)], PrivacyBudget(float(rng.uniform(0.1, 0.99)), 0.0))
        for key in charged
    )
    return acc


# ----------------------------------------------------------------------
# The seed's per-ledger loops, preserved as the baseline under test.
# ----------------------------------------------------------------------
def basic_admits_row(filter_obj, candidate: PrivacyBudget, totals: tuple) -> bool:
    """Basic composition decided on one totals row, with the float
    operations of the seed's per-ledger rule."""
    eps_sum, delta_sum = totals[TOT_EPS], totals[TOT_DELTA]
    total = PrivacyBudget(
        eps_sum + candidate.epsilon, min(1.0, delta_sum + candidate.delta)
    )
    return total.fits_within(
        PrivacyBudget(filter_obj.epsilon_global, filter_obj.delta_global)
    )


def legacy_usable_blocks(acc: BlockAccountant, floor: PrivacyBudget):
    filt = acc.batch_filter
    out = []
    for key, row in zip(acc.block_keys, acc.store.totals.tolist()):
        if not basic_admits_row(filt, acc.retirement_budget, tuple(row)):
            continue  # retired
        if basic_admits_row(filt, floor, tuple(row)):
            out.append(key)
    return out


def legacy_can_charge(acc: BlockAccountant, keys, budget: PrivacyBudget) -> bool:
    if not keys:
        return False
    filt = acc.batch_filter
    totals = acc.store.totals
    return all(
        basic_admits_row(filt, budget, tuple(totals[row].tolist()))
        for row in acc.rows_for_keys(keys)
    )


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def bench_size(n_blocks: int, repeats: int = 5):
    floor = PrivacyBudget(0.05, 0.0)
    charge = PrivacyBudget(0.05, 0.0)
    window = list(range(0, n_blocks, max(1, n_blocks // WINDOW)))[:WINDOW]

    acc = build_accountant(n_blocks)
    fast = lambda: (acc.usable_blocks(floor), acc.can_charge(window, charge))
    slow = lambda: (legacy_usable_blocks(acc, floor), legacy_can_charge(acc, window, charge))

    expected = (legacy_usable_blocks(acc, floor), legacy_can_charge(acc, window, charge))
    got = (acc.usable_blocks(floor), acc.can_charge(window, charge))
    if got != expected:
        raise AssertionError(f"vectorized scan diverged from per-ledger loop at n={n_blocks}")

    t_fast = _best_of(fast, repeats)
    t_slow = _best_of(slow, repeats)
    return t_slow, t_fast, t_slow / t_fast


def run(sizes=SIZES, assert_speedup: float = 0.0) -> str:
    cases = []
    for n_blocks in sizes:
        t_slow, t_fast, speedup = bench_size(n_blocks)
        cases.append(
            write_bench_json(
                f"block_scan_{n_blocks}",
                {"blocks": n_blocks, "charge_fraction": CHARGE_FRACTION, "window": WINDOW},
                t_slow * 1e3,
                t_fast * 1e3,
                bench="block_scan",
            )
        )
        if assert_speedup and n_blocks >= 10_000 and speedup < assert_speedup:
            raise AssertionError(
                f"scan speedup {speedup:.1f}x at {n_blocks} blocks is below the "
                f"required {assert_speedup}x"
            )
    return write_bench_report(
        "block_scan",
        "block-ledger scan: usable_blocks + can_charge (best of 5)",
        cases,
        columns=("per-ledger", "vectorized"),
    )


def test_scan_speedup_at_10k():
    """Acceptance: >= 5x over the seed loop at 10k registered blocks."""
    t_slow, t_fast, speedup = bench_size(10_000)
    assert speedup >= 5.0, f"only {speedup:.1f}x (slow {t_slow:.4f}s fast {t_fast:.4f}s)"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--blocks", type=int, nargs="*", default=list(SIZES))
    parser.add_argument(
        "--assert-speedup",
        type=float,
        default=0.0,
        help="fail unless the >=10k-block scans beat the loop by this factor",
    )
    args = parser.parse_args()
    print(run(tuple(args.blocks), assert_speedup=args.assert_speedup))


if __name__ == "__main__":
    main()
