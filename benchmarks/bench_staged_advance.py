"""Shared staged scans vs the per-request drive.

Two measurements on the heavy-contention shape of the Fig. 8 loop (many
waiting pipelines scanning a long stream every hour):

* ``advance``: a starved hour (every session polls for a window, scans
  the whole stream and blocks) driven through the **staged** hour --
  whose open batch shares each whole-stream admit scan across every
  session at one floor -- versus the **per-request** drive, which stages
  nothing and rescans per session.  The per-request drive is the test
  suite's parity oracle (``tests/per_request_oracle.py``), whose guard
  proves no batch opened while it ran.  Both timed hours run inside
  that file's ``forced_poll_drive()``: the platform's hour pass would
  otherwise prove every starved session blocked and visit none, and the
  two drives would time the same empty hour.  The bench asserts that
  every session was visited in every timed hour.  Parity is asserted
  first: the staged drive must reproduce the per-request one byte for
  byte, and the timed starved hour must end in the same state on both
  drives.
* ``stream_assembly``: window assembly through the growing database's
  packed-column store (preallocated columns filled once at ingest, windows
  read back as one slice/gather) versus the legacy per-block
  ``StreamBatch.concatenate`` walk -- the before/after of the
  assembly-dominated hot path.

Run as a script (``PYTHONPATH=src python benchmarks/bench_staged_advance.py``);
``--assert-speedup`` gates the per-request/staged advance ratio (CI uses
1.0: the staged hour must never lose), and ``--assert-assembly-speedup``
gates the packed assembly win.

At the default size (200 pipelines x 5000 blocks) the records keep the
``sharded_advance`` bench name and the ``sharded_advance_s1`` and
``stream_assembly`` case names they were first recorded under, so new
runs extend the same ``results/perf_history.jsonl`` series.  A run at any
other size (CI's smoke runs 60 x 1500) records its cases under
size-suffixed names (``sharded_advance_s1_p60_b1500``), so
``perf-report --check`` never compares a small run with the default-size
history.
"""

import argparse
import sys
import time
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
for _path in (_ROOT / "src", _ROOT / "tests"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import numpy as np

from benchjson import write_bench_json, write_bench_report
from per_request_oracle import forced_poll_drive, per_request_drive
from repro.core.adaptive import AdaptiveConfig
from repro.core.platform import Sage
from repro.data.stream import StreamBatch
from repro.workload.oracle import CountStreamSource, OraclePipeline

DEFAULT_PIPELINES = 200
DEFAULT_BLOCKS = 5_000
# Perf-history keys (see the module docstring).
HISTORY_BENCH = "sharded_advance"
ADVANCE_CASE = "sharded_advance_s1"
ASSEMBLY_CASE = "stream_assembly"


def history_case(name, n_pipelines, n_blocks):
    """The perf-history case key of a run at this size: ``name`` at the
    default size, ``name`` plus the size otherwise."""
    if (n_pipelines, n_blocks) == (DEFAULT_PIPELINES, DEFAULT_BLOCKS):
        return name
    return f"{name}_p{n_pipelines}_b{n_blocks}"


# ----------------------------------------------------------------------
# Parity: the staged drive must reproduce the per-request drive byte for
# byte.
# ----------------------------------------------------------------------
def _fingerprint(sage):
    return (
        [
            [
                (a.attempt, a.window, a.budget.epsilon, a.outcome)
                for a in e.session.attempts
            ]
            for e in sage.pipelines
        ],
        [e.status for e in sage.pipelines],
        [e.release_time_hours for e in sage.pipelines],
        sage.access.accountant.store.totals.tobytes(),
        sage.access.accountant.store.live.tobytes(),
        sage.reservation_table.matrix.tobytes(),
        [
            (r.budget.epsilon, r.block_keys, r.label)
            for r in sage.access.accountant.charges
        ],
    )


def check_staged_parity():
    def drive():
        sage = Sage(CountStreamSource(4000, scale=1000), seed=3)
        for i, complexity in enumerate((2_000.0, 10_000.0, 40_000.0, 1e9)):
            sage.submit(
                OraclePipeline(name=f"p{i}", n_at_eps1=complexity),
                AdaptiveConfig(max_attempts=16),
            )
        for _ in range(40):
            sage.advance(1.0)
        fingerprint = _fingerprint(sage)
        sage.close()
        return fingerprint

    with per_request_drive():
        reference = drive()
    if drive() != reference:
        raise AssertionError("the staged drive diverged from the per-request drive")


# ----------------------------------------------------------------------
# Part 1: staged (shared scans) vs per-request drive
# ----------------------------------------------------------------------
def build_starved_platform(n_pipelines, n_blocks):
    """A stream ``n_blocks`` hours old with ``n_pipelines`` starved
    sessions at one floor: each session that polls scans the whole stream
    for an affordable window and blocks again -- the propose-dominated
    steady state of heavy traffic, where the shared scan carries the
    whole hour.  The hour pass proves all of them blocked, so only a
    forced-poll drive visits them."""
    sage = Sage(CountStreamSource(1000, scale=1000), seed=0)
    sage.advance(float(n_blocks))  # blocks land with nobody waiting
    config = AdaptiveConfig(epsilon_start=0.5, epsilon_floor=0.5, max_attempts=4)
    for i in range(n_pipelines):
        sage.submit(OraclePipeline(name=f"p{i}", n_at_eps1=1e12), config)
    sage.advance(1.0)  # grant the free pool; sessions scan and starve
    return sage


def _best_of(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def bench_advance(n_pipelines, n_blocks, repeats=3):
    per_request = build_starved_platform(n_pipelines, n_blocks)
    staged = build_starved_platform(n_pipelines, n_blocks)
    with forced_poll_drive() as visits:
        with per_request_drive():
            t_req = _best_of(lambda: per_request.advance(1.0), repeats)
        req_sessions = visits["sessions"]
        t_staged = _best_of(lambda: staged.advance(1.0), repeats)
        staged_sessions = visits["sessions"] - req_sessions
    if req_sessions != staged_sessions or staged_sessions != repeats * n_pipelines:
        raise AssertionError(
            f"the timed hours visited {req_sessions} (per-request) and "
            f"{staged_sessions} (staged) session-hours, not "
            f"{repeats} x {n_pipelines}"
        )
    if _fingerprint(staged) != _fingerprint(per_request):
        raise AssertionError("starved staged hour diverged from the per-request drive")
    per_request.close()
    staged.close()
    return t_req, t_staged, t_req / t_staged


# ----------------------------------------------------------------------
# Part 2: window assembly -- packed columns vs per-block concatenation
# ----------------------------------------------------------------------
def bench_assembly(n_blocks, repeats=5):
    """Assemble a window of ``n_blocks`` one-row blocks (the simulator's
    block shape) through the packed store vs the legacy concatenate walk."""
    sage = Sage(CountStreamSource(1000, scale=1000), seed=0)
    sage.advance(float(n_blocks))
    database = sage.database
    keys = database.keys
    # The "before": per-block slabs (as the database used to store them)
    # concatenated per assembled window.  Materialized once, outside the
    # timed loop, so the baseline measures exactly the old walk.
    slabs = [database.get(k).batch for k in keys]

    def packed():
        return database.assemble(keys)

    def legacy():
        return StreamBatch.concatenate(slabs)

    fast = packed()
    slow = legacy()
    if not (
        np.array_equal(fast.X, slow.X)
        and np.array_equal(fast.y, slow.y)
        and np.array_equal(fast.timestamps, slow.timestamps)
        and np.array_equal(fast.user_ids, slow.user_ids)
        and set(fast.extras) == set(slow.extras)
        and all(np.array_equal(fast.extras[k], slow.extras[k]) for k in slow.extras)
    ):
        raise AssertionError("packed assembly diverged from concatenate")
    t_slow = _best_of(legacy, repeats)
    t_fast = _best_of(packed, repeats)
    return t_slow, t_fast, t_slow / t_fast


# ----------------------------------------------------------------------
def run(n_pipelines, n_blocks, assert_speedup=0.0, assert_assembly=0.0):
    check_staged_parity()

    t_req, t_staged, speedup = bench_advance(n_pipelines, n_blocks)
    cases = [
        write_bench_json(
            history_case(ADVANCE_CASE, n_pipelines, n_blocks),
            {"pipelines": n_pipelines, "blocks": n_blocks},
            t_req * 1e3,
            t_staged * 1e3,
            bench=HISTORY_BENCH,
        )
    ]
    if assert_speedup and speedup < assert_speedup:
        raise AssertionError(
            f"staged-hour speedup {speedup:.2f}x is below the required "
            f"{assert_speedup}x"
        )

    a_slow, a_fast, a_speedup = bench_assembly(n_blocks)
    write_bench_json(
        history_case(ASSEMBLY_CASE, n_pipelines, n_blocks),
        {"blocks": n_blocks, "rows_per_block": 1},
        a_slow * 1e3,
        a_fast * 1e3,
        bench=HISTORY_BENCH,
    )
    if assert_assembly and a_speedup < assert_assembly:
        raise AssertionError(
            f"packed assembly speedup {a_speedup:.1f}x is below the required "
            f"{assert_assembly}x"
        )
    return write_bench_report(
        "staged_advance",
        "staged hour (shared scans) vs per-request drive "
        f"({n_pipelines} pipelines x {n_blocks} blocks)",
        cases,
        columns=("per-request", "staged"),
        notes=[
            f"assembly {n_blocks} blocks: concatenate {a_slow * 1e3:.2f}ms -> "
            f"packed {a_fast * 1e3:.2f}ms ({a_speedup:.1f}x)",
            "parity: the staged drive reproduces the per-request drive "
            "byte for byte",
        ],
    )


def test_staged_advance_speedup():
    """CI smoke: parity + the staged hour at least matching per-request."""
    check_staged_parity()
    t_req, t_staged, speedup = bench_advance(60, 1500)
    assert speedup >= 1.0, (
        f"only {speedup:.2f}x (per-request {t_req:.4f}s staged {t_staged:.4f}s)"
    )
    a_slow, a_fast, a_speedup = bench_assembly(1500)
    assert a_speedup >= 2.0, f"assembly only {a_speedup:.1f}x"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pipelines", type=int, default=DEFAULT_PIPELINES)
    parser.add_argument("--blocks", type=int, default=DEFAULT_BLOCKS)
    parser.add_argument(
        "--assert-speedup",
        type=float,
        default=0.0,
        help="fail unless the staged hour beats the per-request drive by "
        "this factor",
    )
    parser.add_argument(
        "--assert-assembly-speedup",
        type=float,
        default=0.0,
        help="fail unless packed assembly beats per-block concatenation "
        "by this factor",
    )
    args = parser.parse_args()
    print(
        run(
            args.pipelines,
            args.blocks,
            assert_speedup=args.assert_speedup,
            assert_assembly=args.assert_assembly_speedup,
        )
    )


if __name__ == "__main__":
    main()
