"""Telemetry tax: the instrumented hourly drive vs the bare one.

Three gates on ``Sage(telemetry=...)``:

* **Parity first**: the instrumented drive must reproduce the bare
  drive's simulation byte for byte (per-hour state digests) -- tracing
  is an observer, never a participant.  Any drift fails the bench
  before a single timing is taken.
* **Record budget (deterministic)**: the drive emits exactly one
  ``session.drive`` span per driven session and at most
  :data:`OVERHEAD_RECORDS_PER_HOUR` other records per hour.  A record
  costs ~2us; the cheapest real session drive (the requirement oracle,
  no training) runs ~100us and the cheapest hour ~500us, so one
  record/session (~2%) plus eight records/hour (~3%) keeps the enabled
  overhead under 5% of even a contention hour -- and the budget is a
  *count*, so the gate cannot flake on a noisy CI box.  This is what
  catches the real regressions: a span inside the vectorized
  validation loop or a per-charge event on the staged path blows the
  per-hour cap with the first busy hour.
* **Wall clock (loose)**: measured as the median of adjacent
  bare/instrumented pairs (GC frozen during timing) so CPU bursts hit
  both sides of a pair together.  ``--assert-max-overhead`` gates the
  ratio in CI at a deliberately loose ceiling -- container timing
  noise swings single measurements by +-15%, far wider than the ~4%
  true cost, so the tight bound is enforced by the record budget above
  and the wall clock only has to catch pathologies (re-pickling state
  per hour, tracing from worker threads, and the like).

The disabled side *is* the baseline: ``telemetry=None`` hands every
emission site the shared ``NULL_PROBE``, whose ``span`` / ``event`` /
``set`` do nothing, so there is no third case to time (the no-op
contract is unit-tested in ``tests/obs/``).  The instrumented side reads
both clocks of every record (logical tick and wall), so this bench
also prices the wall profile.

Run (``PYTHONPATH=src python benchmarks/bench_telemetry_overhead.py``).
"""

import argparse
import gc
import statistics
import sys
import time
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from benchjson import write_bench_json, write_bench_report
from repro.core import durability
from repro.core.adaptive import AdaptiveConfig
from repro.core.platform import Sage
from repro.obs import Telemetry
from repro.workload.oracle import CountStreamSource, OraclePipeline

DEFAULT_HOURS = 24
# Ten concurrent sessions: the contention-hour shape.  The per-hour fixed
# spans (advance.*, staging.commit, charge.batch) amortize across a real
# session mix; thinner workloads overstate the ratio because the oracle
# hours themselves are only ~0.5ms.
DEFAULT_PIPELINES = 10
DEFAULT_REPEATS = 5

#: Trace records (spans + events) allowed per hour beyond the one
#: ``session.drive`` span each driven session gets.  See the module
#: docstring for the 5% arithmetic.
OVERHEAD_RECORDS_PER_HOUR = 8.0


def _build(telemetry=None):
    return Sage(CountStreamSource(4000, scale=1000), seed=5, telemetry=telemetry)


def _pipes(n):
    # Doubling targets: early pipelines terminate inside the bench window,
    # later ones stay mid-session, so hours mix charges and redistributions
    # -- the contention shape where per-session spans are densest.
    return [
        (
            OraclePipeline(name=f"p{i}", n_at_eps1=3_000.0 * (2.0 ** i)),
            AdaptiveConfig(max_attempts=16),
        )
        for i in range(n)
    ]


def _drive(sage, n_pipelines, hours):
    """Submit the workload, advance ``hours``, return (per-hour digests,
    total advance seconds).  Digesting happens outside the timer; GC is
    frozen across it so collection pauses land on neither side."""
    for pipeline, config in _pipes(n_pipelines):
        sage.submit(pipeline, config)
    digests = []
    elapsed = 0.0
    gc.collect()
    gc.disable()
    try:
        for _ in range(hours):
            start = time.perf_counter()
            sage.advance(1.0)
            elapsed += time.perf_counter() - start
            digests.append(durability.state_digest(sage))
    finally:
        gc.enable()
    return digests, elapsed


def _timed_run(hours, n_pipelines, telemetry=None):
    sage = _build(telemetry=telemetry)
    try:
        return _drive(sage, n_pipelines, hours)
    finally:
        sage.close()


def bench_overhead(hours, n_pipelines, repeats):
    # Parity gate: one instrumented drive against one bare drive, per-hour.
    bare_digests, _ = _timed_run(hours, n_pipelines)
    telemetry = Telemetry()
    traced_digests, _ = _timed_run(hours, n_pipelines, telemetry=telemetry)
    if traced_digests != bare_digests:
        raise AssertionError(
            "instrumented drive diverged from the bare drive (first "
            "mismatch at hour "
            f"{next(i for i, (a, b) in enumerate(zip(traced_digests, bare_digests)) if a != b)})"
        )
    if not telemetry.tracer.spans:
        raise AssertionError("instrumented drive recorded no spans")
    if telemetry.metrics.counter_value("sage_hours_advanced_total") != hours:
        raise AssertionError("hour counter disagrees with the drive length")

    # Record-budget gate (deterministic): emission volume.
    records = len(telemetry.tracer.spans) + len(telemetry.tracer.events)
    sessions = telemetry.metrics.counter_value("sage_sessions_driven_total")
    session_spans = sum(
        1 for span in telemetry.tracer.spans if span.name == "session.drive"
    )
    if session_spans != sessions:
        raise AssertionError(
            f"{session_spans} session.drive spans for {sessions:.0f} driven "
            "sessions -- the per-session budget is exactly one span"
        )
    overhead_per_hour = (records - session_spans) / hours
    if overhead_per_hour > OVERHEAD_RECORDS_PER_HOUR:
        raise AssertionError(
            f"{records - session_spans} non-session trace records over "
            f"{hours} hours ({overhead_per_hour:.2f}/hour) exceeds the "
            f"{OVERHEAD_RECORDS_PER_HOUR}/hour budget -- did a span or "
            "event land on a per-charge or vectorized path?"
        )

    # Wall clock: adjacent pairs, median ratio.  A CPU burst mid-bench
    # hits both halves of its pair, so the pairwise ratio stays honest
    # where independent minima would not.
    pairs = []
    t_off = t_on = float("inf")
    for _ in range(repeats):
        _, off = _timed_run(hours, n_pipelines)
        _, on = _timed_run(hours, n_pipelines, telemetry=Telemetry())
        pairs.append(on / off)
        t_off = min(t_off, off)
        t_on = min(t_on, on)
    return t_off, t_on, statistics.median(pairs), overhead_per_hour


def run(hours, n_pipelines, repeats, assert_max_overhead=0.0):
    t_off, t_on, overhead, overhead_per_hour = bench_overhead(
        hours, n_pipelines, repeats
    )
    case = write_bench_json(
        "telemetry_overhead",
        {
            "hours": hours,
            "pipelines": n_pipelines,
            "repeats": repeats,
            "overhead_records_per_hour": round(overhead_per_hour, 3),
        },
        t_on * 1e3,
        t_off * 1e3,
        bench="telemetry_overhead",
    )
    table = write_bench_report(
        "telemetry_overhead",
        f"telemetry overhead: {hours} hours x {n_pipelines} pipelines, "
        f"median of {repeats} paired runs",
        [case],
        columns=("instrumented", "bare"),
        notes=[
            "speedup column reads as the instrumented/bare overhead ratio "
            f"(pairwise median {overhead:.2f}x)",
            "record budget: one session.drive span per session; "
            f"{overhead_per_hour:.2f} other records/hour "
            f"(cap {OVERHEAD_RECORDS_PER_HOUR})",
            "parity: instrumented==bare per-hour digests before any timing",
        ],
    )
    if assert_max_overhead and overhead > assert_max_overhead:
        raise AssertionError(
            f"instrumented drive costs {overhead:.2f}x the bare drive, over "
            f"the allowed {assert_max_overhead}x"
        )
    return table


def test_telemetry_overhead_smoke():
    """CI smoke: parity, the deterministic record budget, and a loose
    wall-clock ceiling.  Oracle hours are sub-millisecond, so a handful
    of span allocations per hour reads as a few percent of wall clock
    here; on any real hour (training attempts) it vanishes.  The tight
    <5% envelope is the record budget inside ``bench_overhead``."""
    t_off, t_on, overhead, per_hour = bench_overhead(12, 4, repeats=2)
    assert per_hour <= OVERHEAD_RECORDS_PER_HOUR
    assert overhead <= 2.0, f"{overhead:.2f}x (off {t_off:.4f}s on {t_on:.4f}s)"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--hours", type=int, default=DEFAULT_HOURS)
    parser.add_argument("--pipelines", type=int, default=DEFAULT_PIPELINES)
    parser.add_argument("--repeats", type=int, default=DEFAULT_REPEATS)
    parser.add_argument(
        "--assert-max-overhead",
        type=float,
        default=0.0,
        help="fail if the instrumented drive costs more than this factor "
        "of the bare drive (loose pathology gate; the tight bound is the "
        "always-on record budget)",
    )
    args = parser.parse_args()
    print(
        run(
            args.hours,
            args.pipelines,
            args.repeats,
            assert_max_overhead=args.assert_max_overhead,
        )
    )


if __name__ == "__main__":
    main()
