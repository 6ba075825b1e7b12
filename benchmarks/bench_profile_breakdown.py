"""Profiled contention hour: where the wall clock of a heavy hour goes.

PR 10's acceptance bench.  One contention-shaped hour (every pipeline
scanning a long stream and charging out of the freshly granted free
pool) is driven with a :class:`~repro.obs.WallProfiler` riding alongside
the deterministic tracer, at shard counts 1 / 4 / 8, and three claims
are checked:

* **Parity**: the profiled drive reproduces the bare drive's state
  digest byte for byte -- profiling observes, never participates.
* **Coverage**: the per-phase wall-clock breakdown under the hour's
  root span accounts for at least ``--assert-coverage`` of the measured
  hour (CI gates 0.9: the instrumented phases must explain >= 90% of
  where the time went, or the profile is lying by omission).
* **Attribution**: ``shard.validate`` decomposes per shard -- every
  shard of the sharded accountant shows up with a positive measured
  wall, so a skewed shard is visible, not averaged away.

Run as a script
(``PYTHONPATH=src python benchmarks/bench_profile_breakdown.py``).
"""

import argparse
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
from repro.core.sharding import sharded_accountant_factory
from repro.obs import Telemetry, WallProfiler
from repro.obs.analyze import hour_coverage, phase_breakdown
from repro.workload.oracle import CountStreamSource, OraclePipeline

DEFAULT_PIPELINES = 200
DEFAULT_BLOCKS = 5_000
SHARD_COUNTS = (1, 4, 8)


def build_contention_platform(n_pipelines, n_blocks, n_shards, telemetry=None):
    """A stream ``n_blocks`` hours old with ``n_pipelines`` sessions
    submitted but not yet granted: the *next* hour is the contention
    hour, where the free pool lands and every session scans the whole
    stream and charges.  The tiny epsilon keeps every attempt affordable
    (so the hour exercises ``charge_many`` and the sharded validate
    path) while the unreachable target keeps every session mid-flight."""
    factory = sharded_accountant_factory(n_shards) if n_shards else None
    sage = Sage(
        CountStreamSource(1000, scale=1000),
        seed=0,
        accountant_factory=factory,
        telemetry=telemetry,
    )
    sage.advance(float(n_blocks))  # blocks land with nobody waiting
    config = AdaptiveConfig(epsilon_start=0.001, epsilon_floor=0.001, max_attempts=4)
    for i in range(n_pipelines):
        sage.submit(OraclePipeline(name=f"p{i}", n_at_eps1=1e12), config)
    return sage


def profile_contention_hour(n_pipelines, n_blocks, n_shards):
    """Drive the contention hour profiled and bare; return the measured
    wall (s), the profiler, the hour coverage, and the per-shard
    ``shard.validate`` walls (us)."""
    telemetry = Telemetry(profiler=WallProfiler())
    profiled = build_contention_platform(
        n_pipelines, n_blocks, n_shards, telemetry=telemetry
    )
    bare = build_contention_platform(n_pipelines, n_blocks, n_shards)
    profiler = telemetry.profiler
    # Drop the ingest warmup so every remaining span belongs to the one
    # contention hour the coverage claim is about.
    profiler.spans.clear()
    profiler.events.clear()

    start = time.perf_counter()
    profiled.advance(1.0)
    wall_s = time.perf_counter() - start
    bare.advance(1.0)

    if durability.state_digest(profiled) != durability.state_digest(bare):
        raise AssertionError(
            f"profiled drive diverged from the bare drive at "
            f"{n_shards} shards -- profiling participated in the simulation"
        )
    profiled.close()
    bare.close()

    coverage = hour_coverage(profiler)
    shard_walls = {
        span.args["shard"]: span.duration
        for span in profiler.find_spans("shard.validate")
    }
    expected = set(range(n_shards)) if n_shards else set()
    if set(shard_walls) != expected:
        raise AssertionError(
            f"shard.validate decomposed over shards {sorted(shard_walls)}, "
            f"expected {sorted(expected)}"
        )
    if any(wall <= 0.0 for wall in shard_walls.values()):
        raise AssertionError(
            f"non-positive shard.validate wall at {n_shards} shards: "
            f"{shard_walls}"
        )
    return wall_s, profiler, coverage, shard_walls


def run(n_pipelines, n_blocks, assert_coverage=0.0):
    cases = []
    notes = []
    breakdown = None
    for n_shards in SHARD_COUNTS:
        wall_s, profiler, coverage, shard_walls = profile_contention_hour(
            n_pipelines, n_blocks, n_shards
        )
        hour = profiler.find_spans("advance.hour")[0]
        instrumented_us = hour.duration * coverage
        cases.append(
            write_bench_json(
                f"profile_breakdown_s{n_shards}",
                {
                    "pipelines": n_pipelines,
                    "blocks": n_blocks,
                    "shards": n_shards,
                    "hour_coverage": round(coverage, 4),
                    "shard_validate_ms": {
                        str(shard): round(wall / 1e3, 3)
                        for shard, wall in sorted(shard_walls.items())
                    },
                },
                wall_s * 1e3,
                instrumented_us / 1e3,
                bench="profile_breakdown",
            )
        )
        notes.append(
            f"shards={n_shards}: coverage {coverage:.1%}, shard.validate "
            + " ".join(
                f"s{shard}={wall / 1e3:.2f}ms"
                for shard, wall in sorted(shard_walls.items())
            )
        )
        if n_shards == SHARD_COUNTS[-1]:
            breakdown = phase_breakdown(profiler)
        if assert_coverage and coverage < assert_coverage:
            raise AssertionError(
                f"instrumented phases cover only {coverage:.1%} of the "
                f"measured hour at {n_shards} shards, below the required "
                f"{assert_coverage:.0%}"
            )
    notes.append(
        "speedup column reads as measured-hour / instrumented-phase wall "
        "(1.0x would be full coverage)"
    )
    for row in breakdown[:6]:
        notes.append(
            f"  {row.name:<24} self {row.self_time / 1e3:>9.2f}ms  "
            f"share {row.share:>6.1%}"
        )
    return write_bench_report(
        "profile_breakdown",
        "profiled contention hour: wall-clock phase breakdown "
        f"({n_pipelines} pipelines x {n_blocks} blocks)",
        cases,
        columns=("measured", "instrumented"),
        notes=notes,
    )


def test_profile_breakdown_smoke():
    """CI smoke: parity, per-shard attribution, and a loose coverage
    floor at reduced scale (the 90% acceptance gate runs at full scale,
    where the instrumented phases dominate even harder)."""
    wall_s, profiler, coverage, shard_walls = profile_contention_hour(
        60, 1_500, 4
    )
    assert sorted(shard_walls) == [0, 1, 2, 3]
    assert coverage >= 0.6, f"hour coverage only {coverage:.1%}"
    hour = profiler.find_spans("advance.hour")[0]
    assert hour.duration <= wall_s * 1e6 * 1.5


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pipelines", type=int, default=DEFAULT_PIPELINES)
    parser.add_argument("--blocks", type=int, default=DEFAULT_BLOCKS)
    parser.add_argument(
        "--assert-coverage",
        type=float,
        default=0.0,
        help="fail unless the per-phase breakdown explains this fraction "
        "of the measured hour at every shard count",
    )
    args = parser.parse_args()
    print(
        run(
            args.pipelines,
            args.blocks,
            assert_coverage=args.assert_coverage,
        )
    )


if __name__ == "__main__":
    main()
