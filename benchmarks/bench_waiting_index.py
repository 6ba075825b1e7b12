"""Waiting-pipeline index: per-hour costs that follow the waiting queue.

The platform keeps its waiting entries as an index (``Sage._waiting``,
submission order), so the hour's status reads, allocation shares and
redistributions walk only the pipelines still waiting, and
``durability.state_digest`` reuses each pipeline entry's encoded bytes
until one of the values they encode changes.  This script drives two
episodes and counts, per hour:

* status reads -- ``AdaptiveSession.is_terminal`` plus
  ``SubmittedPipeline.waiting`` -- which must stay within
  ``--assert-reads-per-waiting R`` reads per entry waiting when the hour
  opens (a walk over every submitted pipeline on each escalation made
  about 1000 per pipeline on the contention hour);
* entry encodes in ``state_digest`` (``durability._entry_bytes`` calls),
  which must never exceed the entries waiting when the hour opened: the
  ones still waiting plus the ones that just turned terminal.

The episodes are a contention hour -- ``PIPELINES`` sessions arriving at
once on a ``BLOCKS``-hour stream, each charging four times and timing
out -- and a ``HOURS``-hour steady drive (Fig. 8 arrivals at 0.7 per
hour, pruned Renyi filters, durable with a snapshot every 24 hours).
Each asserts that its final memoized digest equals the digest folded
from an empty ``_digest_memo``.  The gates count calls and never read a
clock, so they repeat exactly on any machine.  The record appended to
``results/perf_history.jsonl`` times the final steady digest with and
without its entry bytes cached (best of ``REPEATS``), for information.

Run as a script::

    PYTHONPATH=src python benchmarks/bench_waiting_index.py \\
        --assert-reads-per-waiting 2
"""

import argparse
import functools
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

_ROOT = Path(__file__).resolve().parent.parent
for _path in (_ROOT / "src", _ROOT / "tests", _ROOT / "benchmarks"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from benchjson import write_bench_json
from per_request_oracle import arrival_schedule
from repro.core import durability
from repro.core.adaptive import AdaptiveConfig, AdaptiveSession
from repro.core.filters import RenyiCompositionFilter
from repro.core.platform import Sage, SubmittedPipeline
from repro.workload import CountStreamSource, OraclePipeline

PIPELINES, BLOCKS = 200, 1000
HOURS, RATE, SEED = 250, 0.7, 0
REPEATS = 20
# Every attempt affordable, no target reachable: four charges, then timeout.
CONTENTION_CONFIG = AdaptiveConfig(
    epsilon_start=0.001, epsilon_floor=0.001, max_attempts=4
)
# The Fig. 8 escalation schedule: start at 1/16, double up to 1.
STEADY_CONFIG = AdaptiveConfig(
    epsilon_start=1.0 / 16.0, epsilon_cap=1.0, min_window_blocks=1, max_attempts=64
)


@contextmanager
def counting():
    """Count status reads and entry encodes while the block runs."""
    counts = {"reads": 0, "encodes": 0}
    is_terminal = AdaptiveSession.is_terminal.fget
    waiting = SubmittedPipeline.waiting.fget
    entry_bytes = durability._entry_bytes

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    with mock.patch.object(
        AdaptiveSession, "is_terminal", property(counted("reads", is_terminal))
    ), mock.patch.object(
        SubmittedPipeline, "waiting", property(counted("reads", waiting))
    ), mock.patch.object(
        durability, "_entry_bytes", counted("encodes", entry_bytes)
    ):
        yield counts


def scratch_digest(sage):
    """The digest folded from an empty memo; the platform keeps its own."""
    memo = sage._digest_memo
    sage._digest_memo = {}
    try:
        return durability.state_digest(sage)
    finally:
        sage._digest_memo = memo


def waiting_count(sage):
    return sum(1 for entry in sage.pipelines if not entry.session.is_terminal)


def counted_hour(sage, counts, digest):
    """Advance one hour; returns (waiting at open, status reads, encodes).

    ``digest`` takes the hour's digest explicitly (a volatile platform
    commits none of its own)."""
    waiting = waiting_count(sage)
    reads, encodes = counts["reads"], counts["encodes"]
    sage.advance(1.0)
    if digest:
        durability.state_digest(sage)
    return waiting, counts["reads"] - reads, counts["encodes"] - encodes


def contention():
    sage = Sage(CountStreamSource(1000, scale=1000), seed=SEED)
    sage.advance(float(BLOCKS))  # the stream lands with nobody waiting
    for i in range(PIPELINES):
        sage.submit(OraclePipeline(name=f"p{i}", n_at_eps1=1e12), CONTENTION_CONFIG)
    with counting() as counts:
        hours = [counted_hour(sage, counts, digest=True)]
    return sage, hours


def steady(wal_dir):
    sage = Sage(
        CountStreamSource(16_000, scale=1000),
        seed=SEED,
        filter_factory=functools.partial(RenyiCompositionFilter, orders="pruned"),
        wal_dir=wal_dir,
        snapshot_every=24,
    )
    hours = []
    with counting() as counts:
        for arrivals in arrival_schedule(HOURS, RATE, SEED):
            for pipeline in arrivals:
                sage.submit(pipeline, STEADY_CONFIG)
            hours.append(counted_hour(sage, counts, digest=False))
    return sage, hours


def digest_ms(sage, cached):
    """Best-of-``REPEATS`` wall time of one digest, with the entry bytes
    cached or dropped before each call."""
    best = float("inf")
    for _ in range(REPEATS):
        if not cached:
            sage._digest_memo.pop("entries", None)
        start = time.perf_counter()
        durability.state_digest(sage)
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def check(label, sage, hours, reads_gate):
    """Print one episode's counts; returns the list of failures."""
    failures = []
    digest = durability.state_digest(sage)
    if digest != scratch_digest(sage):
        failures.append(f"{label}: memoized digest differs from a scratch fold")
    worst_reads = max(reads / max(1, waiting) for waiting, reads, _ in hours)
    print(
        f"{label}: {len(hours)} hour(s), {len(sage.pipelines)} pipelines, "
        f"digest {digest:#010x}\n"
        f"  status reads {sum(h[1] for h in hours):>7}  "
        f"(worst hour {worst_reads:.2f} per waiting entry)\n"
        f"  entry encodes {sum(h[2] for h in hours):>6}  "
        f"(waiting entry-hours {sum(h[0] for h in hours)})"
    )
    for hour, (waiting, reads, encodes) in enumerate(hours):
        if encodes > waiting:
            failures.append(
                f"{label} hour {hour}: {encodes} entry encodes for "
                f"{waiting} waiting entries"
            )
        if reads_gate is not None and reads > reads_gate * waiting:
            failures.append(
                f"{label} hour {hour}: {reads} status reads for "
                f"{waiting} waiting entries (gate {reads_gate} each)"
            )
    return failures, worst_reads


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--assert-reads-per-waiting",
        type=float,
        default=None,
        metavar="R",
        help="exit 1 if an hour makes more than R status reads per waiting entry",
    )
    args = parser.parse_args()
    gate = args.assert_reads_per_waiting
    failures = []
    sage, hours = contention()
    found, contention_reads = check("contention", sage, hours, gate)
    failures += found
    with tempfile.TemporaryDirectory() as wal_dir:
        sage, hours = steady(wal_dir)
        found, steady_reads = check("steady", sage, hours, gate)
        failures += found
        cold, warm = digest_ms(sage, cached=False), digest_ms(sage, cached=True)
        sage.close()
    print(
        f"  final digest {warm:.3f} ms with entry bytes cached, "
        f"{cold:.3f} ms without"
    )
    write_bench_json(
        "waiting_index_digest",
        {
            "pipelines": PIPELINES,
            "blocks": BLOCKS,
            "hours": HOURS,
            "contention_reads_per_waiting": contention_reads,
            "steady_reads_per_waiting": steady_reads,
        },
        cold,
        warm,
        bench="waiting_index",
    )
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
