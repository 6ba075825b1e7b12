"""Scan memo kept across stages: admit decisions re-made per staged row.

While an hour's staged batch is open, the accountant memoizes each
whole-stream admit scan per floor budget (``StagedBatch.scan_memo``).  A
successful ``stage_charge`` re-decides only the rows it staged in every
memoized entry, so the next proposer reads an up-to-date scan instead of
rescanning the stream.

This script drives the contention hour -- ``PIPELINES`` sessions
arriving at once on a ``BLOCKS``-hour stream, each charging four times
and timing out -- twice from ``SEED``:

* the default drive, which keeps the memo across stages;
* the fresh-scan drive (``fresh_scan_drive`` in
  ``tests/per_request_oracle.py``), which empties the memo before every
  scan read, so each read rescans the whole stream.

It asserts that both drives end with the same state digest and the same
public outputs, and counts the totals rows the filter's ``admits_batch``
evaluates on each side.  ``--assert-scan-reduction F`` exits 1 unless
the default drive evaluates at most ``1 - F`` of the fresh-scan drive's
rows.  The gate counts rows and never reads a clock, so it repeats
exactly on any machine.  The record appended to
``results/perf_history.jsonl`` carries the two hours' wall times, for
information only.

Run as a script::

    PYTHONPATH=src python benchmarks/bench_scan_memo.py \\
        --assert-scan-reduction 0.9
"""

import argparse
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from unittest import mock

_ROOT = Path(__file__).resolve().parent.parent
for _path in (_ROOT / "src", _ROOT / "tests", _ROOT / "benchmarks"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from benchjson import write_bench_json
from per_request_oracle import fresh_scan_drive
from repro.core import durability
from repro.core.adaptive import AdaptiveConfig
from repro.core.platform import Sage
from repro.workload import CountStreamSource, OraclePipeline

PIPELINES, BLOCKS, SEED = 200, 5_000, 0
# Every attempt affordable, no target reachable: four charges, then timeout.
CONFIG = AdaptiveConfig(epsilon_start=0.001, epsilon_floor=0.001, max_attempts=4)


def drive(fresh):
    """One contention hour; returns its row count, outputs, digest and
    wall time."""
    sage = Sage(CountStreamSource(1000, scale=1000), seed=SEED)
    sage.advance(float(BLOCKS))  # the stream lands with nobody waiting
    for i in range(PIPELINES):
        sage.submit(OraclePipeline(name=f"p{i}", n_at_eps1=1e12), CONFIG)
    filter_class = type(sage.access.accountant.batch_filter)
    admits_batch = filter_class.admits_batch
    counts = {"rows": 0, "calls": 0}

    def counting(self, totals, candidate):
        counts["rows"] += len(totals)
        counts["calls"] += 1
        return admits_batch(self, totals, candidate)

    with fresh_scan_drive() if fresh else nullcontext() as seen, mock.patch.object(
        filter_class, "admits_batch", counting
    ):
        start = time.perf_counter()
        sage.advance(1.0)
        wall_ms = (time.perf_counter() - start) * 1e3
    if fresh and not seen["scans"]:
        raise AssertionError("the fresh-scan patch was never consulted")
    outputs = [
        (e.name, e.status, len(e.session.attempts), e.session.total_spent)
        for e in sage.pipelines
    ]
    return {
        "digest": durability.state_digest(sage),
        "outputs": outputs,
        "charges": sage.last_hour_charges,
        "wall_ms": wall_ms,
        **counts,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--assert-scan-reduction",
        type=float,
        default=None,
        metavar="F",
        help="exit 1 unless admits_batch rows fell by at least this fraction",
    )
    args = parser.parse_args()
    kept = drive(fresh=False)
    fresh = drive(fresh=True)
    if kept["digest"] != fresh["digest"] or kept["outputs"] != fresh["outputs"]:
        print("PARITY FAILURE: the default and fresh-scan drives diverged")
        return 1
    reduction = 1.0 - kept["rows"] / max(1, fresh["rows"])
    print(
        f"contention: {PIPELINES} pipelines on {BLOCKS} blocks, seed {SEED}: "
        f"{kept['charges']} charges staged, state digest "
        f"{kept['digest']:#010x} on both drives"
    )
    for label, run in (("fresh scan", fresh), ("default", kept)):
        print(
            f"  {label:<11} admits_batch rows {run['rows']:>9} "
            f"({run['calls']} calls)  hour {run['wall_ms']:7.1f} ms"
        )
    print(f"  admits_batch rows fell by {reduction:.1%}")
    write_bench_json(
        "scan_memo_contention_hour",
        {
            "pipelines": PIPELINES,
            "blocks": BLOCKS,
            "fresh_rows": fresh["rows"],
            "kept_rows": kept["rows"],
        },
        fresh["wall_ms"],
        kept["wall_ms"],
        bench="scan_memo",
    )
    gate = args.assert_scan_reduction
    if gate is not None and reduction < gate:
        print(f"FAIL: admits_batch row reduction {reduction:.1%} is below {gate:.0%}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
