"""Blocked-session skip: window searches and session turns saved on a
backlogged queue.

Past the knee of Fig. 8 most of the queue waits in NEED_DATA for the
growing database to fund its next attempt.  Each hour the platform
proves blocked, in one pass (``Sage._decide_parked``), the sessions
parked when the hour opens that cannot find a window, and runs the pass
again after each release.  A proof stands for the hour -- a stage only
adds spend, and admission is monotone in spend -- so those sessions cost
no session turn at all.  Every session the drive visits asks the
one-row-read verdict (``AdaptiveSession.provably_blocked``) once and
skips the window search (``propose_peek``) when it proves it blocked.

This script builds a Fig. 8-style backlog from public parts -- Gamma
(shape 2) arrivals at ``RATE`` per hour for ``HOURS`` hours
(``arrival_schedule`` in ``tests/per_request_oracle.py``), power-law
oracle pipelines, a count stream -- and drives it twice from ``SEED``:

* the default drive, which skips proven-blocked sessions;
* the forced-poll drive (``forced_poll_drive`` in
  ``tests/per_request_oracle.py``), where the hour pass decides nothing
  and the verdict always answers False, so the drive visits every
  waiting session, which asks the verdict and runs its window search
  every hour.

It asserts that both drives end with the same state digest and the same
public outputs, and that every turn of the default drive asks the
verdict exactly once (``provably_blocked`` calls equal session turns).
It reports the ``propose_peek`` calls, per-session
``provably_blocked`` calls and session turns (``Sage._drive_session``
calls) of each.  ``--assert-propose-reduction F`` exits 1 unless the
default drive makes at most ``1 - F`` of the forced-poll drive's
``propose_peek`` calls, ``--assert-verdict-reduction F`` likewise for
``provably_blocked`` calls and ``--assert-visit-reduction F`` for session
turns.  The gates count calls and never read a clock, so they repeat
exactly on any machine; the wall times are printed for information only.

Run as a script::

    PYTHONPATH=src python benchmarks/bench_blocked_sessions.py \\
        --assert-propose-reduction 0.8 --assert-verdict-reduction 0.9 \\
        --assert-visit-reduction 0.8
"""

import argparse
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from unittest import mock

_ROOT = Path(__file__).resolve().parent.parent
for _path in (_ROOT / "src", _ROOT / "tests"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from per_request_oracle import arrival_schedule, forced_poll_drive
from repro.core import durability
from repro.core.adaptive import AdaptiveConfig, AdaptiveSession
from repro.core.platform import Sage
from repro.workload import CountStreamSource

# The Fig. 8 escalation schedule: start at 1/16, double up to 1.
CONFIG = AdaptiveConfig(
    epsilon_start=1.0 / 16.0, epsilon_cap=1.0, min_window_blocks=1, max_attempts=64
)
# About three times the Fig. 8 knee: most of the queue waits for data.
HOURS, RATE, SEED = 200, 2.0, 0
# The counted calls, each with its reduction gate.
GATED = ("propose_peek", "provably_blocked", "_drive_session")


def drive(forced):
    """One episode; returns its peek, verdict and session-turn counts,
    outputs, digest and wall time."""
    sage = Sage(CountStreamSource(16_000, scale=1000), seed=SEED)
    counts = {"propose_peek": 0, "provably_blocked": 0, "_drive_session": 0}

    def counting(method, owner=AdaptiveSession):
        original = getattr(owner, method)

        def counted(self, *args):
            counts[method] += 1
            return original(self, *args)

        return mock.patch.object(owner, method, counted)

    # The counters wrap whichever method is current: under the forced-poll
    # patch that is its always-False verdict and its counting drive.
    with forced_poll_drive() if forced else nullcontext() as seen, counting(
        "propose_peek"
    ), counting("provably_blocked"), counting("_drive_session", Sage):
        start = time.perf_counter()
        for arrivals in arrival_schedule(HOURS, RATE, SEED):
            for pipeline in arrivals:
                sage.submit(pipeline, CONFIG)
            sage.advance(1.0)
        wall_s = time.perf_counter() - start
    if forced and not seen["verdicts"]:
        raise AssertionError("the forced-poll patch was never consulted")
    outputs = [
        (e.name, e.status, e.release_time_hours, len(e.session.attempts))
        for e in sage.pipelines
    ]
    return {
        "digest": durability.state_digest(sage),
        "outputs": outputs,
        "charges": len(sage.access.accountant.charge_log),
        "sessions": len(outputs),
        "wall_s": wall_s,
        **counts,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--assert-propose-reduction",
        type=float,
        default=None,
        metavar="F",
        help="exit 1 unless propose_peek calls fell by at least this fraction",
    )
    parser.add_argument(
        "--assert-verdict-reduction",
        type=float,
        default=None,
        metavar="F",
        help="exit 1 unless per-session provably_blocked calls fell by at "
        "least this fraction",
    )
    parser.add_argument(
        "--assert-visit-reduction",
        type=float,
        default=None,
        metavar="F",
        help="exit 1 unless session turns (Sage._drive_session calls) fell "
        "by at least this fraction",
    )
    args = parser.parse_args()
    skipped = drive(forced=False)
    polled = drive(forced=True)
    if skipped["digest"] != polled["digest"] or skipped["outputs"] != polled["outputs"]:
        print("PARITY FAILURE: the default and forced-poll drives diverged")
        return 1
    if skipped["provably_blocked"] != skipped["_drive_session"]:
        print(
            f"VERDICT FAILURE: the default drive asked provably_blocked "
            f"{skipped['provably_blocked']} times in "
            f"{skipped['_drive_session']} session turns, not once per turn"
        )
        return 1
    reductions = {
        method: 1.0 - skipped[method] / max(1, polled[method])
        for method in GATED
    }
    print(
        f"backlog: {HOURS} hours at {RATE}/h, seed {SEED}: "
        f"{skipped['sessions']} pipelines, {skipped['charges']} charges, "
        f"state digest {skipped['digest']:#010x} on both drives"
    )
    for label, run in (("forced poll", polled), ("default", skipped)):
        print(
            f"  {label:<12} propose_peek {run['propose_peek']:>7}  "
            f"provably_blocked {run['provably_blocked']:>7}  "
            f"turns {run['_drive_session']:>7}  "
            f"wall {run['wall_s']:6.2f} s"
        )
    failed = False
    for method, gate in (
        ("propose_peek", args.assert_propose_reduction),
        ("provably_blocked", args.assert_verdict_reduction),
        ("_drive_session", args.assert_visit_reduction),
    ):
        reduction = reductions[method]
        print(f"  {method} calls fell by {reduction:.1%}")
        if gate is not None and reduction < gate:
            print(f"FAIL: {method} reduction {reduction:.1%} is below {gate:.0%}")
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
