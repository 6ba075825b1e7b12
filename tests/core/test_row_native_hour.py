"""The platform's hour is row-native: no key-to-row translation inside it.

A window stays the read-only array of ledger-store rows its admit scan
returned, from the scan through ``max_epsilon``, ``stage_request`` and the
reservation settle; the proposal builds the window's keys once, for what
is recorded.  These tests wrap ``BlockAccountant._key_rows`` -- the one
key-to-row translation every keyed accountant method goes through -- and
count its calls while ``Sage.advance`` is on the stack, on a volatile and
on a durable platform, through granted stages, refused stages, a release
and a rolled-back hour.  Every proposal's ``window`` must name exactly its
``rows``.
"""

from contextlib import contextmanager
from unittest import mock

import pytest

from repro.core import faults
from repro.core.access_control import SageAccessControl
from repro.core.accountant import BlockAccountant
from repro.core.adaptive import AdaptiveConfig, AdaptiveSession
from repro.core.platform import Sage
from repro.dp.budget import PrivacyBudget
from repro.workload.oracle import CountStreamSource, OraclePipeline

CONFIG = AdaptiveConfig(max_attempts=16)
# Small complexities accept within a few hours (releases); large ones keep
# escalating and stay waiting.
COMPLEXITIES = (2_000.0, 10_000.0, 40_000.0, 1e9, 1e9)


@contextmanager
def watch_hours(refuse_stages):
    """Count ``_key_rows`` calls inside and outside ``Sage.advance``, check
    every proposal's window against its rows, and make the first
    ``refuse_stages`` stages refused: an injected stage drains the
    proposal's rows just before the real one is validated."""
    seen = {"depth": 0, "inside": 0, "outside": 0, "proposals": 0}
    advance = Sage.advance
    key_rows = BlockAccountant._key_rows
    peek = AdaptiveSession.propose_peek
    stage = SageAccessControl.stage_request
    to_refuse = [refuse_stages]

    def counted_advance(self, hours=1.0):
        seen["depth"] += 1
        try:
            return advance(self, hours)
        finally:
            seen["depth"] -= 1

    def counted_key_rows(self, keys):
        seen["inside" if seen["depth"] else "outside"] += 1
        return key_rows(self, keys)

    def checked_peek(self):
        proposal, status = peek(self)
        if proposal is not None:
            seen["proposals"] += 1
            rows = proposal.rows
            assert not rows.flags.writeable
            keys = self.access.accountant.block_keys
            assert proposal.window == tuple(keys[row] for row in rows.tolist())
        return proposal, status

    def refusing_stage(self, rows, keys, budget, label="", principal=None):
        if to_refuse[0] and label != "injected":
            to_refuse[0] -= 1
            headroom = self.max_epsilon(rows, 0.0)
            stage(self, rows, list(keys), PrivacyBudget(headroom, 0.0), "injected")
        return stage(self, rows, keys, budget, label, principal)

    with mock.patch.object(Sage, "advance", counted_advance), mock.patch.object(
        BlockAccountant, "_key_rows", counted_key_rows
    ), mock.patch.object(
        AdaptiveSession, "propose_peek", checked_peek
    ), mock.patch.object(
        SageAccessControl, "stage_request", refusing_stage
    ):
        yield seen


def _platform(wal_dir=None):
    return Sage(
        CountStreamSource(4000, scale=1000),
        seed=3,
        wal_dir=wal_dir,
        snapshot_every=3 if wal_dir is not None else 0,
    )


def _pipelines(complexities):
    return [
        (OraclePipeline(name=f"p{i}", n_at_eps1=c), CONFIG)
        for i, c in enumerate(complexities)
    ]


def _drive(sage, hours):
    """Advance ``hours`` hours; the third hour first fails mid-drive and
    rolls back.  Returns the released bundles."""
    released = []
    for hour in range(hours):
        if hour == 2:
            with faults.armed_error("settle.mid_session", skip=1):
                with pytest.raises(faults.InjectedFault):
                    sage.advance(1.0)
        released.extend(sage.advance(1.0))
    return released


def _check_exercised(sage, seen, released):
    metrics = sage.metrics
    assert seen["proposals"], "no session proposed: nothing was checked"
    assert metrics.counter_value("sage_charges_granted_total") > 0
    assert metrics.counter_value("sage_charges_denied_total") > 0
    assert released, "no pipeline was released"


class TestNoKeyTranslationInsideTheHour:
    def test_volatile_platform(self):
        sage = _platform()
        for pipeline, config in _pipelines(COMPLEXITIES):
            sage.submit(pipeline, config)
        with watch_hours(refuse_stages=2) as seen:
            released = _drive(sage, 12)
        _check_exercised(sage, seen, released)
        assert seen["inside"] == 0, (
            f"{seen['inside']} key-to-row translations inside advance()"
        )

    def test_durable_platform_and_its_recovery(self, tmp_path):
        pipelines = _pipelines(COMPLEXITIES + (2_000.0,))
        sage = _platform(tmp_path)
        for pipeline, config in pipelines[:-1]:
            sage.submit(pipeline, config)
        with watch_hours(refuse_stages=2) as seen:
            released = _drive(sage, 7)
            # A fresh session charges in the last hour, after the newest
            # snapshot, so recovery replays its attempt.
            sage.submit(*pipelines[-1])
            released += sage.advance(1.0)
            sage.close()
            # WAL replay is the edge that translates recorded windows back
            # to rows, outside any advance().
            recovered = _platform(tmp_path)
            recovered.recover(pipelines)
            assert seen["outside"] > 0, "the wrapped translation never ran"
            released += recovered.advance(1.0)
            recovered.close()
        _check_exercised(sage, seen, released)
        assert seen["inside"] == 0, (
            f"{seen['inside']} key-to-row translations inside advance()"
        )
