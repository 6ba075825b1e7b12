"""The blocked-session verdict: sound, and invisible to every artifact.

``AdaptiveSession.provably_blocked`` lets the hourly drive skip a waiting
session whose window search provably finds nothing.  Two properties make
the skip safe:

* **Soundness.**  Whenever the verdict is True, ``propose_peek`` returns
  ``(None, NEED_DATA)``: the skip leaves exactly what ``wake()`` followed
  by ``propose() -> None`` leaves.  Checked on random stores, staged
  overlays, reservation rows and escalation states.
* **Parity.**  The default drive matches the forced-poll drive
  (``per_request_oracle.forced_poll_drive``, where the verdict always
  answers False) byte for byte -- state digests, ``charge.wal`` bytes,
  attempt records, released bundles -- through a rolled-back hour and a
  ``recover()``, under every built-in filter.
"""

import functools
from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from per_request_oracle import arrival_schedule, durable_drive, forced_poll_drive

from repro.core.access_control import SageAccessControl
from repro.core.adaptive import (
    AdaptiveConfig,
    AdaptiveSession,
    AttemptRecord,
    SessionStatus,
)
from repro.core.filters import RenyiCompositionFilter, StrongCompositionFilter
from repro.core.platform import Sage
from repro.core.validation.outcomes import Outcome
from repro.data.database import GrowingDatabase
from repro.dp.budget import ZERO_BUDGET, PrivacyBudget
from repro.errors import BlockRetiredError, BudgetExceededError
from repro.workload import CountStreamSource, OraclePipeline

FILTERS = {
    "basic": None,
    "strong": StrongCompositionFilter,
    "renyi-pruned": functools.partial(RenyiCompositionFilter, orders="pruned"),
    "renyi-full": RenyiCompositionFilter,
}

REFUSALS = (BlockRetiredError, BudgetExceededError)


class _NeverRun:
    """A pipeline double: peeks and verdicts must never run it."""

    name = "never"

    def run(self, batch, budget, rng, correct_for_dp=True):
        raise AssertionError("a pure read ran the pipeline")


def _session(access, config, row_budget_fn=None, new_block_epsilon_fn=None):
    return AdaptiveSession(
        _NeverRun(),
        access,
        GrowingDatabase(),
        config,
        np.random.default_rng(0),
        new_block_epsilon_fn=new_block_epsilon_fn,
        row_budget_fn=row_budget_fn,
    )


class TestVerdictIsSound:
    @pytest.mark.parametrize("filter_name", sorted(FILTERS))
    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_blocked_means_propose_peek_needs_data(self, filter_name, data):
        access = SageAccessControl(1.0, 1e-6, filter_factory=FILTERS[filter_name])
        accountant = access.accountant
        n_blocks = data.draw(st.integers(min_value=0, max_value=24), label="blocks")
        spends = st.lists(st.floats(min_value=0.001, max_value=0.6), max_size=3)
        for key in range(n_blocks):
            access.register_block(key)
            for eps in data.draw(spends, label=f"spent on {key}"):
                try:
                    accountant.charge([key], PrivacyBudget(eps, 0.0))
                except REFUSALS:
                    pass
        if n_blocks and data.draw(st.booleans(), label="staged"):
            # An open hour: staged spend and the scan memo are in play.
            access.begin_staging()
            for key, eps in data.draw(
                st.lists(
                    st.tuples(
                        st.integers(min_value=0, max_value=n_blocks - 1),
                        st.floats(min_value=0.001, max_value=0.6),
                    ),
                    max_size=4,
                ),
                label="staged charges",
            ):
                try:
                    access.stage_request([key], PrivacyBudget(eps, 0.0))
                except REFUSALS:
                    pass
        start = data.draw(st.sampled_from([1 / 64, 1 / 16, 1 / 4]), label="start")
        config = AdaptiveConfig(
            epsilon_start=start,
            epsilon_cap=1.0,
            epsilon_floor=data.draw(
                st.sampled_from([None, start, start / 4]), label="floor"
            ),
            strategy=data.draw(st.sampled_from(["conserve", "aggressive"])),
            max_attempts=data.draw(st.integers(min_value=1, max_value=6)),
        )
        row_budget_fn = None
        if data.draw(st.booleans(), label="reservations"):
            held = data.draw(
                hnp.arrays(
                    np.float64,
                    n_blocks,
                    elements=st.sampled_from(
                        [0.0, start / 8, start / 2, start, 2 * start, 1.0]
                    ),
                ),
                label="held",
            )
            row_budget_fn = held.__getitem__
        rate = data.draw(st.sampled_from([None, start / 2, start, 1.0]), label="rate")
        session = _session(
            access,
            config,
            row_budget_fn=row_budget_fn,
            new_block_epsilon_fn=None if rate is None else (lambda: rate),
        )
        # Escalated epsilon, doubled window, any status, any attempt count.
        session.epsilon = min(1.0, start * 2 ** data.draw(st.integers(0, 4)))
        session.window_blocks = 2 ** data.draw(st.integers(0, 4))
        session.status = data.draw(
            st.sampled_from(
                [SessionStatus.RUNNING, SessionStatus.NEED_DATA, SessionStatus.ACCEPTED]
            )
        )
        for attempt in range(data.draw(st.integers(0, config.max_attempts))):
            session.attempts.append(
                AttemptRecord(attempt + 1, (), ZERO_BUDGET, Outcome.RETRY, 0)
            )
        if session.provably_blocked():
            assert session.propose_peek() == (None, SessionStatus.NEED_DATA)

    def test_verdict_decides_both_ways(self):
        """Not vacuous: an exhausted stream is blocked, a fresh one is not,
        and a reservation row that holds too little blocks a fresh one."""
        access = SageAccessControl(1.0, 1e-6)
        for key in range(4):
            access.register_block(key)
        config = AdaptiveConfig(min_window_blocks=2)
        assert not _session(access, config).provably_blocked()
        starved = _session(access, config, row_budget_fn=lambda rows: rows * 0.0)
        assert starved.provably_blocked()
        assert starved.propose_peek() == (None, SessionStatus.NEED_DATA)
        for key in range(3):
            access.accountant.charge([key], PrivacyBudget(1.0, 0.0))
        exhausted = _session(access, config)
        assert exhausted.provably_blocked()
        assert exhausted.propose_peek() == (None, SessionStatus.NEED_DATA)

    def test_timed_out_and_terminal_sessions_are_never_blocked(self):
        access = SageAccessControl(1.0, 1e-6)  # no blocks at all
        session = _session(access, AdaptiveConfig(max_attempts=1))
        assert session.provably_blocked()
        session.attempts.append(AttemptRecord(1, (), ZERO_BUDGET, Outcome.RETRY, 0))
        assert not session.provably_blocked()
        assert session.propose_peek() == (None, SessionStatus.TIMEOUT)
        session.attempts.clear()
        session.status = SessionStatus.REJECTED
        assert not session.provably_blocked()


class TestDriveSkipsBlockedSessions:
    def test_blocked_session_is_not_proposed_but_is_driven(self):
        sage = Sage(CountStreamSource(1000, scale=1000), seed=0)
        sage.advance(4.0)  # blocks land with nobody waiting
        config = AdaptiveConfig(min_window_blocks=64, max_attempts=4)
        for i in range(3):
            sage.submit(OraclePipeline(name=f"p{i}", n_at_eps1=1e12), config)
        calls = {"propose": 0}
        propose = AdaptiveSession.propose

        def counting(self):
            calls["propose"] += 1
            return propose(self)

        with mock.patch.object(AdaptiveSession, "propose", counting):
            sage.advance(1.0)
        assert calls["propose"] == 0
        assert [e.status for e in sage.pipelines] == [SessionStatus.NEED_DATA] * 3
        assert sage.metrics.counter_value("sage_sessions_driven_total") == 3


# ----------------------------------------------------------------------
# Parity: the default drive against the forced-poll drive
# ----------------------------------------------------------------------
HOURS = 30
ROLLBACK_HOUR = 12  # one hour raises mid-drive, rolls back and is retried
RECOVER_HOUR = 20  # the platform is rebuilt from its WAL directory here
ARRIVAL_RATES = {"steady": 0.7, "backlog": 2.0}
CONFIG = AdaptiveConfig(
    epsilon_start=1.0 / 16.0, epsilon_cap=1.0, min_window_blocks=1, max_attempts=64
)


def _drive(wal_dir, filter_name, mix, forced):
    return durable_drive(
        wal_dir,
        FILTERS[filter_name],
        arrival_schedule(HOURS, ARRIVAL_RATES[mix], seed=7),
        CONFIG,
        rollback_hour=ROLLBACK_HOUR,
        recover_hour=RECOVER_HOUR,
        reference=forced_poll_drive if forced else nullcontext,
    )


class TestForcedPollParity:
    @pytest.mark.parametrize("mix", sorted(ARRIVAL_RATES))
    @pytest.mark.parametrize("filter_name", ["basic", "strong", "renyi-pruned"])
    def test_default_drive_matches_forced_poll(self, tmp_path, filter_name, mix):
        skipped = _drive(tmp_path / "default", filter_name, mix, forced=False)
        polled = _drive(tmp_path / "forced", filter_name, mix, forced=True)
        assert polled["seen"]["verdicts"], "the forced-poll patch was never consulted"
        assert skipped["released"], "no pipeline was released: nothing compared"
        for field in ("digest", "wal", "attempts", "released"):
            assert skipped[field] == polled[field], f"{field} diverged"
        # The skip happened: fewer window searches, same trajectory.
        assert skipped["peeks"] < polled["peeks"]
