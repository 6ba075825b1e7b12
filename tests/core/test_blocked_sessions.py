"""The blocked-session verdict: sound, and invisible to every artifact.

``AdaptiveSession.provably_blocked`` lets the hourly drive skip a waiting
session whose window search provably finds nothing, and the hour pass
(``Sage._decide_parked``) decides that verdict for every session parked
when the hour opens at once.  Three properties make the skip safe:

* **Soundness.**  Whenever the verdict is True, ``propose_peek`` returns
  ``(None, NEED_DATA)``: the skip leaves exactly what ``wake()`` followed
  by ``propose() -> None`` leaves.  Checked on random stores, staged
  overlays, reservation rows and escalation states.
* **The pass is the verdict.**  The drive visits only the sessions the
  pass cannot prove blocked, and each visited session asks its own
  verdict.  A proof stands for the hour: every session the drive skipped
  is still proven blocked by its own ``provably_blocked()`` at the next
  visited turn (or at the end of the hour's drive) -- with mid-hour
  releases (after which the pass runs again), stages the session does or
  does not hold, refused stages and Gaussian budgets in play, through a
  rolled-back hour and a ``recover()``.
* **Parity.**  The default drive matches the forced-poll drive
  (``per_request_oracle.forced_poll_drive``, where the pass decides
  nothing and the verdict always answers False) byte for byte -- state
  digests, ``charge.wal`` bytes, attempt records, released bundles --
  through a rolled-back hour and a ``recover()``, under every built-in
  filter.
"""

import functools
from contextlib import contextmanager, nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from per_request_oracle import (
    arrival_schedule,
    durable_drive,
    forced_poll_drive,
    stage_keys,
)

from repro.core import faults
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
from repro.dp.rdp import gaussian_mechanism_budget
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
                    stage_keys(access, [key], PrivacyBudget(eps, 0.0))
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
        # The forced side polls every session-hour: the hour pass is off.
        assert polled["seen"]["verdicts"] == polled["seen"]["sessions"]
        assert skipped["released"], "no pipeline was released: nothing compared"
        for field in ("digest", "wal", "attempts", "released"):
            assert skipped[field] == polled[field], f"{field} diverged"
        # The skip happened: fewer window searches, same trajectory.
        assert skipped["peeks"] < polled["peeks"]


# ----------------------------------------------------------------------
# The hour pass: every verdict it supplies is the session's own verdict
# ----------------------------------------------------------------------
INJECTED_BUDGETS = st.one_of(
    st.builds(
        PrivacyBudget,
        st.floats(min_value=0.001, max_value=0.7),
        st.sampled_from([0.0, 1e-9]),
    ),
    st.sampled_from(
        [
            gaussian_mechanism_budget(q, sigma, steps, 1e-9)
            for q, sigma, steps in ((0.002, 4.0, 10), (0.01, 2.0, 100))
        ]
    ),
)


@contextmanager
def checked_pass(injections=(), fail_turn=None):
    """Check the hour pass against the sessions' own ``provably_blocked()``.

    No state moves between two visited turns, so every session the drive
    skipped since the last visited turn must still be proven blocked at
    the start of the next one (or when the hour's drive returns): a proof
    the pass made stands across the stages since.  ``injections`` lists
    ``(turn, blocks, budget)``: at the start of the drive's ``turn``-th
    visited turn (counted across hours), after the checks, ``budget`` is
    staged on the newest ``blocks`` blocks, so a stage lands between the
    pass and the turns after it; a refused one stages nothing.  At turn ``fail_turn``
    the drive raises ``InjectedFault`` once, after the checks, so that
    hour rolls back mid-drive (``durable_drive`` runs it again).  Yields
    live counts.
    """
    seen = {"turns": 0, "skipped": 0, "passes": 0, "refused": 0, "failed": 0}
    plan = {}
    for turn, blocks, budget in injections:
        plan.setdefault(turn, []).append((blocks, budget))
    drive_hour, drive_session = Sage._drive_hour, Sage._drive_session
    decide = Sage._decide_parked
    hour = {"order": [], "position": {}, "next": 0}

    def check_skipped(upto):
        for entry in hour["order"][hour["next"] : upto]:
            seen["skipped"] += 1
            assert entry.session.provably_blocked(), (
                f"{entry.name} was skipped but is not proven blocked"
            )
        hour["next"] = upto

    def checked_hour(self):
        hour["order"] = list(self._waiting.values())
        hour["position"] = {e.table_row: i for i, e in enumerate(hour["order"])}
        hour["next"] = 0
        released = drive_hour(self)
        check_skipped(len(hour["order"]))
        return released

    def checked_session(self, entry):
        turn = seen["turns"]
        seen["turns"] += 1
        check_skipped(hour["position"][entry.table_row])
        hour["next"] += 1
        for blocks, budget in plan.get(turn, ()):
            keys = self.access.accountant.block_keys[-blocks:]
            try:
                stage_keys(self.access, keys, budget, label="injected")
            except REFUSALS:
                seen["refused"] += 1
        if turn == fail_turn:
            seen["failed"] += 1
            raise faults.InjectedFault("checked_pass")
        return drive_session(self, entry)

    def counted_pass(self, entries):
        seen["passes"] += 1
        return decide(self, entries)

    with mock.patch.object(
        Sage, "_drive_hour", checked_hour
    ), mock.patch.object(
        Sage, "_drive_session", checked_session
    ), mock.patch.object(
        Sage, "_decide_parked", counted_pass
    ):
        yield seen


class TestHourPassIsTheVerdict:
    @pytest.mark.parametrize("filter_name", ["basic", "strong", "renyi-pruned"])
    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_every_proof_stands_until_the_sessions_turn(
        self, tmp_path_factory, filter_name, data
    ):
        hours = data.draw(st.integers(min_value=12, max_value=30), label="hours")
        rate = data.draw(st.sampled_from(sorted(ARRIVAL_RATES.values())), label="rate")
        start = 1.0 / 16.0
        config = AdaptiveConfig(
            epsilon_start=start,
            epsilon_cap=1.0,
            epsilon_floor=data.draw(st.sampled_from([None, start / 4])),
            min_window_blocks=data.draw(st.sampled_from([1, 2])),
            # Few attempts end sessions in TIMEOUT: more mid-hour releases.
            max_attempts=data.draw(st.sampled_from([6, 64]), label="attempts"),
        )
        injections = data.draw(
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=300),
                    st.integers(min_value=1, max_value=8),
                    INJECTED_BUDGETS,
                ),
                max_size=12,
            ),
            label="injected stages",
        )
        fail_turn = data.draw(st.integers(0, 60), label="failing turn")
        seen = durable_drive(
            tmp_path_factory.mktemp("pass"),
            FILTERS[filter_name],
            arrival_schedule(hours, rate, seed=data.draw(st.integers(0, 9))),
            config,
            rollback_hour=None,
            recover_hour=data.draw(st.integers(1, hours - 1), label="recover"),
            reference=functools.partial(checked_pass, injections, fail_turn),
        )["seen"]
        assert seen["turns"], "no session was driven"

    def test_pass_skips_most_sessions_on_a_backlog(self, tmp_path):
        """Not vacuous: on a backlog the drive skips most session-hours,
        stages land mid-hour (one more stage on the same blocks is
        refused), an hour rolls back, and releases run the pass again."""
        injections = [
            (turn, 4, budget)
            for turn in range(10, 100, 10)
            for budget in (PrivacyBudget(0.4, 0.0), PrivacyBudget(0.7, 0.0))
        ]
        seen = durable_drive(
            tmp_path,
            None,
            arrival_schedule(HOURS, ARRIVAL_RATES["backlog"], seed=7),
            CONFIG,
            rollback_hour=None,
            recover_hour=RECOVER_HOUR,
            reference=functools.partial(checked_pass, injections, fail_turn=50),
        )["seen"]
        assert seen["skipped"] > seen["turns"]
        assert seen["passes"] > HOURS
        assert seen["refused"] and seen["failed"]


class TestPassInvalidation:
    """How long a proof stands: stages only add spend, so a session the
    pass proved blocked stays blocked for the hour, and only a release
    runs the pass again over the sessions not yet driven."""

    def test_a_proof_stands_across_stages(self):
        """Stages landing after the pass, on a row the parked session
        holds and on one it does not hold, leave it unvisited and still
        proven blocked at its turn."""
        sage = Sage(CountStreamSource(1000, scale=1000), seed=0)
        sage.advance(6.0)  # nobody waits: the blocks' budget is free
        entry = sage.submit(
            OraclePipeline(name="parked", n_at_eps1=1e12),
            AdaptiveConfig(min_window_blocks=64),
        )
        sage.advance(1.0)
        assert entry.status == SessionStatus.NEED_DATA
        # Take block 0 from the row; the next hour's opening gives nothing
        # back (the free pool is empty and no one else waits).
        table = sage.reservation_table.matrix
        table[entry.table_row, 0] = 0.0
        session, decide = entry.session, Sage._decide_parked
        floor = PrivacyBudget(
            min(session.epsilon, session.epsilon_floor), session.delta
        )
        moved = []

        def staging_pass(sage, entries):
            hour_pass = decide(sage, entries)
            assert hour_pass.blocked == {entry.table_row}
            keys = sage.access.accountant.block_keys
            # Block 0 is not held, block 1 is; each stage moves its row
            # out of the floor's admitted set.
            assert table[entry.table_row, 0] == 0.0 < table[entry.table_row, 1]
            for col in (0, 1):
                before = sage.access.admit_rows(floor)
                stage_keys(sage.access, [keys[col]], PrivacyBudget(0.999, 0.0))
                after = sage.access.admit_rows(floor)
                moved.append(col in before and col not in after)
            assert session.provably_blocked()
            return hour_pass

        with checked_pass() as seen, mock.patch.object(
            Sage, "_decide_parked", staging_pass
        ):
            sage.advance(1.0)
        assert moved == [True, True]
        assert seen["turns"] == 0 and seen["skipped"] == 1
        assert sage.metrics.counter_value("sage_sessions_parked_total") == 1
        assert entry.status == SessionStatus.NEED_DATA

    def test_a_release_reruns_the_pass(self):
        """A session that finishes ahead of a parked one hands it its
        holding: the pass proved the parked session blocked, the release
        runs the pass again over it, and the new pass does not prove it
        blocked, so it is visited, asks its own verdict and proposes."""
        sage = Sage(CountStreamSource(1000, scale=1000), seed=0)
        sage.advance(2.0)
        config = AdaptiveConfig(min_window_blocks=4, max_attempts=8)
        first = sage.submit(OraclePipeline(name="first", n_at_eps1=1e12), config)
        parked = sage.submit(OraclePipeline(name="parked", n_at_eps1=1e12), config)
        sage.advance(1.0)
        assert first.status == parked.status == SessionStatus.NEED_DATA
        # The first session holds what the parked one lacks, and times out
        # at its next turn, releasing it.
        table = sage.reservation_table.matrix
        table[first.table_row], table[parked.table_row] = 0.5, 0.0
        first.session.attempts.extend(
            AttemptRecord(i + 1, (), ZERO_BUDGET, Outcome.RETRY, 0)
            for i in range(config.max_attempts - len(first.session.attempts))
        )
        passes, decide = [], Sage._decide_parked

        def spy_pass(sage, entries):
            hour_pass = decide(sage, entries)
            passes.append({sage.pipelines[row].name for row in hour_pass.blocked})
            return hour_pass

        with checked_pass() as seen, mock.patch.object(
            Sage, "_decide_parked", spy_pass
        ):
            sage.advance(1.0)
        # The first session has no attempt left, so only the second is in
        # the hour's pass; the release re-decides it before its turn, so
        # no session is skipped.
        assert passes == [{"parked"}, set()]
        assert first.status == SessionStatus.TIMEOUT
        assert seen["turns"] == 2 and seen["skipped"] == 0
        assert parked.session.attempts
