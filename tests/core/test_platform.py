"""The Sage platform end-to-end (small scale)."""

import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from per_request_oracle import block_histories

from repro.core import durability, faults
from repro.core.adaptive import AdaptiveConfig, SessionStatus
from repro.core.pipeline import PipelineRun, StatisticPipeline
from repro.core.platform import Sage
from repro.core.validation.outcomes import Outcome, ValidationResult
from repro.data.taxi import TaxiGenerator
from repro.dp.budget import PrivacyBudget
from repro.errors import PipelineError
from repro.workload.oracle import CountStreamSource, OraclePipeline


class ThresholdPipeline:
    def __init__(self, name, threshold):
        self.name = name
        self.threshold = threshold

    def run(self, batch, budget, rng, correct_for_dp=True):
        outcome = (
            Outcome.ACCEPT if len(batch) * budget.epsilon >= self.threshold else Outcome.RETRY
        )
        return PipelineRun(
            name=self.name, outcome=outcome,
            validation=ValidationResult(outcome, PrivacyBudget(budget.epsilon, 0.0)),
            budget_charged=budget,
        )


@pytest.fixture
def sage():
    return Sage(TaxiGenerator(points_per_hour=1000), 1.0, 1e-6, block_hours=1.0, seed=0)


class TestLifecycle:
    def test_single_pipeline_releases(self, sage):
        entry = sage.submit(ThresholdPipeline("p", 900.0))
        released = sage.run_until_quiet(max_hours=30)
        assert entry.status == SessionStatus.ACCEPTED
        assert len(released) == 1
        assert sage.store.latest("p") is released[0]
        assert entry.release_time_hours is not None

    def test_release_time_ordering(self, sage):
        easy = sage.submit(ThresholdPipeline("easy", 200.0))
        hard = sage.submit(ThresholdPipeline("hard", 4000.0))
        sage.run_until_quiet(max_hours=60)
        assert easy.release_time_hours <= hard.release_time_hours

    def test_stream_bound_enforced_forever(self, sage):
        """The paper's headline invariant: whatever pipelines do, the
        per-stream guarantee stays within (eps_g, delta_g)."""
        for i in range(4):
            sage.submit(ThresholdPipeline(f"p{i}", 500.0 * (i + 1)))
        sage.run_until_quiet(max_hours=50)
        bound = sage.access.stream_loss_bound()
        assert bound.epsilon <= 1.0 + 1e-9
        assert bound.delta <= 1e-6 + 1e-15

    def test_allocation_split_between_waiting(self, sage):
        a = sage.submit(ThresholdPipeline("a", 1e12))
        b = sage.submit(ThresholdPipeline("b", 1e12))
        sage.advance(1.0)
        # The new block's budget was divided between the two waiting pipelines.
        key = sage.database.keys[0]
        total = a.reservations.get(key, 0.0) + b.reservations.get(key, 0.0)
        spent = sum(bud.epsilon for bud in block_histories(sage.access.accountant)[key])
        assert total + spent <= 1.0 + 1e-9

    def test_finished_pipeline_redistributes(self, sage):
        quick = sage.submit(ThresholdPipeline("quick", 100.0))
        slow = sage.submit(ThresholdPipeline("slow", 1e12))
        sage.advance(1.0)
        assert quick.status == SessionStatus.ACCEPTED
        sage.advance(1.0)
        # The slow pipeline now holds more than a naive half share somewhere.
        assert sum(slow.reservations.values()) > 0.5

    def test_free_pool_granted_to_late_arrivals(self, sage):
        sage.advance(3.0)  # blocks arrive with nobody waiting
        late = sage.submit(ThresholdPipeline("late", 900.0))
        sage.advance(1.0)
        assert late.status == SessionStatus.ACCEPTED

    def test_pipeline_named(self, sage):
        sage.submit(ThresholdPipeline("x", 100.0))
        assert sage.pipeline_named("x").name == "x"
        with pytest.raises(PipelineError):
            sage.pipeline_named("ghost")

    def test_statistic_pipeline_on_platform(self):
        sage = Sage(TaxiGenerator(points_per_hour=4000), 1.0, 1e-6, seed=2)
        pipeline = StatisticPipeline(
            "speed-by-dow", key_column="day_of_week", value_column="speed_kmh",
            nkeys=7, value_range=60.0, target=10.0,
        )
        entry = sage.submit(pipeline, AdaptiveConfig(delta=0.0))
        sage.run_until_quiet(max_hours=60)
        assert entry.status == SessionStatus.ACCEPTED
        bundle = sage.store.latest("speed-by-dow")
        assert bundle is not None
        assert bundle.model.shape == (7,)

    def test_clock_advances(self, sage):
        assert sage.clock_hours == 0.0
        sage.advance(2.0)
        assert sage.clock_hours == 2.0


# ----------------------------------------------------------------------
# The waiting index: every hour's walks visit the waiting entries only
# ----------------------------------------------------------------------
INDEX_CONFIG = AdaptiveConfig(max_attempts=6)
# Pipelines that finish in their first hours, later, or time out.
INDEX_TARGETS = [500.0, 2_000.0, 6_000.0, 25_000.0, 1e12]


def check_index_and_digest(sage):
    """The waiting index equals the full scan, in submission order, and
    the memoized digest equals the digest folded from an empty memo."""
    assert [entry.table_row for entry in sage.pipelines] == list(
        range(len(sage.pipelines))
    )
    scan = [entry for entry in sage.pipelines if entry.waiting]
    assert list(sage._waiting) == [entry.table_row for entry in scan]
    assert all(sage._waiting[entry.table_row] is entry for entry in scan)
    digest = durability.state_digest(sage)
    memo, sage._digest_memo = sage._digest_memo, {}
    try:
        assert durability.state_digest(sage) == digest
    finally:
        sage._digest_memo = memo
    return digest


def fail_after_a_termination(sage):
    """Advance one hour armed to fail at the first ``settle.mid_session``
    trip after the one where some session turned terminal, so the index
    has already dropped that session.  Returns whether the hour failed;
    a failed hour must leave the pre-hour index and digest."""
    before = check_index_and_digest(sage)
    terminal = sum(entry.session.is_terminal for entry in sage.pipelines)
    seen = []

    def fail(point):
        if seen:
            raise faults.InjectedFault(point)
        if sum(entry.session.is_terminal for entry in sage.pipelines) > terminal:
            seen.append(point)

    faults.arm("settle.mid_session", fail)
    try:
        sage.advance(1.0)
    except faults.InjectedFault:
        assert check_index_and_digest(sage) == before
        return True
    finally:
        faults.disarm("settle.mid_session")
    return False


def index_platform(wal_dir=None):
    return Sage(CountStreamSource(4000, scale=1000), seed=5, wal_dir=wal_dir)


def drive_checked(sage, hours, arrivals, failing=()):
    """Submit ``arrivals`` (``(hour, target)`` pairs) and advance
    ``hours`` hours, first trying ``fail_after_a_termination`` in the
    ``failing`` hours; checks the index and digest after every hour and
    returns how many hours failed."""
    failed = 0
    for hour in range(hours):
        for i, (at, target) in enumerate(arrivals):
            if at == hour:
                sage.submit(OraclePipeline(name=f"p{i}", n_at_eps1=target), INDEX_CONFIG)
        if hour in failing:
            failed += fail_after_a_termination(sage)
        sage.advance(1.0)
        check_index_and_digest(sage)
    return failed


@st.composite
def index_episodes(draw):
    hours = draw(st.integers(2, 8))
    arrivals = draw(
        st.lists(
            st.tuples(st.integers(0, hours - 1), st.sampled_from(INDEX_TARGETS)),
            min_size=1,
            max_size=6,
        )
    )
    failing = draw(st.sets(st.integers(0, hours - 1)))
    return hours, arrivals, failing


class TestWaitingIndex:
    @given(episode=index_episodes(), durable=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_index_matches_scan_after_every_hour(self, episode, durable):
        hours, arrivals, failing = episode
        with tempfile.TemporaryDirectory() as wal_dir:
            sage = index_platform(wal_dir if durable else None)
            drive_checked(sage, hours, arrivals, failing)
            sage.close()

    @pytest.mark.parametrize("durable", [False, True], ids=["volatile", "durable"])
    def test_hour_failing_after_a_termination_restores_the_index(
        self, durable, tmp_path
    ):
        sage = index_platform(tmp_path if durable else None)
        # p0 is accepted in the first hour, before p1 and p2 are driven.
        arrivals = [(0, 500.0), (0, 1e12), (0, 1e12)]
        assert drive_checked(sage, 3, arrivals, failing={0}) == 1
        assert sage.pipelines[0].status == SessionStatus.ACCEPTED
        assert list(sage._waiting) == [1, 2]
        sage.close()

    def test_run_until_quiet_stops_when_the_index_empties(self):
        sage = index_platform()
        for i, target in enumerate((2_000.0, 6_000.0)):
            sage.submit(OraclePipeline(name=f"p{i}", n_at_eps1=target), INDEX_CONFIG)
        sage.run_until_quiet(max_hours=50)
        assert not sage._waiting
        assert all(entry.session.is_terminal for entry in sage.pipelines)
        assert sage.hours_committed < 50
