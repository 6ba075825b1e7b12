"""The Sage platform end-to-end (small scale)."""

import numpy as np
import pytest
from per_request_oracle import block_histories

from repro.core.adaptive import AdaptiveConfig, SessionStatus
from repro.core.pipeline import PipelineRun, StatisticPipeline
from repro.core.platform import Sage
from repro.core.validation.outcomes import Outcome, ValidationResult
from repro.data.taxi import TaxiGenerator
from repro.dp.budget import PrivacyBudget
from repro.errors import PipelineError


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
