"""End-to-end integration: the whole platform with real DP pipelines."""

import numpy as np
import pytest

from repro.core import (
    AdaptiveConfig,
    DPLossValidator,
    Sage,
    SessionStatus,
    StatisticPipeline,
    TrainingPipeline,
)
from repro.core.access_control import SageAccessControl
from repro.core.accountant import BlockAccountant
from repro.data import TaxiGenerator, UserPartitioner
from repro.dp.budget import PrivacyBudget
from repro.errors import AccessDeniedError
from repro.experiments.configs import TAXI_LR, TAXI_X_BOUND
from repro.ml import AdaSSPRegressor, mse


@pytest.mark.slow
class TestTaxiEndToEnd:
    def test_lr_pipeline_releases_and_generalizes(self):
        """A DP LR pipeline on the taxi stream: trains adaptively, releases,
        and the released model honours its target on fresh data."""
        source = TaxiGenerator(points_per_hour=8_000)
        sage = Sage(source, epsilon_global=1.0, delta_global=1e-6, seed=1)
        target = 0.006
        pipeline = TrainingPipeline(
            "taxi-lr",
            trainer_fn=TAXI_LR.trainer_fn(),
            validator=DPLossValidator(target, 1.0, confidence=0.95),
            metric="mse",
        )
        entry = sage.submit(pipeline, AdaptiveConfig())
        sage.run_until_quiet(max_hours=120)
        assert entry.status == SessionStatus.ACCEPTED

        heldout = source.generate(30_000, np.random.default_rng(999))
        released_mse = mse(heldout.y, entry.bundle.model.predict(heldout.X))
        assert released_mse <= target * 1.1  # generalizes (eta-level slack)
        # And the stream guarantee held throughout.
        bound = sage.access.stream_loss_bound()
        assert bound.epsilon <= 1.0 + 1e-9

    def test_mixed_workload_shares_blocks(self):
        source = TaxiGenerator(points_per_hour=8_000)
        sage = Sage(source, 1.0, 1e-6, seed=3)
        stat = StatisticPipeline(
            "speed", "hour_of_day", "speed_kmh", 24, 60.0, target=10.0
        )
        lr = TrainingPipeline(
            "lr", TAXI_LR.trainer_fn(), DPLossValidator(0.0060, 1.0), metric="mse"
        )
        sage.submit(stat, AdaptiveConfig(delta=0.0))
        sage.submit(lr, AdaptiveConfig())
        sage.run_until_quiet(max_hours=150)
        statuses = {p.name: p.status for p in sage.pipelines}
        assert statuses["speed"] == SessionStatus.ACCEPTED
        assert statuses["lr"] == SessionStatus.ACCEPTED
        # Both pipelines drew from overlapping blocks (R1 of §3.2).
        speed_blocks = set(sage.pipeline_named("speed").bundle.block_keys)
        lr_blocks = set(sage.pipeline_named("lr").bundle.block_keys)
        assert speed_blocks or lr_blocks


class TestUserLevelPrivacy:
    def test_user_blocks_accounting(self):
        """§4.4: blocks split by user id, budgets tracked per user bucket."""
        gen = TaxiGenerator(points_per_hour=2_000)
        batch = gen.generate(4_000, np.random.default_rng(0))
        blocks = UserPartitioner(num_buckets=8).partition(batch)
        accountant = BlockAccountant(1.0, 1e-6)
        accountant.register_blocks([b.key for b in blocks])

        # A query over three user buckets charges exactly those buckets.
        keys = [blocks[i].key for i in range(3)]
        accountant.charge(keys, PrivacyBudget(0.4, 0.0))
        for block in blocks:
            expected = 0.4 if block.key in keys else 1.0
            rows = accountant.rows_for_keys([block.key])
            headroom = accountant.max_epsilon(rows, 0.0)
            assert headroom == pytest.approx(1.0 - (0.4 if block.key in keys else 0.0))

    def test_adassp_on_user_partitioned_data(self):
        gen = TaxiGenerator(points_per_hour=2_000)
        rng = np.random.default_rng(1)
        batch = gen.generate(20_000, rng)
        blocks = UserPartitioner(num_buckets=4).partition(batch)
        from repro.data.stream import StreamBatch

        train = StreamBatch.concatenate([b.batch for b in blocks[:3]])
        model = AdaSSPRegressor(
            PrivacyBudget(1.0, 1e-6), x_bound=TAXI_X_BOUND, y_bound=1.0
        ).fit(train.X, train.y, rng)
        test = blocks[3].batch
        assert mse(test.y, model.predict(test.X)) < 0.0069  # beats naive


class TestStrongCompositionDeployment:
    def test_platform_with_strong_filters(self):
        """A Sage deployment using Theorem A.2 accounting end to end."""
        from repro.core import StrongCompositionFilter
        from repro.core.pipeline import StatisticPipeline

        source = TaxiGenerator(points_per_hour=4_000)
        sage = Sage(
            source, 1.0, 1e-6, seed=4, filter_factory=StrongCompositionFilter
        )
        pipeline = StatisticPipeline(
            "speed", "hour_of_day", "speed_kmh", 24, 60.0, target=10.0
        )
        entry = sage.submit(pipeline, AdaptiveConfig(delta=0.0))
        sage.run_until_quiet(max_hours=80)
        assert entry.status == SessionStatus.ACCEPTED
        bound = sage.access.stream_loss_bound()
        assert bound.epsilon <= 1.0 + 1e-9


class TestServingLoop:
    def test_release_serve_evaluate(self):
        """Full lifecycle: train -> release -> serve -> continuous eval."""
        from repro.core import ContinuousEvaluator, PredictionServer

        source = TaxiGenerator(points_per_hour=8_000)
        sage = Sage(source, 1.0, 1e-6, seed=6)
        pipeline = TrainingPipeline(
            "lr",
            TAXI_LR.trainer_fn(),
            DPLossValidator(0.006, loss_bound=0.1),
            metric="mse",
        )
        entry = sage.submit(pipeline, AdaptiveConfig())
        sage.run_until_quiet(max_hours=60)
        assert entry.status == SessionStatus.ACCEPTED

        server = PredictionServer(entry.bundle, region="us-east")
        evaluator = ContinuousEvaluator(server, target=0.006, loss_bound=0.1)
        rng = np.random.default_rng(0)
        for hour in range(3):
            fresh = source.generate(5_000, rng)
            evaluator.tick(fresh.X, fresh.y, epsilon=0.5, clock_hours=float(hour), rng=rng)
        # Fresh same-distribution traffic: healthy model, no regression.
        assert not evaluator.regression_flagged
        assert server.requests_served == 15_000


class TestStreamPolicy:
    def test_developers_share_the_stream_ceiling(self):
        """§3.2's block composition: every authorized developer draws on
        the one stream-wide (eps_g, delta_g) guarantee."""
        access = SageAccessControl(
            2.0, 1e-6, authorized_principals=["dev-a", "dev-b"]
        )
        access.register_blocks(range(3))
        access.request([0], PrivacyBudget(0.9, 0.0), principal="dev-a")
        rows = access.accountant.rows_for_keys([0])
        # dev-a's charge is dev-b's loss: one ledger per stream.
        assert access.max_epsilon(rows, 0.0) == pytest.approx(1.1)
        access.request([0], PrivacyBudget(1.1, 0.0), principal="dev-b")
        assert access.offer_blocks(principal="dev-a") == [1, 2]
        with pytest.raises(AccessDeniedError):
            access.offer_blocks(principal="ads-team")
