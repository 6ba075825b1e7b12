"""Privacy-adaptive training: escalation, conservation, terminal states."""

import numpy as np
import pytest
from per_request_oracle import block_histories

from repro.core.access_control import SageAccessControl
from repro.core.adaptive import (
    AdaptiveConfig,
    AdaptiveSession,
    ChargeDecision,
    PrivacyAdaptiveTrainer,
    SessionStatus,
)
from repro.core.pipeline import PipelineRun
from repro.core.validation.outcomes import Outcome, ValidationResult
from repro.data.database import GrowingDatabase, StreamIngestor
from repro.data.stream import TimePartitioner
from repro.data.taxi import TaxiGenerator
from repro.dp.budget import PrivacyBudget
from repro.errors import PipelineError


class ThresholdPipeline:
    """Accepts when n * epsilon crosses a threshold (a pure test double)."""

    def __init__(self, name="oracle", threshold=4000.0):
        self.name = name
        self.threshold = threshold
        self.calls = []

    def run(self, batch, budget, rng, correct_for_dp=True):
        self.calls.append((len(batch), budget))
        score = len(batch) * budget.epsilon
        outcome = Outcome.ACCEPT if score >= self.threshold else Outcome.RETRY
        return PipelineRun(
            name=self.name,
            outcome=outcome,
            validation=ValidationResult(outcome, PrivacyBudget(budget.epsilon, 0.0)),
            budget_charged=budget,
        )


def build_world(hours=20, points_per_hour=1000, epsilon_global=1.0):
    db = GrowingDatabase()
    ingestor = StreamIngestor(
        TaxiGenerator(points_per_hour=points_per_hour), db,
        TimePartitioner(1.0), rng=np.random.default_rng(0),
    )
    access = SageAccessControl(epsilon_global, 1e-6)
    for block in ingestor.advance(hours):
        access.register_block(block.key)
    return db, access


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epsilon_start": 0.0},
            {"epsilon_start": 2.0, "epsilon_cap": 1.0},
            {"delta": 1.5},
            {"min_window_blocks": 0},
            {"max_attempts": 0},
            {"strategy": "yolo"},
            {"epsilon_floor": 0.5, "epsilon_start": 0.25},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(PipelineError):
            AdaptiveConfig(**kwargs)

    def test_delta_defaults_to_rationed_share(self):
        db, access = build_world(hours=2)
        session = AdaptiveSession(
            ThresholdPipeline(), access, db,
            AdaptiveConfig(max_attempts=10), np.random.default_rng(0),
        )
        assert session.delta == pytest.approx(1e-6 / 10)


class TestEscalation:
    def test_accepts_after_doubling(self):
        db, access = build_world()
        pipeline = ThresholdPipeline(threshold=900.0)  # needs eps ~0.9 on 1 block
        session = AdaptiveSession(
            pipeline, access, db, AdaptiveConfig(), np.random.default_rng(0)
        )
        status = session.step()
        assert status == SessionStatus.ACCEPTED
        # epsilon escalated by doubling from 1/16
        epsilons = [b.epsilon for _, b in pipeline.calls]
        assert epsilons == sorted(epsilons)
        assert epsilons[0] == pytest.approx(1.0 / 16.0)

    def test_budget_doubles_before_window(self):
        db, access = build_world()
        pipeline = ThresholdPipeline(threshold=1e12)  # never accepts
        session = AdaptiveSession(
            pipeline, access, db,
            AdaptiveConfig(max_attempts=6), np.random.default_rng(0),
        )
        session.step()
        epsilons = [b.epsilon for _, b in pipeline.calls]
        # First escalations double epsilon toward the cap.
        assert epsilons[:5] == [1 / 16, 1 / 8, 1 / 4, 1 / 2, 1.0]

    def test_window_grows_after_budget_cap(self):
        db, access = build_world()
        pipeline = ThresholdPipeline(threshold=1e12)
        session = AdaptiveSession(
            pipeline, access, db,
            AdaptiveConfig(max_attempts=8), np.random.default_rng(0),
        )
        session.step()
        sizes = [n for n, _ in pipeline.calls]
        assert sizes[-1] > sizes[0]

    def test_per_block_spend_never_exceeds_global(self):
        db, access = build_world()
        pipeline = ThresholdPipeline(threshold=1e12)
        session = AdaptiveSession(
            pipeline, access, db,
            AdaptiveConfig(max_attempts=30), np.random.default_rng(0),
        )
        session.step()
        for history in block_histories(access.accountant).values():
            spent = sum(b.epsilon for b in history)
            assert spent <= 1.0 + 1e-9

    def test_conservation_bound_per_block(self):
        """Doubling guarantee: any single block's failed-attempt spend is at
        most ~2x the final accepted budget on it (so <= 4x optimal)."""
        db, access = build_world()
        pipeline = ThresholdPipeline(threshold=950.0)
        session = AdaptiveSession(
            pipeline, access, db, AdaptiveConfig(), np.random.default_rng(0)
        )
        status = session.step()
        assert status == SessionStatus.ACCEPTED
        final_eps = session.attempts[-1].budget.epsilon
        for history in block_histories(access.accountant).values():
            spent = sum(b.epsilon for b in history)
            assert spent <= 2.0 * final_eps + 1e-9

    def test_timeout(self):
        db, access = build_world()
        session = AdaptiveSession(
            ThresholdPipeline(threshold=1e12), access, db,
            AdaptiveConfig(max_attempts=3), np.random.default_rng(0),
        )
        status = session.step()
        assert status == SessionStatus.TIMEOUT

    def test_need_data_when_database_empty(self):
        db = GrowingDatabase()
        access = SageAccessControl(1.0, 1e-6)
        session = AdaptiveSession(
            ThresholdPipeline(), access, db, AdaptiveConfig(), np.random.default_rng(0)
        )
        status = session.step()
        assert status == SessionStatus.NEED_DATA

    def test_resume_after_new_data(self):
        db = GrowingDatabase()
        ingestor = StreamIngestor(
            TaxiGenerator(points_per_hour=1000), db,
            TimePartitioner(1.0), rng=np.random.default_rng(0),
        )
        access = SageAccessControl(1.0, 1e-6)
        pipeline = ThresholdPipeline(threshold=900.0)
        session = AdaptiveSession(
            pipeline, access, db, AdaptiveConfig(), np.random.default_rng(0)
        )
        status = session.step()
        assert status == SessionStatus.NEED_DATA
        for block in ingestor.advance(3.0):
            access.register_block(block.key)
        resumed = session.resume()
        assert resumed == SessionStatus.ACCEPTED

    def test_aggressive_spends_everything_available(self):
        db, access = build_world()
        pipeline = ThresholdPipeline(threshold=900.0)
        session = AdaptiveSession(
            pipeline, access, db,
            AdaptiveConfig(strategy="aggressive"), np.random.default_rng(0),
        )
        status = session.step()
        assert status == SessionStatus.ACCEPTED
        # First attempt already used the full block budget.
        assert pipeline.calls[0][1].epsilon == pytest.approx(1.0, rel=1e-6)

    def test_allocation_hook_respected(self):
        db, access = build_world()
        pipeline = ThresholdPipeline(threshold=1e12)
        session = AdaptiveSession(
            pipeline, access, db,
            AdaptiveConfig(max_attempts=6), np.random.default_rng(0),
            row_budget_fn=lambda rows: np.full(rows.shape, 0.25),
        )
        session.step()
        assert pipeline.calls
        assert max(b.epsilon for _, b in pipeline.calls) <= 0.25 + 1e-12


class TestProtocol:
    """The two-phase propose/complete contract."""

    def test_propose_touches_no_accountant_state(self):
        db, access = build_world()
        session = AdaptiveSession(
            ThresholdPipeline(), access, db, AdaptiveConfig(), np.random.default_rng(0)
        )
        before = access.accountant.store.totals.tobytes()
        proposal = session.propose()
        assert proposal is not None
        assert access.accountant.store.totals.tobytes() == before
        assert access.accountant.charges == []
        assert session.attempts == []
        assert session.total_spent.epsilon == 0.0

    def test_propose_complete_matches_step(self):
        """Driving the protocol by hand reproduces step() float-for-float."""
        trajectories = []
        for mode in ("step", "manual"):
            db, access = build_world()
            pipeline = ThresholdPipeline(threshold=900.0)
            session = AdaptiveSession(
                pipeline, access, db, AdaptiveConfig(), np.random.default_rng(0)
            )
            if mode == "step":
                session.step()
            else:
                while session.status == SessionStatus.RUNNING:
                    proposal = session.propose()
                    if proposal is None:
                        break
                    access.request(
                        list(proposal.window), proposal.budget, label=proposal.label
                    )
                    session.complete(ChargeDecision(proposal=proposal, granted=True))
            trajectories.append(
                (
                    session.status,
                    [(n, b.epsilon, b.delta) for n, b in pipeline.calls],
                    [(a.attempt, a.window, a.outcome) for a in session.attempts],
                    access.accountant.store.totals.tobytes(),
                )
            )
        assert trajectories[0] == trajectories[1]

    def test_denied_decision_blocks_without_state_change(self):
        db, access = build_world()
        session = AdaptiveSession(
            ThresholdPipeline(), access, db, AdaptiveConfig(), np.random.default_rng(0)
        )
        proposal = session.propose()
        eps, window_blocks = session.epsilon, session.window_blocks
        status = session.complete(ChargeDecision(proposal=proposal, granted=False))
        assert status == SessionStatus.NEED_DATA
        assert session.epsilon == eps
        assert session.window_blocks == window_blocks
        assert session.attempts == []
        assert session.total_spent.epsilon == 0.0
        # wake() lets the next propose try again.
        woken = session.wake()
        assert woken == SessionStatus.RUNNING
        retry = session.propose()
        assert retry is not None

    def test_denied_aggressive_attempt_leaves_state_unchanged(self):
        """Regression: the aggressive strategy's epsilon grab must not stick
        when the charge is denied (it used to mutate before the charge)."""
        db, access = build_world()
        session = AdaptiveSession(
            ThresholdPipeline(threshold=1e12), access, db,
            AdaptiveConfig(strategy="aggressive"), np.random.default_rng(0),
        )
        proposal = session.propose()
        # The aggressive proposal asks for far more than the schedule...
        assert proposal.budget.epsilon > session.epsilon
        assert proposal.epsilon_after == proposal.budget.epsilon
        # ... but a denial must leave the schedule and window untouched.
        session.complete(ChargeDecision(proposal=proposal, granted=False))
        assert session.epsilon == pytest.approx(1.0 / 16.0)
        assert session.window_blocks == 1
        assert session.attempts == []
        assert session.total_spent.epsilon == 0.0
        assert session.status == SessionStatus.NEED_DATA

    def test_granted_aggressive_attempt_commits_epsilon(self):
        db, access = build_world()
        session = AdaptiveSession(
            ThresholdPipeline(threshold=1e12), access, db,
            AdaptiveConfig(strategy="aggressive", max_attempts=1),
            np.random.default_rng(0),
        )
        proposal = session.propose()
        access.request(list(proposal.window), proposal.budget)
        session.complete(ChargeDecision(proposal=proposal, granted=True))
        assert session.epsilon == proposal.epsilon_after

    def test_stale_proposal_rejected(self):
        db, access = build_world()
        session = AdaptiveSession(
            ThresholdPipeline(threshold=1e12), access, db,
            AdaptiveConfig(), np.random.default_rng(0),
        )
        stale = session.propose()
        fresh = session.propose()
        access.request(list(fresh.window), fresh.budget)
        session.complete(ChargeDecision(proposal=fresh, granted=True))
        with pytest.raises(PipelineError):
            session.complete(ChargeDecision(proposal=stale, granted=True))

    def test_foreign_proposal_rejected(self):
        db, access = build_world()
        mine = AdaptiveSession(
            ThresholdPipeline("a"), access, db, AdaptiveConfig(), np.random.default_rng(0)
        )
        other = AdaptiveSession(
            ThresholdPipeline("b"), access, db, AdaptiveConfig(), np.random.default_rng(0)
        )
        proposal = other.propose()
        with pytest.raises(PipelineError):
            mine.complete(ChargeDecision(proposal=proposal, granted=True))

    def test_propose_timeout(self):
        db, access = build_world()
        session = AdaptiveSession(
            ThresholdPipeline(threshold=1e12), access, db,
            AdaptiveConfig(max_attempts=1), np.random.default_rng(0),
        )
        proposal = session.propose()
        access.request(list(proposal.window), proposal.budget)
        session.complete(ChargeDecision(proposal=proposal, granted=True))
        follow_up = session.propose()
        assert follow_up is None
        assert session.status == SessionStatus.TIMEOUT

    def test_propose_on_terminal_session_returns_none(self):
        db, access = build_world()
        session = AdaptiveSession(
            ThresholdPipeline(threshold=900.0), access, db,
            AdaptiveConfig(), np.random.default_rng(0),
        )
        proposal = session.propose()
        status = session.step()
        assert status == SessionStatus.ACCEPTED
        follow_up = session.propose()
        assert follow_up is None
        with pytest.raises(PipelineError):
            session.complete(ChargeDecision(proposal=proposal, granted=False))


class TestTrainerWrapper:
    def test_one_shot_accept(self):
        db, access = build_world()
        trainer = PrivacyAdaptiveTrainer(access, db)
        result = trainer.train(ThresholdPipeline(threshold=900.0), np.random.default_rng(0))
        assert result.accepted
        assert result.run is not None
        assert result.total_spent.epsilon > 0

    def test_reject_terminal(self):
        class RejectingPipeline(ThresholdPipeline):
            def run(self, batch, budget, rng, correct_for_dp=True):
                run = super().run(batch, budget, rng)
                return PipelineRun(
                    name=self.name, outcome=Outcome.REJECT,
                    validation=ValidationResult(Outcome.REJECT, budget),
                    budget_charged=budget,
                )

        db, access = build_world()
        trainer = PrivacyAdaptiveTrainer(access, db)
        result = trainer.train(RejectingPipeline(), np.random.default_rng(0))
        assert result.status == SessionStatus.REJECTED
