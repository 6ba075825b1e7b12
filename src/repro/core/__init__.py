"""Sage core: block composition accounting, SLAed validation,
privacy-adaptive training, and the platform itself."""

from repro.core.access_control import SageAccessControl
from repro.core.accountant import BlockAccountant, ChargeRecord, LedgerStore
from repro.core.adaptive import (
    AdaptiveConfig,
    AdaptiveSession,
    AttemptRecord,
    ChargeDecision,
    ChargeProposal,
    PrivacyAdaptiveTrainer,
    SessionStatus,
)
from repro.core.filters import (
    BasicCompositionFilter,
    PrivacyFilter,
    RenyiCompositionFilter,
    StrongCompositionFilter,
)
from repro.core.model_store import ModelFeatureStore, ReleasedBundle
from repro.core.odometer import StrongOdometer, loss_dashboard
from repro.core.serving import ContinuousEvaluator, EvaluationTick, PredictionServer
from repro.core.pipeline import (
    HistogramPipeline,
    PipelineRun,
    StatisticPipeline,
    TrainingPipeline,
)
from repro.core.platform import ReservationTable, Sage, SubmittedPipeline
from repro.core.sharding import sharded_accountant_factory
from repro.core.validation import (
    DPAccuracyValidator,
    DPLossValidator,
    DPStatisticValidator,
    Outcome,
    ValidationResult,
)

__all__ = [
    "BlockAccountant",
    "ChargeRecord",
    "LedgerStore",
    "SageAccessControl",
    "PrivacyFilter",
    "BasicCompositionFilter",
    "StrongCompositionFilter",
    "RenyiCompositionFilter",
    "Outcome",
    "ValidationResult",
    "DPLossValidator",
    "DPAccuracyValidator",
    "DPStatisticValidator",
    "TrainingPipeline",
    "StatisticPipeline",
    "HistogramPipeline",
    "PipelineRun",
    "AdaptiveConfig",
    "AdaptiveSession",
    "AttemptRecord",
    "ChargeDecision",
    "ChargeProposal",
    "PrivacyAdaptiveTrainer",
    "SessionStatus",
    "ModelFeatureStore",
    "ReleasedBundle",
    "StrongOdometer",
    "loss_dashboard",
    "PredictionServer",
    "ContinuousEvaluator",
    "EvaluationTick",
    "Sage",
    "SubmittedPipeline",
    "ReservationTable",
    "sharded_accountant_factory",
]
