"""SLAed validation: statistically rigorous, DP model acceptance (§3.3)."""

from repro.core.validation.accuracy import DPAccuracyValidator
from repro.core.validation.bounds import (
    bernstein_upper_bound,
    binomial_lower_bound,
    binomial_upper_bound,
    hoeffding_deviation,
)
from repro.core.validation.loss import DPLossValidator
from repro.core.validation.outcomes import Outcome, ValidationResult
from repro.core.validation.statistics import DPStatisticValidator

__all__ = [
    "Outcome",
    "ValidationResult",
    "DPLossValidator",
    "DPAccuracyValidator",
    "DPStatisticValidator",
    "bernstein_upper_bound",
    "hoeffding_deviation",
    "binomial_upper_bound",
    "binomial_lower_bound",
]
