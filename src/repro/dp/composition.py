"""Query-level DP composition theorems.

These are the classic results Sage's block accounting builds on:

* **basic composition** [Dwork et al. 2006]: budgets add component-wise;
* **advanced ("strong") composition** [Dwork, Rothblum, Vadhan 2010,
  Thm 3.20]: k repetitions of an (eps, delta) mechanism are
  (eps', k*delta + delta_slack)-DP with eps' growing as sqrt(k);
* **heterogeneous strong composition** (paper Theorem A.1): the same bound
  for a fixed sequence of different (eps_i, delta_i);
* **Kairouz-Oh-Viswanath optimal composition** for homogeneous budgets; and
* the **Rogers et al. privacy-filter bound** (paper Theorem A.2) which makes
  strong composition valid even when each query's budget is chosen
  *adaptively* -- the regime Sage's block composition operates in.

Every function returns the composed guarantee as a
:class:`~repro.dp.budget.PrivacyBudget` (or the filter's effective epsilon),
so callers can compare accounting regimes directly.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from repro.dp.budget import PrivacyBudget, sum_budgets
from repro.errors import InvalidBudgetError

__all__ = [
    "basic_composition",
    "advanced_composition",
    "strong_composition_heterogeneous",
    "optimal_composition_homogeneous",
    "rogers_filter_epsilon",
    "rogers_filter_epsilon_from_sums",
    "rogers_filter_epsilon_from_sums_batch",
    "rogers_filter_admits",
]

# Constant from Rogers et al. (NeurIPS 2016), Theorem 5.1, as used verbatim in
# the paper's Theorem A.2.
_ROGERS_CONSTANT = 28.04

# Shared drift slack for admissibility comparisons (absolute floor plus a
# relative share of the global budget), so a budget split k ways always
# recomposes within tolerance.  repro.core.filters imports these so the
# per-block filters and rogers_filter_admits agree at the boundary.
EPS_DRIFT_ABS = 1e-12
DELTA_DRIFT_ABS = 1e-15
DRIFT_REL = 1e-12


def basic_composition(budgets: Iterable[PrivacyBudget]) -> PrivacyBudget:
    """Sum of budgets: the (sum eps_i, sum delta_i)-DP guarantee."""
    return sum_budgets(budgets)


def advanced_composition(
    epsilon: float, delta: float, k: int, delta_slack: float
) -> PrivacyBudget:
    """DRV'10 strong composition of ``k`` copies of an (epsilon, delta) mechanism.

    Returns (eps', k*delta + delta_slack) with
    eps' = k*eps*(e^eps - 1) + eps*sqrt(2k ln(1/delta_slack)).
    """
    if k < 0:
        raise InvalidBudgetError(f"k must be >= 0, got {k}")
    if not 0 < delta_slack < 1:
        raise InvalidBudgetError(f"delta_slack must be in (0, 1), got {delta_slack}")
    if k == 0:
        return PrivacyBudget(0.0, 0.0)
    eps_prime = k * epsilon * (math.expm1(epsilon)) + epsilon * math.sqrt(
        2.0 * k * math.log(1.0 / delta_slack)
    )
    return PrivacyBudget(eps_prime, min(1.0, k * delta + delta_slack))


def strong_composition_heterogeneous(
    budgets: Sequence[PrivacyBudget], delta_slack: float
) -> PrivacyBudget:
    """Heterogeneous strong composition (paper Theorem A.1, fixed sequence).

    eps_g = sum_i (e^{eps_i} - 1) * eps_i + sqrt(2 * sum_i eps_i^2 * ln(1/delta_slack))
    delta_g = delta_slack + sum_i delta_i
    """
    if not 0 < delta_slack < 1:
        raise InvalidBudgetError(f"delta_slack must be in (0, 1), got {delta_slack}")
    budgets = list(budgets)
    if not budgets:
        return PrivacyBudget(0.0, 0.0)
    sum_sq = sum(b.epsilon ** 2 for b in budgets)
    linear = sum(math.expm1(b.epsilon) * b.epsilon for b in budgets)
    eps_g = linear + math.sqrt(2.0 * sum_sq * math.log(1.0 / delta_slack))
    delta_g = min(1.0, delta_slack + sum(b.delta for b in budgets))
    return PrivacyBudget(eps_g, delta_g)


def optimal_composition_homogeneous(
    epsilon: float, delta: float, k: int, delta_slack: float
) -> PrivacyBudget:
    """Kairouz-Oh-Viswanath (ICML 2015) optimal homogeneous composition.

    Takes the best of the three bounds in KOV Theorem 3.3 (which includes the
    basic and DRV bounds as special cases), so the result is never worse than
    either :func:`basic_composition` or :func:`advanced_composition`.
    """
    if k < 0:
        raise InvalidBudgetError(f"k must be >= 0, got {k}")
    if not 0 < delta_slack < 1:
        raise InvalidBudgetError(f"delta_slack must be in (0, 1), got {delta_slack}")
    if k == 0:
        return PrivacyBudget(0.0, 0.0)
    tanh_term = k * epsilon * math.expm1(epsilon) / (math.exp(epsilon) + 1.0)
    candidates = [
        k * epsilon,
        tanh_term
        + epsilon
        * math.sqrt(
            2.0 * k * math.log(math.e + epsilon * math.sqrt(k) / delta_slack)
        ),
        tanh_term + epsilon * math.sqrt(2.0 * k * math.log(1.0 / delta_slack)),
    ]
    return PrivacyBudget(min(candidates), min(1.0, k * delta + delta_slack))


def rogers_filter_epsilon(
    epsilons: Sequence[float], epsilon_global: float, delta_slack: float
) -> float:
    """Effective epsilon of the Rogers et al. privacy filter (paper Thm A.2).

    Given the (adaptively chosen) per-query epsilons already charged to one
    block plus a candidate, returns the left-hand side K of Theorem A.2's
    inequality; the sequence remains within the filter iff
    ``K <= epsilon_global``.

    K = sum_i (e^{eps_i}-1)*eps_i/2
        + sqrt( 2*(sum_i eps_i^2 + eps_g^2/(28.04*ln(1/delta_slack)))
                * (1 + 0.5*ln(28.04*ln(1/delta_slack)*sum_i eps_i^2/eps_g^2 + 1))
                * ln(1/delta_slack) )
    """
    if epsilon_global <= 0:
        raise InvalidBudgetError(f"epsilon_global must be > 0, got {epsilon_global}")
    if not 0 < delta_slack < 1:
        raise InvalidBudgetError(f"delta_slack must be in (0, 1), got {delta_slack}")
    epsilons = [float(e) for e in epsilons]
    if any(e < 0 for e in epsilons):
        raise InvalidBudgetError("per-query epsilons must be >= 0")
    if not epsilons:
        return 0.0
    sum_sq = sum(e ** 2 for e in epsilons)
    linear = sum(math.expm1(e) * e / 2.0 for e in epsilons)
    return rogers_filter_epsilon_from_sums(sum_sq, linear, epsilon_global, delta_slack)


def rogers_filter_epsilon_from_sums(
    sum_sq: float, linear: float, epsilon_global: float, delta_slack: float
) -> float:
    """Theorem A.2's K from precomputed ``sum eps_i^2`` and
    ``sum (e^{eps_i}-1) eps_i / 2`` -- the O(1) form ledgers use."""
    if sum_sq < 0 or linear < 0:
        raise InvalidBudgetError("sums must be non-negative")
    if sum_sq == 0.0:
        return 0.0
    log_term = math.log(1.0 / delta_slack)
    inflation = epsilon_global ** 2 / (_ROGERS_CONSTANT * log_term)
    # np.log, not math.log: libm's and NumPy's log can disagree in the last
    # ulp, and this scalar form must be bit-identical to the batched one so
    # the history-form rule (rogers_filter_epsilon) and the block filters'
    # store scans reach the same admit/deny boundary (sqrt is correctly
    # rounded by IEEE 754, so it needs no such care).
    inner_log = 1.0 + 0.5 * float(
        np.log(_ROGERS_CONSTANT * log_term * sum_sq / epsilon_global ** 2 + 1.0)
    )
    return linear + math.sqrt(2.0 * (sum_sq + inflation) * inner_log * log_term)


def rogers_filter_epsilon_from_sums_batch(
    sum_sq: np.ndarray, linear: np.ndarray, epsilon_global: float, delta_slack: float
) -> np.ndarray:
    """Vectorized :func:`rogers_filter_epsilon_from_sums` over aligned arrays.

    Operation order mirrors the scalar form exactly so batched filter scans
    reach the same admit/deny boundary as :func:`rogers_filter_epsilon` over
    the charge history.
    """
    if epsilon_global <= 0:
        raise InvalidBudgetError(f"epsilon_global must be > 0, got {epsilon_global}")
    if not 0 < delta_slack < 1:
        raise InvalidBudgetError(f"delta_slack must be in (0, 1), got {delta_slack}")
    sum_sq = np.asarray(sum_sq, dtype=np.float64)
    linear = np.asarray(linear, dtype=np.float64)
    if (sum_sq < 0).any() or (linear < 0).any():
        raise InvalidBudgetError("sums must be non-negative")
    log_term = math.log(1.0 / delta_slack)
    inflation = epsilon_global ** 2 / (_ROGERS_CONSTANT * log_term)
    inner_log = 1.0 + 0.5 * np.log(
        _ROGERS_CONSTANT * log_term * sum_sq / epsilon_global ** 2 + 1.0
    )
    value = linear + np.sqrt(2.0 * (sum_sq + inflation) * inner_log * log_term)
    return np.where(sum_sq == 0.0, 0.0, value)


def rogers_filter_admits(
    epsilons: Sequence[float],
    deltas: Sequence[float],
    epsilon_global: float,
    delta_global: float,
    delta_slack: float,
) -> bool:
    """True iff the whole adaptive sequence stays within (eps_g, delta_g).

    The delta side is basic composition plus the slack consumed by the
    filter itself: ``delta_slack + sum_i delta_i <= delta_global``.
    """
    if len(epsilons) != len(deltas):
        raise InvalidBudgetError("epsilons and deltas must have equal length")
    eps_ok = (
        rogers_filter_epsilon(epsilons, epsilon_global, delta_slack)
        <= epsilon_global + EPS_DRIFT_ABS + DRIFT_REL * epsilon_global
    )
    delta_ok = (
        delta_slack + sum(deltas)
        <= delta_global + DELTA_DRIFT_ABS + DRIFT_REL * delta_global
    )
    return eps_ok and delta_ok
