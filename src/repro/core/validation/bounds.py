"""Statistical concentration bounds used by the SLAed validators.

All bounds are one-sided with failure probability ``eta`` and are written
for losses bounded in [0, B]:

* :func:`bernstein_upper_bound` -- Listing 2's ``bernstein_upper_bound``:
  an upper bound on the population mean from an empirical mean, tight when
  the loss itself is small (Bernstein's inequality, cf. Shalev-Shwartz &
  Ben-David Appendix B).
* :func:`hoeffding_deviation` -- the distribution-free fallback used by the
  REJECT test and the statistics validator.
* :func:`binomial_upper_bound` / :func:`binomial_lower_bound` --
  Clopper-Pearson interval endpoints for accuracy validation (§B.2),
  generalized to non-integer "successes" (DP-noised counts).
"""

from __future__ import annotations

import math

import numpy as np
from scipy import stats

from repro.errors import ValidationError

__all__ = [
    "bernstein_upper_bound",
    "hoeffding_deviation",
    "binomial_upper_bound",
    "binomial_lower_bound",
]


def _check(eta: float, n: float, B: float) -> None:
    if not 0.0 < eta < 1.0:
        raise ValidationError(f"eta must be in (0, 1), got {eta}")
    if n <= 0:
        raise ValidationError(f"sample size must be > 0, got {n}")
    if B <= 0:
        raise ValidationError(f"loss range B must be > 0, got {B}")


def bernstein_upper_bound(mean_loss: float, n: float, eta: float, B: float) -> float:
    """Upper bound on the population mean loss, failure probability eta.

    ``mean_loss + sqrt(2 B mean_loss ln(1/eta) / n) + 4 B ln(1/eta) / n``.
    Matches Listing 2 lines 23-25 (whose published form has B = 1; the B
    factor on the last term generalizes the same inequality to [0, B]).
    """
    _check(eta, n, B)
    mean_loss = max(0.0, mean_loss)
    log_term = math.log(1.0 / eta)
    return (
        mean_loss
        + math.sqrt(2.0 * B * mean_loss * log_term / n)
        + 4.0 * B * log_term / n
    )


def hoeffding_deviation(n: float, eta: float, B: float) -> float:
    """One-sided Hoeffding deviation for a mean of [0, B] variables.

    The paper's Appendix B uses the conservative form ``B sqrt(ln(1/eta)/n)``
    (REJECT test, §B.1); we keep it for faithfulness.  (The textbook constant
    would be ``B sqrt(ln(1/eta)/(2n))``.)
    """
    _check(eta, n, B)
    return B * math.sqrt(math.log(1.0 / eta) / n)


def binomial_upper_bound(successes: float, trials: float, eta: float) -> float:
    """Clopper-Pearson upper bound on a binomial probability parameter.

    Generalized to real-valued ``successes``/``trials`` (DP noise makes the
    counts non-integer); values are clamped into the feasible region first.
    """
    if not 0.0 < eta < 1.0:
        raise ValidationError(f"eta must be in (0, 1), got {eta}")
    if trials <= 0:
        return 1.0
    k = float(np.clip(successes, 0.0, trials))
    if k >= trials:
        return 1.0
    return float(stats.beta.ppf(1.0 - eta, k + 1.0, trials - k))


def binomial_lower_bound(successes: float, trials: float, eta: float) -> float:
    """Clopper-Pearson lower bound on a binomial probability parameter."""
    if not 0.0 < eta < 1.0:
        raise ValidationError(f"eta must be in (0, 1), got {eta}")
    if trials <= 0:
        return 0.0
    k = float(np.clip(successes, 0.0, trials))
    if k <= 0.0:
        return 0.0
    return float(stats.beta.ppf(eta, k, trials - k + 1.0))
