"""Privacy odometers: pay-as-you-go loss tracking (Rogers et al. 2016).

Sage's access control uses privacy *filters* -- admit/deny against a fixed
global budget.  The same paper the filter comes from also defines
*odometers*: running upper bounds on the privacy loss consumed so far, valid
at every point in time without a pre-declared stop.  An odometer is what a
platform operator reads on a dashboard ("how exposed is this block right
now?"), while the filter is what gates the next query.

:class:`StrongOdometer` is Rogers et al.'s doubling construction: the
strong-composition bound evaluated at the smallest power-of-two budget
envelope that contains the spend so far.  It pays a doubling penalty over
the fixed-budget filter but needs no budget declared in advance.  The basic
odometer needs no class: it is the exact running (sum eps, sum delta), which
the store row already holds.

:func:`loss_dashboard` reads either bound straight from the accountant's
:class:`~repro.core.accountant.LedgerStore` rows, so ``repro.core.platform``
deployments can expose loss dashboards without touching the enforcement
path.
"""

from __future__ import annotations

import math
from typing import Dict, Sequence

import numpy as np

from repro.core.accountant import TOT_DELTA, TOT_EPS, BlockAccountant
from repro.core.filters import TOTALS_BASE
from repro.dp.budget import PrivacyBudget
from repro.dp.composition import rogers_filter_epsilon_from_sums
from repro.errors import InvalidBudgetError

__all__ = ["StrongOdometer", "loss_dashboard"]


class StrongOdometer:
    """Doubling-envelope strong-composition odometer.

    ``delta_slack_per_level`` is the slack spent by each doubling level's
    high-probability bound; level k covers envelopes up to
    ``epsilon_unit * 2^k``.  The reported loss is the Theorem A.2 bound of
    the smallest level whose envelope contains the realized spend, plus the
    slack of every level up to it -- the standard pay-as-you-go argument.
    """

    def __init__(
        self,
        epsilon_unit: float = 1.0 / 16.0,
        delta_slack_per_level: float = 1e-9,
        max_levels: int = 40,
    ) -> None:
        if epsilon_unit <= 0:
            raise InvalidBudgetError(f"epsilon_unit must be > 0, got {epsilon_unit}")
        if not 0 < delta_slack_per_level < 1:
            raise InvalidBudgetError("delta_slack_per_level must be in (0, 1)")
        if max_levels <= 0:
            raise InvalidBudgetError("max_levels must be > 0")
        self.epsilon_unit = epsilon_unit
        self.delta_slack_per_level = delta_slack_per_level
        self.max_levels = max_levels
        self._sum_eps = 0.0
        self._sum_delta = 0.0
        self._sum_sq = 0.0
        self._linear = 0.0

    def record(self, budget: PrivacyBudget) -> None:
        eps = budget.epsilon
        self._sum_eps += eps
        self._sum_delta = min(1.0, self._sum_delta + budget.delta)
        self._sum_sq += eps * eps
        self._linear += math.expm1(eps) * eps / 2.0

    def record_all(self, budgets: Sequence[PrivacyBudget]) -> None:
        for budget in budgets:
            self.record(budget)

    def load_totals(
        self, sum_eps: float, sum_delta: float, sum_sq: float, linear: float
    ) -> "StrongOdometer":
        """Absorb a block's precomputed running sums in O(1) (equivalent to
        replaying its whole history through :meth:`record`)."""
        self._sum_eps += sum_eps
        self._sum_delta = min(1.0, self._sum_delta + sum_delta)
        self._sum_sq += sum_sq
        self._linear += linear
        return self

    def _level_for(self, epsilon: float) -> int:
        """Smallest doubling level whose envelope covers ``epsilon``."""
        level = 0
        envelope = self.epsilon_unit
        while envelope < epsilon and level < self.max_levels:
            envelope *= 2.0
            level += 1
        return level

    @property
    def saturated(self) -> bool:
        """True once the realized spend exceeds the top doubling envelope.

        Past that point no level's Theorem A.2 bound covers the spend, so
        :attr:`loss` falls back to exact basic composition.
        """
        return self._sum_eps > self.epsilon_unit * (2.0 ** self.max_levels)

    @property
    def loss(self) -> PrivacyBudget:
        """Current high-probability loss bound (valid at any stopping time)."""
        if self._sum_eps == 0.0:
            return PrivacyBudget(0.0, 0.0)
        level = self._level_for(self._sum_eps)
        # Each level up to the active one spends its slack once.
        delta_bound = min(
            1.0, self._sum_delta + (level + 1) * self.delta_slack_per_level
        )
        if self.saturated:
            # The realized spend escaped every envelope (_level_for
            # saturates): Theorem A.2 evaluated at the top envelope would be
            # an *invalid* bound (it can claim less loss than was provably
            # spent).  Fall back to exact basic composition, which needs no
            # envelope.
            return PrivacyBudget(self._sum_eps, delta_bound)
        envelope = self.epsilon_unit * (2.0 ** level)
        eps_bound = rogers_filter_epsilon_from_sums(
            self._sum_sq, self._linear, envelope, self.delta_slack_per_level
        )
        # The odometer is a bound: never report less than basic composition
        # would (tiny histories make the strong bound's constant dominate,
        # where basic is simply better).
        return PrivacyBudget(min(eps_bound, self._sum_eps), delta_bound)

    @property
    def basic_loss(self) -> PrivacyBudget:
        """The basic-composition running total for comparison."""
        return PrivacyBudget(self._sum_eps, self._sum_delta)


def loss_dashboard(
    accountant: BlockAccountant, strong: bool = False
) -> Dict[object, PrivacyBudget]:
    """Per-block current loss bounds for an operator dashboard.

    Reads the store's precomputed running totals (O(1) per block rather
    than replaying every charge); does not interfere with enforcement.  The
    basic variant is a single vectorized pass over the accountant's
    struct-of-arrays store.

    To export these bounds as metrics (``sage_block_epsilon{block=...}``
    gauges for a Prometheus scrape or the JSON report), use
    :meth:`repro.obs.MetricsRegistry.observe_dashboard`, which reads the
    same totals in one pass without building this dict.
    """
    keys = accountant.block_keys
    if not strong:
        totals = accountant.store.totals
        eps = totals[:, TOT_EPS]
        delta = np.minimum(1.0, totals[:, TOT_DELTA])
        return {
            key: PrivacyBudget(float(e), float(d))
            for key, e, d in zip(keys, eps, delta)
        }
    # Only the shared base columns feed the odometer; order-extended
    # schemas (the Renyi filter's per-order RDP columns) ride behind them.
    base_rows = accountant.store.totals[:, :TOTALS_BASE].tolist()
    return {
        key: StrongOdometer().load_totals(*row).loss
        for key, row in zip(keys, base_rows)
    }
