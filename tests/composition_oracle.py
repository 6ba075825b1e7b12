"""Block composition decided from charge histories: the tests' rule oracle.

The accountant decides every charge from a block's running totals row
through ``repro.core.filters``.  This module decides the same questions
from each block's charge history, using only the composition theorems in
``repro.dp`` and nothing from ``repro.core``:

* basic (Theorem 4.3): ``basic_composition(history + [c])`` fits the
  global budget;
* strong (Theorem A.2): ``rogers_filter_admits`` on the history, unioned
  with the basic sum (both bounds hold on the same loss at once);
* Renyi: the per-order sum of every charge's RDP curve (``rdp_vector`` for
  Gaussian-mechanism charges, ``pure_dp_rdp`` otherwise), converted at
  ``delta_conversion`` by ``rdp_to_epsilon`` and unioned with the basic
  sum; the charges' deltas add up outside the curve.

For every rule, ``bound(history)`` is the guarantee a block carries, and
``admits(history, candidate)`` holds while the bound after the candidate
fits the policy with the filters' float-drift slack.
``near_threshold(history, candidate)`` flags the candidates whose bound
lies within ``BOUNDARY_REL`` of a threshold, where the oracle's and the
filters' float operation orders may legitimately decide differently.
"""

from repro.dp.budget import PrivacyBudget, ZERO_BUDGET, _ABS_TOL, _REL_TOL
from repro.dp.composition import (
    DELTA_DRIFT_ABS,
    DRIFT_REL,
    EPS_DRIFT_ABS,
    basic_composition,
    rogers_filter_admits,
    rogers_filter_epsilon,
)
from repro.dp.rdp import pure_dp_rdp, rdp_to_epsilon

__all__ = ["BOUNDARY_REL", "BasicRule", "StrongRule", "RenyiRule"]

# Relative distance from a threshold within which decisions may differ.
BOUNDARY_REL = 1e-9


class HistoryRule:
    """A composition rule over one block's charge history: admit while the
    composed epsilon and delta stay within the slacked thresholds."""

    reserved = 0.0  # delta the rule's own analysis consumes
    # Threshold slack (epsilon absolute, delta absolute, relative):
    # repro.dp.composition's drift slack; basic composition uses
    # PrivacyBudget.fits_within's.
    SLACK = (EPS_DRIFT_ABS, DELTA_DRIFT_ABS, DRIFT_REL)

    def __init__(self, epsilon_global, delta_global):
        self.epsilon_global = epsilon_global
        self.delta_global = delta_global
        eps_abs, delta_abs, rel = self.SLACK
        self.eps_threshold = epsilon_global + eps_abs + rel * epsilon_global
        self.delta_threshold = delta_global + delta_abs + rel * delta_global

    def epsilon_of(self, history):
        """The epsilon a non-empty history's charges compose to."""
        return basic_composition(history).epsilon

    def delta_of(self, history):
        return self.reserved + sum(b.delta for b in history)

    def bound(self, history):
        """The (epsilon, delta) guarantee a block with this history carries."""
        if not history:
            return ZERO_BUDGET
        return PrivacyBudget(self.epsilon_of(history), min(1.0, self.delta_of(history)))

    def admits(self, history, candidate):
        after = list(history) + [candidate]
        return (
            self.epsilon_of(after) <= self.eps_threshold
            and self.delta_of(after) <= self.delta_threshold
        )

    def near_threshold(self, history, candidate):
        after = list(history) + [candidate]
        eps, delta = self.epsilon_of(after), self.delta_of(after)
        return (
            abs(eps - self.eps_threshold) <= BOUNDARY_REL * self.eps_threshold
            or abs(delta - self.delta_threshold) <= BOUNDARY_REL * self.delta_threshold
        )


class BasicRule(HistoryRule):
    """Basic composition (Theorem 4.3)."""

    SLACK = (_ABS_TOL, _ABS_TOL, _REL_TOL)

    def admits(self, history, candidate):
        return basic_composition(list(history) + [candidate]).fits_within(
            PrivacyBudget(self.epsilon_global, self.delta_global)
        )


class StrongRule(HistoryRule):
    """Rogers et al.'s adaptive filter (Theorem A.2) or basic composition."""

    def __init__(self, epsilon_global, delta_global, delta_slack=None):
        super().__init__(epsilon_global, delta_global)
        self.reserved = delta_global / 2.0 if delta_slack is None else delta_slack

    def epsilon_of(self, history):
        epsilons = [b.epsilon for b in history]
        rogers = rogers_filter_epsilon(epsilons, self.epsilon_global, self.reserved)
        return min(rogers, sum(epsilons))

    def admits(self, history, candidate):
        after = list(history) + [candidate]
        if rogers_filter_admits(
            [b.epsilon for b in after],
            [b.delta for b in after],
            self.epsilon_global,
            self.delta_global,
            self.reserved,
        ):
            return True
        return (
            sum(b.epsilon for b in after) <= self.eps_threshold
            and self.delta_of(after) <= self.delta_threshold
        )


class RenyiRule(HistoryRule):
    """Per-order RDP composition converted to epsilon, or basic composition."""

    def __init__(self, epsilon_global, delta_global, orders, delta_conversion=None):
        super().__init__(epsilon_global, delta_global)
        self.orders = tuple(orders)
        self.reserved = (
            delta_global / 2.0 if delta_conversion is None else delta_conversion
        )

    def curve(self, budget):
        rdp_vector = getattr(budget, "rdp_vector", None)
        if rdp_vector is not None:
            return rdp_vector(self.orders)
        return pure_dp_rdp(budget.epsilon, self.orders)

    def epsilon_of(self, history):
        rdp = sum(self.curve(b) for b in history)
        eps_rdp, _ = rdp_to_epsilon(rdp, self.orders, self.reserved)
        return min(sum(b.epsilon for b in history), eps_rdp)
