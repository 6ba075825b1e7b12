"""Per-block privacy filters.

A *filter* decides whether one more DP query may be charged to a block given
everything already charged to it, while guaranteeing the block's cumulative
privacy loss stays within the global (eps_g, delta_g) policy.  Two variants,
matching the paper's two composition analyses:

* :class:`BasicCompositionFilter` -- Theorem 4.3: admit while
  ``sum eps_i <= eps_g`` and ``sum delta_i <= delta_g``.  Budgets add up, so
  the notion of "remaining budget" is exact.
* :class:`StrongCompositionFilter` -- Theorem A.2 (Rogers et al.'s adaptive
  filter): admits *more* small queries than basic composition by paying a
  ``delta_slack`` once.  There is no exact remaining budget; the filter
  answers admissibility queries and can binary-search the largest admissible
  next epsilon.
* :class:`RenyiCompositionFilter` -- a per-order Renyi-DP (moments
  accountant) ledger: each charge contributes an RDP vector (exact for
  Gaussian-mechanism charges, the Bun-Steinke pure-DP reduction otherwise)
  that composes *additively* per order, and admission converts the running
  vector back to epsilon at a reserved ``delta_conversion`` via the
  Canonne-Kamath-Steinke bound.  Tightest of the three for the
  many-small-charges workloads DP-SGD produces.

Filters are pure decision logic over a block's running totals row; the
accountant owns the rows and the charge log.

The totals-only API
-------------------
Every decision rule here reduces to arithmetic on a block's running totals
row, so the accountant's struct-of-arrays ledger store can evaluate a whole
stream's blocks in one NumPy pass.  A filter class declares its row layout:

* :attr:`PrivacyFilter.totals_width` -- the row length.  The first
  ``TOTALS_BASE`` (= 4) columns are fixed for every filter:
  ``(sum eps, sum delta, sum eps^2, sum (e^eps - 1) eps / 2)``; a filter
  may extend the row (``RenyiCompositionFilter`` appends one running-RDP
  column per Renyi order).
* :meth:`PrivacyFilter.contribution` -- one charge's additive increment to
  the row.  ``charge`` and the staged overlay (which ``charge_many``
  stages through too) both apply exactly this vector, which is what keeps
  single, batched and staged accounting float-identical.

It decides through three methods over an ``(n, totals_width)`` float64
matrix of such rows.  There is no other form, and no method takes a
charge history:

* :meth:`PrivacyFilter.admits_batch` (abstract) -- the per-row admit
  vector for one candidate charge;
* :meth:`PrivacyFilter.max_epsilon_batch` -- the largest epsilon every row
  still admits at a given delta (the base form bisects ``admits_batch``);
* :meth:`PrivacyFilter.loss_bound_batch` -- per-row ``(epsilon, delta)``
  guarantees of charged blocks (the base form is basic composition).

Soundness rests on ``admits_batch`` alone: every write the accountant
makes (``charge``, ``charge_many``, ``stage_charge``) is validated through
it, and ``commit_staged`` lands only what staging validated, while
``max_epsilon_batch`` only sizes proposals.  A subclass that tightens
``admits_batch`` and keeps an inherited ``max_epsilon_batch`` can see a
proposal refused, never over-admitted.  The tests' reference for each
rule is an independent oracle that decides from charge histories with the
``repro.dp`` composition theorems (``tests/composition_oracle.py``).

Tolerances: every admissibility comparison carries slack so that charging
eps_g/k exactly k times is never rejected on the final charge by float
accumulation drift in the running sums.  The basic filter compares against
:meth:`PrivacyBudget.fits_within`'s thresholds (absolute 1e-12, relative
1e-9 of the global budget), and its ``max_epsilon_batch`` delta check uses
the same slack so the two can never disagree; the strong and Renyi filters
use an absolute slack of 1e-12 on epsilon / 1e-15 on delta plus a relative
1e-12 of the global budget.
"""

from __future__ import annotations

import abc
import math

import numpy as np

from repro.dp.budget import PrivacyBudget, ZERO_BUDGET, _ABS_TOL, _REL_TOL
from repro.dp.composition import (
    DELTA_DRIFT_ABS as _DELTA_DRIFT_ABS,
    DRIFT_REL as _DRIFT_REL,
    EPS_DRIFT_ABS as _EPS_DRIFT_ABS,
    rogers_filter_epsilon_from_sums_batch as _rogers_from_sums_batch,
)
from repro.dp.rdp import (
    DEFAULT_ORDERS,
    PRUNED_ORDERS,
    pure_dp_rdp,
    rdp_epsilon_penalties,
)
from repro.errors import InvalidBudgetError

__all__ = [
    "TOTALS_BASE",
    "PrivacyFilter",
    "BasicCompositionFilter",
    "StrongCompositionFilter",
    "RenyiCompositionFilter",
]

# Number of totals columns shared by every filter (see module docstring).
TOTALS_BASE = 4


def _drift_thresholds(epsilon_global: float, delta_global: float):
    """Admission thresholds with the shared float-drift slack, computed once
    in scalar floats so every row of a scan compares against the same
    boundary."""
    eps_threshold = epsilon_global + _EPS_DRIFT_ABS + _DRIFT_REL * epsilon_global
    delta_threshold = delta_global + _DELTA_DRIFT_ABS + _DRIFT_REL * delta_global
    return eps_threshold, delta_threshold


def _as_totals_matrix(totals, width: int = TOTALS_BASE) -> np.ndarray:
    """Coerce ledger totals into the (n, width) float64 layout batch paths use."""
    arr = np.asarray(totals, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2 or arr.shape[1] != width:
        raise InvalidBudgetError(
            f"totals must be an (n, {width}) array of running sums, "
            f"got shape {arr.shape}"
        )
    return arr


class PrivacyFilter(abc.ABC):
    """Admissibility rule for charging DP queries against one block.

    Contract: decisions come from a block's totals row alone (see the
    module docstring), and admission is monotone twice over:

    * in epsilon at a fixed delta -- on any totals rows,
      ``admits_batch(rows, (e', delta))`` admits every row
      ``admits_batch(rows, (e, delta))`` admits, for every ``e' <= e``.
      Spending less can never be refused where spending more is admitted.
      The platform relies on it to skip a blocked session: counting the
      rows that admit the session's lowest attemptable epsilon bounds
      every window it could try (``AdaptiveSession.provably_blocked``).
    * in spend -- for any totals rows ``T`` and charge ``b``,
      ``admits_batch(T + contribution(b), c)`` admits no row that
      ``admits_batch(T, c)`` refuses.  A charge never unblocks a block.
      The platform relies on it to keep a session the hour pass proved
      blocked skipped for the rest of the hour while other sessions
      stage (``Sage._decide_parked``).

    Every built-in filter holds both, and ``tests/core/test_filters.py``
    checks each as a property.
    """

    def __init__(self, epsilon_global: float, delta_global: float) -> None:
        if epsilon_global <= 0:
            raise InvalidBudgetError(f"epsilon_global must be > 0, got {epsilon_global}")
        if not 0.0 <= delta_global <= 1.0:
            raise InvalidBudgetError(f"delta_global must be in [0, 1], got {delta_global}")
        self.epsilon_global = epsilon_global
        self.delta_global = delta_global

    @property
    def totals_width(self) -> int:
        """Length of this filter's ledger-store totals row.

        The first :data:`TOTALS_BASE` columns are the shared running sums;
        subclasses that keep extra per-block state (e.g. per-order RDP)
        extend the row and override this together with :meth:`contribution`.
        """
        return TOTALS_BASE

    @property
    def delta_reserved(self) -> float:
        """Share of ``delta_global`` consumed by the filter's own analysis
        (strong composition's slack, the RDP conversion delta); zero for
        filters whose admitted charges may spend the whole delta budget.
        Sessions ration their per-attempt delta out of what is left."""
        return 0.0

    def contribution(self, budget: PrivacyBudget) -> np.ndarray:
        """One charge's additive increment to a block's totals row.

        Both accumulation paths -- ``charge`` and the staged-batch overlay
        that ``stage_charge`` and ``charge_many`` share -- apply exactly
        this vector, so single, batched and staged accounting stay
        float-identical.
        """
        eps = budget.epsilon
        return np.array(
            [eps, budget.delta, eps * eps, math.expm1(eps) * eps / 2.0]
        )

    @abc.abstractmethod
    def admits_batch(self, totals, candidate: PrivacyBudget) -> np.ndarray:
        """Per-row admit vector over an ``(n, totals_width)`` matrix of
        running totals rows: row ``i`` is True iff the block whose charges
        sum to ``totals[i]`` stays within policy after ``candidate``."""

    def max_epsilon_batch(self, totals, delta: float) -> float:
        """Largest epsilon that *every* totals row still admits at ``delta``.

        The accountant's multi-block ``max_epsilon`` (the min over blocks of
        per-block headroom).  The generic implementation bisects one
        epsilon against :meth:`admits_batch` over the whole batch;
        admissibility is monotone decreasing in epsilon, so the joint search
        converges to the per-block minimum.
        """
        matrix = _as_totals_matrix(totals, self.totals_width)
        if matrix.shape[0] == 0:
            return 0.0
        if not bool(self.admits_batch(matrix, PrivacyBudget(0.0, delta)).all()):
            return 0.0
        lo, hi = 0.0, self.epsilon_global
        if bool(self.admits_batch(matrix, PrivacyBudget(hi, delta)).all()):
            return hi
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if bool(self.admits_batch(matrix, PrivacyBudget(mid, delta)).all()):
                lo = mid
            else:
                hi = mid
        return lo

    def loss_bound_batch(self, totals):
        """A DP guarantee covering everything charged so far: per-row
        ``(epsilon, delta)`` bound arrays over an ``(n, totals_width)``
        matrix of charged blocks' totals rows -- the accountant's
        ``stream_loss_bound`` pass (rows with no charges are the caller's
        to exclude).  The base form is the basic-composition bound, the
        row's own sums."""
        matrix = _as_totals_matrix(totals, self.totals_width)
        return matrix[:, 0], np.minimum(1.0, matrix[:, 1])


class BasicCompositionFilter(PrivacyFilter):
    """Admit while budgets sum within (eps_g, delta_g) -- paper Theorem 4.3."""

    def admits_batch(self, totals, candidate: PrivacyBudget) -> np.ndarray:
        matrix = _as_totals_matrix(totals)
        # fits_within's thresholds, computed once in scalar floats so every
        # row sees the same boundary.
        eps_thr = self.epsilon_global + _ABS_TOL + _REL_TOL * self.epsilon_global
        delta_thr = self.delta_global + _ABS_TOL + _REL_TOL * self.delta_global
        eps_ok = matrix[:, 0] + candidate.epsilon <= eps_thr
        delta_ok = np.minimum(1.0, matrix[:, 1] + candidate.delta) <= delta_thr
        return eps_ok & delta_ok

    def max_epsilon_batch(self, totals, delta: float) -> float:
        matrix = _as_totals_matrix(totals)
        if matrix.shape[0] == 0:
            return 0.0
        spent_ok = self.admits_batch(matrix, ZERO_BUDGET)
        if not bool(spent_ok.all()):
            return 0.0
        delta_left = float(np.min(np.maximum(0.0, self.delta_global - matrix[:, 1])))
        # Same slack as admits_batch's delta comparison, so no headroom is
        # reported as zero for a delta admits_batch would accept.
        if delta > delta_left + _ABS_TOL + _REL_TOL * self.delta_global:
            return 0.0
        return float(np.min(np.maximum(0.0, self.epsilon_global - matrix[:, 0])))


class StrongCompositionFilter(PrivacyFilter):
    """Rogers et al. adaptive strong-composition filter -- paper Theorem A.2.

    ``delta_slack`` is the share of delta_global consumed by the filter's own
    high-probability argument (delta_global/2 by default, leaving the other
    half for the queries' own deltas).

    The filter admits a charge when EITHER analysis keeps the block within
    (eps_g, delta_g): basic composition's running sum, or Theorem A.2's
    bound.  Both bounds hold simultaneously on the same loss (a union bound
    pays the slack), so taking the better one is sound -- and necessary,
    because the Rogers constant (28.04) makes lone moderate queries
    inadmissible under the strong bound alone even when they trivially fit
    the budget.
    """

    def __init__(
        self,
        epsilon_global: float,
        delta_global: float,
        delta_slack: float = None,
    ) -> None:
        super().__init__(epsilon_global, delta_global)
        if delta_slack is None:
            delta_slack = delta_global / 2.0
        if not 0.0 < delta_slack < 1.0:
            raise InvalidBudgetError(
                f"delta_slack must be in (0, 1), got {delta_slack} "
                "(strong composition requires delta_global > 0)"
            )
        if delta_slack > delta_global:
            raise InvalidBudgetError("delta_slack cannot exceed delta_global")
        self.delta_slack = delta_slack
        # Admission thresholds, precomputed once per filter.
        self._eps_threshold, self._delta_threshold = _drift_thresholds(
            self.epsilon_global, self.delta_global
        )

    @property
    def delta_reserved(self) -> float:
        return self.delta_slack

    def admits_batch(self, totals, candidate: PrivacyBudget) -> np.ndarray:
        matrix = _as_totals_matrix(totals)
        ce = candidate.epsilon
        strong_value = _rogers_from_sums_batch(
            matrix[:, 2] + ce * ce,
            matrix[:, 3] + math.expm1(ce) * ce / 2.0,
            self.epsilon_global,
            self.delta_slack,
        )
        basic_value = matrix[:, 0] + ce
        eps_ok = np.minimum(strong_value, basic_value) <= self._eps_threshold
        delta_ok = self.delta_slack + matrix[:, 1] + candidate.delta <= self._delta_threshold
        return eps_ok & delta_ok

    def loss_bound_batch(self, totals):
        """Theorem A.2 per row, unioned with basic composition as
        :meth:`admits_batch` is."""
        matrix = _as_totals_matrix(totals)
        strong = _rogers_from_sums_batch(
            matrix[:, 2], matrix[:, 3], self.epsilon_global, self.delta_slack
        )
        eps = np.minimum(strong, matrix[:, 0])
        delta = np.minimum(1.0, self.delta_slack + matrix[:, 1])
        return eps, delta


class RenyiCompositionFilter(PrivacyFilter):
    """Per-order Renyi-DP block filter (the moments-accountant analysis).

    Extends the totals row with one running-RDP column per order: each
    charge contributes its RDP curve -- exact
    ``compute_rdp(q, sigma, steps)`` for charges carrying an
    ``rdp_vector`` hook (:class:`~repro.dp.rdp.GaussianMechanismBudget`),
    the Bun-Steinke pure-DP reduction ``min(eps, alpha eps^2 / 2)``
    otherwise -- and RDP composes *additively* per order, so intra-batch
    accumulation, staging overlays, and rollback are the same row
    arithmetic as the base columns.  A charge is admitted when the
    accumulated curve, converted back to epsilon at the reserved
    ``delta_conversion`` (Canonne-Kamath-Steinke, built from the same
    per-order penalty vector as :func:`~repro.dp.rdp.rdp_to_epsilon`),
    stays within ``epsilon_global``
    -- or when plain basic composition does (both bounds hold on the same
    loss simultaneously, so taking the better one is sound, exactly as the
    strong filter unions in the basic bound).

    The per-charge delta of an ``(epsilon, delta)`` budget rides additively
    outside the RDP curve (the moments accountant's standard treatment of
    non-Gaussian mechanisms): admission requires
    ``delta_conversion + sum delta_i + candidate.delta <= delta_global``,
    the same split discipline as the strong filter's slack.  For
    Gaussian-mechanism charges this double-counts their conversion delta
    (their curve already captures the whole mechanism), which is
    conservative, never unsound.

    Adaptivity: continuing while the accumulated RDP stays within a fixed
    per-order budget is a valid Renyi filter (Feldman & Zrnic 2021), and
    the conversion threshold here fixes that per-order budget up front
    (``epsilon_global - penalty(alpha)``), so admission under adaptively
    chosen charges is sound order by order; the final guarantee takes the
    best order, as the moments accountant always has.
    """

    #: Named order grids accepted by the ``orders`` parameter: "default"
    #: is :data:`~repro.dp.rdp.DEFAULT_ORDERS` (69 orders, the dense grid);
    #: "pruned" is :data:`~repro.dp.rdp.PRUNED_ORDERS` (17 orders, ~4x
    #: narrower store rows at a few percent of conversion tightness --
    #: bounded by tests in ``tests/core/test_renyi.py``).
    ORDER_PRESETS = {"default": DEFAULT_ORDERS, "pruned": PRUNED_ORDERS}

    def __init__(
        self,
        epsilon_global: float,
        delta_global: float,
        orders=None,
        delta_conversion: float = None,
    ) -> None:
        super().__init__(epsilon_global, delta_global)
        if orders is None:
            orders = DEFAULT_ORDERS
        elif isinstance(orders, str):
            if orders not in self.ORDER_PRESETS:
                raise InvalidBudgetError(
                    f"unknown orders preset {orders!r}; "
                    f"pick one of {sorted(self.ORDER_PRESETS)}"
                )
            orders = self.ORDER_PRESETS[orders]
        orders = tuple(orders)
        if not orders:
            raise InvalidBudgetError("need at least one Renyi order")
        # The filter's charges go through the binomial-expansion RDP paths
        # (compute_rdp for Gaussian budgets), which require integer orders;
        # reject fractional ones up front rather than truncating silently.
        for order in orders:
            if order < 2 or int(order) != order:
                raise InvalidBudgetError(
                    f"Renyi filter orders must be integers >= 2, got {order}"
                )
        self.orders = tuple(int(order) for order in orders)
        if delta_conversion is None:
            delta_conversion = delta_global / 2.0
        if not 0.0 < delta_conversion < 1.0:
            raise InvalidBudgetError(
                f"delta_conversion must be in (0, 1), got {delta_conversion} "
                "(Renyi accounting requires delta_global > 0)"
            )
        if delta_conversion > delta_global:
            raise InvalidBudgetError("delta_conversion cannot exceed delta_global")
        self.delta_conversion = delta_conversion
        # Per-order conversion penalty: eps(alpha) = rdp(alpha) + penalty.
        # Built by the same helper rdp_to_epsilon uses, so this filter's
        # admit boundary and the accountant's conversions agree bit-for-bit.
        self._penalty = rdp_epsilon_penalties(self.orders, delta_conversion)
        self._alpha = np.asarray(self.orders, dtype=np.float64)
        self._eps_threshold, self._delta_threshold = _drift_thresholds(
            self.epsilon_global, self.delta_global
        )

    @property
    def totals_width(self) -> int:
        return TOTALS_BASE + len(self.orders)

    @property
    def delta_reserved(self) -> float:
        return self.delta_conversion

    def charge_rdp(self, budget: PrivacyBudget) -> np.ndarray:
        """One charge's RDP vector over this filter's orders.

        Budgets exposing an ``rdp_vector(orders)`` hook (Gaussian-mechanism
        charges) contribute their exact curve; anything else gets the
        generic pure-DP reduction of its epsilon.
        """
        rdp_vector = getattr(budget, "rdp_vector", None)
        if rdp_vector is not None:
            return np.asarray(rdp_vector(self.orders), dtype=np.float64)
        return pure_dp_rdp(budget.epsilon, self.orders)

    def contribution(self, budget: PrivacyBudget) -> np.ndarray:
        return np.concatenate(
            [super().contribution(budget), self.charge_rdp(budget)]
        )

    def _eps_after(self, matrix: np.ndarray, candidate: PrivacyBudget) -> np.ndarray:
        """Per-row epsilon bound after the candidate lands: the better of
        the converted RDP curve and basic composition.

        The candidate's curve and the conversion penalty are summed first
        (one small vector) so the scan allocates a single (n, orders)
        temporary.
        """
        shifted = self.charge_rdp(candidate) + self._penalty
        eps_rdp = np.maximum(
            0.0, np.min(matrix[:, TOTALS_BASE:] + shifted, axis=1)
        )
        basic = matrix[:, 0] + candidate.epsilon
        return np.minimum(eps_rdp, basic)

    def admits_batch(self, totals, candidate: PrivacyBudget) -> np.ndarray:
        matrix = _as_totals_matrix(totals, self.totals_width)
        eps_ok = self._eps_after(matrix, candidate) <= self._eps_threshold
        delta_ok = (
            self.delta_conversion + matrix[:, 1] + candidate.delta
            <= self._delta_threshold
        )
        return eps_ok & delta_ok

    def max_epsilon_batch(self, totals, delta: float) -> float:
        """Largest epsilon every row still admits at ``delta``, closed form.

        Inverts the pure-DP candidate curve ``min(eps, alpha eps^2 / 2)``
        against each order's headroom ``h = eps_g - penalty - rdp``: the
        admissible set at one order is ``[0, h]`` when ``h >= 2/alpha``
        (the linear branch binds at the boundary) and
        ``[0, sqrt(2 h / alpha)]`` otherwise, the per-row answer is the
        best order (admission needs only one order within budget) or the
        basic-composition headroom if larger, and the joint answer is the
        worst row.  Inverting against ``epsilon_global`` rather than the
        drift-slacked threshold leaves the slack as margin, so a charge at
        exactly the returned epsilon is always admitted.
        """
        matrix = _as_totals_matrix(totals, self.totals_width)
        if matrix.shape[0] == 0:
            return 0.0
        if not bool(self.admits_batch(matrix, PrivacyBudget(0.0, delta)).all()):
            return 0.0
        headroom = self.epsilon_global - self._penalty - matrix[:, TOTALS_BASE:]
        linear = np.maximum(headroom, 0.0)
        quadratic = np.sqrt(2.0 * linear / self._alpha)
        eps_rdp = np.where(headroom >= 2.0 / self._alpha, linear, quadratic)
        best = np.maximum(
            eps_rdp.max(axis=1), self.epsilon_global - matrix[:, 0]
        )
        return float(min(max(float(best.min()), 0.0), self.epsilon_global))

    def loss_bound_batch(self, totals):
        """The converted RDP curve per row, unioned with basic composition
        as :meth:`admits_batch` is."""
        matrix = _as_totals_matrix(totals, self.totals_width)
        eps_rdp = np.maximum(
            0.0, np.min(matrix[:, TOTALS_BASE:] + self._penalty, axis=1)
        )
        eps = np.minimum(matrix[:, 0], eps_rdp)
        delta = np.minimum(1.0, self.delta_conversion + matrix[:, 1])
        return eps, delta
