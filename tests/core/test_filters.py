"""Per-block privacy filters (basic + Rogers strong composition)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.accountant import TOT_DELTA, TOT_EPS, TOT_LINEAR, TOT_SQ
from repro.core.filters import (
    BasicCompositionFilter,
    RenyiCompositionFilter,
    StrongCompositionFilter,
)
from repro.dp.budget import PrivacyBudget
from repro.errors import InvalidBudgetError


def totals_of(history):
    """The (sum eps, sum delta, sum eps^2, sum linear) a ledger would keep."""
    eps = sum(b.epsilon for b in history)
    delta = sum(b.delta for b in history)
    sq = sum(b.epsilon ** 2 for b in history)
    linear = sum(math.expm1(b.epsilon) * b.epsilon / 2.0 for b in history)
    return (eps, delta, sq, linear)

SMALL_BUDGETS = st.lists(
    st.builds(
        PrivacyBudget,
        st.floats(min_value=0.001, max_value=0.3),
        st.floats(min_value=0.0, max_value=1e-8),
    ),
    max_size=12,
)


class TestBasicFilter:
    def test_admits_until_exhaustion(self):
        f = BasicCompositionFilter(1.0, 1e-6)
        history = []
        charge = PrivacyBudget(0.3, 1e-7)
        for _ in range(3):
            assert f.admits(history, charge)
            history.append(charge)
        # 0.9 spent; 0.3 more would overflow epsilon.
        assert not f.admits(history, charge)
        assert f.admits(history, PrivacyBudget(0.1, 0.0))

    def test_remaining_exact(self):
        f = BasicCompositionFilter(1.0, 1e-6)
        left = f.remaining([PrivacyBudget(0.25, 4e-7)])
        assert left.epsilon == pytest.approx(0.75)
        assert left.delta == pytest.approx(6e-7)

    def test_delta_dimension_enforced(self):
        f = BasicCompositionFilter(10.0, 1e-6)
        history = [PrivacyBudget(0.1, 1e-6)]
        assert not f.admits(history, PrivacyBudget(0.1, 1e-7))
        assert f.admits(history, PrivacyBudget(0.1, 0.0))

    def test_max_epsilon(self):
        f = BasicCompositionFilter(1.0, 1e-6)
        assert f.max_epsilon([PrivacyBudget(0.4, 0.0)], 0.0) == pytest.approx(0.6)
        assert f.max_epsilon([], 2e-6) == 0.0  # delta unaffordable

    def test_loss_bound_is_sum(self):
        f = BasicCompositionFilter(1.0, 1e-6)
        bound = f.loss_bound([PrivacyBudget(0.2), PrivacyBudget(0.3)])
        assert bound.epsilon == pytest.approx(0.5)

    def test_invalid_global_params(self):
        with pytest.raises(InvalidBudgetError):
            BasicCompositionFilter(0.0, 1e-6)
        with pytest.raises(InvalidBudgetError):
            BasicCompositionFilter(1.0, 2.0)

    @given(SMALL_BUDGETS)
    @settings(max_examples=50)
    def test_never_admits_past_global(self, history):
        f = BasicCompositionFilter(1.0, 1e-6)
        admitted = []
        for b in history:
            if f.admits(admitted, b):
                admitted.append(b)
        total = sum(b.epsilon for b in admitted)
        assert total <= 1.0 + 1e-9


class TestStrongFilter:
    def test_requires_positive_slack(self):
        with pytest.raises(InvalidBudgetError):
            StrongCompositionFilter(1.0, 0.0)

    def test_slack_cannot_exceed_delta(self):
        with pytest.raises(InvalidBudgetError):
            StrongCompositionFilter(1.0, 1e-6, delta_slack=1e-5)

    def test_admits_more_small_queries_than_basic(self):
        """Strong composition's payoff regime: many queries much smaller
        than the global budget (here 0.005 vs eps_g = 1)."""
        basic = BasicCompositionFilter(1.0, 1e-6)
        strong = StrongCompositionFilter(1.0, 1e-6)
        charge = PrivacyBudget(0.005, 0.0)
        history = []
        while basic.admits(history, charge):
            history.append(charge)
        k_basic = len(history)
        while strong.admits(history, charge):
            history.append(charge)
        assert len(history) > 1.5 * k_basic

    def test_single_big_query_behaves_like_basic(self):
        strong = StrongCompositionFilter(1.0, 1e-6)
        assert not strong.admits([], PrivacyBudget(1.5, 0.0))

    def test_delta_budget_shared_with_slack(self):
        strong = StrongCompositionFilter(1.0, 1e-6, delta_slack=5e-7)
        # Queries may consume at most delta_global - slack = 5e-7 in total.
        assert strong.admits([], PrivacyBudget(0.1, 4e-7))
        assert not strong.admits([PrivacyBudget(0.1, 4e-7)], PrivacyBudget(0.1, 2e-7))

    def test_max_epsilon_bisection(self):
        strong = StrongCompositionFilter(1.0, 1e-6)
        history = [PrivacyBudget(0.01, 0.0)] * 10
        limit = strong.max_epsilon(history, 0.0)
        assert 0.0 < limit < 1.0
        assert strong.admits(history, PrivacyBudget(limit * 0.999, 0.0))
        assert not strong.admits(history, PrivacyBudget(min(1.0, limit * 1.01), 0.0))

    def test_basic_fallback_keeps_moderate_queries_admissible(self):
        """A lone eps=0.125 query trivially fits eps_g=1 by basic
        composition even though the Rogers bound alone would refuse it."""
        strong = StrongCompositionFilter(1.0, 1e-6)
        assert strong.admits([], PrivacyBudget(0.125, 0.0))
        # Basic fallback also gives exact headroom after moderate spends.
        limit = strong.max_epsilon([PrivacyBudget(0.1, 0.0)] * 5, 0.0)
        assert limit == pytest.approx(0.5, abs=1e-6)

    def test_loss_bound_grows_with_history(self):
        strong = StrongCompositionFilter(1.0, 1e-6)
        a = strong.loss_bound([PrivacyBudget(0.1)] * 2)
        b = strong.loss_bound([PrivacyBudget(0.1)] * 6)
        assert b.epsilon > a.epsilon

    def test_loss_bound_from_totals_equals_replay(self):
        """The O(1) totals path (used by ledgers / stream_loss_bound) must
        match replaying the history."""
        history = [PrivacyBudget(0.05, 1e-8)] * 9
        for f in (BasicCompositionFilter(1.0, 1e-6), StrongCompositionFilter(1.0, 1e-6)):
            replayed = f.loss_bound(history)
            from_totals = f.loss_bound(history, totals=totals_of(history))
            assert from_totals.epsilon == pytest.approx(replayed.epsilon)
            assert from_totals.delta == pytest.approx(replayed.delta)

    @given(SMALL_BUDGETS)
    @settings(max_examples=30)
    def test_filter_never_admits_past_global(self, history):
        """Whatever gets admitted, the reported loss bound fits eps_g."""
        strong = StrongCompositionFilter(1.0, 1e-6)
        admitted = []
        for b in history:
            if strong.admits(admitted, b):
                admitted.append(b)
        if admitted:
            assert strong.loss_bound(admitted).epsilon <= 1.0 + 1e-9


class TestSplitRecomposition:
    """Charging eps_g/k (and the query share of delta_g/k) exactly k times
    must never be rejected on the final charge by float accumulation drift
    in the running sums."""

    def test_strong_delta_split_survives_drift(self):
        """Regression: 4096 charges of (delta_g/2)/4096 used to be rejected
        on charge 4096 -- the running delta sum drifted past the strict
        absolute 1e-15 slack."""
        f = StrongCompositionFilter(1.0, 0.1)
        charge = PrivacyBudget(1e-6, (0.1 / 2) / 4096)
        totals = (0.0, 0.0, 0.0, 0.0)
        for i in range(4096):
            assert f.admits(None, charge, totals=totals), f"rejected at charge {i}"
            totals = tuple(
                a + b
                for a, b in zip(
                    totals,
                    (
                        charge.epsilon,
                        charge.delta,
                        charge.epsilon ** 2,
                        math.expm1(charge.epsilon) * charge.epsilon / 2.0,
                    ),
                )
            )

    def test_basic_max_epsilon_agrees_with_admits_in_tolerance_band(self):
        """max_epsilon must not report zero headroom for a delta that
        admits() would accept (they share fits_within's slack)."""
        f = BasicCompositionFilter(1.0, 0.9)
        history = [PrivacyBudget(0.1, 0.9)]  # delta fully spent
        candidate = PrivacyBudget(0.05, 1e-11)  # inside fits_within's slack
        assert f.admits(history, candidate)
        assert f.max_epsilon(history, candidate.delta) > 0.0

    def test_rogers_scalar_and_batch_bit_identical(self):
        import numpy as np

        from repro.dp.composition import (
            rogers_filter_epsilon_from_sums,
            rogers_filter_epsilon_from_sums_batch,
        )

        rng = np.random.default_rng(1)
        sq = rng.uniform(0.0, 2.0, 500)
        lin = rng.uniform(0.0, 2.0, 500)
        batch = rogers_filter_epsilon_from_sums_batch(sq, lin, 1.0, 5e-7)
        scalar = [
            rogers_filter_epsilon_from_sums(float(s), float(l), 1.0, 5e-7)
            for s, l in zip(sq, lin)
        ]
        assert np.array_equal(batch, np.array(scalar))

    def test_basic_max_epsilon_consistent_with_admits_after_split(self):
        """Regression: after 4095 of 4096 delta_g/k charges, max_epsilon
        reported 0.0 (delta 'unaffordable' by drift) even though admits
        accepted the final charge."""
        f = BasicCompositionFilter(1.0, 0.9)
        charge = PrivacyBudget(1e-6, 0.9 / 4096)
        history = [charge] * 4095
        assert f.admits(history, charge)
        assert f.max_epsilon(history, charge.delta) > 0.0

    @given(
        st.integers(min_value=1, max_value=400),
        st.floats(min_value=1e-3, max_value=50.0),
        st.floats(min_value=1e-8, max_value=0.5),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_k_way_split_fully_charges(self, k, eps_g, delta_g):
        """Every (k, eps_g, delta_g) split admits all k charges, through
        both filters, using the ledger's running-totals path."""
        basic = BasicCompositionFilter(eps_g, delta_g)
        strong = StrongCompositionFilter(eps_g, delta_g)
        basic_charge = PrivacyBudget(eps_g / k, delta_g / k)
        strong_charge = PrivacyBudget(eps_g / k, (delta_g / 2.0) / k)
        basic_totals = [0.0, 0.0, 0.0, 0.0]
        strong_totals = [0.0, 0.0, 0.0, 0.0]
        for i in range(k):
            assert basic.admits(None, basic_charge, totals=tuple(basic_totals)), (
                f"basic rejected charge {i + 1}/{k}"
            )
            # The strong filter may legitimately refuse on its eps side (the
            # Rogers bound exceeds eps_g for moderate per-query epsilons)
            # but never on delta drift: a zero-eps probe carrying the same
            # delta isolates the delta check.
            assert strong.admits(
                None,
                PrivacyBudget(0.0, strong_charge.delta),
                totals=tuple(strong_totals),
            ), f"strong filter rejected the delta share at charge {i + 1}/{k}"
            for totals, charge in (
                (basic_totals, basic_charge),
                (strong_totals, strong_charge),
            ):
                totals[TOT_EPS] += charge.epsilon
                totals[TOT_DELTA] += charge.delta
                totals[TOT_SQ] += charge.epsilon ** 2
                totals[TOT_LINEAR] += math.expm1(charge.epsilon) * charge.epsilon / 2.0


TOTALS_ROWS = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1.2),
        st.floats(min_value=0.0, max_value=2e-6),
        st.floats(min_value=0.0, max_value=1.5),
        st.floats(min_value=0.0, max_value=1.5),
    ),
    min_size=1,
    max_size=20,
)


class TestBatchedMatchesScalar:
    """admits_batch must be decision-identical to row-by-row admits."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: BasicCompositionFilter(1.0, 1e-6),
            lambda: StrongCompositionFilter(1.0, 1e-6),
            lambda: BasicCompositionFilter(23.0, 0.9),
            lambda: StrongCompositionFilter(23.0, 0.9),
        ],
    )
    @given(rows=TOTALS_ROWS, eps=st.floats(min_value=0.0, max_value=1.5))
    @settings(max_examples=40, deadline=None)
    def test_property_batch_equals_scalar(self, make, rows, eps):
        f = make()
        candidate = PrivacyBudget(eps, 1e-9)
        matrix = np.array(rows, dtype=np.float64)
        batched = f.admits_batch(matrix, candidate)
        scalar = [f.admits((), candidate, totals=tuple(row)) for row in rows]
        assert list(batched) == scalar

    def test_batch_on_real_charge_histories(self):
        rng = np.random.default_rng(3)
        for f in (BasicCompositionFilter(1.0, 1e-6), StrongCompositionFilter(1.0, 1e-6)):
            histories = []
            for _ in range(40):
                n = int(rng.integers(0, 30))
                histories.append(
                    [
                        PrivacyBudget(float(rng.uniform(0.001, 0.2)), float(rng.uniform(0, 2e-8)))
                        for _ in range(n)
                    ]
                )
            matrix = np.array([totals_of(h) for h in histories])
            for eps in (0.01, 0.1, 0.5, 0.99, 1.0):
                candidate = PrivacyBudget(eps, 1e-9)
                batched = list(f.admits_batch(matrix, candidate))
                scalar = [f.admits(h, candidate, totals=totals_of(h)) for h in histories]
                assert batched == scalar

    def test_max_epsilon_batch_matches_scalar_min(self):
        histories = [
            [PrivacyBudget(0.1, 0.0)] * 3,
            [PrivacyBudget(0.05, 0.0)] * 8,
            [],
        ]
        for f in (BasicCompositionFilter(1.0, 1e-6), StrongCompositionFilter(1.0, 1e-6)):
            matrix = np.array([totals_of(h) for h in histories])
            joint = f.max_epsilon_batch(matrix, 0.0)
            scalar = min(f.max_epsilon(h, 0.0) for h in histories)
            assert joint == pytest.approx(scalar, abs=1e-9)

    def test_empty_batch(self):
        f = BasicCompositionFilter(1.0, 1e-6)
        matrix = np.zeros((0, 4))
        assert f.admits_batch(matrix, PrivacyBudget(0.1, 0.0)).shape == (0,)
        assert f.max_epsilon_batch(matrix, 0.0) == 0.0


MONOTONE_FILTERS = {
    "basic": lambda: BasicCompositionFilter(1.0, 1e-6),
    "strong": lambda: StrongCompositionFilter(1.0, 1e-6),
    "renyi-pruned": lambda: RenyiCompositionFilter(1.0, 1e-6, orders="pruned"),
    "renyi-full": lambda: RenyiCompositionFilter(1.0, 1e-6),
}


class TestMonotoneInEpsilon:
    """The filter contract the blocked-session verdict rests on: at a fixed
    delta, lowering the candidate epsilon never shrinks the admitted set."""

    @pytest.mark.parametrize("name", sorted(MONOTONE_FILTERS))
    @given(
        data=st.data(),
        eps=st.floats(min_value=0.0, max_value=1.5),
        shrink=st.floats(min_value=0.0, max_value=1.0),
        delta=st.sampled_from([0.0, 1e-9, 2e-7]),
    )
    @settings(max_examples=100, deadline=None)
    def test_admitted_rows_grow_as_epsilon_falls(self, name, data, eps, shrink, delta):
        f = MONOTONE_FILTERS[name]()
        n_rows = data.draw(st.integers(min_value=1, max_value=40))
        rows = data.draw(
            hnp.arrays(
                np.float64,
                (n_rows, f.totals_width),
                elements=st.floats(min_value=0.0, max_value=1.5),
            )
        )
        rows[:, TOT_DELTA] *= 1e-7  # spent delta well inside the policy
        narrow = f.admits_batch(rows, PrivacyBudget(eps, delta))
        # A random lower epsilon, two fixed fractions of it, zero, and the
        # float just below ``eps``.
        for lower in (
            eps * shrink,
            eps / 2.0,
            eps / 16.0,
            0.0,
            float(np.nextafter(eps, 0.0)),
        ):
            wide = f.admits_batch(rows, PrivacyBudget(lower, delta))
            assert not (narrow & ~wide).any(), (
                f"{name}: admitted at epsilon {eps!r} but refused at {lower!r}"
            )
