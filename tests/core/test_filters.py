"""Per-block privacy filters (basic + Rogers strong composition).

Filters decide from totals rows only; these tests build one block's row
from a charge history the way the accountant does (adding each charge's
``contribution``) and ask the filter through one-row batch calls.  The
rules themselves are checked against the history oracle in
``composition_oracle.py``.
"""

import math

import numpy as np
import pytest
from composition_oracle import BasicRule, StrongRule
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from per_request_oracle import (
    assert_rows_match_oracle,
    history_admits,
    history_loss_bound,
    history_max_epsilon,
    history_row,
)

from repro.core.accountant import TOT_DELTA, TOT_EPS, TOT_LINEAR, TOT_SQ
from repro.core.filters import (
    BasicCompositionFilter,
    RenyiCompositionFilter,
    StrongCompositionFilter,
)
from repro.dp.budget import PrivacyBudget
from repro.dp.rdp import gaussian_mechanism_budget
from repro.errors import InvalidBudgetError


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
            assert history_admits(f, history, charge)
            history.append(charge)
        # 0.9 spent; 0.3 more would overflow epsilon.
        assert not history_admits(f, history, charge)
        assert history_admits(f, history, PrivacyBudget(0.1, 0.0))

    def test_headroom_exact(self):
        """Budgets add up, so the leftover is exact on both dimensions."""
        f = BasicCompositionFilter(1.0, 1e-6)
        spent = [PrivacyBudget(0.25, 4e-7)]
        assert history_max_epsilon(f, spent, 0.0) == pytest.approx(0.75)
        assert history_max_epsilon(f, spent, 6e-7) == pytest.approx(0.75)
        assert history_max_epsilon(f, spent, 6.1e-7) == 0.0
        assert history_admits(f, spent, PrivacyBudget(0.75, 6e-7))

    def test_delta_dimension_enforced(self):
        f = BasicCompositionFilter(10.0, 1e-6)
        history = [PrivacyBudget(0.1, 1e-6)]
        assert not history_admits(f, history, PrivacyBudget(0.1, 1e-7))
        assert history_admits(f, history, PrivacyBudget(0.1, 0.0))

    def test_max_epsilon(self):
        f = BasicCompositionFilter(1.0, 1e-6)
        assert history_max_epsilon(f, [PrivacyBudget(0.4, 0.0)], 0.0) == pytest.approx(0.6)
        assert history_max_epsilon(f, [], 2e-6) == 0.0  # delta unaffordable

    def test_loss_bound_is_sum(self):
        f = BasicCompositionFilter(1.0, 1e-6)
        bound = history_loss_bound(f, [PrivacyBudget(0.2), PrivacyBudget(0.3)])
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
            if history_admits(f, admitted, b):
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
        row = np.zeros((1, 4))
        counts = []
        for f in (basic, strong):  # strong picks up where basic refused
            n = 0
            while f.admits_batch(row, charge)[0]:
                row += f.contribution(charge)
                n += 1
            counts.append(n)
        k_basic, admitted = counts[0], sum(counts)
        assert admitted > 1.5 * k_basic
        # The history oracle puts strong composition's refusal there too.
        rule = StrongRule(1.0, 1e-6)
        assert rule.admits([charge] * (admitted - 1), charge)
        assert not rule.admits([charge] * admitted, charge)

    def test_single_big_query_behaves_like_basic(self):
        strong = StrongCompositionFilter(1.0, 1e-6)
        assert not history_admits(strong, [], PrivacyBudget(1.5, 0.0))

    def test_delta_budget_shared_with_slack(self):
        strong = StrongCompositionFilter(1.0, 1e-6, delta_slack=5e-7)
        # Queries may consume at most delta_global - slack = 5e-7 in total.
        assert history_admits(strong, [], PrivacyBudget(0.1, 4e-7))
        assert not history_admits(strong, [PrivacyBudget(0.1, 4e-7)], PrivacyBudget(0.1, 2e-7))

    def test_max_epsilon_bisection(self):
        strong = StrongCompositionFilter(1.0, 1e-6)
        history = [PrivacyBudget(0.01, 0.0)] * 10
        limit = history_max_epsilon(strong, history, 0.0)
        assert 0.0 < limit < 1.0
        assert history_admits(strong, history, PrivacyBudget(limit * 0.999, 0.0))
        assert not history_admits(strong, history, PrivacyBudget(min(1.0, limit * 1.01), 0.0))

    def test_basic_fallback_keeps_moderate_queries_admissible(self):
        """A lone eps=0.125 query trivially fits eps_g=1 by basic
        composition even though the Rogers bound alone would refuse it."""
        strong = StrongCompositionFilter(1.0, 1e-6)
        assert history_admits(strong, [], PrivacyBudget(0.125, 0.0))
        # Basic fallback also gives exact headroom after moderate spends.
        limit = history_max_epsilon(strong, [PrivacyBudget(0.1, 0.0)] * 5, 0.0)
        assert limit == pytest.approx(0.5, abs=1e-6)

    def test_loss_bound_grows_with_history(self):
        strong = StrongCompositionFilter(1.0, 1e-6)
        a = history_loss_bound(strong, [PrivacyBudget(0.1)] * 2)
        b = history_loss_bound(strong, [PrivacyBudget(0.1)] * 6)
        assert b.epsilon > a.epsilon

    def test_loss_bound_matches_oracle(self):
        """The O(1) totals bound (the stream_loss_bound pass) equals the
        oracle's bound over the charge history."""
        history = [PrivacyBudget(0.05, 1e-8)] * 9
        for f, rule in (
            (BasicCompositionFilter(1.0, 1e-6), BasicRule(1.0, 1e-6)),
            (StrongCompositionFilter(1.0, 1e-6), StrongRule(1.0, 1e-6)),
        ):
            from_totals = history_loss_bound(f, history)
            replayed = rule.bound(history)
            assert from_totals.epsilon == pytest.approx(replayed.epsilon, rel=1e-12)
            assert from_totals.delta == pytest.approx(replayed.delta, rel=1e-12)

    @given(SMALL_BUDGETS)
    @settings(max_examples=30)
    def test_filter_never_admits_past_global(self, history):
        """Whatever gets admitted, the reported loss bound fits eps_g."""
        strong = StrongCompositionFilter(1.0, 1e-6)
        admitted = []
        for b in history:
            if history_admits(strong, admitted, b):
                admitted.append(b)
        if admitted:
            assert history_loss_bound(strong, admitted).epsilon <= 1.0 + 1e-9
            assert StrongRule(1.0, 1e-6).bound(admitted).epsilon <= 1.0 + 1e-9


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
        totals = np.zeros((1, 4))
        for i in range(4096):
            assert f.admits_batch(totals, charge)[0], f"rejected at charge {i}"
            totals[0, TOT_EPS] += charge.epsilon
            totals[0, TOT_DELTA] += charge.delta
            totals[0, TOT_SQ] += charge.epsilon ** 2
            totals[0, TOT_LINEAR] += math.expm1(charge.epsilon) * charge.epsilon / 2.0

    def test_basic_max_epsilon_agrees_with_admits_in_tolerance_band(self):
        """max_epsilon_batch must not report zero headroom for a delta that
        admits_batch would accept (they share fits_within's slack)."""
        f = BasicCompositionFilter(1.0, 0.9)
        history = [PrivacyBudget(0.1, 0.9)]  # delta fully spent
        candidate = PrivacyBudget(0.05, 1e-11)  # inside fits_within's slack
        assert history_admits(f, history, candidate)
        assert history_max_epsilon(f, history, candidate.delta) > 0.0

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
        assert history_admits(f, history, charge)
        assert history_max_epsilon(f, history, charge.delta) > 0.0

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
        basic_totals = np.zeros((1, 4))
        strong_totals = np.zeros((1, 4))
        for i in range(k):
            assert basic.admits_batch(basic_totals, basic_charge)[0], (
                f"basic rejected charge {i + 1}/{k}"
            )
            # The strong filter may legitimately refuse on its eps side (the
            # Rogers bound exceeds eps_g for moderate per-query epsilons)
            # but never on delta drift: a zero-eps probe carrying the same
            # delta isolates the delta check.
            assert strong.admits_batch(
                strong_totals, PrivacyBudget(0.0, strong_charge.delta)
            )[0], f"strong filter rejected the delta share at charge {i + 1}/{k}"
            for totals, charge in (
                (basic_totals, basic_charge),
                (strong_totals, strong_charge),
            ):
                totals[0, TOT_EPS] += charge.epsilon
                totals[0, TOT_DELTA] += charge.delta
                totals[0, TOT_SQ] += charge.epsilon ** 2
                totals[0, TOT_LINEAR] += math.expm1(charge.epsilon) * charge.epsilon / 2.0


HISTORIES = st.lists(SMALL_BUDGETS, min_size=1, max_size=12)
ORACLE_PAIRS = {
    "basic": lambda: (BasicCompositionFilter(1.0, 1e-6), BasicRule(1.0, 1e-6)),
    "strong": lambda: (StrongCompositionFilter(1.0, 1e-6), StrongRule(1.0, 1e-6)),
    "basic-wide": lambda: (BasicCompositionFilter(23.0, 0.9), BasicRule(23.0, 0.9)),
    "strong-wide": lambda: (StrongCompositionFilter(23.0, 0.9), StrongRule(23.0, 0.9)),
}


class TestBatchMatchesOracle:
    """admits_batch over many rows decides each row as the history oracle
    decides that row's charge history."""

    @pytest.mark.parametrize("name", sorted(ORACLE_PAIRS))
    @given(histories=HISTORIES, eps=st.floats(min_value=0.0, max_value=1.5))
    @settings(max_examples=40, deadline=None)
    def test_property_batch_equals_oracle(self, name, histories, eps):
        f, rule = ORACLE_PAIRS[name]()
        assert_rows_match_oracle(f, rule, histories, PrivacyBudget(eps, 1e-9))

    def test_batch_on_real_charge_histories(self):
        rng = np.random.default_rng(3)
        for name in ("basic", "strong"):
            f, rule = ORACLE_PAIRS[name]()
            histories = []
            for _ in range(40):
                n = int(rng.integers(0, 30))
                histories.append(
                    [
                        PrivacyBudget(float(rng.uniform(0.001, 0.2)), float(rng.uniform(0, 2e-8)))
                        for _ in range(n)
                    ]
                )
            for eps in (0.01, 0.1, 0.5, 0.99, 1.0):
                assert_rows_match_oracle(f, rule, histories, PrivacyBudget(eps, 1e-9))

    def test_max_epsilon_batch_is_the_oracle_boundary(self):
        """The joint headroom is what the tightest row's history still
        admits: just below it every row admits, just above some row
        refuses."""
        histories = [
            [PrivacyBudget(0.1, 0.0)] * 3,
            [PrivacyBudget(0.05, 0.0)] * 8,
            [],
        ]
        for name in ("basic", "strong"):
            f, rule = ORACLE_PAIRS[name]()
            matrix = np.concatenate([history_row(f, h) for h in histories])
            joint = f.max_epsilon_batch(matrix, 0.0)
            assert joint == pytest.approx(
                min(history_max_epsilon(f, h, 0.0) for h in histories), abs=1e-9
            )
            below, above = PrivacyBudget(joint - 1e-6), PrivacyBudget(joint + 1e-6)
            assert all(rule.admits(h, below) for h in histories)
            assert not all(rule.admits(h, above) for h in histories)

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


PURE_BUDGETS = st.builds(
    PrivacyBudget,
    st.floats(min_value=0.0, max_value=0.7),
    st.sampled_from([0.0, 1e-9]),
)
GAUSSIAN_BUDGETS = st.sampled_from(
    [
        gaussian_mechanism_budget(q, sigma, steps, 1e-9)
        for q, sigma, steps in ((0.002, 4.0, 10), (0.01, 2.0, 100), (0.05, 1.0, 50))
    ]
)


class TestMonotoneInSpend:
    """The filter contract the hour pass rests on: a charge never grows the
    admitted set.  On any totals rows, after adding one charge's
    ``contribution`` to every row, a candidate is admitted on no row that
    refused it before -- so a session the pass proved blocked stays
    blocked while stages land."""

    @pytest.mark.parametrize("name", sorted(MONOTONE_FILTERS))
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_a_charge_admits_no_refused_row(self, name, data):
        f = MONOTONE_FILTERS[name]()
        budgets = PURE_BUDGETS
        if isinstance(f, RenyiCompositionFilter):
            budgets = st.one_of(PURE_BUDGETS, GAUSSIAN_BUDGETS)
        n_rows = data.draw(st.integers(min_value=1, max_value=40))
        rows = data.draw(
            hnp.arrays(
                np.float64,
                (n_rows, f.totals_width),
                elements=st.floats(min_value=0.0, max_value=1.5),
            ),
            label="totals",
        )
        rows[:, TOT_DELTA] *= 1e-7  # spent delta well inside the policy
        candidate = data.draw(budgets, label="candidate")
        admitted = f.admits_batch(rows, candidate)
        spends = data.draw(st.lists(budgets, min_size=1, max_size=4), label="spends")
        for spend in spends:
            rows = rows + f.contribution(spend)
            after = f.admits_batch(rows, candidate)
            assert not (after & ~admitted).any(), (
                f"{name}: a charge of {spend!r} made {candidate!r} admissible"
            )
            admitted = after

    @pytest.mark.parametrize("name", sorted(MONOTONE_FILTERS))
    def test_a_charge_can_refuse_an_admitted_row(self, name):
        """Not vacuous: spending moves rows out of the admitted set."""
        f = MONOTONE_FILTERS[name]()
        rows = np.zeros((2, f.totals_width))
        rows[1] += f.contribution(PrivacyBudget(0.5, 0.0))
        candidate = PrivacyBudget(0.4, 0.0)
        assert f.admits_batch(rows, candidate).all()
        spent = rows + f.contribution(PrivacyBudget(0.5, 0.0))
        assert f.admits_batch(spent, candidate).tolist() == [True, False]
