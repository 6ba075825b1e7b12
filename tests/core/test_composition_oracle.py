"""The block filters against an independent history oracle.

``composition_oracle`` decides each block from its charge history with the
``repro.dp`` composition theorems alone.  Random charge sequences run
through a ``BlockAccountant`` and the oracle side by side, for every
filter: both must make the same admit decision on every charge (except
within ``BOUNDARY_REL`` of a threshold, where float operation order may
differ), the accountant's ``max_epsilon`` must sit where the oracle puts
the boundary, and ``stream_loss_bound`` must be the oracle's
component-wise worst block bound.
"""

import numpy as np
import pytest
from composition_oracle import BasicRule, RenyiRule, StrongRule
from hypothesis import given, settings, strategies as st

from repro.core.accountant import BlockAccountant
from repro.core.filters import (
    BasicCompositionFilter,
    RenyiCompositionFilter,
    StrongCompositionFilter,
)
from repro.dp.budget import PrivacyBudget, ZERO_BUDGET
from repro.dp.rdp import DEFAULT_ORDERS, PRUNED_ORDERS, gaussian_mechanism_budget
from repro.errors import BlockRetiredError, BudgetExceededError

EPSILON_G, DELTA_G = 1.0, 1e-6
N_BLOCKS = 4
# How far from a reported max_epsilon the oracle must already decide.
HEADROOM_TIGHTNESS = 1e-6

# Non-default reserved deltas: strong composition's slack and the Renyi
# conversion delta, each well away from the delta_global / 2 default.
SLACK, CONVERSION = DELTA_G / 4.0, DELTA_G / 10.0

# filter factory, oracle rule factory
FILTERS = {
    "basic": (BasicCompositionFilter, BasicRule),
    "strong": (StrongCompositionFilter, StrongRule),
    "strong-slack": (
        lambda e, d: StrongCompositionFilter(e, d, delta_slack=SLACK),
        lambda e, d: StrongRule(e, d, delta_slack=SLACK),
    ),
    "renyi-default": (
        RenyiCompositionFilter,
        lambda e, d: RenyiRule(e, d, DEFAULT_ORDERS),
    ),
    "renyi-pruned": (
        lambda e, d: RenyiCompositionFilter(e, d, orders="pruned"),
        lambda e, d: RenyiRule(e, d, PRUNED_ORDERS),
    ),
    "renyi-conversion": (
        lambda e, d: RenyiCompositionFilter(e, d, delta_conversion=CONVERSION),
        lambda e, d: RenyiRule(e, d, DEFAULT_ORDERS, delta_conversion=CONVERSION),
    ),
}

GAUSSIAN = [
    gaussian_mechanism_budget(q, sigma, steps, delta)
    for q, sigma, steps, delta in (
        (0.002, 4.0, 10, 1e-9),
        (0.005, 3.0, 20, 1e-9),
        (0.01, 2.0, 100, 1e-8),
    )
]
PLAIN = st.builds(
    PrivacyBudget,
    st.one_of(
        st.floats(min_value=0.001, max_value=0.02),
        st.floats(min_value=0.02, max_value=0.7),
    ),
    st.sampled_from([0.0, 1e-9, 1e-8, 1e-7, 2e-7]),
)
BUDGETS = st.one_of(PLAIN, PLAIN, st.sampled_from(GAUSSIAN))
# (block keys, budget, times the charge is repeated)
STEPS = st.lists(
    st.tuples(
        st.sets(st.integers(0, N_BLOCKS - 1), min_size=1).map(sorted),
        BUDGETS,
        st.integers(min_value=1, max_value=40),
    ),
    min_size=1,
    max_size=12,
)


def oracle_agrees(rule, histories, keys, budget, admitted):
    """True when the oracle makes the same decision, or the charge lies on
    a threshold for some named block."""
    expected = all(rule.admits(histories[k], budget) for k in keys)
    return expected == admitted or any(
        rule.near_threshold(histories[k], budget) for k in keys
    )


def check_max_epsilon(acc, rule, histories, keys, delta):
    """The accountant admits a charge at its ``max_epsilon``, and the oracle
    puts the boundary there too: it admits a charge just below and refuses
    one just above."""
    limit = acc.max_epsilon(keys, delta)
    assert 0.0 <= limit <= EPSILON_G
    if limit > 0.0:
        assert acc.can_charge(keys, PrivacyBudget(limit, delta))
    below, above = limit - HEADROOM_TIGHTNESS, limit + HEADROOM_TIGHTNESS
    if below > 0.0:
        assert oracle_agrees(rule, histories, keys, PrivacyBudget(below, delta), True), (
            f"the oracle refuses {below!r} below max_epsilon {limit!r}"
        )
    if above <= EPSILON_G:
        assert oracle_agrees(rule, histories, keys, PrivacyBudget(above, delta), False), (
            f"the oracle admits {above!r} above max_epsilon {limit!r}"
        )


@pytest.mark.parametrize("name", sorted(FILTERS))
@given(steps=STEPS)
@settings(max_examples=25, deadline=None)
def test_accountant_matches_history_oracle(name, steps):
    make_filter, make_rule = FILTERS[name]
    acc = BlockAccountant(EPSILON_G, DELTA_G, filter_factory=make_filter)
    acc.register_blocks(range(N_BLOCKS))
    rule = make_rule(EPSILON_G, DELTA_G)
    histories = {k: [] for k in range(N_BLOCKS)}
    for keys, budget, repeat in steps:
        for _ in range(repeat):
            admitted = acc.can_charge(keys, budget)
            assert oracle_agrees(rule, histories, keys, budget, admitted), (
                f"{name}: accountant {'admits' if admitted else 'refuses'} "
                f"{budget} on {keys}, the oracle does not"
            )
            if not admitted:
                with pytest.raises((BudgetExceededError, BlockRetiredError)):
                    acc.charge(keys, budget)
                break
            acc.charge(keys, budget)
            for k in keys:
                histories[k].append(budget)
        check_max_epsilon(acc, rule, histories, keys, budget.delta)
    bounds = [rule.bound(h) for h in histories.values() if h]
    expected = PrivacyBudget(
        max((b.epsilon for b in bounds), default=0.0),
        max((b.delta for b in bounds), default=0.0),
    )
    got = acc.stream_loss_bound()
    assert got.epsilon == pytest.approx(expected.epsilon, rel=1e-12, abs=0.0)
    assert got.delta == pytest.approx(expected.delta, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("name", sorted(FILTERS))
def test_long_small_charge_run_matches_oracle(name):
    """Hundreds of small charges on one block: the regime where strong and
    Renyi composition overtake the basic sum, up to the refusal."""
    make_filter, make_rule = FILTERS[name]
    acc = BlockAccountant(EPSILON_G, DELTA_G, filter_factory=make_filter)
    acc.register_block(0)
    rule = make_rule(EPSILON_G, DELTA_G)
    charge = PrivacyBudget(0.005, 1e-10)
    n = 0
    while n < 2000 and acc.can_charge([0], charge):
        acc.charge([0], charge)
        n += 1
    history = [charge] * n
    # The last admitted charge and the first refused one.
    assert oracle_agrees(rule, {0: history[:-1]}, [0], charge, True)
    assert oracle_agrees(rule, {0: history}, [0], charge, False)
    check_max_epsilon(acc, rule, {0: history}, [0], 0.0)
    bound = acc.stream_loss_bound()
    assert bound.epsilon == pytest.approx(rule.bound(history).epsilon, rel=1e-12)
    assert bound.epsilon <= EPSILON_G + 1e-9


def test_uncharged_stream_bound_is_zero():
    for make_filter, _ in FILTERS.values():
        acc = BlockAccountant(EPSILON_G, DELTA_G, filter_factory=make_filter)
        acc.register_blocks(range(3))
        assert acc.stream_loss_bound() == ZERO_BUDGET


def test_oracle_refuses_past_the_policy():
    """The oracle is a real rule, not a mirror: it refuses an overdraft on
    either dimension and charges the rule's reserved delta."""
    charge = PrivacyBudget(0.6, 0.0)
    for _, make_rule in FILTERS.values():
        rule = make_rule(EPSILON_G, DELTA_G)
        assert rule.admits([], charge)
        assert not rule.admits([charge], charge)
        assert not rule.admits([], PrivacyBudget(0.1, 2 * DELTA_G))
    assert StrongRule(EPSILON_G, DELTA_G).bound([charge]).delta == pytest.approx(5e-7)
    _, make_rule = FILTERS["strong-slack"]
    assert make_rule(EPSILON_G, DELTA_G).bound([charge]).delta == pytest.approx(SLACK)
    assert np.isclose(BasicRule(EPSILON_G, DELTA_G).bound([charge] * 2).epsilon, 1.2)
