"""ReservationTable: the allocator's contiguous pipelines x blocks matrix."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import durability
from repro.core.accountant import TOT_EPS, BlockAccountant
from repro.core.adaptive import AdaptiveConfig
from repro.core.platform import ReservationTable, Sage
from repro.data.taxi import TaxiGenerator
from repro.dp.budget import PrivacyBudget
from repro.errors import AccessDeniedError, PipelineError


class DictAllocator:
    """The seed's dict semantics, as the reference implementation."""

    def __init__(self):
        self.reservations = {}  # pipeline -> {block: epsilon}
        self.free = {}

    def add_pipeline(self, p):
        self.reservations[p] = {}

    def allocate(self, block, amount, waiting):
        if not waiting:
            self.free[block] = self.free.get(block, 0.0) + amount
            return
        share = amount / len(waiting)
        for p in waiting:
            self.reservations[p][block] = self.reservations[p].get(block, 0.0) + share

    def grant_free(self, waiting):
        if not waiting or not self.free:
            return
        for block, amount in list(self.free.items()):
            share = amount / len(waiting)
            for p in waiting:
                self.reservations[p][block] = (
                    self.reservations[p].get(block, 0.0) + share
                )
            del self.free[block]

    def release(self, p, waiting):
        leftovers = {k: v for k, v in self.reservations[p].items() if v > 0}
        self.reservations[p] = {}
        for block, amount in leftovers.items():
            if waiting:
                share = amount / len(waiting)
                for q in waiting:
                    self.reservations[q][block] = (
                        self.reservations[q].get(block, 0.0) + share
                    )
            else:
                self.free[block] = self.free.get(block, 0.0) + amount

    def settle(self, p, blocks, epsilon):
        for block in blocks:
            held = self.reservations[p].get(block, 0.0)
            self.reservations[p][block] = max(0.0, held - epsilon)

    def limit(self, p, blocks):
        if not blocks:
            return 0.0
        return min(self.reservations[p].get(b, 0.0) for b in blocks)


def test_matches_dict_reference_through_random_schedule():
    """A random allocate/grant/settle/release schedule must reproduce the
    seed's dict allocator value-for-value."""
    rng = np.random.default_rng(9)
    table = ReservationTable(pipeline_capacity=1, block_capacity=1)  # force growth
    ref = DictAllocator()
    n_pipelines, n_blocks = 7, 40
    for p in range(n_pipelines):
        new_row = table.add_pipeline()
        assert new_row == p
        ref.add_pipeline(p)
    waiting = list(range(n_pipelines))
    for b in range(n_blocks):
        new_col = table.add_block()
        assert new_col == b
        active = [p for p in waiting if rng.random() < 0.8]
        table.allocate(b, 1.0, np.array(active, dtype=np.intp))
        ref.allocate(b, 1.0, active)
        if rng.random() < 0.3:
            p = int(rng.integers(n_pipelines))
            blocks = list(rng.choice(b + 1, size=min(b + 1, 3), replace=False))
            eps = float(rng.uniform(0.0, 0.2))
            table.settle(p, np.array(blocks, dtype=np.intp), eps)
            ref.settle(p, blocks, eps)
        if rng.random() < 0.2:
            p = waiting.pop(int(rng.integers(len(waiting)))) if len(waiting) > 1 else None
            if p is not None:
                table.release(p, np.array(waiting, dtype=np.intp))
                ref.release(p, waiting)
        table.grant_free(np.array(waiting, dtype=np.intp))
        ref.grant_free(waiting)
    for p in range(n_pipelines):
        for b in range(n_blocks):
            assert table.values(p, np.array([b]))[0] == ref.reservations[p].get(b, 0.0)
        probe = list(range(0, n_blocks, 7))
        held = table.values(p, np.array(probe, dtype=np.intp))
        assert held.min() == ref.limit(p, probe)
    free_ref = np.zeros(n_blocks)
    for b, v in ref.free.items():
        free_ref[b] = v
    assert np.array_equal(table.free_epsilon, free_ref)


# ----------------------------------------------------------------------
# Redistribution parity: contiguous row-slice adds vs the np.ix_ scatter
# ----------------------------------------------------------------------
def ix_release(table, row, waiting_rows):
    """The sub-matrix gather/add/scatter form ``release`` replaced."""
    eps, free = table._eps, table._free
    held = eps[row, : table.n_blocks]
    cols = np.nonzero(held > 0.0)[0]
    if cols.size:
        if len(waiting_rows):
            eps[np.ix_(waiting_rows, cols)] += held[cols] / len(waiting_rows)
        else:
            free[cols] += held[cols]
        held[cols] = 0.0


def ix_grant_free(table, waiting_rows):
    """The sub-matrix gather/add/scatter form ``grant_free`` replaced."""
    if len(waiting_rows) == 0 or table.n_blocks == 0:
        return
    free = table._free[: table.n_blocks]
    cols = np.nonzero(free)[0]
    if cols.size == 0:
        return
    table._eps[np.ix_(waiting_rows, cols)] += free[cols] / len(waiting_rows)
    free[cols] = 0.0


def grown_table(matrix, free, pipeline_capacity=1, block_capacity=1):
    """A table grown row by row and column by column past its initial
    capacity, then loaded with ``(matrix, free)``."""
    table = ReservationTable(pipeline_capacity, block_capacity)
    n_pipelines, n_blocks = matrix.shape
    for _ in range(n_pipelines):
        table.add_pipeline()
    for _ in range(n_blocks):
        table.add_block()
    table.restore(matrix, free)
    return table


def assert_redistribution_parity(table, op, *args):
    """``op`` on the table leaves the backing buffers -- spare capacity
    included -- byte-equal to the np.ix_ reference on a copy."""
    reference = copy.deepcopy(table)
    {"release": ix_release, "grant_free": ix_grant_free}[op](reference, *args)
    getattr(table, op)(*args)
    assert table._eps.shape == reference._eps.shape
    assert table._eps.tobytes() == reference._eps.tobytes()
    assert table._free.tobytes() == reference._free.tobytes()


_CELL = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 0.1, 1.0 / 3.0, 5e-324, 2.0**-30]),
    st.floats(min_value=0.0, max_value=10.0, allow_subnormal=True),
)


@st.composite
def redistribution_cases(draw):
    n_pipelines = draw(st.integers(1, 11))
    n_blocks = draw(st.integers(0, 13))
    size = n_pipelines * n_blocks
    cells = draw(st.lists(_CELL, min_size=size, max_size=size))
    matrix = np.array(cells, dtype=np.float64).reshape(n_pipelines, n_blocks)
    free = np.array(
        draw(st.lists(_CELL, min_size=n_blocks, max_size=n_blocks)), dtype=np.float64
    )
    row = draw(st.integers(0, n_pipelines - 1))
    if draw(st.booleans()):
        matrix[row] = draw(st.sampled_from([0.0, -0.0]))  # nothing held
    if draw(st.booleans()):
        free[:] = 0.0  # empty free pool
    others = [r for r in range(n_pipelines) if r != row]
    # Any order, scattered or contiguous, possibly empty.
    waiting = draw(
        st.lists(st.sampled_from(others), unique=True) if others else st.just([])
    )
    capacity = (draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    return matrix, free, row, np.array(waiting, dtype=np.intp), capacity


@settings(max_examples=200, deadline=None)
@given(case=redistribution_cases())
def test_release_matches_ix_reference_byte_for_byte(case):
    matrix, free, row, waiting, capacity = case
    table = grown_table(matrix, free, *capacity)
    assert_redistribution_parity(table, "release", row, waiting)


@settings(max_examples=200, deadline=None)
@given(case=redistribution_cases())
def test_grant_free_matches_ix_reference_byte_for_byte(case):
    matrix, free, _, waiting, capacity = case
    table = grown_table(matrix, free, *capacity)
    assert_redistribution_parity(table, "grant_free", waiting)


@pytest.mark.parametrize(
    "waiting",
    [
        pytest.param([], id="empty-waiting-set"),
        pytest.param([1, 2, 3, 4, 5, 6], id="one-run"),
        pytest.param([6, 2, 5, 1], id="unsorted-scattered"),
        pytest.param([1, 3, 5], id="one-row-runs"),
        pytest.param([4, 5, 1, 2, 6], id="unsorted-runs"),
        pytest.param([3, 3, 5], id="repeated-row"),
    ],
)
@pytest.mark.parametrize("op", ["release", "grant_free"])
def test_redistribution_parity_on_named_shapes(op, waiting):
    """Every named shape, on a grown table whose waiting rows hold -0.0
    cells both on and off the redistributed columns."""
    rng = np.random.default_rng(5)
    matrix = rng.uniform(0.0, 1.0, (7, 19))
    matrix[rng.random(matrix.shape) < 0.3] = 0.0
    matrix[rng.random(matrix.shape) < 0.3] = -0.0
    free = np.where(rng.random(19) < 0.5, rng.uniform(0.0, 1.0, 19), -0.0)
    table = grown_table(matrix, free, pipeline_capacity=2, block_capacity=3)
    assert table._eps.shape == (8, 24)  # spare rows and columns
    args = (0, np.array(waiting, dtype=np.intp))
    assert_redistribution_parity(table, op, *(args if op == "release" else args[1:]))


@pytest.mark.parametrize("held", [0.0, -0.0])
def test_release_of_an_empty_holding_changes_nothing(held):
    matrix = np.full((3, 5), -0.0)
    matrix[0] = held
    matrix[1, 2] = 0.25
    table = grown_table(matrix, np.full(5, 0.5))
    before = (table._eps.tobytes(), table._free.tobytes())
    assert_redistribution_parity(table, "release", 0, np.array([1, 2], dtype=np.intp))
    assert (table._eps.tobytes(), table._free.tobytes()) == before


def test_grant_free_of_an_empty_pool_changes_nothing():
    matrix = np.full((3, 5), -0.0)
    table = grown_table(matrix, np.array([0.0, -0.0, 0.0, -0.0, 0.0]))
    before = (table._eps.tobytes(), table._free.tobytes())
    assert_redistribution_parity(table, "grant_free", np.array([0, 2], dtype=np.intp))
    assert (table._eps.tobytes(), table._free.tobytes()) == before


def test_negative_zero_survives_a_redistribution():
    """A waiting row's -0.0 off the held columns stays -0.0 (a +0.0
    share fill would flip it to +0.0)."""
    matrix = np.array([[1.0, 0.0, 2.0], [-0.0, -0.0, -0.0], [-0.0, -0.0, -0.0]])
    table = grown_table(matrix, np.zeros(3))
    table.release(0, np.array([1, 2], dtype=np.intp))
    assert np.array_equal(table.matrix[1:], [[0.5, 0.0, 1.0], [0.5, 0.0, 1.0]])
    assert np.signbit(table.matrix[1:, 1]).all()


def test_block_registered_outside_ingest_fails_the_next_hour():
    """The table's columns are the store's rows only while every block
    enters through the platform's ingest path: a block registered on the
    access layer directly makes the next hour refuse to open, and the
    hour rolls back to its pre-hour state."""
    sage = Sage(TaxiGenerator(points_per_hour=1000), 1.0, 1e-6, seed=4)
    sage.submit(_Threshold("p0", 600.0))
    sage.advance(1.0)
    sage.access.register_blocks(["stray"])
    before = durability.state_digest(sage)
    with pytest.raises(PipelineError, match="ingest path"):
        sage.advance(1.0)
    assert durability.state_digest(sage) == before


def test_epsilon_conservation_on_platform():
    """Reservations + free pool + settled spend account for every block's
    epsilon_global exactly, hour after hour."""
    sage = Sage(TaxiGenerator(points_per_hour=1000), 1.0, 1e-6, seed=4)
    sage.advance(2.0)  # free-pool hours
    entries = [
        sage.submit(_Threshold(f"p{i}", 600.0 * (i + 1))) for i in range(3)
    ]
    for _ in range(8):
        sage.advance(1.0)
        table = sage.reservation_table
        accountant = sage.access.accountant
        n_blocks = table.n_blocks
        assert n_blocks == len(accountant.store)
        reserved = table.matrix.sum(axis=0)
        spent = accountant.store.totals[:, TOT_EPS]
        outstanding = reserved + table.free_epsilon + spent
        assert np.all(outstanding <= 1.0 + 1e-9)


def test_platform_reservations_dict_mirrors_table():
    sage = Sage(TaxiGenerator(points_per_hour=1000), 1.0, 1e-6, seed=4)
    a = sage.submit(_Threshold("a", 1e12))
    b = sage.submit(_Threshold("b", 1e12))
    sage.advance(2.0)
    key = sage.database.keys[0]
    row = sage.access.accountant.rows_for_keys([key])[0]
    for entry in (a, b):
        held = sage.reservation_table.values(entry.table_row, np.array([row]))[0]
        assert entry.reservations.get(key, 0.0) == held
        assert all(v != 0.0 for v in entry.reservations.values())


def test_failed_request_many_leaves_table_untouched():
    """A rejected settlement batch must leave the ReservationTable (and the
    ledger store) byte-for-byte unchanged."""
    sage = Sage(TaxiGenerator(points_per_hour=1000), 1.0, 1e-6, seed=4)
    sage.submit(_Threshold("p", 1e12), AdaptiveConfig(epsilon_start=0.5))
    sage.advance(3.0)
    keys = sage.database.keys[:2]
    table_before = sage.reservation_table.matrix.copy()
    free_before = sage.reservation_table.free_epsilon.copy()
    totals_before = sage.access.accountant.store.totals.copy()
    with pytest.raises(Exception):
        sage.access.request_many(
            [
                (keys, PrivacyBudget(0.3, 0.0)),
                (keys, PrivacyBudget(0.9, 0.0)),  # overdraws: whole batch dies
            ]
        )
    assert np.array_equal(sage.reservation_table.matrix, table_before)
    assert np.array_equal(sage.reservation_table.free_epsilon, free_before)
    assert np.array_equal(sage.access.accountant.store.totals, totals_before)


def test_request_many_charges_stream_and_context():
    from repro.core.access_control import SageAccessControl

    access = SageAccessControl(1.0, 1e-6)
    access.add_context("dev", 0.5, 1e-6)
    access.register_blocks([0, 1, 2])
    records = access.request_many(
        [([0, 1], PrivacyBudget(0.2, 0.0)), ([1, 2], PrivacyBudget(0.2, 0.0), "x")],
        context="dev",
    )
    assert len(records) == 2
    assert access.accountant.store.totals[1, TOT_EPS] == pytest.approx(0.4)
    with pytest.raises(AccessDeniedError):
        # The context (0.5) refuses before the stream (1.0) is touched.
        access.request_many([([0], PrivacyBudget(0.4, 0.0))], context="dev")
    assert access.accountant.store.totals[0, TOT_EPS] == pytest.approx(0.2)
    assert access.can_request_many([([0], PrivacyBudget(0.4, 0.0))])
    assert not access.can_request_many([([0], PrivacyBudget(0.4, 0.0))], context="dev")


def test_request_many_accepts_generators():
    """Regression: the batch endpoints consume ``requests`` once per ledger
    set; a generator must not be silently exhausted by the context
    pre-check (which would commit nothing and return success)."""
    from repro.core.access_control import SageAccessControl

    access = SageAccessControl(1.0, 1e-6)
    access.add_context("dev", 0.5, 1e-6)
    access.register_blocks([0, 1])
    records = access.request_many(
        ((keys, PrivacyBudget(0.1, 0.0)) for keys in ([0], [0, 1])), context="dev"
    )
    assert len(records) == 2
    assert access.accountant.store.totals[0, TOT_EPS] == pytest.approx(0.2)
    assert not access.can_request_many(
        (r for r in [([0], PrivacyBudget(0.45, 0.0))]), context="dev"
    )


class _Threshold:
    def __init__(self, name, threshold):
        self.name = name
        self.threshold = threshold

    def run(self, batch, budget, rng, correct_for_dp=True):
        from repro.core.pipeline import PipelineRun
        from repro.core.validation.outcomes import Outcome, ValidationResult

        outcome = (
            Outcome.ACCEPT
            if len(batch) * budget.epsilon >= self.threshold
            else Outcome.RETRY
        )
        return PipelineRun(
            name=self.name,
            outcome=outcome,
            validation=ValidationResult(outcome, PrivacyBudget(budget.epsilon, 0.0)),
            budget_charged=budget,
        )
