"""BlockAccountant: atomic charges, retirement, the stream-wide bound."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from per_request_oracle import PerLedgerReference, block_histories

from repro.core.accountant import TOT_DELTA, TOT_EPS, BlockAccountant
from repro.core.filters import BasicCompositionFilter, StrongCompositionFilter
from repro.dp.budget import PrivacyBudget
from repro.errors import (
    BlockRetiredError,
    BudgetExceededError,
    InvalidBudgetError,
    RecoveryError,
    SnapshotMismatchError,
)


@pytest.fixture
def accountant():
    acc = BlockAccountant(1.0, 1e-6)
    acc.register_blocks([0, 1, 2, 3])
    return acc


class TestRegistration:
    def test_new_blocks_have_full_budget(self, accountant):
        assert accountant.max_epsilon([0], 0.0) == pytest.approx(1.0)

    def test_duplicate_registration_rejected(self, accountant):
        with pytest.raises(InvalidBudgetError):
            accountant.register_block(0)

    def test_unknown_block_rejected(self, accountant):
        with pytest.raises(InvalidBudgetError):
            accountant.charge([99], PrivacyBudget(0.1))

    def test_contains(self, accountant):
        assert 0 in accountant
        assert 99 not in accountant

    def test_filter_factory_runs_once_per_accountant(self):
        """One filter decides for every block: registering blocks builds
        no further filters."""
        built = []

        def factory(epsilon, delta):
            built.append((epsilon, delta))
            return StrongCompositionFilter(epsilon, delta)

        acc = BlockAccountant(1.0, 1e-6, filter_factory=factory)
        acc.register_blocks(range(50))
        acc.register_block("late")
        acc.charge([0, "late"], PrivacyBudget(0.1, 0.0))
        assert built == [(1.0, 1e-6)]


class TestCharging:
    def test_charge_hits_every_named_block(self, accountant):
        accountant.charge([0, 1], PrivacyBudget(0.4, 0.0))
        assert accountant.max_epsilon([0], 0.0) == pytest.approx(0.6)
        assert accountant.max_epsilon([1], 0.0) == pytest.approx(0.6)
        assert accountant.max_epsilon([2], 0.0) == pytest.approx(1.0)

    def test_charge_is_atomic(self, accountant):
        """A failure on one block must leave all the others untouched."""
        accountant.charge([0], PrivacyBudget(0.9, 0.0))
        with pytest.raises(BudgetExceededError):
            accountant.charge([0, 1], PrivacyBudget(0.4, 0.0))
        assert accountant.max_epsilon([1], 0.0) == pytest.approx(1.0)

    def test_empty_charge_rejected(self, accountant):
        with pytest.raises(InvalidBudgetError):
            accountant.charge([], PrivacyBudget(0.1))

    def test_duplicate_keys_in_charge_rejected(self, accountant):
        with pytest.raises(InvalidBudgetError):
            accountant.charge([0, 0], PrivacyBudget(0.1))

    def test_charge_records_label(self, accountant):
        accountant.charge([0], PrivacyBudget(0.1), label="taxi-lr")
        assert accountant.charges[-1].label == "taxi-lr"
        assert accountant.charges[-1].block_keys == (0,)

    def test_can_charge_mirror(self, accountant):
        assert accountant.can_charge([0, 1], PrivacyBudget(1.0, 1e-6))
        accountant.charge([0], PrivacyBudget(0.7, 0.0))
        assert not accountant.can_charge([0, 1], PrivacyBudget(0.5, 0.0))
        assert not accountant.can_charge([], PrivacyBudget(0.1))


class TestRetirement:
    def test_exhausted_block_retires(self, accountant):
        accountant.charge([0], PrivacyBudget(1.0, 1e-6))
        assert 0 in accountant.retired_blocks()
        assert 0 not in accountant.usable_blocks()

    def test_retired_block_raises_block_retired(self, accountant):
        accountant.charge([0], PrivacyBudget(1.0, 1e-6))
        with pytest.raises(BlockRetiredError):
            accountant.charge([0], PrivacyBudget(0.01, 0.0))

    def test_retirement_is_permanent(self, accountant):
        """Privacy loss never decreases; a retired block stays retired."""
        accountant.charge([0], PrivacyBudget(1.0, 1e-6))
        for _ in range(3):
            assert 0 in accountant.retired_blocks()

    def test_usable_blocks_with_floor(self, accountant):
        accountant.charge([0], PrivacyBudget(0.95, 0.0))
        usable = accountant.usable_blocks(PrivacyBudget(0.1, 0.0))
        assert usable == [1, 2, 3]


class TestStreamBound:
    def test_bound_is_max_over_blocks(self, accountant):
        accountant.charge([0], PrivacyBudget(0.5, 0.0))
        accountant.charge([1], PrivacyBudget(0.3, 1e-7))
        bound = accountant.stream_loss_bound()
        assert bound.epsilon == pytest.approx(0.5)

    def test_bound_never_exceeds_global(self):
        """The paper's core claim (Theorem 4.3), exercised randomly."""
        rng = np.random.default_rng(0)
        acc = BlockAccountant(1.0, 1e-6)
        acc.register_blocks(range(10))
        for _ in range(300):
            keys = list(rng.choice(10, size=rng.integers(1, 4), replace=False))
            budget = PrivacyBudget(float(rng.uniform(0.01, 0.4)), float(rng.uniform(0, 2e-7)))
            if acc.can_charge(keys, budget):
                acc.charge(keys, budget)
        bound = acc.stream_loss_bound()
        assert bound.epsilon <= 1.0 + 1e-9
        assert bound.delta <= 1e-6 + 1e-15

    def test_strong_filter_variant(self):
        acc = BlockAccountant(
            1.0, 1e-6, filter_factory=StrongCompositionFilter
        )
        acc.register_blocks([0])
        for _ in range(12):
            if acc.can_charge([0], PrivacyBudget(0.05, 0.0)):
                acc.charge([0], PrivacyBudget(0.05, 0.0))
        bound = acc.stream_loss_bound()
        assert bound.epsilon <= 1.0 + 1e-9

    def test_bound_dominates_every_block_componentwise(self, accountant):
        """Regression: Thm 4.2 needs a bound dominating every block in BOTH
        components.  A lexicographic (eps, delta) max reported delta=0 here
        because the worst-epsilon block carries no delta."""
        accountant.charge([0], PrivacyBudget(0.5, 0.0))
        accountant.charge([1], PrivacyBudget(0.4, 5e-7))
        bound = accountant.stream_loss_bound()
        assert bound.epsilon == pytest.approx(0.5)
        assert bound.delta == pytest.approx(5e-7)

    def test_componentwise_bound_under_strong_filter(self):
        acc = BlockAccountant(1.0, 1e-6, filter_factory=StrongCompositionFilter)
        acc.register_blocks([0, 1])
        ref = PerLedgerReference(StrongCompositionFilter, 2)
        for side in (acc, ref):
            side.charge([0], PrivacyBudget(0.3, 0.0))
            side.charge([1], PrivacyBudget(0.1, 4e-7))
        bound = acc.stream_loss_bound()
        per_block = [ref.loss_bound(k) for k in (0, 1)]
        assert bound.epsilon >= max(b.epsilon for b in per_block) - 1e-12
        assert bound.delta >= max(b.delta for b in per_block) - 1e-18

    def test_strong_stream_bound_matches_per_ledger_loop(self):
        """The vectorized Theorem A.2 stream bound must equal the
        component-wise max of per-ledger loss bounds, and uncharged blocks
        must contribute zero (not the filter's delta slack)."""
        rng = np.random.default_rng(5)
        acc = BlockAccountant(1.0, 1e-6, filter_factory=StrongCompositionFilter)
        acc.register_blocks(range(20))  # blocks 15-19 never charged
        ref = PerLedgerReference(StrongCompositionFilter, 20)
        for _ in range(60):
            keys = [int(k) for k in rng.choice(15, size=2, replace=False)]
            budget = PrivacyBudget(float(rng.uniform(0.005, 0.05)), 1e-9)
            if acc.can_charge(keys, budget):
                acc.charge(keys, budget)
                ref.charge(keys, budget)
        bound = acc.stream_loss_bound()
        bounds = [ref.loss_bound(k) for k in range(20)]
        assert bound.epsilon == pytest.approx(max(b.epsilon for b in bounds), abs=1e-15)
        assert bound.delta == pytest.approx(max(b.delta for b in bounds), abs=1e-18)
        empty = BlockAccountant(1.0, 1e-6, filter_factory=StrongCompositionFilter)
        empty.register_blocks([0])
        assert empty.stream_loss_bound().is_zero


class TestTailScan:
    def test_tail_returns_newest_first_in_chrono_order(self, accountant):
        tail = accountant.usable_blocks_tail(PrivacyBudget(0.1, 0.0), 2)
        assert tail == [2, 3]

    def test_tail_skips_drained_blocks(self, accountant):
        accountant.charge([3], PrivacyBudget(1.0, 1e-6))
        tail = accountant.usable_blocks_tail(PrivacyBudget(0.5, 0.0), 2)
        assert tail == [1, 2]

    def test_tail_respects_row_filter(self, accountant):
        tail = accountant.usable_blocks_tail(
            PrivacyBudget(0.1, 0.0), 3, row_filter=lambda rows: rows % 2 == 0
        )
        assert tail == [0, 2]

    def test_row_filter_sees_only_rows_that_admit_the_floor(self, accountant):
        accountant.charge([1], PrivacyBudget(1.0, 1e-6))
        seen = []

        def row_filter(rows):
            seen.append(rows.tolist())
            return np.ones(rows.shape, dtype=bool)

        tail = accountant.usable_blocks_tail(
            PrivacyBudget(0.5, 0.0), 4, row_filter=row_filter
        )
        assert seen == [[0, 2, 3]]
        assert tail == [0, 2, 3]

    def test_row_filter_not_called_when_no_row_admits(self, accountant):
        def row_filter(rows):
            raise AssertionError(f"row filter called on {rows!r}")

        tail = accountant.usable_blocks_tail(
            PrivacyBudget(2.0, 0.0), 2, row_filter=row_filter
        )
        assert tail == []

    def test_row_filter_tail_keeps_newest_in_chrono_order(self):
        acc = BlockAccountant(1.0, 1e-6)
        acc.register_blocks([f"b{i}" for i in range(8)])
        tail = acc.usable_blocks_tail(
            PrivacyBudget(0.1, 0.0), 2, row_filter=lambda rows: rows % 2 == 0
        )
        assert tail == ["b4", "b6"]

    def test_tail_short_when_not_enough(self, accountant):
        tail = accountant.usable_blocks_tail(PrivacyBudget(0.1, 0.0), 99)
        assert tail == [0, 1, 2, 3]

    def test_tail_zero_count_is_empty(self, accountant):
        assert accountant.usable_blocks_tail(PrivacyBudget(0.1, 0.0), 0) == []
        assert accountant.usable_blocks_tail(None, -1) == []


class TestLedgerStore:
    """The struct-of-arrays store tracks every committed charge."""

    def test_rows_track_charges(self, accountant):
        accountant.charge([1, 3], PrivacyBudget(0.2, 1e-8))
        totals = accountant.store.totals
        assert totals.shape == (4, 4)
        assert totals[1, TOT_EPS] == pytest.approx(0.2)
        assert totals[3, TOT_DELTA] == pytest.approx(1e-8)
        assert totals[0, TOT_EPS] == 0.0

    def test_store_grows_past_initial_capacity(self):
        acc = BlockAccountant(1.0, 1e-6)
        acc.register_blocks(range(200))
        acc.charge([150], PrivacyBudget(0.4, 0.0))
        assert len(acc.store) == 200
        assert acc.store.totals[150, TOT_EPS] == pytest.approx(0.4)
        assert acc.store.live.all()

    def test_retired_rows_leave_live_mask(self, accountant):
        accountant.charge([0], PrivacyBudget(1.0, 1e-6))
        accountant.usable_blocks()
        assert not accountant.store.live[0]
        assert accountant.store.live[1:].all()


class TestRestoreState:
    @pytest.mark.parametrize(
        "name, misshape",
        [
            ("live", lambda live: live[:-1]),
            ("live", lambda live: np.zeros(200, dtype=bool)),
            ("counts", lambda counts: np.append(counts, 0)),
        ],
        ids=["live-one-row-short", "live-past-capacity", "counts-too-long"],
    )
    def test_misshapen_snapshot_array_rejected(self, name, misshape):
        """Every exported array must match the exported key set; a
        mismatch is a typed error raised before anything is restored."""
        acc = BlockAccountant(1.0, 1e-6)
        acc.register_blocks(range(3))
        acc.charge([0, 1], PrivacyBudget(0.2, 1e-8))
        acc.charge([2], PrivacyBudget(1.0, 0.0))
        state = acc.export_state()
        state[name] = misshape(state[name])
        fresh = BlockAccountant(1.0, 1e-6)
        with pytest.raises(SnapshotMismatchError, match=f"snapshot {name} shape"):
            fresh.restore_state(state)
        assert fresh.block_keys == [] and fresh.charges == []

    def test_charge_on_unknown_block_restores_nothing(self):
        """A logged charge naming a block outside the key set is refused
        before any block registers, so the accountant stays fresh and a
        good snapshot can still be restored into it."""
        acc = BlockAccountant(1.0, 1e-6)
        acc.register_blocks([0, 1])
        acc.charge([0], PrivacyBudget(0.2, 0.0))
        state = acc.export_state()
        state["charges"] = state["charges"] + [(PrivacyBudget(0.1, 0.0), (7,), "")]
        fresh = BlockAccountant(1.0, 1e-6)
        with pytest.raises(RecoveryError, match="unknown block 7"):
            fresh.restore_state(state)
        assert fresh.block_keys == [] and fresh.charges == []
        fresh.restore_state(acc.export_state())
        assert fresh.store.totals.tobytes() == acc.store.totals.tobytes()


class TestBatchedScansMatchScalar:
    """The vectorized paths must reproduce per-ledger decisions exactly."""

    @pytest.mark.parametrize(
        "factory", [BasicCompositionFilter, StrongCompositionFilter]
    )
    def test_randomized_histories(self, factory):
        rng = np.random.default_rng(7)
        acc = BlockAccountant(1.0, 1e-6, filter_factory=factory)
        acc.register_blocks(range(30))
        ref = PerLedgerReference(factory, 30)
        for _ in range(400):
            keys = [int(k) for k in rng.choice(30, size=rng.integers(1, 5), replace=False)]
            budget = PrivacyBudget(float(rng.uniform(0.005, 0.3)), 0.0)
            batched = acc.can_charge(keys, budget)
            scalar = bool(ref.admits_keys(keys, budget).all())
            assert batched == scalar
            if batched:
                acc.charge(keys, budget)
                ref.charge(keys, budget)
        probe = PrivacyBudget(0.05, 0.0)
        batched_mask = list(acc.admits_keys(acc.block_keys, probe))
        scalar_mask = list(ref.admits_keys(ref.block_keys, probe))
        assert batched_mask == scalar_mask

    def test_usable_blocks_matches_per_ledger_loop(self):
        rng = np.random.default_rng(11)
        acc = BlockAccountant(1.0, 1e-6)
        acc.register_blocks(range(50))
        ref = PerLedgerReference(BasicCompositionFilter, 50)
        spends = [([key], PrivacyBudget(float(rng.uniform(0.0, 1.0)), 0.0), "")
                  for key in range(50)]
        acc.charge_many(spends)
        ref.charge_many(spends)
        floor = PrivacyBudget(0.25, 0.0)
        assert acc.usable_blocks(floor) == ref.usable_blocks(floor)

    def test_custom_totals_deciding_filter_accepted_and_enforced(self):
        """A subclass that tightens the batch rules, from the totals alone,
        stages and is enforced by every decision."""

        class CappedBasic(BasicCompositionFilter):
            def admits_batch(self, totals, candidate):
                admitted = super().admits_batch(totals, candidate)
                return admitted & (candidate.epsilon <= 0.25)

            def max_epsilon_batch(self, totals, delta):
                return min(0.25, super().max_epsilon_batch(totals, delta))

        acc = BlockAccountant(1.0, 1e-6, filter_factory=CappedBasic)
        acc.register_blocks([0, 1])
        assert acc.max_epsilon([0, 1]) == pytest.approx(0.25)
        assert not acc.can_charge([0], PrivacyBudget(0.3, 0.0))
        with pytest.raises(BudgetExceededError):
            acc.charge([0], PrivacyBudget(0.3, 0.0))
        acc.begin_staging()
        acc.stage_charge([0], PrivacyBudget(0.25, 0.0))
        acc.charge_many(acc.pop_staged())
        assert acc.store.totals[0, TOT_EPS] == pytest.approx(0.25)

    def test_admits_batch_alone_never_over_admits(self):
        """A subclass that tightens only admits_batch inherits a
        max_epsilon_batch that overstates its headroom: a proposal sized
        by it is refused on every write path, and nothing lands.  The
        subclass reads its ``(n, totals_width)`` matrix by column, so every
        refusal's retirement check must pass it a matrix too."""

        class CappedAdmitsOnly(BasicCompositionFilter):
            def admits_batch(self, totals, candidate):
                return totals[:, TOT_EPS] + candidate.epsilon <= 0.25

        acc = BlockAccountant(1.0, 1e-6, filter_factory=CappedAdmitsOnly)
        acc.register_blocks([0, 1])
        oversized = PrivacyBudget(acc.max_epsilon([0, 1]), 0.0)
        assert oversized.epsilon == pytest.approx(1.0)
        with pytest.raises(BudgetExceededError):
            acc.charge([0, 1], oversized)
        with pytest.raises(BudgetExceededError):
            acc.charge_many([([0], PrivacyBudget(0.1, 0.0)), ([1], oversized)])
        acc.begin_staging()
        with pytest.raises(BudgetExceededError):
            acc.stage_charge([0, 1], oversized)
        committed = acc.commit_staged()
        assert committed == []
        assert not acc.store.totals.any() and acc.charges == []
        acc.charge([0], PrivacyBudget(0.25, 0.0))
        with pytest.raises(BlockRetiredError):
            acc.charge([0], PrivacyBudget(0.1, 0.0))

    def test_max_epsilon_matches_scalar_min(self):
        for factory in (BasicCompositionFilter, StrongCompositionFilter):
            acc = BlockAccountant(1.0, 1e-6, filter_factory=factory)
            acc.register_blocks(range(5))
            ref = PerLedgerReference(factory, 5)
            for side in (acc, ref):
                side.charge([0, 2], PrivacyBudget(0.3, 0.0))
                side.charge([2, 4], PrivacyBudget(0.2, 0.0))
            keys = [0, 2, 4]
            scalar = ref.max_epsilon(keys, 0.0)
            assert acc.max_epsilon(keys, 0.0) == pytest.approx(scalar, abs=1e-9)


def _store_state(acc):
    return (
        acc.store.totals.copy(),
        acc.store.live.copy(),
        acc.store.charge_counts.copy(),
        block_histories(acc),
        len(acc.charges),
    )


def _assert_store_equal(a, b):
    assert np.array_equal(a[0], b[0])  # totals, byte-for-byte
    assert np.array_equal(a[1], b[1])  # live mask
    assert np.array_equal(a[2], b[2])  # charge counts
    assert a[3] == b[3]  # histories
    assert a[4] == b[4]  # charge log length


class TestChargeMany:
    """The batched settlement path: sequential equivalence + atomicity."""

    @pytest.mark.parametrize(
        "factory", [BasicCompositionFilter, StrongCompositionFilter]
    )
    def test_committed_batch_matches_sequential(self, factory):
        rng = np.random.default_rng(21)
        batched = BlockAccountant(1.0, 1e-6, filter_factory=factory)
        sequential = BlockAccountant(1.0, 1e-6, filter_factory=factory)
        for acc in (batched, sequential):
            acc.register_blocks(range(12))
        requests = []
        for j in range(20):
            keys = [int(k) for k in rng.choice(12, size=rng.integers(1, 5), replace=False)]
            requests.append(
                (keys, PrivacyBudget(float(rng.uniform(0.001, 0.04)), 1e-9), f"r{j}")
            )
        records = batched.charge_many(requests)
        for keys, budget, label in requests:
            sequential.charge(keys, budget, label=label)
        _assert_store_equal(_store_state(batched), _store_state(sequential))
        assert [r.label for r in records] == [f"r{j}" for j in range(20)]
        assert batched.charges[-1].block_keys == sequential.charges[-1].block_keys

    def test_intra_batch_accumulation(self, accountant):
        """Two charges on one block in a batch are checked combined: the
        pair must be refused even though each alone would be admitted."""
        budget = PrivacyBudget(0.6, 0.0)
        assert accountant.can_charge([0], budget)
        with pytest.raises(BudgetExceededError):
            accountant.charge_many([([0], budget), ([0, 1], budget)])
        assert not accountant.can_charge_many([([0], budget), ([0, 1], budget)])
        assert accountant.can_charge_many([([0], budget), ([1], budget)])

    def test_mid_batch_rejection_rolls_everything_back(self, accountant):
        accountant.charge([2], PrivacyBudget(0.8, 0.0))  # pre-existing spend
        before = _store_state(accountant)
        with pytest.raises(BudgetExceededError):
            accountant.charge_many(
                [
                    ([0, 1], PrivacyBudget(0.3, 0.0)),
                    ([1, 3], PrivacyBudget(0.2, 1e-8)),
                    ([2, 3], PrivacyBudget(0.5, 0.0)),  # block 2 refuses
                ]
            )
        _assert_store_equal(_store_state(accountant), before)

    def test_retired_block_error_type(self, accountant):
        accountant.charge([1], PrivacyBudget(1.0, 1e-6))
        before = _store_state(accountant)
        with pytest.raises(BlockRetiredError):
            accountant.charge_many(
                [([0], PrivacyBudget(0.1, 0.0)), ([1], PrivacyBudget(0.1, 0.0))]
            )
        _assert_store_equal(_store_state(accountant), before)

    def test_malformed_requests_rejected(self, accountant):
        with pytest.raises(InvalidBudgetError):
            accountant.charge_many([([], PrivacyBudget(0.1))])
        with pytest.raises(InvalidBudgetError):
            accountant.charge_many([([0, 0], PrivacyBudget(0.1))])
        with pytest.raises(InvalidBudgetError):
            accountant.charge_many([([99], PrivacyBudget(0.1))])
        empty = accountant.charge_many([])
        assert empty == []
        assert accountant.can_charge_many([])

    @given(
        st.lists(
            st.tuples(
                st.lists(
                    st.integers(min_value=0, max_value=5),
                    min_size=1,
                    max_size=4,
                    unique=True,
                ),
                st.floats(min_value=0.01, max_value=0.6),
            ),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_property_batch_observationally_identical(self, raw):
        """charge_many commits iff the same charges applied sequentially via
        charge all commit; a committed batch leaves identical state and a
        refused batch leaves the accountant byte-for-byte untouched."""
        requests = [(keys, PrivacyBudget(eps, 0.0)) for keys, eps in raw]
        batched = BlockAccountant(1.0, 1e-6)
        sequential = BlockAccountant(1.0, 1e-6)
        for acc in (batched, sequential):
            acc.register_blocks(range(6))
        before = _store_state(batched)
        try:
            batched.charge_many(requests)
            batch_error = None
        except (BudgetExceededError, BlockRetiredError) as exc:
            batch_error = exc
        seq_error = None
        for keys, budget in requests:
            try:
                sequential.charge(keys, budget)
            except (BudgetExceededError, BlockRetiredError) as exc:
                seq_error = exc
                break
        assert (batch_error is None) == (seq_error is None)
        if batch_error is None:
            _assert_store_equal(_store_state(batched), _store_state(sequential))
        else:
            assert type(batch_error) is type(seq_error)
            assert batch_error.block_id == seq_error.block_id
            _assert_store_equal(_store_state(batched), before)


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=4),
            st.floats(min_value=0.01, max_value=0.5),
        ),
        max_size=40,
    )
)
@settings(max_examples=50, deadline=None)
def test_property_no_block_ever_exceeds_global(charges):
    """Whatever the charge sequence, per-block spend stays within eps_g."""
    acc = BlockAccountant(1.0, 1e-6)
    acc.register_blocks(range(5))
    for key, eps in charges:
        budget = PrivacyBudget(eps, 0.0)
        if acc.can_charge([key], budget):
            acc.charge([key], budget)
    for history in block_histories(acc).values():
        spent = sum(b.epsilon for b in history)
        assert spent <= 1.0 + 1e-9


class TestKeyRows:
    """rows_for_keys translates a window into store rows (registration
    order), the index space the platform's ReservationTable shares."""

    def test_distinct_windows_distinct_rows(self, accountant):
        assert accountant.rows_for_keys([0, 2]).tolist() == [0, 2]
        assert accountant.rows_for_keys([2, 0]).tolist() == [2, 0]
        assert accountant.rows_for_keys([]).tolist() == []

    def test_new_registration_resolves_to_appended_row(self, accountant):
        accountant.register_block(99)
        assert accountant.rows_for_keys([1, 3]).tolist() == [1, 3]
        assert accountant.rows_for_keys([99]).tolist() == [4]

    def test_unregistered_key_raises(self, accountant):
        with pytest.raises(InvalidBudgetError):
            accountant.rows_for_keys([1, 77])
        accountant.register_block(77)
        assert accountant.rows_for_keys([1, 77]).tolist() == [1, 4]


class TestFrozenBenchNames:
    """The names the frozen benchmark harness imports resolve to the one
    accountant."""

    def test_factory_returns_the_single_accountant(self):
        from repro.core import sharded_accountant_factory

        assert sharded_accountant_factory(4) is BlockAccountant
        with pytest.raises(InvalidBudgetError):
            sharded_accountant_factory(0)

    def test_layer_target_is_the_single_charge_many(self):
        from repro.core.sharding import ShardedBlockAccountant

        assert ShardedBlockAccountant.charge_many is BlockAccountant.charge_many
