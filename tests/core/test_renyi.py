"""Renyi block accounting: the per-order RDP ledger schema and
:class:`RenyiCompositionFilter`, end to end.

Covers the filter's decision logic (scalar/batch grid parity, closed-form
``max_epsilon`` inversion, the superset-of-strong-composition property for
Gaussian-style workloads), the order-extended ledger store under
``charge_many``/staging (byte-parity and rollback), and the platform drive
(an RDP-filtered stream runs the full batched propose/settle protocol).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.accountant import BlockAccountant
from repro.core.adaptive import AdaptiveConfig, AdaptiveSession
from repro.core.filters import (
    TOTALS_BASE,
    PrivacyFilter,
    RenyiCompositionFilter,
    StrongCompositionFilter,
)
from repro.core.platform import Sage
from repro.dp.budget import PrivacyBudget, ZERO_BUDGET
from repro.dp.rdp import (
    compute_rdp,
    gaussian_mechanism_budget,
    pure_dp_rdp,
    rdp_epsilon_penalties,
)
from repro.errors import BudgetExceededError, InvalidBudgetError
from repro.workload.oracle import CountStreamSource, OraclePipeline

ORDERS_SMALL = (2, 3, 4, 8, 16, 32, 64)


def replay_totals(filt: PrivacyFilter, history) -> np.ndarray:
    """A ledger's accumulation of ``history`` (the float op order ledgers,
    charge_many, and staging all share)."""
    totals = np.zeros(filt.totals_width)
    for budget in history:
        totals += filt.contribution(budget)
    return totals


def count_admitted(filt: PrivacyFilter, charge: PrivacyBudget, cap: int = 5000) -> int:
    """How many copies of ``charge`` one block absorbs before refusal."""
    totals = np.zeros(filt.totals_width)
    n = 0
    while n < cap and filt.admits((), charge, totals=tuple(totals)):
        totals += filt.contribution(charge)
        n += 1
    return n


class TestRenyiFilterUnit:
    def test_schema_declaration(self):
        f = RenyiCompositionFilter(1.0, 1e-6, orders=ORDERS_SMALL)
        assert f.totals_width == TOTALS_BASE + len(ORDERS_SMALL)
        assert f.delta_reserved == pytest.approx(5e-7)
        contrib = f.contribution(PrivacyBudget(0.1, 1e-9))
        assert contrib.shape == (f.totals_width,)
        assert contrib[0] == pytest.approx(0.1)
        assert np.array_equal(contrib[TOTALS_BASE:], pure_dp_rdp(0.1, ORDERS_SMALL))

    def test_requires_positive_delta(self):
        with pytest.raises(InvalidBudgetError):
            RenyiCompositionFilter(1.0, 0.0)
        with pytest.raises(InvalidBudgetError):
            RenyiCompositionFilter(1.0, 1e-6, delta_conversion=2e-6)
        with pytest.raises(InvalidBudgetError):
            RenyiCompositionFilter(1.0, 1e-6, orders=())

    def test_fractional_orders_rejected_not_truncated(self):
        """Regression: the filter needs the integer-order expansion paths,
        so fractional orders must raise, never be silently truncated to a
        coarser grid -- while the conversion helpers themselves keep
        accepting any real order > 1."""
        with pytest.raises(InvalidBudgetError):
            RenyiCompositionFilter(1.0, 1e-6, orders=(2.5, 3.5))
        with pytest.raises(InvalidBudgetError):
            RenyiCompositionFilter(1.0, 1e-6, orders=(1,))
        assert rdp_epsilon_penalties((1.5, 2.5), 1e-6).shape == (2,)

    def test_loss_bound_reports_delta_of_zero_epsilon_charges(self):
        """Regression: a history of pure-delta charges is real spend; the
        scalar bound must report it exactly as loss_bound_batch does."""
        f = RenyiCompositionFilter(1.0, 1e-6, orders=ORDERS_SMALL)
        history = [PrivacyBudget(0.0, 1e-7)]
        bound = f.loss_bound(history)
        assert bound.delta == pytest.approx(5e-7 + 1e-7)
        _, delta_rows = f.loss_bound_batch(
            replay_totals(f, history).reshape(1, -1)
        )
        assert float(delta_rows[0]) == pytest.approx(bound.delta)

    def test_admits_until_exhaustion_and_beats_strong(self):
        charge = PrivacyBudget(0.01, 1e-9)
        renyi = count_admitted(RenyiCompositionFilter(1.0, 1e-6), charge)
        strong = count_admitted(StrongCompositionFilter(1.0, 1e-6), charge)
        assert 0 < strong < renyi < 5000

    def test_delta_dimension_enforced(self):
        f = RenyiCompositionFilter(10.0, 1e-6)
        # delta_conversion (5e-7) plus the charge deltas may not pass 1e-6.
        history = [PrivacyBudget(0.1, 4e-7)]
        assert not f.admits(history, PrivacyBudget(0.1, 2e-7))
        assert f.admits(history, PrivacyBudget(0.1, 0.0))

    def test_gaussian_charges_use_exact_curve(self):
        f = RenyiCompositionFilter(1.0, 1e-6, orders=ORDERS_SMALL)
        g = gaussian_mechanism_budget(0.01, 2.0, 100, 1e-8, orders=ORDERS_SMALL)
        assert np.array_equal(
            f.charge_rdp(g), compute_rdp(0.01, 2.0, 100, ORDERS_SMALL)
        )
        # The exact curve is far below the pure-DP reduction of the
        # converted epsilon, so many more such charges are admitted than
        # equal plain (epsilon, delta) charges.
        plain = PrivacyBudget(g.epsilon, g.delta)
        assert count_admitted(f, g) > 2 * count_admitted(f, plain)

    def test_grid_parity_scalar_vs_batch(self):
        """admits_batch must equal the scalar rule decision-for-decision on
        rows straddling the admit boundary."""
        f = RenyiCompositionFilter(1.0, 1e-6, orders=ORDERS_SMALL)
        rng = np.random.default_rng(7)
        rows = []
        for _ in range(60):
            history = [
                PrivacyBudget(float(rng.uniform(0.001, 0.2)), float(rng.uniform(0, 4e-9)))
                for _ in range(int(rng.integers(0, 60)))
            ]
            rows.append(replay_totals(f, history))
        matrix = np.array(rows)
        for candidate in (
            PrivacyBudget(0.01, 0.0),
            PrivacyBudget(0.2, 1e-8),
            PrivacyBudget(0.7, 0.0),
            gaussian_mechanism_budget(0.02, 1.5, 50, 1e-9, orders=ORDERS_SMALL),
        ):
            batch = f.admits_batch(matrix, candidate)
            scalar = [f.admits((), candidate, totals=tuple(row)) for row in rows]
            assert batch.tolist() == scalar

    def test_max_epsilon_closed_form_matches_bisection(self):
        """The per-order inversion must agree with the generic base-class
        bisection of admits_batch (the independent reference)."""
        f = RenyiCompositionFilter(1.0, 1e-6, orders=ORDERS_SMALL)
        rng = np.random.default_rng(3)
        for _ in range(20):
            history = [
                PrivacyBudget(float(rng.uniform(0.001, 0.15)), 0.0)
                for _ in range(int(rng.integers(0, 40)))
            ]
            matrix = replay_totals(f, history).reshape(1, -1)
            closed = f.max_epsilon_batch(matrix, 0.0)
            bisected = PrivacyFilter.max_epsilon_batch(f, matrix, 0.0)
            assert closed == pytest.approx(bisected, abs=1e-9)
            # A charge at exactly the reported headroom is always admitted.
            if closed > 0.0:
                assert f.admits((), PrivacyBudget(closed, 0.0), totals=tuple(matrix[0]))

    def test_max_epsilon_joint_over_rows(self):
        f = RenyiCompositionFilter(1.0, 1e-6, orders=ORDERS_SMALL)
        light = replay_totals(f, [PrivacyBudget(0.05, 0.0)])
        heavy = replay_totals(f, [PrivacyBudget(0.4, 0.0)] * 2)
        joint = f.max_epsilon_batch(np.array([light, heavy]), 0.0)
        worst = f.max_epsilon_batch(heavy.reshape(1, -1), 0.0)
        assert joint == pytest.approx(worst)
        assert joint <= f.max_epsilon_batch(light.reshape(1, -1), 0.0)

    def test_max_epsilon_scalar_matches_batch(self):
        f = RenyiCompositionFilter(1.0, 1e-6, orders=ORDERS_SMALL)
        history = [PrivacyBudget(0.1, 1e-9)] * 3
        assert f.max_epsilon(history, 1e-9) == pytest.approx(
            f.max_epsilon_batch(replay_totals(f, history).reshape(1, -1), 1e-9)
        )

    def test_loss_bound_tracks_conversion(self):
        f = RenyiCompositionFilter(1.0, 1e-6, orders=ORDERS_SMALL)
        assert f.loss_bound([]) == ZERO_BUDGET
        history = [PrivacyBudget(0.05, 1e-9)] * 10
        bound = f.loss_bound(history)
        totals = replay_totals(f, history)
        from_totals = f.loss_bound(history, totals=tuple(totals))
        assert bound.epsilon == pytest.approx(from_totals.epsilon)
        assert bound.delta == pytest.approx(5e-7 + 1e-8)
        # The converted bound beats basic composition on many small charges.
        assert bound.epsilon < 0.5
        eps_rows, delta_rows = f.loss_bound_batch(totals.reshape(1, -1))
        assert float(eps_rows[0]) == pytest.approx(bound.epsilon)
        assert float(delta_rows[0]) == pytest.approx(bound.delta)

    def test_penalty_matches_rdp_to_epsilon(self):
        """The filter's conversion must be the exact arithmetic of
        rdp_to_epsilon (shared helper, no reimplementation drift)."""
        f = RenyiCompositionFilter(1.0, 1e-6, orders=ORDERS_SMALL)
        assert np.array_equal(
            f._penalty, rdp_epsilon_penalties(ORDERS_SMALL, 5e-7)
        )


class TestSupersetOfStrongComposition:
    """At equal (epsilon_global, delta_global) targets and default slack
    split, every Gaussian-workload charge the strong filter admits, the
    Renyi filter admits too (its conversion dominates Rogers' constant in
    the small-epsilon regime the platform operates in)."""

    @settings(max_examples=120, deadline=None)
    @given(
        history=st.lists(
            st.builds(
                PrivacyBudget,
                st.floats(min_value=0.001, max_value=0.25),
                st.floats(min_value=0.0, max_value=2e-9),
            ),
            max_size=30,
        ),
        candidate_eps=st.floats(min_value=0.001, max_value=0.3),
    )
    def test_strong_admit_implies_renyi_admit(self, history, candidate_eps):
        strong = StrongCompositionFilter(1.0, 1e-6)
        renyi = RenyiCompositionFilter(1.0, 1e-6)
        candidate = PrivacyBudget(candidate_eps, 1e-9)
        s_totals = tuple(replay_totals(strong, history))
        r_totals = tuple(replay_totals(renyi, history))
        if strong.admits((), candidate, totals=s_totals):
            assert renyi.admits((), candidate, totals=r_totals)

    def test_admission_counts_ordering(self):
        """Deterministic spot check of the bench's headline ordering."""
        for eps in (0.005, 0.02, 0.05):
            charge = PrivacyBudget(eps, 1e-9)
            renyi = count_admitted(RenyiCompositionFilter(1.0, 1e-6), charge)
            strong = count_admitted(StrongCompositionFilter(1.0, 1e-6), charge)
            assert renyi >= strong


@pytest.fixture
def renyi_accountant():
    acc = BlockAccountant(
        1.0,
        1e-6,
        filter_factory=lambda e, d: RenyiCompositionFilter(e, d, orders=ORDERS_SMALL),
    )
    acc.register_blocks(range(6))
    return acc


def store_state(acc: BlockAccountant):
    return (
        acc.store.totals.tobytes(),
        acc.store.live.tobytes(),
        acc.store.charge_counts.tobytes(),
        {k: list(acc.ledger(k).history) for k in acc.block_keys},
        [(r.budget, r.block_keys, r.label) for r in acc.charges],
    )


class TestRenyiAccountant:
    def test_store_is_order_extended(self, renyi_accountant):
        acc = renyi_accountant
        assert acc.store.width == TOTALS_BASE + len(ORDERS_SMALL)
        assert acc.store.totals.shape == (6, acc.store.width)
        acc.charge([0], PrivacyBudget(0.1, 0.0))
        row = acc.store.totals[0]
        assert np.array_equal(row[TOTALS_BASE:], pure_dp_rdp(0.1, ORDERS_SMALL))
        assert tuple(acc.ledger(0).totals) == tuple(row)

    def test_vectorized_scans_enabled(self, renyi_accountant):
        assert renyi_accountant.staging_supported
        assert renyi_accountant.usable_blocks() == list(range(6))

    def test_charge_many_matches_sequential(self):
        make = lambda: BlockAccountant(
            1.0,
            1e-6,
            filter_factory=lambda e, d: RenyiCompositionFilter(e, d, orders=ORDERS_SMALL),
        )
        batched, sequential = make(), make()
        for acc in (batched, sequential):
            acc.register_blocks(range(6))
        requests = [
            ([0, 1, 2], PrivacyBudget(0.05, 1e-9), "a"),
            ([1, 2, 3], PrivacyBudget(0.1, 0.0), "b"),
            ([0, 5], gaussian_mechanism_budget(0.01, 2.0, 100, 1e-8, orders=ORDERS_SMALL), "g"),
            ([1], PrivacyBudget(0.2, 1e-9), "c"),
        ]
        batched.charge_many(requests)
        for keys, budget, label in requests:
            sequential.charge(keys, budget, label=label)
        assert store_state(batched) == store_state(sequential)

    def test_charge_many_rollback_is_byte_exact(self, renyi_accountant):
        acc = renyi_accountant
        acc.charge([0, 1], PrivacyBudget(0.3, 1e-8))
        before = store_state(acc)
        with pytest.raises(BudgetExceededError):
            acc.charge_many(
                [
                    ([0, 2], PrivacyBudget(0.1, 0.0)),
                    ([3], PrivacyBudget(0.2, 0.0)),
                    ([1, 4], PrivacyBudget(0.95, 0.0)),  # refused on 1
                ]
            )
        assert store_state(acc) == before

    def test_staging_matches_sequential(self):
        make = lambda: BlockAccountant(
            1.0,
            1e-6,
            filter_factory=lambda e, d: RenyiCompositionFilter(e, d, orders=ORDERS_SMALL),
        )
        staged, sequential = make(), make()
        for acc in (staged, sequential):
            acc.register_blocks(range(4))
        requests = [
            ([0, 1], PrivacyBudget(0.2, 1e-9), "a"),
            ([1, 2], PrivacyBudget(0.3, 0.0), "b"),
        ]
        staged.begin_staging()
        for keys, budget, label in requests:
            staged.stage_charge(keys, budget, label)
        # Staged reads see the per-order accumulation.
        assert staged.max_epsilon([1]) < staged.max_epsilon([3])
        staged.charge_many(staged.pop_staged())
        for keys, budget, label in requests:
            sequential.charge(keys, budget, label=label)
        assert store_state(staged) == store_state(sequential)

    def test_stage_refusal_stages_nothing(self, renyi_accountant):
        acc = renyi_accountant
        acc.begin_staging()
        acc.stage_charge([0], PrivacyBudget(0.9, 0.0))
        with pytest.raises(BudgetExceededError):
            acc.stage_charge([0], PrivacyBudget(0.5, 0.0))
        committed = acc.charge_many(acc.pop_staged())
        assert len(committed) == 1

    def test_stream_loss_bound_uses_conversion(self, renyi_accountant):
        acc = renyi_accountant
        assert acc.stream_loss_bound() == ZERO_BUDGET
        for _ in range(8):
            acc.charge([0, 1], PrivacyBudget(0.05, 1e-9))
        bound = acc.stream_loss_bound()
        expected = acc.ledger(0).loss_bound()
        assert bound.epsilon == pytest.approx(expected.epsilon)
        assert bound.delta == pytest.approx(expected.delta)
        assert bound.epsilon < 0.4  # converted curve beats the 0.4 basic sum

    def test_session_delta_rationed_from_unreserved_share(self):
        acc_access_sage = Sage(
            CountStreamSource(1000, scale=1000),
            seed=0,
            filter_factory=RenyiCompositionFilter,
        )
        entry = acc_access_sage.submit(
            OraclePipeline(name="p", n_at_eps1=1000.0),
            AdaptiveConfig(max_attempts=10),
        )
        # delta_global 1e-6, conversion reserve 5e-7 -> 5e-8 per attempt.
        assert entry.session.delta == pytest.approx(5e-8)


class TestRenyiPlatformDrive:
    """An RDP-filtered stream is a first-class citizen of the batched
    propose/settle protocol: staged hourly commits, no sequential fallback,
    byte-identical trajectories to the sequential reference drive."""

    def _build(self, batched):
        sage = Sage(
            CountStreamSource(4000, scale=1000),
            seed=5,
            filter_factory=RenyiCompositionFilter,
        )
        if not batched:
            # A per-context policy disables staging: the per-request
            # sequential drive is the reference.
            sage.access.add_context("oracle", 1.0, 1e-6)
        for i, c in enumerate((3_000.0, 12_000.0, 50_000.0)):
            sage.submit(
                OraclePipeline(name=f"p{i}", n_at_eps1=c),
                AdaptiveConfig(max_attempts=16),
            )
        sage.run_until_quiet(max_hours=40)
        return sage

    def _fingerprint(self, sage):
        sage.access.accountant.retired_blocks()
        return (
            sage.access.accountant.store.totals.tobytes(),
            sage.access.accountant.store.live.tobytes(),
            sage.reservation_table.matrix.tobytes(),
            sage.reservation_table.free_epsilon.tobytes(),
            [p.status for p in sage.pipelines],
            [p.release_time_hours for p in sage.pipelines],
            [
                (a.attempt, a.window, a.budget.epsilon, a.budget.delta)
                for p in sage.pipelines
                for a in p.session.attempts
            ],
        )

    def test_staged_path_supported(self):
        sage = Sage(
            CountStreamSource(1000, scale=1000),
            seed=0,
            filter_factory=RenyiCompositionFilter,
        )
        assert sage.access.supports_staged_requests

    def test_batched_equals_sequential(self):
        assert self._fingerprint(self._build(True)) == self._fingerprint(
            self._build(False)
        )

    def test_one_batch_per_hour(self):
        sage = Sage(
            CountStreamSource(4000, scale=1000),
            seed=3,
            filter_factory=RenyiCompositionFilter,
        )
        sage.submit(
            OraclePipeline(name="p", n_at_eps1=10_000.0),
            AdaptiveConfig(max_attempts=8),
        )
        counts = {"request": 0, "request_many": 0}
        orig_request, orig_many = sage.access.request, sage.access.request_many

        def counting_request(*args, **kwargs):
            counts["request"] += 1
            return orig_request(*args, **kwargs)

        def counting_many(*args, **kwargs):
            counts["request_many"] += 1
            return orig_many(*args, **kwargs)

        sage.access.request = counting_request
        sage.access.request_many = counting_many
        for _ in range(12):
            before = counts["request_many"]
            charged_before = len(sage.access.accountant.charges)
            sage.advance(1.0)
            committed = len(sage.access.accountant.charges) - charged_before
            assert counts["request"] == 0
            assert counts["request_many"] - before == (1 if committed else 0)


class TestPrunedOrdersPreset:
    """The ~16-order pruned grid: 4.5x narrower store rows at a bounded
    epsilon-tightness loss versus DEFAULT_ORDERS."""

    # Representative DP-SGD configurations (the repo's own calibration /
    # bench regimes) and conversion deltas.
    GAUSSIAN_WORKLOADS = [
        (0.01, 1.1, 1000), (0.01, 0.8, 200), (0.001, 0.6, 5000),
        (0.02, 2.0, 10000), (0.005, 1.5, 3000), (0.05, 3.0, 2000),
        (1.0, 4.0, 50),
    ]
    DELTAS = (1e-5, 1e-6, 1e-9)

    def test_preset_resolves_and_shrinks_store(self):
        from repro.dp.rdp import DEFAULT_ORDERS, PRUNED_ORDERS

        dense = RenyiCompositionFilter(1.0, 1e-6)
        pruned = RenyiCompositionFilter(1.0, 1e-6, orders="pruned")
        named_default = RenyiCompositionFilter(1.0, 1e-6, orders="default")
        assert named_default.orders == dense.orders == DEFAULT_ORDERS
        assert pruned.orders == PRUNED_ORDERS
        assert len(PRUNED_ORDERS) <= 18
        assert dense.totals_width == 4 + 69 == 73
        assert pruned.totals_width == 4 + len(PRUNED_ORDERS)
        acc = BlockAccountant(
            1.0, 1e-6,
            filter_factory=lambda e, d: RenyiCompositionFilter(e, d, orders="pruned"),
        )
        acc.register_block("b")
        assert acc.store.width == pruned.totals_width
        with pytest.raises(InvalidBudgetError):
            RenyiCompositionFilter(1.0, 1e-6, orders="dense-ish")

    def test_gaussian_conversion_tightness_bound(self):
        """Pruned epsilon within 2% of the dense grid on typical DP-SGD
        regimes; never worse than 40% even at the subsampled-RDP cliff
        (the curve's minimum hugs a blow-up point, so a sparse grid's
        nearest order below the cliff pays the gap)."""
        from repro.dp.rdp import DEFAULT_ORDERS, PRUNED_ORDERS, rdp_to_epsilon

        ratios = []
        for q, sigma, steps in self.GAUSSIAN_WORKLOADS:
            for delta in self.DELTAS:
                dense_eps, _ = rdp_to_epsilon(
                    compute_rdp(q, sigma, steps, DEFAULT_ORDERS), DEFAULT_ORDERS, delta
                )
                pruned_eps, _ = rdp_to_epsilon(
                    compute_rdp(q, sigma, steps, PRUNED_ORDERS), PRUNED_ORDERS, delta
                )
                assert pruned_eps >= dense_eps - 1e-12  # never tighter than dense
                if dense_eps > 0.05:
                    ratios.append(pruned_eps / dense_eps)
        assert max(ratios) <= 1.40
        assert float(np.median(ratios)) <= 1.02

    def test_pure_dp_accumulation_tightness_bound(self):
        """Small (eps, delta) charges (the pure-DP reduction): the pruned
        grid stays within 3% across representative accumulations."""
        from repro.dp.rdp import DEFAULT_ORDERS, PRUNED_ORDERS, rdp_to_epsilon

        for eps_c, k in [(0.01, 100), (0.05, 40), (0.001, 2000), (0.1, 10)]:
            for delta in (1e-6, 1e-9):
                dense_eps, _ = rdp_to_epsilon(
                    k * pure_dp_rdp(eps_c, DEFAULT_ORDERS), DEFAULT_ORDERS, delta
                )
                pruned_eps, _ = rdp_to_epsilon(
                    k * pure_dp_rdp(eps_c, PRUNED_ORDERS), PRUNED_ORDERS, delta
                )
                assert dense_eps - 1e-12 <= pruned_eps <= 1.03 * dense_eps + 1e-9

    def test_pruned_filter_admission_close_to_dense(self):
        """Charges admitted per block: the pruned filter admits nearly the
        dense filter's count on the Renyi PR's headline workloads, and
        still far more than strong composition."""
        dense = RenyiCompositionFilter(1.0, 1e-6)
        pruned = RenyiCompositionFilter(1.0, 1e-6, orders="pruned")
        strong = StrongCompositionFilter(1.0, 1e-6)
        plain = PrivacyBudget(0.01, 1e-9)
        gaussian = gaussian_mechanism_budget(0.01, 4.0, 100, 1e-9)
        for charge in (plain, gaussian):
            n_dense = count_admitted(dense, charge)
            n_pruned = count_admitted(pruned, charge)
            n_strong = count_admitted(strong, charge)
            assert n_pruned >= 0.9 * n_dense
            assert n_pruned > n_strong

    def test_pruned_scalar_batch_grid_parity(self):
        """The pruned filter rides the same scalar/batch contract."""
        filt = RenyiCompositionFilter(1.0, 1e-6, orders="pruned")
        rng = np.random.default_rng(3)
        histories = [
            [PrivacyBudget(float(rng.uniform(0.005, 0.1)), 1e-10) for _ in range(k)]
            for k in (0, 1, 5, 20)
        ]
        matrix = np.stack([replay_totals(filt, h) for h in histories])
        for charge in (PrivacyBudget(0.05, 1e-9), gaussian_mechanism_budget(0.02, 3.0, 50, 1e-9)):
            batch = filt.admits_batch(matrix, charge)
            scalar = [filt.admits(h, charge) for h in histories]
            assert batch.tolist() == scalar
        assert filt.max_epsilon_batch(matrix, 1e-9) == pytest.approx(
            min(filt.max_epsilon(h, 1e-9) for h in histories), abs=1e-9
        )
