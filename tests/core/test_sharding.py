"""Sharded block accounting: byte-parity with the single store.

The headline properties:

* a :class:`ShardedBlockAccountant` (hash- and range-partitioned, N in
  {1, 2, 7}) is **byte-identical** to the single-store accountant across
  seeded charge workloads -- committed totals, charge counts, live masks,
  scans, staged hours, cross-shard ``charge_many`` rollback, and
  Renyi-width stores;
* a sharded ``Sage`` deployment produces byte-identical trajectories to
  the single-store per-request (sequential) drive;
* cross-shard aggregate reads (``loss_dashboard``, ``stream_loss_bound``)
  agree with the single store.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import faults
from repro.core.accountant import BlockAccountant
from repro.core.adaptive import AdaptiveConfig
from repro.core.filters import RenyiCompositionFilter, StrongCompositionFilter
from repro.core.odometer import loss_dashboard
from repro.core.platform import Sage
from repro.core.sharding import (
    HashPartitioner,
    RangePartitioner,
    ShardedBlockAccountant,
    ShardedLedgerStore,
    ShardedStagedBatch,
    sharded_accountant_factory,
)
from repro.dp.budget import PrivacyBudget
from repro.dp.rdp import gaussian_mechanism_budget
from repro.errors import (
    BlockRetiredError,
    BudgetExceededError,
    InvalidBudgetError,
)
from repro.obs import Telemetry
from repro.workload.oracle import CountStreamSource, OraclePipeline
from repro.workload.simulator import WorkloadConfig, WorkloadSimulator

PARTITIONERS = [
    HashPartitioner(1),
    HashPartitioner(2),
    HashPartitioner(7),
    RangePartitioner(2, span=3),
    RangePartitioner(7, span=1),
]


def _accountant_fingerprint(acc: BlockAccountant):
    return (
        acc.store.totals.tobytes(),
        acc.store.live.tobytes(),
        acc.store.charge_counts.tobytes(),
        [(r.budget.epsilon, r.budget.delta, r.block_keys, r.label) for r in acc.charges],
        [tuple(acc.ledger(k).totals) for k in acc.block_keys],
        [len(acc.ledger(k).history) for k in acc.block_keys],
    )


def _random_requests(rng, n_blocks, n_requests, wide=False):
    requests = []
    for j in range(n_requests):
        size = int(rng.integers(1, max(2, n_blocks // 2)))
        keys = sorted(rng.choice(n_blocks, size=size, replace=False).tolist())
        if wide and j % 3 == 0:
            budget = gaussian_mechanism_budget(
                0.01, float(rng.uniform(2.0, 6.0)), int(rng.integers(10, 80)), 1e-9
            )
        else:
            budget = PrivacyBudget(float(rng.uniform(0.01, 0.2)), 1e-9)
        requests.append((keys, budget, f"r{j}"))
    return requests


class TestShardedLedgerStore:
    def test_global_row_space_and_shard_maps(self):
        store = ShardedLedgerStore(3, width=4)
        rows = [store.append(i % 3) for i in range(10)]
        assert rows == list(range(10))
        assert len(store) == 10
        sids = store.shard_of_rows(np.arange(10))
        assert sids.tolist() == [i % 3 for i in range(10)]
        for shard in range(3):
            globals_ = store.shard_rows(shard)
            assert globals_.tolist() == [i for i in range(10) if i % 3 == shard]
            back = store.global_rows(shard, np.arange(len(globals_)))
            assert np.array_equal(back, globals_)

    def test_dual_write_row_and_rows(self):
        store = ShardedLedgerStore(2, width=4)
        for i in range(6):
            store.append(i % 2)
        store.write_row(3, [1.0, 2.0, 3.0, 4.0], 5)
        assert store.totals[3].tolist() == [1.0, 2.0, 3.0, 4.0]
        local = store.local_rows([3])[0]
        assert store.shard_store(1).totals[local].tolist() == [1.0, 2.0, 3.0, 4.0]
        assert store.shard_store(1).charge_counts[local] == 5
        rows = np.array([0, 3, 4])
        store.write_rows(rows, np.full((3, 4), 7.0), np.array([1, 2, 3]))
        for row, count in zip(rows, (1, 2, 3)):
            shard = store.shard_of_rows([row])[0]
            local = store.local_rows([row])[0]
            assert store.shard_store(shard).totals[local].tolist() == [7.0] * 4
            assert store.shard_store(shard).charge_counts[local] == count
            assert store.charge_counts[row] == count

    def test_retire_propagates_to_shards(self):
        store = ShardedLedgerStore(2, width=4)
        for i in range(4):
            store.append(i % 2)
        store.retire(np.array([1, 2]))
        assert store.live.tolist() == [True, False, False, True]
        assert store.shard_store(0).live.tolist() == [True, False]
        assert store.shard_store(1).live.tolist() == [False, True]

    def test_growth_beyond_initial_capacity(self):
        store = ShardedLedgerStore(3, width=4, capacity=2)
        for i in range(300):
            store.append(i % 3)
        assert len(store) == 300
        assert store.shard_sizes().tolist() == [100, 100, 100]
        assert store.global_rows(1, [99]) == [298]

    def test_bad_shard_rejected(self):
        store = ShardedLedgerStore(2)
        with pytest.raises(InvalidBudgetError):
            store.append(2)
        with pytest.raises(InvalidBudgetError):
            ShardedLedgerStore(0)


class TestPartitioners:
    def test_hash_is_stable_and_in_range(self):
        part = HashPartitioner(5)
        keys = list(range(50)) + [("user", i) for i in range(10)] + ["a", "b"]
        shards = [part.shard_of(k, i) for i, k in enumerate(keys)]
        assert shards == [part.shard_of(k, 0) for k in keys]  # index-free
        assert all(0 <= s < 5 for s in shards)
        assert len(set(shards)) > 1  # spreads

    def test_range_stripes_contiguous_runs(self):
        part = RangePartitioner(3, span=4)
        shards = [part.shard_of(None, i) for i in range(24)]
        assert shards == [0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2] * 2

    def test_invalid_params(self):
        with pytest.raises(InvalidBudgetError):
            HashPartitioner(0)
        with pytest.raises(InvalidBudgetError):
            RangePartitioner(2, span=0)
        with pytest.raises(InvalidBudgetError):
            sharded_accountant_factory(2, policy="modulo")


class TestShardedAccountantParity:
    """Byte parity of every accountant surface against the single store."""

    @pytest.mark.parametrize("partitioner", PARTITIONERS)
    @pytest.mark.parametrize("filter_factory", [None, StrongCompositionFilter])
    def test_charge_many_byte_parity(self, partitioner, filter_factory):
        rng = np.random.default_rng(
            partitioner.n_shards * 10 + (1 if filter_factory else 0)
        )
        single = BlockAccountant(1.0, 1e-6, filter_factory=filter_factory)
        sharded = ShardedBlockAccountant(
            1.0, 1e-6, filter_factory=filter_factory, partitioner=partitioner
        )
        for acc in (single, sharded):
            acc.register_blocks(range(24))
        requests = _random_requests(rng, 24, 12)
        single.charge_many(requests)
        sharded.charge_many(requests)
        assert _accountant_fingerprint(sharded) == _accountant_fingerprint(single)
        # Scans agree too.
        probe = PrivacyBudget(0.05, 1e-9)
        assert sharded.usable_blocks(probe) == single.usable_blocks(probe)
        assert sharded.usable_blocks_tail(probe, 5) == single.usable_blocks_tail(probe, 5)
        assert sharded.max_epsilon(list(range(10)), 1e-9) == single.max_epsilon(
            list(range(10)), 1e-9
        )
        assert np.array_equal(
            sharded.admits_keys(list(range(24)), probe),
            single.admits_keys(list(range(24)), probe),
        )

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n_shards=st.sampled_from([1, 2, 7]),
        policy=st.sampled_from(["hash", "range"]),
        wide=st.booleans(),
    )
    def test_seeded_workloads_byte_identical(self, seed, n_shards, policy, wide):
        """Hash- and range-partitioned accountants reproduce the single
        store byte-for-byte on random charge workloads, including
        Renyi-width stores and refused batches."""
        rng = np.random.default_rng(seed)
        filter_factory = RenyiCompositionFilter if wide else None
        partitioner = (
            HashPartitioner(n_shards)
            if policy == "hash"
            else RangePartitioner(n_shards, span=int(rng.integers(1, 5)))
        )
        single = BlockAccountant(1.0, 1e-6, filter_factory=filter_factory)
        sharded = ShardedBlockAccountant(
            1.0, 1e-6, filter_factory=filter_factory, partitioner=partitioner
        )
        n_blocks = int(rng.integers(4, 20))
        for acc in (single, sharded):
            acc.register_blocks(range(n_blocks))
        for round_ in range(3):
            requests = _random_requests(rng, n_blocks, int(rng.integers(1, 8)), wide)
            outcomes = []
            for acc in (single, sharded):
                try:
                    acc.charge_many(list(requests))
                    outcomes.append(("ok", None))
                except (BudgetExceededError, BlockRetiredError) as exc:
                    outcomes.append((type(exc).__name__, str(exc)))
            assert outcomes[0] == outcomes[1]
            assert _accountant_fingerprint(sharded) == _accountant_fingerprint(single)

    @pytest.mark.parametrize("partitioner", [HashPartitioner(2), RangePartitioner(7, span=2)])
    def test_staged_hour_byte_parity(self, partitioner):
        """Staged hours: stage, read through the overlay, commit -- all
        byte-identical; refusals stage nothing on either side."""
        single = BlockAccountant(1.0, 1e-6)
        sharded = ShardedBlockAccountant(1.0, 1e-6, partitioner=partitioner)
        requests = [
            ([0, 1, 2, 3], PrivacyBudget(0.3, 1e-9), "a"),
            ([2, 3, 4, 5], PrivacyBudget(0.4, 1e-9), "b"),
            ([0, 5, 9], PrivacyBudget(0.25, 0.0), "c"),
        ]
        for acc in (single, sharded):
            acc.register_blocks(range(10))
            acc.begin_staging()
            for keys, budget, label in requests:
                acc.stage_charge(keys, budget, label)
            with pytest.raises(BudgetExceededError):
                acc.stage_charge([2], PrivacyBudget(0.5, 0.0))
            # Overlay reads see the staged spend identically.
        probe = PrivacyBudget(0.2, 0.0)
        assert sharded.usable_blocks(probe) == single.usable_blocks(probe)
        assert sharded.max_epsilon([2, 3]) == single.max_epsilon([2, 3])
        for acc in (single, sharded):
            acc.charge_many(acc.pop_staged())
        assert _accountant_fingerprint(sharded) == _accountant_fingerprint(single)

    def test_cross_shard_rollback_leaves_everything_untouched(self):
        """A batch whose last request refuses must roll back across *all*
        shards -- stores, ledgers, histories, charge log."""
        sharded = ShardedBlockAccountant(1.0, 1e-6, partitioner=HashPartitioner(4))
        sharded.register_blocks(range(12))
        sharded.charge_many([(list(range(12)), PrivacyBudget(0.5, 1e-9), "warm")])
        before = _accountant_fingerprint(sharded)
        batch = [
            ([0, 1, 2], PrivacyBudget(0.2, 1e-9), "ok-1"),
            ([3, 4, 5, 6, 7], PrivacyBudget(0.3, 1e-9), "ok-2"),
            ([8, 9, 10, 11, 0], PrivacyBudget(0.45, 0.0), "boom"),
        ]
        with pytest.raises(BudgetExceededError):
            sharded.charge_many(batch)
        assert _accountant_fingerprint(sharded) == before
        assert sharded.can_charge_many(batch) is False
        assert _accountant_fingerprint(sharded) == before

    def test_refusal_error_matches_single_store(self):
        """The globally-first refusing (request, key) raises the same
        error, whichever shard owns it."""
        for partitioner in (HashPartitioner(5), RangePartitioner(3, span=1)):
            single = BlockAccountant(1.0, 1e-6)
            sharded = ShardedBlockAccountant(1.0, 1e-6, partitioner=partitioner)
            for acc in (single, sharded):
                acc.register_blocks(range(9))
                acc.charge([4], PrivacyBudget(0.9, 0.0))
                acc.charge([7], PrivacyBudget(1.0, 0.0))  # retired
            batch = [
                ([0, 1], PrivacyBudget(0.3, 0.0), "a"),
                ([2, 4, 7, 3], PrivacyBudget(0.3, 0.0), "b"),
            ]
            errors = []
            for acc in (single, sharded):
                with pytest.raises((BudgetExceededError, BlockRetiredError)) as exc:
                    acc.charge_many([list(r) for r in batch])
                errors.append((type(exc.value).__name__, str(exc.value)))
            assert errors[0] == errors[1]

    def test_scalar_filter_falls_back_to_exact_path(self):
        from repro.core.filters import BasicCompositionFilter

        class ScalarOnlyFilter(BasicCompositionFilter):
            def admits(self, history, candidate, totals=None):
                return super().admits(history, candidate, totals=totals)

        single = BlockAccountant(1.0, 1e-6, filter_factory=ScalarOnlyFilter)
        sharded = ShardedBlockAccountant(
            1.0, 1e-6, filter_factory=ScalarOnlyFilter, partitioner=HashPartitioner(3)
        )
        assert not sharded.staging_supported
        requests = [([0, 1], PrivacyBudget(0.4, 0.0), "a"), ([1, 2], PrivacyBudget(0.5, 0.0), "b")]
        for acc in (single, sharded):
            acc.register_blocks(range(4))
            acc.charge_many(list(requests))
        assert _accountant_fingerprint(sharded) == _accountant_fingerprint(single)
        # The scalar early-stopping tail walk (with its per-row retire
        # persistence) agrees too.
        for acc in (single, sharded):
            acc.charge([3], PrivacyBudget(1.0, 0.0))  # retire block 3
        probe = PrivacyBudget(0.2, 0.0)
        assert sharded.usable_blocks_tail(probe, 3) == single.usable_blocks_tail(probe, 3)
        assert sharded.store.live.tolist() == single.store.live.tolist()
        for shard in range(sharded.n_shards):
            rows = sharded.store.shard_rows(shard)
            assert np.array_equal(
                sharded.store.shard_store(shard).live,
                single.store.live[rows],
            )


class TestShardedStagedSpend:
    def test_staged_spend_tracked_per_shard(self):
        part = RangePartitioner(2, span=2)
        acc = ShardedBlockAccountant(1.0, 1e-6, partitioner=part)
        acc.register_blocks(range(4))  # rows 0,1 -> shard 0; 2,3 -> shard 1
        assert np.array_equal(acc.staged_spend_by_shard(), np.zeros(2))
        batch = acc.begin_staging()
        assert isinstance(batch, ShardedStagedBatch)
        acc.stage_charge([0, 1], PrivacyBudget(0.25, 0.0))
        acc.stage_charge([1, 2], PrivacyBudget(0.5, 0.0))
        spend = acc.staged_spend_by_shard()
        assert spend[0] == pytest.approx(0.25 * 2 + 0.5)  # rows 0,1 + row 1
        assert spend[1] == pytest.approx(0.5)  # row 2
        request_counts, row_touches, _ = batch.shard_footprint()
        assert request_counts.tolist() == [2, 1]
        assert row_touches.tolist() == [3, 1]
        acc.pop_staged()
        assert np.array_equal(acc.staged_spend_by_shard(), np.zeros(2))


class TestCrossShardAggregates:
    """loss_dashboard and stream-wide bounds across shards (regression:
    aggregate reads must see every shard, in global block order)."""

    def _charged_pair(self, filter_factory=None, partitioner=None):
        single = BlockAccountant(1.0, 1e-6, filter_factory=filter_factory)
        sharded = ShardedBlockAccountant(
            1.0,
            1e-6,
            filter_factory=filter_factory,
            partitioner=partitioner or HashPartitioner(3),
        )
        rng = np.random.default_rng(7)
        requests = _random_requests(rng, 16, 9)
        for acc in (single, sharded):
            acc.register_blocks(range(16))
            acc.charge_many(list(requests))
        return single, sharded

    @pytest.mark.parametrize("strong", [False, True])
    def test_loss_dashboard_matches_single_store(self, strong):
        factory = StrongCompositionFilter if strong else None
        single, sharded = self._charged_pair(filter_factory=factory)
        dash_single = loss_dashboard(single, strong=strong)
        dash_sharded = loss_dashboard(sharded, strong=strong)
        assert list(dash_sharded) == list(dash_single)  # global block order
        for key in dash_single:
            assert dash_sharded[key] == dash_single[key]

    def test_stream_loss_bound_matches_single_store(self):
        for factory in (None, StrongCompositionFilter, RenyiCompositionFilter):
            single, sharded = self._charged_pair(filter_factory=factory)
            assert sharded.stream_loss_bound() == single.stream_loss_bound()

    def test_shard_loss_bounds_aggregate_to_stream_bound(self):
        single, sharded = self._charged_pair()
        bounds = sharded.shard_loss_bounds()
        assert len(bounds) == sharded.n_shards
        eps = max(b.epsilon for b in bounds)
        delta = max(b.delta for b in bounds)
        stream = single.stream_loss_bound()
        assert eps == pytest.approx(stream.epsilon, rel=1e-12)
        assert delta == pytest.approx(stream.delta, rel=1e-12)
        # No single shard's bound may stand in for the stream bound unless
        # it happens to own the worst block.
        assert all(b.epsilon <= stream.epsilon * (1 + 1e-12) for b in bounds)

    def test_retired_blocks_across_shards(self):
        single, sharded = self._charged_pair()
        exhaust = PrivacyBudget(1.0, 0.0)
        for acc in (single, sharded):
            for key in (1, 5, 11):
                if acc.can_charge([key], exhaust):
                    acc.charge([key], exhaust)
        assert sharded.retired_blocks() == single.retired_blocks()


class TestShardedPlatformParity:
    """The acceptance property: a sharded accountant (hash and range,
    N >= 2) drives full batched Sage.advance hours byte-identically to the
    single-store sequential drive."""

    @staticmethod
    def fingerprint(sage: Sage):
        sage.access.accountant.retired_blocks()
        return {
            "attempts": [
                [
                    (a.attempt, a.window, a.budget.epsilon, a.budget.delta,
                     a.outcome, a.train_size)
                    for a in e.session.attempts
                ]
                for e in sage.pipelines
            ],
            "statuses": [e.status for e in sage.pipelines],
            "releases": [e.release_time_hours for e in sage.pipelines],
            "totals": sage.access.accountant.store.totals.tobytes(),
            "live": sage.access.accountant.store.live.tobytes(),
            "reservations": sage.reservation_table.matrix.tobytes(),
            "free": sage.reservation_table.free_epsilon.tobytes(),
            "charges": [
                (r.budget.epsilon, r.budget.delta, r.block_keys, r.label)
                for r in sage.access.accountant.charges
            ],
        }

    def _drive(self, factory=None, batched=True, strategy="conserve"):
        sage = Sage(
            CountStreamSource(4000, scale=1000),
            seed=3,
            accountant_factory=factory,
        )
        if not batched:
            # A per-context policy disables staging: the per-request
            # sequential drive is the reference.
            sage.access.add_context("oracle", 1.0, 1e-6)
        for i, c in enumerate((2_000.0, 10_000.0, 40_000.0, 1e9)):
            sage.submit(
                OraclePipeline(name=f"p{i}", n_at_eps1=c),
                AdaptiveConfig(max_attempts=16, strategy=strategy),
            )
        for _ in range(40):
            sage.advance(1.0)
        return sage

    @pytest.mark.parametrize("strategy", ["conserve", "aggressive"])
    def test_sharded_parallel_drive_matches_single_sequential(self, strategy):
        reference = self.fingerprint(
            self._drive(factory=None, batched=False, strategy=strategy)
        )
        for policy, n_shards in (
            ("hash", 4),
            ("range", 2),
            ("hash", 7),
            ("range", 4),
        ):
            sage = self._drive(
                factory=sharded_accountant_factory(n_shards, policy=policy, span=5),
                strategy=strategy,
            )
            assert self.fingerprint(sage) == reference, (
                f"sharded {policy} N={n_shards} diverged"
            )

    def test_simulator_workload_sharded_parallel_identical(self):
        """Seeded end-to-end simulator runs across shard counts/policies."""
        fingerprints = []
        for n_shards, policy in ((0, "hash"), (4, "hash"), (2, "range")):
            cfg = WorkloadConfig(
                strategy="block-conserve",
                arrival_rate=0.4,
                horizon_hours=50.0,
                points_per_hour=4_000,
                max_attempts=16,
                n_shards=n_shards,
                shard_policy=policy,
            )
            sim = WorkloadSimulator(cfg, seed=17)
            report = sim.run()
            fingerprints.append(
                (report.release_times, report.censored_times,
                 self.fingerprint(sim.last_platform))
            )
        assert fingerprints[1] == fingerprints[0]
        assert fingerprints[2] == fingerprints[0]

    def test_renyi_sharded_platform_drive(self):
        """Renyi-width sharded stores drive the batched hour identically,
        with both the dense and pruned order grids."""
        for orders in (None, "pruned"):
            def filter_factory(eps, delta, _orders=orders):
                return (
                    RenyiCompositionFilter(eps, delta)
                    if _orders is None
                    else RenyiCompositionFilter(eps, delta, orders=_orders)
                )

            fps = []
            for factory in (None, sharded_accountant_factory(3)):
                sage = Sage(
                    CountStreamSource(4000, scale=1000),
                    seed=9,
                    filter_factory=filter_factory,
                    accountant_factory=factory,
                )
                assert sage.access.supports_staged_requests
                for i, c in enumerate((3_000.0, 20_000.0)):
                    sage.submit(
                        OraclePipeline(name=f"p{i}", n_at_eps1=c),
                        AdaptiveConfig(max_attempts=12),
                    )
                for _ in range(25):
                    sage.advance(1.0)
                fps.append(self.fingerprint(sage))
            assert fps[0] == fps[1], f"orders={orders} diverged"


class TestPlatformSurface:
    def test_close_is_idempotent_on_a_durable_traced_platform(self, tmp_path):
        """close() releases the WAL handle and the fault observer, may run
        twice, and leaves a platform that keeps advancing durably."""
        observers = len(faults._OBSERVERS)
        sage = Sage(
            CountStreamSource(1000, scale=1000),
            seed=0,
            accountant_factory=sharded_accountant_factory(3),
            wal_dir=tmp_path,
            telemetry=Telemetry(),
        )
        assert len(faults._OBSERVERS) == observers + 1
        sage.advance(5.0)
        for i in range(3):
            sage.submit(OraclePipeline(name=f"p{i}", n_at_eps1=2_000.0))
        sage.advance(1.0)
        assert sage._wal is not None
        sage.close()
        assert sage._wal is None
        assert len(faults._OBSERVERS) == observers
        sage.close()  # idempotent
        assert len(faults._OBSERVERS) == observers
        sage.advance(1.0)  # the WAL reopens on the next durable hour
        assert sage.hours_committed == 3
        sage.close()
        assert sage._wal is None

    def test_propose_peek_mutates_nothing(self):
        sage = Sage(CountStreamSource(4000, scale=1000), seed=5)
        entry = sage.submit(
            OraclePipeline(name="p", n_at_eps1=3_000.0),
            AdaptiveConfig(max_attempts=8),
        )
        sage.advance(1.0)
        session = entry.session
        state = (
            session.status, session.epsilon, session.window_blocks,
            len(session.attempts), session.total_spent,
        )
        proposal, status_after = session.propose_peek()
        assert (
            session.status, session.epsilon, session.window_blocks,
            len(session.attempts), session.total_spent,
        ) == state
        # Peeking agrees with a real wake+propose.
        session.wake()
        real = session.propose()
        if proposal is None:
            assert real is None and session.status == status_after
        else:
            assert real is not None
            assert (real.window, real.budget, real.epsilon_after) == (
                proposal.window, proposal.budget, proposal.epsilon_after
            )
