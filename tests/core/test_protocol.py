"""The propose/settle platform protocol: batching equivalence + staging.

The headline property: driving ``Sage.advance`` through the staged hourly
batch (one ``request_many`` per hour) produces **byte-identical** attempt
streams, reservations, ledger totals, charge logs, and release times to the
per-request sequential drive, across seeded simulator workloads.  The
sequential drive runs wherever the access layer reports that it cannot
stage; the tests force it by adding a per-context policy, or by patching
``supports_staged_requests`` for platforms built inside the simulator.
"""

import numpy as np
import pytest

from repro.core.access_control import SageAccessControl
from repro.core.accountant import TOT_EPS, BlockAccountant
from repro.core.adaptive import AdaptiveConfig
from repro.core.platform import Sage
from repro.dp.budget import PrivacyBudget
from repro.errors import (
    AccessDeniedError,
    BudgetExceededError,
    InvalidBudgetError,
)
from repro.workload.oracle import CountStreamSource, OraclePipeline
from repro.workload.simulator import WorkloadConfig, WorkloadSimulator


def _per_request(sage: Sage) -> Sage:
    """Force the unstaged per-request drive: a per-context policy disables
    staging, and an uncharged context leaves every stream-wide decision
    as it was."""
    sage.access.add_context("oracle", sage.epsilon_global, sage.delta_global)
    assert not sage.access.supports_staged_requests
    return sage


def _fingerprint(sage: Sage):
    """Everything the protocol could perturb, in comparable form.

    Retirement persistence is a lazily-updated scan cache (both paths defer
    it differently within an hour), so refresh it first; the decisions
    themselves come from the totals, which must match bytewise.
    """
    sage.access.accountant.retired_blocks()  # persist pending retirement
    entries = sage.pipelines
    return {
        "attempts": [
            [
                (a.attempt, a.window, a.budget.epsilon, a.budget.delta,
                 a.outcome, a.train_size)
                for a in e.session.attempts
            ]
            for e in entries
        ],
        "statuses": [e.status for e in entries],
        "release_times": [e.release_time_hours for e in entries],
        "settled": [e.settled_attempts for e in entries],
        "totals": sage.access.accountant.store.totals.tobytes(),
        "live": sage.access.accountant.store.live.tobytes(),
        "reservations": sage.reservation_table.matrix.tobytes(),
        "free": sage.reservation_table.free_epsilon.tobytes(),
        "charges": [
            (r.budget.epsilon, r.budget.delta, r.block_keys, r.label)
            for r in sage.access.accountant.charges
        ],
        "spent": [
            (e.session.total_spent.epsilon, e.session.total_spent.delta)
            for e in entries
        ],
    }


class TestBatchedAdvanceEquivalence:
    @pytest.mark.parametrize("strategy", ["block-conserve", "block-aggressive"])
    @pytest.mark.parametrize("seed,rate", [(11, 0.3), (23, 0.6)])
    def test_simulator_workloads_identical(self, strategy, seed, rate, monkeypatch):
        """Seeded simulator workloads: batched vs sequential byte-parity."""
        platforms = []
        for batched in (True, False):
            with monkeypatch.context() as patch:
                if not batched:
                    patch.setattr(
                        SageAccessControl,
                        "supports_staged_requests",
                        property(lambda self: False),
                    )
                cfg = WorkloadConfig(
                    strategy=strategy,
                    arrival_rate=rate,
                    horizon_hours=60.0,
                    points_per_hour=4_000,
                    max_attempts=16,
                )
                sim = WorkloadSimulator(cfg, seed=seed)
                report = sim.run()
            platforms.append((report, sim.last_platform))
        (rep_b, sage_b), (rep_s, sage_s) = platforms
        assert rep_b.release_times == rep_s.release_times
        assert rep_b.censored_times == rep_s.censored_times
        fp_b, fp_s = _fingerprint(sage_b), _fingerprint(sage_s)
        for field in fp_b:
            assert fp_b[field] == fp_s[field], f"{field} diverged"

    def test_run_until_quiet_identical(self):
        sages = []
        for batched in (True, False):
            sage = Sage(CountStreamSource(4000, scale=1000), seed=5)
            if not batched:
                _per_request(sage)
            for i, c in enumerate((3_000.0, 12_000.0, 50_000.0)):
                sage.submit(
                    OraclePipeline(name=f"p{i}", n_at_eps1=c),
                    AdaptiveConfig(max_attempts=16),
                )
            sage.run_until_quiet(max_hours=60)
            sages.append(sage)
        fp_b, fp_s = _fingerprint(sages[0]), _fingerprint(sages[1])
        for field in fp_b:
            assert fp_b[field] == fp_s[field], f"{field} diverged"


class TestOneBatchPerHour:
    def test_advance_issues_exactly_one_request_many(self):
        """The acceptance invariant: no per-session access.request calls on
        the platform path, and at most one request_many per hour (exactly
        one on hours that commit charges)."""
        sage = Sage(CountStreamSource(4000, scale=1000), seed=3)
        for i, c in enumerate((2_000.0, 10_000.0, 1e9)):
            sage.submit(
                OraclePipeline(name=f"p{i}", n_at_eps1=c),
                AdaptiveConfig(max_attempts=8),
            )
        counts = {"request": 0, "request_many": 0}
        orig_request = sage.access.request
        orig_many = sage.access.request_many

        def counting_request(*args, **kwargs):
            counts["request"] += 1
            return orig_request(*args, **kwargs)

        def counting_many(*args, **kwargs):
            counts["request_many"] += 1
            return orig_many(*args, **kwargs)

        sage.access.request = counting_request
        sage.access.request_many = counting_many
        for _ in range(20):
            before_many = counts["request_many"]
            charges_before = len(sage.access.accountant.charges)
            sage.advance(1.0)
            committed = len(sage.access.accountant.charges) - charges_before
            many_calls = counts["request_many"] - before_many
            assert counts["request"] == 0
            assert many_calls == (1 if committed else 0)
            assert sage.last_hour_charges == committed

    def test_sequential_fallback_for_scalar_filters(self):
        """A custom scalar-only filter forces the exact per-proposal path;
        trajectories still come out of the same propose/complete drive."""
        from repro.core.filters import BasicCompositionFilter

        class ScalarOnlyFilter(BasicCompositionFilter):
            def admits(self, history, candidate, totals=None):
                return super().admits(history, candidate, totals=totals)

        sage = Sage(
            CountStreamSource(4000, scale=1000), seed=3,
            filter_factory=ScalarOnlyFilter,
        )
        assert not sage.access.supports_staged_requests
        entry = sage.submit(
            OraclePipeline(name="p", n_at_eps1=2_000.0),
            AdaptiveConfig(max_attempts=8),
        )
        sage.run_until_quiet(max_hours=30)
        assert entry.status == "accepted"


class TestStagedBatch:
    """The accountant's staged-batch overlay underneath the protocol."""

    def _accountant(self, n_blocks=6, epsilon=1.0):
        acc = BlockAccountant(epsilon, 1e-6)
        acc.register_blocks(range(n_blocks))
        return acc

    def test_stage_then_commit_matches_sequential(self):
        staged_acc, seq_acc = self._accountant(), self._accountant()
        requests = [
            ([0, 1, 2], PrivacyBudget(0.25, 1e-9), "a"),
            ([1, 2, 3], PrivacyBudget(0.5, 1e-9), "b"),
            ([4, 5], PrivacyBudget(0.75, 0.0), "c"),
        ]
        staged_acc.begin_staging()
        for keys, budget, label in requests:
            staged_acc.stage_charge(keys, budget, label)
        # Nothing committed while staged...
        assert staged_acc.charges == []
        # ... but reads see the staged spend.
        assert not staged_acc.can_charge([1], PrivacyBudget(0.5, 0.0))
        staged_acc.charge_many(staged_acc.pop_staged())
        for keys, budget, label in requests:
            seq_acc.charge(keys, budget, label=label)
        assert np.array_equal(staged_acc.store.totals, seq_acc.store.totals)
        assert [r.block_keys for r in staged_acc.charges] == [
            r.block_keys for r in seq_acc.charges
        ]

    def test_stage_refusal_stages_nothing(self):
        acc = self._accountant()
        acc.begin_staging()
        acc.stage_charge([0, 1], PrivacyBudget(0.8, 0.0))
        with pytest.raises(BudgetExceededError):
            acc.stage_charge([1, 2], PrivacyBudget(0.5, 0.0))
        # The refused request is absent; the earlier one still commits.
        records = acc.charge_many(acc.pop_staged())
        assert len(records) == 1
        assert acc.can_charge([2], PrivacyBudget(0.5, 0.0))

    def test_staged_reads_see_intra_batch_accumulation(self):
        acc = self._accountant()
        acc.begin_staging()
        assert acc.max_epsilon([0]) == pytest.approx(1.0)
        acc.stage_charge([0], PrivacyBudget(0.6, 0.0))
        assert acc.max_epsilon([0]) == pytest.approx(0.4)
        assert acc.usable_blocks(PrivacyBudget(0.5, 0.0)) == [1, 2, 3, 4, 5]
        acc.pop_staged()
        # Aborting restores the committed view.
        assert acc.max_epsilon([0]) == pytest.approx(1.0)

    def test_charging_while_staged_is_an_error(self):
        acc = self._accountant()
        acc.begin_staging()
        with pytest.raises(InvalidBudgetError):
            acc.charge([0], PrivacyBudget(0.1, 0.0))
        with pytest.raises(InvalidBudgetError):
            acc.charge_many([([0], PrivacyBudget(0.1, 0.0))])
        with pytest.raises(InvalidBudgetError):
            acc.begin_staging()
        acc.pop_staged()
        acc.charge([0], PrivacyBudget(0.1, 0.0))

    def test_staging_requires_vectorized_filter(self):
        from repro.core.filters import BasicCompositionFilter

        class ScalarOnlyFilter(BasicCompositionFilter):
            def admits(self, history, candidate, totals=None):
                return super().admits(history, candidate, totals=totals)

        acc = BlockAccountant(1.0, 1e-6, filter_factory=ScalarOnlyFilter)
        assert not acc.staging_supported
        with pytest.raises(InvalidBudgetError):
            acc.begin_staging()

    def test_staged_retirement_not_persisted_until_commit(self):
        acc = self._accountant(n_blocks=2)
        acc.begin_staging()
        acc.stage_charge([0], PrivacyBudget(1.0, 0.0))  # exhausts block 0
        # Scans filter the staged-retired block out...
        assert acc.usable_blocks() == [1]
        # ... but nothing is persisted as retired yet.
        assert bool(acc.store.live.all())
        acc.charge_many(acc.pop_staged())
        assert acc.retired_blocks() == [0]

    def test_access_control_staging_surface(self):
        access = SageAccessControl(1.0, 1e-6)
        access.register_blocks(range(4))
        assert access.supports_staged_requests
        access.begin_staging()
        access.stage_request([0, 1], PrivacyBudget(0.5, 0.0), label="x")
        records = access.commit_staged()
        assert len(records) == 1 and records[0].label == "x"
        reclosed = access.commit_staged()
        assert reclosed == []  # nothing open: no-op
        # Contexts disable staging (their charges validate per-request).
        access.add_context("dev", 0.5, 1e-7)
        assert not access.supports_staged_requests
        with pytest.raises(AccessDeniedError):
            access.begin_staging()

    def test_staged_commit_with_block_registered_mid_batch(self):
        acc = self._accountant(n_blocks=2)
        acc.begin_staging()
        acc.stage_charge([0], PrivacyBudget(0.25, 0.0))
        acc.register_block(99)  # lands mid-hour, after the overlay opened
        acc.stage_charge([99, 1], PrivacyBudget(0.5, 0.0))
        acc.charge_many(acc.pop_staged())
        assert acc.store.totals[acc.rows_for_keys([99])[0], TOT_EPS] == pytest.approx(0.5)
        assert len(acc.charges) == 2

    def test_commit_staged_on_acl_stream(self):
        """Regression: the hourly commit must honor stream-level ACLs
        without dropping the staged batch on a refused principal."""
        access = SageAccessControl(1.0, 1e-6, authorized_principals=["alice"])
        access.register_blocks(range(2))
        access.begin_staging()
        access.stage_request(
            [0], PrivacyBudget(0.25, 0.0), label="x", principal="alice"
        )
        # An unauthorized committer is refused *before* the batch closes...
        with pytest.raises(AccessDeniedError):
            access.commit_staged(principal="mallory")
        assert access.staging_active
        # ... and the authorized platform principal commits it intact.
        records = access.commit_staged(principal="alice")
        assert [r.label for r in records] == ["x"]
