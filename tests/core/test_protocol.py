"""The propose/settle platform protocol: batching equivalence + staging.

The headline property: driving ``Sage.advance`` through the staged hourly
batch (one ``request_many`` per hour) produces **byte-identical** attempt
streams, reservations, ledger totals, charge logs, and release times to the
per-request sequential drive, across seeded simulator workloads.  The
platform always stages; the sequential drive is the test-side oracle
``per_request_oracle.per_request_drive``, whose guard proves no batch
opened while it ran.
"""

import functools
from collections import Counter
from contextlib import contextmanager, nullcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from per_request_oracle import (
    arrival_schedule,
    count_charge_paths,
    durable_drive,
    fresh_scan_drive,
    per_request_drive,
    stage_keys,
)

from repro.core import faults
from repro.core.access_control import SageAccessControl
from repro.core.accountant import BlockAccountant
from repro.core.adaptive import AdaptiveConfig, AdaptiveSession
from repro.core.filters import (
    BasicCompositionFilter,
    RenyiCompositionFilter,
    StrongCompositionFilter,
)
from repro.core.platform import Sage
from repro.dp.budget import PrivacyBudget
from repro.dp.rdp import gaussian_mechanism_budget
from repro.errors import (
    AccessDeniedError,
    BlockRetiredError,
    BudgetExceededError,
    InvalidBudgetError,
)
from repro.obs import Telemetry
from repro.workload.oracle import CountStreamSource, OraclePipeline
from repro.workload.simulator import WorkloadConfig, WorkloadSimulator


def _fingerprint(sage: Sage):
    """Everything the protocol could perturb, in comparable form."""
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
    def test_simulator_workloads_identical(self, strategy, seed, rate):
        """Seeded simulator workloads: batched vs sequential byte-parity."""
        platforms = []
        for batched in (True, False):
            with nullcontext() if batched else per_request_drive():
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
            for i, c in enumerate((3_000.0, 12_000.0, 50_000.0)):
                sage.submit(
                    OraclePipeline(name=f"p{i}", n_at_eps1=c),
                    AdaptiveConfig(max_attempts=16),
                )
            with nullcontext() if batched else per_request_drive():
                sage.run_until_quiet(max_hours=60)
            sages.append(sage)
        fp_b, fp_s = _fingerprint(sages[0]), _fingerprint(sages[1])
        for field in fp_b:
            assert fp_b[field] == fp_s[field], f"{field} diverged"

    @staticmethod
    def _oracle_drive(batched, strategy="conserve", filter_factory=None, hours=40):
        sage = Sage(
            CountStreamSource(4000, scale=1000),
            seed=3,
            filter_factory=filter_factory,
        )
        # The last pipeline never accepts: it keeps retrying to the end.
        for i, c in enumerate((2_000.0, 10_000.0, 40_000.0, 1e9)):
            sage.submit(
                OraclePipeline(name=f"p{i}", n_at_eps1=c),
                AdaptiveConfig(max_attempts=16, strategy=strategy),
            )
        with nullcontext() if batched else per_request_drive():
            for _ in range(hours):
                sage.advance(1.0)
        return sage

    @pytest.mark.parametrize("strategy", ["conserve", "aggressive"])
    def test_oracle_drive_identical(self, strategy):
        fp_b = _fingerprint(self._oracle_drive(True, strategy=strategy))
        fp_s = _fingerprint(self._oracle_drive(False, strategy=strategy))
        for field in fp_b:
            assert fp_b[field] == fp_s[field], f"{field} diverged"

    @pytest.mark.parametrize("orders", ["dense", "pruned"])
    def test_renyi_drive_identical(self, orders):
        """Renyi-width stores stage the hour identically, with the dense
        and the pruned order grid."""

        def filter_factory(epsilon, delta):
            if orders == "dense":
                return RenyiCompositionFilter(epsilon, delta)
            return RenyiCompositionFilter(epsilon, delta, orders="pruned")

        batched = self._oracle_drive(True, filter_factory=filter_factory, hours=25)
        fp_b = _fingerprint(batched)
        fp_s = _fingerprint(
            self._oracle_drive(False, filter_factory=filter_factory, hours=25)
        )
        for field in fp_b:
            assert fp_b[field] == fp_s[field], f"{field} diverged"


class TestOneBatchPerHour:
    def test_advance_commits_exactly_one_batch(self):
        """The acceptance invariant: no per-session charges on the platform
        path -- neither ``access.request``/``request_many`` nor the
        accountant's ``charge``/``charge_many`` -- and at most one staged
        commit landing charges per hour (exactly one on hours that commit
        charges)."""
        sage = Sage(CountStreamSource(4000, scale=1000), seed=3)
        for i, c in enumerate((2_000.0, 10_000.0, 1e9)):
            sage.submit(
                OraclePipeline(name=f"p{i}", n_at_eps1=c),
                AdaptiveConfig(max_attempts=8),
            )
        counts = count_charge_paths(sage)
        for _ in range(20):
            before = counts["commits"]
            charges_before = len(sage.access.accountant.charges)
            sage.advance(1.0)
            committed = len(sage.access.accountant.charges) - charges_before
            assert counts["per_request"] == 0
            assert counts["commits"] - before == (1 if committed else 0)
            assert sage.last_hour_charges == committed


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
            stage_keys(staged_acc, keys, budget, label)
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
        stage_keys(acc, [0, 1], PrivacyBudget(0.8, 0.0))
        with pytest.raises(BudgetExceededError):
            stage_keys(acc, [1, 2], PrivacyBudget(0.5, 0.0))
        # The refused request is absent; the earlier one still commits.
        records = acc.charge_many(acc.pop_staged())
        assert len(records) == 1
        assert acc.can_charge([2], PrivacyBudget(0.5, 0.0))

    def test_staged_reads_see_intra_batch_accumulation(self):
        acc = self._accountant()
        acc.begin_staging()
        assert acc.max_epsilon([0]) == pytest.approx(1.0)
        stage_keys(acc, [0], PrivacyBudget(0.6, 0.0))
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

    def test_staged_retirement_not_persisted_until_commit(self):
        acc = self._accountant(n_blocks=2)
        acc.begin_staging()
        stage_keys(acc, [0], PrivacyBudget(1.0, 0.0))  # exhausts block 0
        # Scans filter the staged-retired block out...
        assert acc.usable_blocks() == [1]
        # ... but nothing is persisted as retired yet.
        assert bool(acc.store.live.all())
        acc.charge_many(acc.pop_staged())
        assert acc.retired_blocks() == [0]

    def test_access_control_staging_surface(self):
        access = SageAccessControl(1.0, 1e-6)
        access.register_blocks(range(4))
        access.begin_staging()
        stage_keys(access, [0, 1], PrivacyBudget(0.5, 0.0), label="x")
        records = access.commit_staged()
        assert len(records) == 1 and records[0].label == "x"
        reclosed = access.commit_staged()
        assert reclosed == []  # nothing open: no-op
        # A closed batch reopens, and its commit lands on the stream.
        access.begin_staging()
        stage_keys(access, [2], PrivacyBudget(0.75, 0.0), label="y")
        records = access.commit_staged()
        assert [r.label for r in records] == ["y"]
        assert [r.label for r in access.accountant.charges] == ["x", "y"]
        rows = access.accountant.rows_for_keys([2])
        assert access.max_epsilon(rows) == pytest.approx(0.25)

    @pytest.mark.parametrize(
        "factory",
        [BasicCompositionFilter, StrongCompositionFilter, RenyiCompositionFilter],
    )
    def test_commit_staged_lands_what_charge_many_would(self, factory):
        """The staged commit writes the overlay's rows without validating
        again; the store, its live mask and the charge log must end
        byte-identical to a charge_many over the same requests (what WAL
        replay runs) and to sequential charges."""
        rng = np.random.default_rng(7)
        twins = [BlockAccountant(1.0, 1e-6, filter_factory=factory) for _ in range(3)]
        for acc in twins:
            acc.register_blocks(range(10))
            acc.register_block(10)
        staged, replayed, sequential = twins
        requests = []
        for acc in (staged, replayed):
            acc.begin_staging()
        for j in range(30):
            keys = [int(k) for k in rng.choice(11, size=rng.integers(1, 6), replace=False)]
            budget = PrivacyBudget(float(rng.uniform(0.001, 0.08)), 1e-10)
            try:
                stage_keys(staged, keys, budget, f"r{j}")
            except (BudgetExceededError, BlockRetiredError):
                continue
            stage_keys(replayed, keys, budget, f"r{j}")
            requests.append((keys, budget, f"r{j}"))
        assert len(requests) > 10
        records = staged.commit_staged()
        replayed.charge_many(replayed.pop_staged())
        for keys, budget, label in requests:
            sequential.charge(keys, budget, label=label)
        assert [r.label for r in records] == [label for _, _, label in requests]
        for other in (replayed, sequential):
            assert staged.store.totals.tobytes() == other.store.totals.tobytes()
            assert staged.store.charge_counts.tobytes() == other.store.charge_counts.tobytes()
            assert staged.store.live.tobytes() == other.store.live.tobytes()
            assert staged.charges == other.charges
        assert not staged.staging_active

    def test_rollback_registrations_refuses_while_a_batch_is_open(self):
        acc = self._accountant(n_blocks=2)
        acc.begin_staging()
        stage_keys(acc, [0], PrivacyBudget(0.25, 0.0))
        stage_keys(acc, [1], PrivacyBudget(0.9, 0.0))
        assert acc.usable_blocks() == [0, 1]  # fills the memo
        with refused_and_unchanged(acc):
            acc.rollback_registrations(1)
        acc.commit_staged()
        assert_rows_match_the_charge_log(acc)

    def test_register_block_refuses_while_a_batch_is_open(self):
        acc = self._accountant(n_blocks=2)
        acc.begin_staging()
        stage_keys(acc, [0], PrivacyBudget(0.25, 0.0))
        assert acc.usable_blocks() == [0, 1]  # fills the memo
        with refused_and_unchanged(acc):
            acc.register_block(99)
        with refused_and_unchanged(acc):
            acc.register_blocks([99, 100])
        stage_keys(acc, [0, 1], PrivacyBudget(0.5, 0.0))
        acc.commit_staged()
        assert acc.block_keys == [0, 1]
        assert_rows_match_the_charge_log(acc)
        # Once the batch has landed, both work again.
        acc.register_block(99)
        acc.rollback_registrations(2)
        assert acc.block_keys == [0, 1]

    def test_access_control_refuses_mid_batch_registration(self):
        """The sequence that once landed a rolled-back block's staged
        charge on the block registered after it: register, stage, roll
        back, register again, commit.  Every row change is refused now."""
        access = SageAccessControl(1.0, 1e-6)
        access.register_blocks(["a", "b"])
        access.begin_staging()
        acc = access.accountant
        with refused_and_unchanged(acc):
            access.register_block("c")
        stage_keys(access, ["b"], PrivacyBudget(0.9, 0.0))
        with refused_and_unchanged(acc):
            access.rollback_registrations(1)
        access.commit_staged()
        assert [r.block_keys for r in acc.charges] == [("b",)]
        assert_rows_match_the_charge_log(acc)

    def test_commit_staged_on_acl_stream(self):
        """Regression: the hourly commit must honor stream-level ACLs
        without dropping the staged batch on a refused principal."""
        access = SageAccessControl(1.0, 1e-6, authorized_principals=["alice"])
        access.register_blocks(range(2))
        access.begin_staging()
        stage_keys(
            access, [0], PrivacyBudget(0.25, 0.0), label="x", principal="alice"
        )
        # An unauthorized committer is refused *before* the batch closes...
        with pytest.raises(AccessDeniedError):
            access.commit_staged(principal="mallory")
        assert access.staging_active
        # ... and the authorized platform principal commits it intact.
        records = access.commit_staged(principal="alice")
        assert [r.label for r in records] == ["x"]


@contextmanager
def refused_and_unchanged(acc):
    """The body must raise ``InvalidBudgetError`` and leave the keys, the
    store bytes and the open batch (requests, overlay, memo) as they
    were."""

    def state():
        batch = acc._staged
        return (
            acc.block_keys,
            len(acc.store),
            acc.store.totals.tobytes(),
            acc.store.live.tobytes(),
            acc.store.charge_counts.tobytes(),
            batch,
            acc.staged_requests,
            batch.effective_totals().tobytes(),
            [
                (floor, mask.tobytes(), rows.tobytes())
                for floor, (mask, rows) in batch.scan_memo.items()
            ],
        )

    before = state()
    with pytest.raises(InvalidBudgetError):
        yield
    assert state() == before


def assert_rows_match_the_charge_log(acc):
    """Every charged store row is a block the charge log names, as often
    as the log names it, with the totals those charges add up to."""
    named = Counter(key for record in acc.charges for key in record.block_keys)
    counts = acc.store.charge_counts
    assert {
        acc.block_keys[row]: int(counts[row]) for row in np.flatnonzero(counts)
    } == dict(named)
    twin = BlockAccountant(
        acc.epsilon_global, acc.delta_global, filter_factory=type(acc.batch_filter)
    )
    twin.register_blocks(acc.block_keys)
    for record in acc.charges:
        twin.charge(record.block_keys, record.budget, record.label)
    assert twin.store.totals.tobytes() == acc.store.totals.tobytes()
    assert twin.store.live.tobytes() == acc.store.live.tobytes()


# Every vectorized composition filter scans through the same memo.
FILTERS = {
    "basic": None,
    "strong": StrongCompositionFilter,
    "renyi": RenyiCompositionFilter,
}


def without_memo(acc, read):
    """``read()`` run on an empty scan memo; the memo is put back after."""
    memo = acc._staged.scan_memo
    saved = dict(memo)
    memo.clear()
    try:
        return read()
    finally:
        memo.clear()
        memo.update(saved)


def fresh_scan(acc, floor):
    """The whole-stream admit scan at ``floor`` from an empty memo."""
    return without_memo(acc, lambda: acc._live_admit_rows(floor))


@pytest.mark.parametrize("filter_name", sorted(FILTERS))
class TestScanMemoLifetime:
    """The open staged batch memoizes whole-stream admit scans: a memo hit
    hands back the very array an earlier scan produced, a miss rescans."""

    FLOOR = PrivacyBudget(0.1, 0.0)

    def _accountant(self, filter_name, keys=range(4)):
        acc = BlockAccountant(1.0, 1e-6, filter_factory=FILTERS[filter_name])
        acc.register_blocks(keys)
        return acc

    def test_no_memo_outside_a_batch(self, filter_name):
        acc = self._accountant(filter_name)
        assert acc._live_admit_rows(self.FLOOR) is not acc._live_admit_rows(
            self.FLOOR
        )
        acc.begin_staging()
        inside = acc._live_admit_rows(self.FLOOR)
        assert acc._live_admit_rows(self.FLOOR) is inside
        acc.pop_staged()
        after = acc._live_admit_rows(self.FLOOR)
        assert after is not inside
        assert acc._live_admit_rows(self.FLOOR) is not after
        # A new batch starts from an empty memo.
        acc.begin_staging()
        assert acc._live_admit_rows(self.FLOOR) is not inside
        acc.pop_staged()

    def test_refused_stage_keeps_the_memo(self, filter_name):
        acc = self._accountant(filter_name)
        acc.begin_staging()
        stage_keys(acc, [0], PrivacyBudget(0.8, 0.0))
        scan = acc._live_admit_rows(self.FLOOR)
        with pytest.raises(BudgetExceededError):
            stage_keys(acc, [0, 1], PrivacyBudget(0.5, 0.0))
        assert acc._live_admit_rows(self.FLOOR) is scan
        assert acc.usable_blocks(self.FLOOR) == [0, 1, 2, 3]
        acc.pop_staged()

    def test_successful_stage_redecides_the_staged_rows(self, filter_name):
        acc = self._accountant(filter_name)
        acc.begin_staging()
        scan = acc._live_admit_rows(self.FLOOR)
        assert acc.usable_blocks(self.FLOOR) == [0, 1, 2, 3]
        # A stage that changes no decision keeps the very array.
        stage_keys(acc, [1], PrivacyBudget(0.01, 0.0))
        assert acc._live_admit_rows(self.FLOOR) is scan
        assert scan.tobytes() == fresh_scan(acc, self.FLOOR).tobytes()
        # One that changes a decision replaces it.
        stage_keys(acc, [0], PrivacyBudget(1.0, 0.0))
        kept = acc._live_admit_rows(self.FLOOR)
        # A new read-only array; the one handed out before is unchanged.
        assert kept is not scan and not kept.flags.writeable
        assert scan.tolist() == [0, 1, 2, 3]
        assert kept.tobytes() == fresh_scan(acc, self.FLOOR).tobytes()
        assert acc.usable_blocks(self.FLOOR) == [1, 2, 3]
        acc.pop_staged()

    def test_staged_retirement_leaves_a_scan_below_the_retirement_budget(
        self, filter_name
    ):
        below = PrivacyBudget(2e-4, 0.0)  # the retirement budget is (1e-3, 0)
        acc = self._accountant(filter_name)
        acc.begin_staging()
        assert acc.usable_blocks(below) == [0, 1, 2, 3]
        # Block 0 still admits `below` but is retired: it leaves the scan.
        stage_keys(acc, [0], PrivacyBudget(0.9995, 0.0))
        assert acc.admits_keys([0], below).tolist() == [True]
        assert acc.usable_blocks(below) == [1, 2, 3]
        assert acc.admit_rows(below).tobytes() == fresh_scan(acc, below).tobytes()
        acc.pop_staged()



MEMO_FILTERS = {
    "basic": None,
    "strong": StrongCompositionFilter,
    "renyi-default": RenyiCompositionFilter,
    "renyi-pruned": functools.partial(RenyiCompositionFilter, orders="pruned"),
}
GAUSSIAN = [
    gaussian_mechanism_budget(q, sigma, steps, delta)
    for q, sigma, steps, delta in (
        (0.002, 4.0, 10, 1e-9),
        (0.01, 2.0, 100, 1e-8),
    )
]
MEMO_BUDGETS = st.one_of(
    st.builds(
        PrivacyBudget,
        st.one_of(
            st.floats(min_value=0.001, max_value=0.7),
            # Charges that leave a block between the two lowest floors.
            st.sampled_from([0.4997, 0.9995]),
        ),
        st.sampled_from([0.0, 1e-8, 1e-7]),
    ),
    st.sampled_from(GAUSSIAN),
)
# None reads at the retirement budget (1e-3, 0); 2e-4 lies below it, so
# only the retirement check keeps a retired row out of that scan.
MEMO_FLOORS = st.one_of(
    st.none(),
    st.builds(
        PrivacyBudget,
        st.sampled_from([2e-4, 0.001, 0.05, 0.2, 0.5]),
        st.sampled_from([0.0, 1e-8]),
    ),
    st.sampled_from(GAUSSIAN),
)
REFUSED = (BlockRetiredError, BudgetExceededError)


def assert_memo_is_fresh(acc):
    """Every memoized floor's entry equals an empty-memo scan byte for
    byte, its mask agrees with its rows, and the keyed reads over it
    match theirs."""
    for floor, (mask, rows) in list(acc._staged.scan_memo.items()):
        assert not rows.flags.writeable
        assert mask.shape == (len(acc.store),)
        assert np.array_equal(np.flatnonzero(mask), rows)
        fresh = fresh_scan(acc, floor)
        assert rows.dtype == fresh.dtype and rows.tobytes() == fresh.tobytes()
        assert acc.usable_blocks(floor) == without_memo(
            acc, lambda: acc.usable_blocks(floor)
        )


class TestMemoSurvivesStages:
    """The scan memo outlives stages: after any interleaving of granted
    and refused stages and of refused registrations and registration
    rollbacks, each memoized entry is what a fresh scan would return."""

    @pytest.mark.parametrize("filter_name", sorted(MEMO_FILTERS))
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_memo_equals_a_fresh_scan_after_every_step(self, filter_name, data):
        acc = BlockAccountant(1.0, 1e-6, filter_factory=MEMO_FILTERS[filter_name])
        n_blocks = data.draw(st.integers(min_value=1, max_value=10), label="blocks")
        acc.register_blocks(range(n_blocks))
        for key, budget in data.draw(
            st.lists(
                st.tuples(st.integers(0, n_blocks - 1), MEMO_BUDGETS), max_size=12
            ),
            label="committed",
        ):
            try:
                acc.charge([key], budget)
            except REFUSED:
                pass
        acc.begin_staging()
        actions = st.sampled_from(
            ["read", "read", "stage", "stage", "register", "rollback"]
        )
        for _ in range(data.draw(st.integers(1, 25), label="steps")):
            action = data.draw(actions)
            keys = acc.block_keys
            if action == "read":
                acc.admit_rows(data.draw(MEMO_FLOORS, label="floor"))
            elif action == "stage" and keys:
                named = data.draw(
                    st.lists(st.sampled_from(keys), min_size=1, max_size=4, unique=True),
                    label="named",
                )
                try:
                    stage_keys(acc, named, data.draw(MEMO_BUDGETS, label="budget"))
                except REFUSED:
                    pass
            elif action == "register":
                with refused_and_unchanged(acc):
                    acc.register_block(n_blocks)
            elif action == "rollback":
                keep = data.draw(st.integers(0, len(keys)), label="keep")
                with refused_and_unchanged(acc):
                    acc.rollback_registrations(keep)
            assert_memo_is_fresh(acc)
        acc.pop_staged()


# ----------------------------------------------------------------------
# Parity: the default drive against the fresh-scan drive
# ----------------------------------------------------------------------
PARITY_CONFIG = AdaptiveConfig(
    epsilon_start=1.0 / 16.0, epsilon_cap=1.0, min_window_blocks=1, max_attempts=64
)


def _contention_schedule():
    """Forty hours: two bursts of Fig. 8 pipelines land at once on a stream
    that grew for twenty hours with nobody waiting."""
    bursts = [
        [p for hour in arrival_schedule(12, 2.0, seed) for p in hour]
        for seed in (7, 8)
    ]
    schedule = [[] for _ in range(40)]
    schedule[20], schedule[31] = bursts
    return schedule


# schedule, hour that fails and rolls back, hour recover() runs before
PARITY_MIXES = {
    "steady": (lambda: arrival_schedule(30, 0.7, seed=7), 12, 20),
    "backlog": (lambda: arrival_schedule(30, 2.0, seed=7), 12, 20),
    "contention": (_contention_schedule, 20, 26),
}


class TestFreshScanParity:
    @pytest.mark.parametrize("mix", sorted(PARITY_MIXES))
    @pytest.mark.parametrize("filter_name", sorted(MEMO_FILTERS))
    def test_default_drive_matches_fresh_scans(self, tmp_path, filter_name, mix):
        schedule, rollback_hour, recover_hour = PARITY_MIXES[mix]
        kept, fresh = (
            durable_drive(
                tmp_path / name,
                MEMO_FILTERS[filter_name],
                schedule(),
                PARITY_CONFIG,
                rollback_hour=rollback_hour,
                recover_hour=recover_hour,
                reference=reference,
            )
            for name, reference in (("kept", nullcontext), ("fresh", fresh_scan_drive))
        )
        assert fresh["seen"]["scans"], "the fresh-scan patch was never consulted"
        assert kept["released"], "no pipeline was released: nothing compared"
        for field in ("digest", "wal", "attempts", "released"):
            assert kept[field] == fresh[field], f"{field} diverged"


class TestSharedScans:
    """A staged starved hour: every session at one floor is parked, and the
    hour pass decides them all blocked.  The open batch serves the whole
    queue from one whole-stream admit scan."""

    N_SESSIONS = 8

    def _starved(self, filter_factory):
        sage = Sage(
            CountStreamSource(1000, scale=1000),
            seed=0,
            filter_factory=filter_factory,
        )
        sage.advance(60.0)  # blocks land with nobody waiting
        config = AdaptiveConfig(
            epsilon_start=0.5, epsilon_floor=0.5, max_attempts=4
        )
        for i in range(self.N_SESSIONS):
            sage.submit(OraclePipeline(name=f"p{i}", n_at_eps1=1e12), config)
        sage.advance(1.0)  # grant the free pool; sessions scan and starve
        return sage

    @pytest.mark.parametrize("filter_name", sorted(FILTERS))
    def test_blocked_queue_shares_one_whole_stream_scan(
        self, filter_name, monkeypatch
    ):
        sage = self._starved(FILTERS[filter_name])
        acc = sage.access.accountant
        scans, verdicts = [], []
        original = type(acc)._live_admit_rows
        verdict = AdaptiveSession.provably_blocked

        def spy(self, floor):
            rows = original(self, floor)
            scans.append(rows)  # keeps each result alive: ids stay unique
            return rows

        def spy_verdict(self):
            verdicts.append(self)
            return verdict(self)

        monkeypatch.setattr(type(acc), "_live_admit_rows", spy)
        monkeypatch.setattr(AdaptiveSession, "provably_blocked", spy_verdict)
        sage.advance(1.0)
        monkeypatch.undo()
        assert sage.last_hour_charges == 0
        assert all(e.status == "need_data" for e in sage.pipelines)
        # The hour pass decided the whole parked queue: no session asked
        # its own verdict ...
        assert not verdicts
        # ... and one scan served all of them.
        assert scans and len({id(rows) for rows in scans}) == 1


class TestPlatformSurface:
    def test_close_is_idempotent_on_a_durable_traced_platform(self, tmp_path):
        """close() releases the WAL handle and the fault observer, may run
        twice, and leaves a platform that keeps advancing durably."""
        observers = len(faults._OBSERVERS)
        sage = Sage(
            CountStreamSource(1000, scale=1000),
            seed=0,
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
