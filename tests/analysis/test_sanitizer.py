"""Runtime write-barrier sanitizer: freeze semantics, install wiring, and
the end-to-end tripwire on a deliberately mutated pure path."""

import numpy as np
import pytest

from repro.analysis import sanitizer
from repro.analysis.rules.purity import PURE_SEEDS
from repro.core.access_control import SageAccessControl
from repro.core.accountant import TOT_EPS, LedgerStore
from repro.core.adaptive import AdaptiveConfig, AdaptiveSession, SessionStatus
from repro.core.platform import Sage
from repro.dp.budget import PrivacyBudget
from repro.data.database import GrowingDatabase, StreamIngestor
from repro.data.stream import TimePartitioner
from repro.data.taxi import TaxiGenerator
from repro.workload import CountStreamSource, OraclePipeline


@pytest.fixture
def installed_sanitizer():
    sanitizer.install()
    try:
        yield
    finally:
        sanitizer.uninstall()
        # A suite-wide REPRO_SANITIZER=1 run must stay sanitized after
        # this test's teardown.
        sanitizer.install_from_env()


def build_world(hours=3, epsilon_global=1.0):
    db = GrowingDatabase()
    ingestor = StreamIngestor(
        TaxiGenerator(points_per_hour=200),
        db,
        TimePartitioner(1.0),
        rng=np.random.default_rng(0),
    )
    access = SageAccessControl(epsilon_global, 1e-6)
    for block in ingestor.advance(hours):
        access.register_block(block.key)
    return db, access


class NeverPipeline:
    name = "never"

    def run(self, batch, budget, rng, correct_for_dp=True):  # pragma: no cover
        raise AssertionError("peek must not run the pipeline")


class TestWriteBarrier:
    def test_freezes_slabs_and_restores(self):
        store = LedgerStore(capacity=4)
        row = store.append()
        with sanitizer.write_barrier(store):
            with pytest.raises(ValueError):
                store.write_rows([row], np.zeros((1, store.width)), [1])
        store.write_rows([row], np.zeros((1, store.width)), [1])  # thawed again

    def test_live_mask_is_frozen_too(self):
        # Retirement is written by the commit that exhausts a block; a
        # read that retires faults like any other slab write.
        store = LedgerStore(capacity=4)
        row = store.append()
        with sanitizer.write_barrier(store):
            with pytest.raises(ValueError):
                store.retire([row])
        assert store.live[row]
        store.retire([row])  # thawed again
        assert not store.live[row]

    def test_nested_barriers_compose(self):
        store = LedgerStore(capacity=4)
        row = store.append()
        with sanitizer.write_barrier(store):
            with sanitizer.write_barrier(store):
                pass
            # The inner exit must not thaw the outer window.
            with pytest.raises(ValueError):
                store.write_rows([row], np.zeros((1, store.width)), [1])
        store.write_rows([row], np.zeros((1, store.width)), [1])


class TestInstall:
    def test_install_and_uninstall_are_idempotent(self):
        sanitizer.uninstall()  # normalize: the suite may run env-installed
        original = AdaptiveSession.__dict__["propose_peek"]
        sanitizer.install()
        wrapped = AdaptiveSession.__dict__["propose_peek"]
        assert wrapped is not original
        sanitizer.install()  # no double wrap
        assert AdaptiveSession.__dict__["propose_peek"] is wrapped
        sanitizer.uninstall()
        assert AdaptiveSession.__dict__["propose_peek"] is original
        sanitizer.install_from_env()

    def test_install_wraps_exactly_the_pure_seeds(self):
        """The wrapped set mirrors the static rule's seed list."""
        sanitizer.uninstall()
        try:
            sanitizer.install()
            wrapped = {method for _cls, method in sanitizer._installed}
        finally:
            sanitizer.uninstall()
            sanitizer.install_from_env()
        assert wrapped == set(PURE_SEEDS)

    def test_env_flag_controls_install(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZER", raising=False)
        assert sanitizer.install_from_env() is False
        monkeypatch.setenv("REPRO_SANITIZER", "1")
        try:
            assert sanitizer.install_from_env() is True
            assert sanitizer.installed()
        finally:
            sanitizer.uninstall()
            monkeypatch.delenv("REPRO_SANITIZER")
            sanitizer.install_from_env()


class TestEndToEnd:
    def test_pure_reads_pass_under_barrier(self, installed_sanitizer):
        db, access = build_world()
        session = AdaptiveSession(
            NeverPipeline(), access, db, AdaptiveConfig(), np.random.default_rng(0)
        )
        proposal, reason = session.propose_peek()
        acct = access.accountant
        keys = db.keys
        assert acct.can_charge(keys[:1], PrivacyBudget(0.1, 0.0)) in (True, False)

    def test_mutated_propose_peek_trips_the_barrier(
        self, installed_sanitizer, monkeypatch
    ):
        """The acceptance canary: a write smuggled into the pure peek path
        must fault as a read-only assignment, at the write."""
        db, access = build_world()
        session = AdaptiveSession(
            NeverPipeline(), access, db, AdaptiveConfig(), np.random.default_rng(0)
        )
        original = AdaptiveSession.__dict__["_select_attempt"]
        if original in sanitizer._installed.values():  # pragma: no cover
            raise AssertionError("_select_attempt must not itself be wrapped")

        def leaky(self):
            acct = self.access.accountant
            acct.store.totals[0, TOT_EPS] += 1.0  # the smuggled ledger write
            return original(self)

        monkeypatch.setattr(AdaptiveSession, "_select_attempt", leaky)
        with pytest.raises(ValueError, match="read-only"):
            session.propose_peek()

    def test_leaky_hook_in_the_blocked_verdict_trips_the_barrier(
        self, installed_sanitizer
    ):
        """The verdict is wrapped like the peek: an allocation hook that
        writes the ledger faults at the write."""
        db, access = build_world()

        def leaky_budget(rows):
            access.accountant.store.totals[0, TOT_EPS] += 1.0
            return np.ones(len(rows))

        session = AdaptiveSession(
            NeverPipeline(),
            access,
            db,
            AdaptiveConfig(),
            np.random.default_rng(0),
            row_budget_fn=leaky_budget,
        )
        with pytest.raises(ValueError, match="read-only"):
            session.provably_blocked()

    def test_leaky_hour_pass_trips_the_barrier(
        self, installed_sanitizer, monkeypatch
    ):
        """The hour pass is wrapped too: a write smuggled into the scan it
        reads faults at the write, inside an open hour."""
        sage = Sage(CountStreamSource(1000, scale=1000), seed=0)
        sage.advance(3.0)
        entry = sage.submit(
            OraclePipeline(name="parked", n_at_eps1=1e12),
            AdaptiveConfig(min_window_blocks=64),
        )
        sage.advance(1.0)
        assert entry.status == SessionStatus.NEED_DATA
        admit_rows = SageAccessControl.admit_rows

        def leaky(self, min_budget, principal=None):
            self.accountant.store.totals[0, TOT_EPS] += 1.0
            return admit_rows(self, min_budget, principal)

        sage.access.begin_staging()
        try:
            assert sage._decide_parked([entry]).blocked == {entry.table_row}
            monkeypatch.setattr(SageAccessControl, "admit_rows", leaky)
            with pytest.raises(ValueError, match="read-only"):
                sage._decide_parked([entry])
        finally:
            sage.access.abort_staged()
