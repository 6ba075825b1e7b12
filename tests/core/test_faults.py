"""The crash-point registry, and the transactional hour's rollback property.

The rollback property (the exception half of the hour's contract): an
exception raised at *any* pre-commit crash point of an hour leaves the
in-memory platform -- accountant store, staged batch, reservation table,
sessions, model store, clock, RNG -- byte-identical to its pre-hour state,
durable or volatile, and a durable platform's WAL untouched; the hour
simply never happened.  Post-commit points raise through to the caller
but leave the already-committed hour intact.
"""

import pytest

from repro.core import durability, faults
from repro.core.adaptive import AdaptiveConfig
from repro.core.platform import Sage
from repro.workload.oracle import CountStreamSource, OraclePipeline

PRE_COMMIT_POINTS = (
    "hour.opened",
    "settle.mid_session",
    "wal.before_append",
    "wal.after_append",
    "charge.between_validate_and_commit",
)
POST_COMMIT_POINTS = ("hour.after_commit", "snapshot.mid_write")
# Every pre-commit point on both kinds of platform; the WAL points exist
# only where there is a log.
ROLLBACK_CASES = [
    pytest.param(durable, point, id=f"{'durable' if durable else 'volatile'}-{point}")
    for durable in (True, False)
    for point in PRE_COMMIT_POINTS
    if durable or not point.startswith("wal.")
]


def _build(wal_dir=None, snapshot_every=0):
    return Sage(
        CountStreamSource(4000, scale=1000),
        seed=5,
        wal_dir=wal_dir,
        snapshot_every=snapshot_every,
    )


def _pipes():
    return [
        (OraclePipeline(name=f"p{i}", n_at_eps1=c), AdaptiveConfig(max_attempts=16))
        for i, c in enumerate((3_000.0, 12_000.0, 50_000.0))
    ]


def _clean_digests(hours, snapshot_every=0):
    sage = _build()
    for pipeline, config in _pipes():
        sage.submit(pipeline, config)
    digests = [durability.state_digest(sage)]
    for _ in range(hours):
        sage.advance(1.0)
        digests.append(durability.state_digest(sage))
    sage.close()
    return digests


def _pre_hour_state(sage):
    """Everything a failed hour must leave untouched, byte for byte: the
    state digest (ledger totals, reservation matrix and free pool, charge
    log, sessions, clock) plus the RNG, the model store, and the
    database tail."""
    return (
        durability.state_digest(sage),
        sage.access.accountant.store.totals.tobytes(),
        sage.reservation_table.matrix.tobytes(),
        sage.reservation_table.free_epsilon.tobytes(),
        [
            (e.status, len(e.session.attempts), e.session.epsilon, e.bundle)
            for e in sage.pipelines
        ],
        sage.clock_hours,
        sage.rng.bit_generator.state,
        sage.store.version_marks(),
        sage.database.mark(),
    )


@pytest.fixture(autouse=True)
def _clean_fault_registry():
    faults.clear()
    yield
    faults.clear()


# ----------------------------------------------------------------------
# Registry semantics
# ----------------------------------------------------------------------
class TestRegistry:
    def test_trip_is_noop_when_nothing_armed(self):
        faults.trip("hour.opened")  # must not raise

    def test_unknown_point_rejected_at_arm_time(self):
        with pytest.raises(faults.FaultConfigError):
            faults.arm_error("no.such.point")
        with pytest.raises(faults.FaultConfigError):
            faults.is_armed("no.such.point")
        # trip() stays permissive: it is the production hot path and must
        # cost one dict probe, not a membership check per call.
        faults.trip("no.such.point")

    def test_armed_error_fires_once_and_disarms(self):
        with faults.armed_error("hour.opened"):
            assert faults.is_armed("hour.opened")
            with pytest.raises(faults.InjectedFault) as err:
                faults.trip("hour.opened")
            assert err.value.point == "hour.opened"
        assert not faults.is_armed("hour.opened")
        faults.trip("hour.opened")  # disarmed again: no-op

    def test_skip_counts_down_before_firing(self):
        with faults.armed_error("hour.opened", skip=2):
            faults.trip("hour.opened")
            faults.trip("hour.opened")
            with pytest.raises(faults.InjectedFault):
                faults.trip("hour.opened")

    def test_crash_is_not_an_exception_subclass(self):
        # The whole point: `except Exception` handlers (rollback paths)
        # must not see a simulated process death.
        assert not issubclass(faults.InjectedCrash, Exception)
        assert issubclass(faults.InjectedCrash, BaseException)
        assert issubclass(faults.InjectedFault, Exception)

    def test_clear_disarms_everything(self):
        faults.arm_error("hour.opened")
        faults.arm_crash("settle.mid_session")
        faults.clear()
        assert not faults.is_armed("hour.opened")
        assert not faults.is_armed("settle.mid_session")


# ----------------------------------------------------------------------
# The rollback property (satellite: exception-safety of Sage.advance)
# ----------------------------------------------------------------------
class TestDurableRollback:
    """Rollback on durable platforms, and on volatile ones -- the same
    transactional hour without the log."""

    @pytest.mark.parametrize("durable,point", ROLLBACK_CASES)
    @pytest.mark.parametrize("skip", [0, 1])
    def test_pre_commit_fault_restores_pre_hour_state(
        self, durable, point, skip, tmp_path
    ):
        digests = _clean_digests(hours=8)
        sage = _build(wal_dir=tmp_path if durable else None)
        for pipeline, config in _pipes():
            sage.submit(pipeline, config)
        wal_file = durability.wal_path(tmp_path)
        # Some points fire only on hours that commit charges: advance
        # with the fault armed until it actually fires.  With skip=1,
        # settle.mid_session fires after an earlier session of the hour
        # has already staged its charges.
        fail_hour = None
        with faults.armed_error(point, skip=skip):
            for hour in range(6):
                pre_state = _pre_hour_state(sage)
                pre_digest = durability.state_digest(sage)
                pre_store_len = len(sage.access.accountant.store)
                # Before any hour the log is at most its 8-byte magic
                # (creating the empty file never rolls back).
                pre_wal_size = (
                    wal_file.stat().st_size
                    if wal_file.exists()
                    else len(durability.WAL_MAGIC)
                )
                try:
                    sage.advance(1.0)
                except faults.InjectedFault:
                    fail_hour = hour
                    break
        assert fail_hour is not None, f"{point} never fired"
        # The hour never happened: accountant, table, sessions, model
        # store, clock, RNG, database, WAL.
        assert _pre_hour_state(sage) == pre_state
        assert pre_digest == digests[fail_hour]
        assert len(sage.access.accountant.store) == pre_store_len
        assert not sage.access.staging_active
        assert sage.hours_committed == fail_hour
        if durable:
            assert wal_file.stat().st_size == pre_wal_size
        else:
            assert not wal_file.exists()
        # The platform keeps working, in lockstep with the clean run:
        # the rollback rewound clock, RNG, and database tail, so the
        # retried hour re-ingests the very same stream slice.
        for hour in range(fail_hour + 1, fail_hour + 3):
            sage.advance(1.0)
            assert durability.state_digest(sage) == digests[hour]
        sage.close()

    @pytest.mark.parametrize("point", POST_COMMIT_POINTS)
    def test_post_commit_fault_keeps_the_committed_hour(self, point, tmp_path):
        digests = _clean_digests(hours=6)
        snapshot_every = 2 if point == "snapshot.mid_write" else 0
        sage = _build(wal_dir=tmp_path, snapshot_every=snapshot_every)
        for pipeline, config in _pipes():
            sage.submit(pipeline, config)
        sage.advance(1.0)
        with pytest.raises(faults.InjectedFault):
            with faults.armed_error(point):
                sage.advance(1.0)
        # The hour landed before the fault: no rollback.
        assert sage.hours_committed == 2
        assert durability.state_digest(sage) == digests[2]
        sage.advance(1.0)
        assert durability.state_digest(sage) == digests[3]
        sage.close()

    def test_fault_then_crash_then_recover(self, tmp_path):
        """A rolled-back hour must not poison later recovery: the
        rollback leaves no trace, and replay re-ingests under the
        recorded clock/RNG state either way."""
        digests = _clean_digests(hours=6)
        sage = _build(wal_dir=tmp_path)
        for pipeline, config in _pipes():
            sage.submit(pipeline, config)
        sage.advance(1.0)
        with pytest.raises(faults.InjectedFault):
            with faults.armed_error("settle.mid_session"):
                sage.advance(1.0)
        sage.advance(1.0)
        sage.advance(1.0)
        assert durability.state_digest(sage) == digests[3]
        with pytest.raises(faults.InjectedCrash):
            with faults.armed_crash("hour.opened"):
                sage.advance(1.0)
        recovered = _build(wal_dir=tmp_path)
        report = recovered.recover(_pipes())
        assert report.hours_committed == 3
        assert durability.state_digest(recovered) == digests[3]
        recovered.advance(1.0)
        assert durability.state_digest(recovered) == digests[4]
        recovered.close()
        sage.close()

    @pytest.mark.parametrize(
        "durable,raised",
        [
            pytest.param(False, faults.InjectedFault, id="volatile-InjectedFault"),
            pytest.param(False, KeyboardInterrupt, id="volatile-KeyboardInterrupt"),
            pytest.param(False, SystemExit, id="volatile-SystemExit"),
            pytest.param(False, faults.InjectedCrash, id="volatile-InjectedCrash"),
            pytest.param(True, KeyboardInterrupt, id="durable-KeyboardInterrupt"),
        ],
    )
    def test_retried_hour_matches_uninterrupted_run(self, durable, raised, tmp_path):
        """A failed hour leaves no trace, interrupts included: the first
        session's staged charges are dropped with the rest of the hour,
        and retrying the hour lands exactly where a run that never failed
        does.  Only a simulated process death on a durable platform is
        left for recovery; a volatile platform has no log, so an open
        staged batch would lose the hour's charges for good."""
        digests = _clean_digests(hours=4)
        sage = _build(wal_dir=tmp_path if durable else None)
        for pipeline, config in _pipes():
            sage.submit(pipeline, config)
        sage.advance(1.0)
        pre_state = _pre_hour_state(sage)
        wal_file = durability.wal_path(tmp_path)
        pre_wal_size = wal_file.stat().st_size if durable else None

        def raise_mid_hour(point):
            raise raised(point)

        # skip=1: an earlier session of the hour has already staged its
        # charges when the exception lands.
        faults.arm("settle.mid_session", raise_mid_hour, skip=1)
        with pytest.raises(raised):
            sage.advance(1.0)
        faults.disarm("settle.mid_session")
        assert _pre_hour_state(sage) == pre_state
        assert not sage.access.staging_active
        assert sage.hours_committed == 1
        if durable:
            assert wal_file.stat().st_size == pre_wal_size
        for hour in (2, 3, 4):
            sage.advance(1.0)
            assert durability.state_digest(sage) == digests[hour]
        sage.close()
