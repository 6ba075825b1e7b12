"""The durable accountant: WAL framing, snapshots, and crash recovery.

The headline property is the crash matrix: a process killed at *every*
named crash point of the hourly drive -- before, inside, and after the
commit point -- recovers to a state whose digest is byte-identical to an
uninterrupted run at the recovered hour, for single-store and sharded
accountants and for basic and pruned-Renyi composition, and then stays in
lockstep with the clean run.  Replay goes through the live ``charge_many``
path (one ``request_many`` per recorded hour); a corrupt WAL record is a
typed error naming the file and offset, never a silent replay.
"""

import os
import struct
import zlib

import pytest

from repro.core import durability, faults
from repro.core.adaptive import AdaptiveConfig
from repro.core.filters import RenyiCompositionFilter
from repro.core.platform import Sage
from repro.core.sharding import sharded_accountant_factory
from repro.errors import (
    DurabilityError,
    RecoveryError,
    SnapshotMismatchError,
    WalCorruptionError,
)
from repro.workload.oracle import CountStreamSource, OraclePipeline

PRUNED_RENYI = lambda e, d: RenyiCompositionFilter(e, d, orders="pruned")  # noqa: E731

VARIANTS = {
    "single-basic": {},
    "sharded-basic": {"accountant_factory": sharded_accountant_factory(4)},
    "single-pruned-renyi": {"filter_factory": PRUNED_RENYI},
    "sharded-pruned-renyi": {
        "accountant_factory": sharded_accountant_factory(4),
        "filter_factory": PRUNED_RENYI,
    },
}

# Committed hours recovered relative to the crashed hour's index: points
# before the WAL append lose the hour (it was never durable), points at or
# after the append recover it -- the record, not the in-memory commit, is
# the durability boundary.
CRASH_OFFSETS = {
    "hour.opened": 0,
    "settle.mid_session": 0,
    "wal.before_append": 0,
    "wal.after_append": 1,
    "charge.between_validate_and_commit": 1,
    "hour.after_commit": 1,
    "snapshot.mid_write": 1,
}


def _build(variant, wal_dir=None, snapshot_every=0):
    return Sage(
        CountStreamSource(4000, scale=1000),
        seed=5,
        wal_dir=wal_dir,
        snapshot_every=snapshot_every,
        **VARIANTS[variant],
    )


def _pipes():
    return [
        (OraclePipeline(name=f"p{i}", n_at_eps1=c), AdaptiveConfig(max_attempts=16))
        for i, c in enumerate((3_000.0, 12_000.0, 50_000.0))
    ]


def _clean_digests(variant, hours=12):
    """Per-hour state digests of an uninterrupted (volatile) run."""
    sage = _build(variant)
    for pipeline, config in _pipes():
        sage.submit(pipeline, config)
    digests = [durability.state_digest(sage)]
    for _ in range(hours):
        sage.advance(1.0)
        digests.append(durability.state_digest(sage))
    sage.close()
    return digests


@pytest.fixture(autouse=True)
def _clean_fault_registry():
    faults.clear()
    yield
    faults.clear()


# ----------------------------------------------------------------------
# WAL file format: framing, torn tails, corruption
# ----------------------------------------------------------------------
class TestWalFormat:
    def test_roundtrip_records(self, tmp_path):
        path = tmp_path / "charge.wal"
        writer = durability.WalWriter(path)
        writer.begin_hour()
        writer.append_hour({"hour_index": 0, "payload": list(range(50))})
        writer.commit_hour(0, 1234)
        writer.close()
        scan = durability.read_wal(path)
        assert not scan.truncated_tail
        assert [r["kind"] for r in scan.records] == ["hour", "commit"]
        assert scan.records[0]["payload"] == list(range(50))
        assert scan.records[1]["digest"] == 1234

    def test_missing_file_is_empty_scan(self, tmp_path):
        scan = durability.read_wal(tmp_path / "absent.wal")
        assert scan.records == [] and not scan.truncated_tail

    def test_torn_tail_is_tolerated(self, tmp_path):
        path = tmp_path / "charge.wal"
        writer = durability.WalWriter(path)
        writer.begin_hour()
        writer.append_hour({"hour_index": 0})
        writer.commit_hour(0, 7)
        writer.close()
        whole = path.read_bytes()
        # Chop mid-way through the trailing record: a mid-append crash.
        path.write_bytes(whole[:-5])
        scan = durability.read_wal(path)
        assert scan.truncated_tail
        assert [r["kind"] for r in scan.records] == ["hour"]

    def test_corrupt_record_names_file_and_offset(self, tmp_path):
        path = tmp_path / "charge.wal"
        writer = durability.WalWriter(path)
        writer.begin_hour()
        writer.append_hour({"hour_index": 0})
        writer.commit_hour(0, 7)
        writer.close()
        data = bytearray(path.read_bytes())
        # Flip one payload byte of the first record (past magic + header).
        offset = len(durability.WAL_MAGIC)
        data[offset + 8 + 2] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(WalCorruptionError) as err:
            durability.read_wal(path)
        assert str(path) in str(err.value)
        assert err.value.offset == offset
        assert err.value.record == 0
        assert "CRC" in str(err.value)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "charge.wal"
        path.write_bytes(b"NOTAWAL0" + b"x" * 32)
        with pytest.raises(WalCorruptionError) as err:
            durability.read_wal(path)
        assert err.value.offset == 0

    def test_writer_repairs_torn_tail_on_reopen(self, tmp_path):
        path = tmp_path / "charge.wal"
        writer = durability.WalWriter(path)
        writer.begin_hour()
        writer.append_hour({"hour_index": 0})
        writer.commit_hour(0, 7)
        writer.close()
        good_size = path.stat().st_size
        with open(path, "ab") as fh:
            fh.write(b"\x99\x00\x00")  # torn partial frame
        writer = durability.WalWriter(path)
        writer.begin_hour()
        writer.append_hour({"hour_index": 1})
        writer.commit_hour(1, 8)
        writer.close()
        assert path.stat().st_size > good_size
        scan = durability.read_wal(path)
        assert [r.get("hour_index") for r in scan.records] == [0, 0, 1, 1]

    def test_abort_hour_truncates_partial_hour(self, tmp_path):
        path = tmp_path / "charge.wal"
        writer = durability.WalWriter(path)
        writer.begin_hour()
        writer.append_hour({"hour_index": 0})
        writer.commit_hour(0, 7)
        size_before = path.stat().st_size
        writer.begin_hour()
        writer.append_hour({"hour_index": 1})
        writer.abort_hour()
        writer.close()
        assert path.stat().st_size == size_before
        assert len(durability.read_wal(path).records) == 2

    def test_trailing_hour_without_commit_pairs_with_none(self):
        pairs = durability.pair_hour_records(
            [
                {"kind": "hour", "hour_index": 0},
                {"kind": "commit", "hour_index": 0, "digest": 5},
                {"kind": "hour", "hour_index": 1},
            ]
        )
        assert [(r["hour_index"], d) for r, d in pairs] == [(0, 5), (1, None)]


# ----------------------------------------------------------------------
# Snapshot store
# ----------------------------------------------------------------------
class TestSnapshotStore:
    def test_prunes_to_keep(self, tmp_path):
        store = durability.SnapshotStore(tmp_path, keep=2)
        for hour in range(5):
            store.write(hour, {"hour_index": hour})
        names = [p.name for p in store.snapshot_paths()]
        assert names == ["snapshot-00000003.snap", "snapshot-00000004.snap"]

    def test_latest_skips_corrupt_newest(self, tmp_path):
        store = durability.SnapshotStore(tmp_path, keep=3)
        store.write(1, {"hour_index": 1})
        newest = store.write(2, {"hour_index": 2})
        data = bytearray(newest.read_bytes())
        data[-1] ^= 0xFF
        newest.write_bytes(bytes(data))
        hour, payload, skipped = store.latest()
        assert hour == 1 and payload["hour_index"] == 1
        assert skipped == [newest]

    def test_load_corrupt_names_file(self, tmp_path):
        store = durability.SnapshotStore(tmp_path)
        path = store.write(3, {"hour_index": 3})
        path.write_bytes(b"garbage")
        with pytest.raises(SnapshotMismatchError) as err:
            store.load(path)
        assert str(path) in str(err.value)


# ----------------------------------------------------------------------
# WAL compaction
# ----------------------------------------------------------------------
class TestWalCompaction:
    def _committed_hours(self, path):
        scan = durability.read_wal(path)
        return [r["hour_index"] for r in scan.records if r["kind"] == "hour"]

    def _fill(self, path, hours):
        writer = durability.WalWriter(path)
        for hour in range(hours):
            writer.begin_hour()
            writer.append_hour({"hour_index": hour, "n_entries": 0})
            writer.commit_hour(hour, 1000 + hour)
        return writer

    def test_compact_drops_hours_before_horizon(self, tmp_path):
        path = tmp_path / "charge.wal"
        writer = self._fill(path, 6)
        assert writer.compact(3) == 6  # hour + commit records for 0..2
        assert self._committed_hours(path) == [3, 4, 5]
        # The compacted log keeps accepting appends on the reopened handle.
        writer.begin_hour()
        writer.append_hour({"hour_index": 6, "n_entries": 0})
        writer.commit_hour(6, 1006)
        writer.close()
        scan = durability.read_wal(path)
        assert not scan.truncated_tail
        assert self._committed_hours(path) == [3, 4, 5, 6]

    def test_compact_refuses_while_hour_open(self, tmp_path):
        writer = durability.WalWriter(tmp_path / "charge.wal")
        writer.begin_hour()
        with pytest.raises(RecoveryError, match="compact"):
            writer.compact(1)
        writer.abort_hour()
        writer.close()

    def test_compact_without_drops_leaves_bytes_untouched(self, tmp_path):
        path = tmp_path / "charge.wal"
        writer = self._fill(path, 4)
        writer.compact(2)
        before = path.read_bytes()
        assert writer.compact(0) == 0
        assert writer.compact(2) == 0  # horizon already applied
        writer.close()
        assert path.read_bytes() == before

    def test_snapshot_write_compacts_to_oldest_retained(self, tmp_path):
        sage = _build("single-basic", wal_dir=tmp_path, snapshot_every=2)
        for pipeline, config in _pipes():
            sage.submit(pipeline, config)
        for _ in range(8):
            sage.advance(1.0)
        # Snapshots at hours 2,4,6,8 pruned to keep=3 leave {4,6,8}.
        oldest = sage._snapshots.oldest_retained_hour()
        assert oldest == 4
        hours = self._committed_hours(durability.wal_path(tmp_path))
        assert hours == list(range(oldest, 8))
        sage.close()

    @pytest.mark.parametrize("variant", ["single-basic", "sharded-basic"])
    def test_recovery_from_compacted_wal_is_byte_identical(self, variant, tmp_path):
        digests = _clean_digests(variant, hours=10)
        sage = _build(variant, wal_dir=tmp_path, snapshot_every=2)
        for pipeline, config in _pipes():
            sage.submit(pipeline, config)
        for _ in range(8):
            sage.advance(1.0)
        sage.close()
        assert min(self._committed_hours(durability.wal_path(tmp_path))) == 4
        recovered = _build(variant, wal_dir=tmp_path, snapshot_every=2)
        report = recovered.recover(_pipes())
        assert report.hours_committed == 8
        assert report.snapshot_hour == 8 and report.replayed_hours == 0
        assert durability.state_digest(recovered) == digests[8]
        for hour in (9, 10):
            recovered.advance(1.0)
            assert durability.state_digest(recovered) == digests[hour]
        recovered.close()

    def test_corrupt_newest_snapshot_falls_back_within_horizon(self, tmp_path):
        # The compaction horizon is the *oldest retained* snapshot, so the
        # fallback to an older snapshot still finds every hour it needs.
        digests = _clean_digests("single-basic", hours=8)
        sage = _build("single-basic", wal_dir=tmp_path, snapshot_every=2)
        for pipeline, config in _pipes():
            sage.submit(pipeline, config)
        for _ in range(8):
            sage.advance(1.0)
        sage.close()
        newest = sorted(tmp_path.glob("snapshot-*.snap"))[-1]
        data = bytearray(newest.read_bytes())
        data[-1] ^= 0xFF
        newest.write_bytes(bytes(data))
        recovered = _build("single-basic", wal_dir=tmp_path, snapshot_every=2)
        report = recovered.recover(_pipes())
        assert report.snapshots_skipped == 1
        assert report.snapshot_hour == 6 and report.replayed_hours == 2
        assert report.hours_committed == 8
        assert durability.state_digest(recovered) == digests[8]
        recovered.close()


# ----------------------------------------------------------------------
# Clean durable runs and recovery
# ----------------------------------------------------------------------
class TestDurableDrive:
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_durable_run_matches_volatile_digests(self, variant, tmp_path):
        digests = _clean_digests(variant, hours=8)
        sage = _build(variant, wal_dir=tmp_path, snapshot_every=3)
        for pipeline, config in _pipes():
            sage.submit(pipeline, config)
        for hour in range(8):
            sage.advance(1.0)
            assert durability.state_digest(sage) == digests[hour + 1]
        sage.close()

    @pytest.mark.parametrize("snapshot_every", [0, 3])
    def test_recover_reaches_clean_state_and_stays_in_lockstep(
        self, snapshot_every, tmp_path
    ):
        digests = _clean_digests("single-basic", hours=10)
        sage = _build("single-basic", wal_dir=tmp_path, snapshot_every=snapshot_every)
        for pipeline, config in _pipes():
            sage.submit(pipeline, config)
        for _ in range(8):
            sage.advance(1.0)
        sage.close()
        recovered = _build(
            "single-basic", wal_dir=tmp_path, snapshot_every=snapshot_every
        )
        report = recovered.recover(_pipes())
        assert report.hours_committed == 8
        if snapshot_every:
            assert report.snapshot_hour == 6 and report.replayed_hours == 2
        else:
            assert report.snapshot_hour is None and report.replayed_hours == 8
        assert durability.state_digest(recovered) == digests[8]
        for hour in (9, 10):
            recovered.advance(1.0)
            assert durability.state_digest(recovered) == digests[hour]
        recovered.close()

    def test_fresh_pipelines_resubmitted_when_log_is_empty(self, tmp_path):
        sage = _build("single-basic", wal_dir=tmp_path)
        for pipeline, config in _pipes():
            sage.submit(pipeline, config)
        with pytest.raises(faults.InjectedCrash):
            with faults.armed_crash("hour.opened"):
                sage.advance(1.0)
        recovered = _build("single-basic", wal_dir=tmp_path)
        report = recovered.recover(_pipes())
        assert report.hours_committed == 0
        assert report.fresh_pipelines == 3
        assert [p.name for p in recovered.pipelines] == ["p0", "p1", "p2"]
        assert durability.state_digest(recovered) == _clean_digests(
            "single-basic", hours=0
        )[0]
        recovered.close()
        sage.close()

    def test_advance_before_recover_refuses(self, tmp_path):
        sage = _build("single-basic", wal_dir=tmp_path)
        for pipeline, config in _pipes():
            sage.submit(pipeline, config)
        sage.advance(1.0)
        sage.close()
        stale = _build("single-basic", wal_dir=tmp_path)
        with pytest.raises(RecoveryError, match="recover"):
            stale.advance(1.0)
        stale.close()

    def test_recover_requires_fresh_platform(self, tmp_path):
        sage = _build("single-basic", wal_dir=tmp_path)
        for pipeline, config in _pipes():
            sage.submit(pipeline, config)
        sage.advance(1.0)
        with pytest.raises(RecoveryError, match="fresh"):
            sage.recover(_pipes())
        sage.close()

    def test_recover_without_wal_dir_refuses(self):
        sage = _build("single-basic")
        with pytest.raises(RecoveryError, match="wal_dir"):
            sage.recover(_pipes())
        sage.close()

    def test_durable_mode_requires_staged_drive(self, tmp_path):
        from repro.core.filters import BasicCompositionFilter

        class ScalarOnlyFilter(BasicCompositionFilter):
            def admits(self, history, candidate, totals=None):
                return super().admits(history, candidate, totals=totals)

        with pytest.raises(DurabilityError, match="staged"):
            Sage(
                CountStreamSource(4000, scale=1000),
                seed=5,
                wal_dir=tmp_path,
                filter_factory=ScalarOnlyFilter,
            )
        # A per-context policy added after construction disables staging
        # too: the next durable hour refuses to run rather than log it.
        sage = _build("single-basic", wal_dir=tmp_path / "ctx")
        sage.access.add_context("dev", 0.5, 1e-7)
        with pytest.raises(DurabilityError, match="staged"):
            sage.advance(1.0)
        assert sage.hours_committed == 0
        sage.close()

    def test_corrupt_wal_record_is_never_replayed(self, tmp_path):
        sage = _build("single-basic", wal_dir=tmp_path)
        for pipeline, config in _pipes():
            sage.submit(pipeline, config)
        for _ in range(3):
            sage.advance(1.0)
        sage.close()
        path = durability.wal_path(tmp_path)
        data = bytearray(path.read_bytes())
        data[len(durability.WAL_MAGIC) + 8 + 4] ^= 0xFF
        path.write_bytes(bytes(data))
        recovered = _build("single-basic", wal_dir=tmp_path)
        with pytest.raises(WalCorruptionError) as err:
            recovered.recover(_pipes())
        assert err.value.record == 0
        # Nothing was replayed off the bad log.
        assert recovered.hours_committed == 0
        recovered.close()

    def test_replay_detects_wrong_platform_config(self, tmp_path):
        sage = _build("single-pruned-renyi", wal_dir=tmp_path)
        for pipeline, config in _pipes():
            sage.submit(pipeline, config)
        sage.advance(1.0)
        sage.close()
        # Basic composition has a different ledger schema width.
        recovered = _build("single-basic", wal_dir=tmp_path)
        with pytest.raises(RecoveryError, match="schema width"):
            recovered.recover(_pipes())
        recovered.close()


# ----------------------------------------------------------------------
# The crash matrix (the issue's acceptance property)
# ----------------------------------------------------------------------
class TestCrashMatrix:
    @pytest.mark.parametrize("point", sorted(CRASH_OFFSETS))
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_kill_and_recover_is_byte_identical(self, variant, point, tmp_path):
        """Kill the drive at every crash point; the recovered platform's
        digest equals the clean run's at the recovered hour, and the next
        hours stay in lockstep."""
        digests = _clean_digests(variant, hours=10)
        snapshot_every = 4 if point == "snapshot.mid_write" else 0
        sage = _build(variant, wal_dir=tmp_path, snapshot_every=snapshot_every)
        for pipeline, config in _pipes():
            sage.submit(pipeline, config)
        clean_hours = 0
        with pytest.raises(faults.InjectedCrash):
            # skip=1 on always-firing points crashes hour 1, not hour 0 --
            # exercising rollback/replay with real prior state on disk.
            skip = 1 if CRASH_OFFSETS[point] == 0 or point == "hour.after_commit" else 0
            with faults.armed_crash(point, skip=skip):
                for _ in range(9):
                    sage.advance(1.0)
                    clean_hours += 1
        # The dead process gets no cleanup: recovery works from disk alone.
        expected = clean_hours + CRASH_OFFSETS[point]
        recovered = _build(variant, wal_dir=tmp_path, snapshot_every=snapshot_every)
        report = recovered.recover(_pipes())
        assert report.hours_committed == expected
        assert durability.state_digest(recovered) == digests[expected]
        recovered.advance(1.0)
        assert durability.state_digest(recovered) == digests[expected + 1]
        recovered.close()
        sage.close()

    def test_double_crash_then_recover(self, tmp_path):
        """A second crash during a recovered run still recovers cleanly."""
        digests = _clean_digests("single-basic", hours=10)
        sage = _build("single-basic", wal_dir=tmp_path)
        for pipeline, config in _pipes():
            sage.submit(pipeline, config)
        with pytest.raises(faults.InjectedCrash):
            with faults.armed_crash("wal.after_append", skip=1):
                for _ in range(9):
                    sage.advance(1.0)
        first = _build("single-basic", wal_dir=tmp_path)
        first.recover(_pipes())
        with pytest.raises(faults.InjectedCrash):
            with faults.armed_crash("hour.opened", skip=1):
                for _ in range(5):
                    first.advance(1.0)
        hours = first.hours_committed
        second = _build("single-basic", wal_dir=tmp_path)
        report = second.recover(_pipes())
        assert report.hours_committed == hours
        assert durability.state_digest(second) == digests[hours]
        second.close()
        first.close()
        sage.close()
