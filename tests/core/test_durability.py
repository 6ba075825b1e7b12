"""The durable accountant: WAL framing, snapshots, and crash recovery.

The headline property is the crash matrix: a process killed at *every*
named crash point of the hourly drive -- before, inside, and after the
commit point -- recovers to a state whose digest is byte-identical to an
uninterrupted run at the recovered hour, for basic, strong, dense-Renyi
and pruned-Renyi composition, and then stays in lockstep with the clean
run.  Replay goes through the live ``charge_many``
path (one ``request_many`` per recorded hour); a corrupt WAL record is a
typed error naming the file and offset, never a silent replay.
"""

import dataclasses
import gc
import os
import pickle
import tempfile
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import durability, faults
from repro.core.accountant import ChargeRecord
from repro.core.adaptive import AdaptiveConfig, SessionStatus
from repro.core.filters import RenyiCompositionFilter, StrongCompositionFilter
from repro.core.platform import Sage
from repro.dp.budget import PrivacyBudget
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
    "single-strong": {"filter_factory": StrongCompositionFilter},
    "single-renyi": {"filter_factory": RenyiCompositionFilter},
    "single-pruned-renyi": {"filter_factory": PRUNED_RENYI},
}

# A basic-width and a Renyi-width store, for the digest memo and WAL
# compaction tests.
MEMO_VARIANTS = ["single-basic", "single-pruned-renyi"]

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
    "wal.compact_swap": 1,
}

# Crash points that fire only while a snapshot is written.
SNAPSHOT_POINTS = ("snapshot.mid_write", "wal.compact_swap")


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

    def test_writer_rewrites_torn_header_on_reopen(self, tmp_path):
        path = tmp_path / "charge.wal"
        path.write_bytes(durability.WAL_MAGIC[:4])  # crash inside the header
        writer = durability.WalWriter(path)
        writer.begin_hour()
        writer.append_hour({"hour_index": 0})
        writer.commit_hour(0, 7)
        writer.close()
        scan = durability.read_wal(path)
        assert not scan.truncated_tail
        assert [(r["kind"], r["hour_index"]) for r in scan.records] == [
            ("hour", 0),
            ("commit", 0),
        ]

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
# The zero tail a recycled log file carries past its last record
# ----------------------------------------------------------------------
_RECORDS = st.lists(
    st.fixed_dictionaries(
        {
            "kind": st.sampled_from(["hour", "commit"]),
            "hour_index": st.integers(0, 2**20),
            "blob": st.binary(max_size=64),
        }
    ),
    min_size=1,
    max_size=4,
)


def _framed(records):
    """The framed bytes of ``records`` behind the magic, and each frame's
    span."""
    data = durability.WAL_MAGIC
    spans = []
    for record in records:
        frame = durability._encode_record(record)
        spans.append((len(data), len(data) + len(frame)))
        data += frame
    return data, spans


def _read_bytes(data):
    """:func:`durability.read_wal` of a log file holding ``data``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "charge.wal")
        with open(path, "wb") as fh:
            fh.write(data)
        return durability.read_wal(path)


class TestZeroTail:
    @given(records=_RECORDS, tail=st.integers(0, 96))
    @settings(max_examples=60, deadline=None)
    def test_zero_tail_is_the_clean_end(self, records, tail):
        base, spans = _framed(records)
        scan = _read_bytes(base + bytes(tail))
        assert scan.records == records and scan.spans == spans
        assert not scan.truncated_tail and scan.end_offset == len(base)

    @given(records=_RECORDS, extra=_RECORDS, tail=st.integers(0, 96), data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_frame_torn_over_the_zero_tail(self, records, extra, tail, data):
        """An append torn anywhere inside its frame, over the zeros (and
        past them), reads as a torn tail at the frame's start."""
        base, _ = _framed(records)
        frame = durability._encode_record(extra[0])
        cut = data.draw(st.integers(1, len(frame) - 1), label="cut")
        written = frame[:cut]
        torn = base + written + bytes(max(0, tail - cut))
        scan = _read_bytes(torn)
        assert scan.records == records and scan.end_offset == len(base)
        # Zeros written over zeros leave nothing to tell from a clean end.
        assert scan.truncated_tail == any(written)

    @given(records=_RECORDS, tail=st.integers(0, 96), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_bit_flip_in_a_complete_frame_is_corruption(self, records, tail, data):
        base, spans = _framed(records)
        index = data.draw(st.integers(0, len(spans) - 1), label="frame")
        start, end = spans[index]
        bit = data.draw(st.integers(0, (end - start) * 8 - 1), label="bit")
        flipped = bytearray(base + bytes(tail))
        flipped[start + bit // 8] ^= 1 << (bit % 8)
        with pytest.raises(WalCorruptionError) as err:
            _read_bytes(bytes(flipped))
        assert err.value.offset == start

    @given(
        records=_RECORDS,
        tail=st.integers(5, 96),
        value=st.integers(1, 255),
        data=st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_nonzero_byte_in_the_zero_tail_is_corruption(
        self, records, tail, value, data
    ):
        """From the tail's fifth byte on, a nonzero byte is damage.  The
        first four are where an append's length field lands, so a nonzero
        byte there is byte for byte a torn append (previous test)."""
        base, _ = _framed(records)
        at = data.draw(st.integers(4, tail - 1), label="at")
        damaged = bytearray(base + bytes(tail))
        damaged[len(base) + at] = value
        with pytest.raises(WalCorruptionError) as err:
            _read_bytes(bytes(damaged))
        assert err.value.offset == len(base)


# ----------------------------------------------------------------------
# The decode runs with the cyclic garbage collector off
# ----------------------------------------------------------------------
def _container_records(n):
    """``n`` hour records, each unpickling into a few dozen containers."""
    return [
        {"kind": "hour", "hour_index": i, "rows": [[i, j] for j in range(24)]}
        for i in range(n)
    ]


@contextmanager
def _gc_state(enabled):
    """Run the block with the collector on or off, restoring it after."""
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was_enabled else gc.disable)()


@contextmanager
def _counted_collections():
    """Count the collections that start inside the block."""
    seen = {"collections": 0}

    def count(phase, info):
        if phase == "start":
            seen["collections"] += 1

    gc.callbacks.append(count)
    try:
        yield seen
    finally:
        gc.callbacks.remove(count)


class TestReadWithoutCollection:
    def test_a_long_read_runs_no_collection(self, tmp_path):
        records = _container_records(2000)
        data, _ = _framed(records)
        path = tmp_path / "charge.wal"
        path.write_bytes(data)
        payloads = [
            durability._encode_record(r)[durability._FRAME.size :] for r in records
        ]
        with _gc_state(True):
            # Not vacuous: the same decode with the collector on collects.
            with _counted_collections() as baseline:
                decoded = [pickle.loads(p) for p in payloads]
            assert baseline["collections"] > 0
            with _counted_collections() as seen:
                scan = durability.read_wal(path)
            assert gc.isenabled()
        assert scan.records == decoded == records
        assert seen["collections"] == 0

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("case", ["clean", "torn tail", "corrupt"])
    def test_the_collector_state_is_restored(self, tmp_path, enabled, case):
        data, spans = _framed(_container_records(8))
        if case == "torn tail":
            data = data[:-5]
        elif case == "corrupt":
            start, end = spans[3]
            damaged = bytearray(data)
            damaged[end - 2] ^= 0xFF
            data = bytes(damaged)
        path = tmp_path / "charge.wal"
        path.write_bytes(data)
        with _gc_state(enabled):
            if case == "corrupt":
                with pytest.raises(WalCorruptionError) as err:
                    durability.read_wal(path)
                assert err.value.offset == start
            else:
                scan = durability.read_wal(path)
                assert scan.truncated_tail == (case == "torn tail")
            assert gc.isenabled() is enabled


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
def _fill_wal(path, hours, blob=b""):
    writer = durability.WalWriter(path)
    for hour in range(hours):
        writer.begin_hour()
        writer.append_hour({"hour_index": hour, "n_entries": 0, "blob": blob})
        writer.commit_hour(hour, 1000 + hour)
    return writer


def _wal_hours(path):
    scan = durability.read_wal(path)
    return [r["hour_index"] for r in scan.records if r["kind"] == "hour"]


class TestWalCompaction:
    def test_compact_drops_hours_before_horizon(self, tmp_path):
        path = tmp_path / "charge.wal"
        writer = _fill_wal(path, 6)
        assert writer.compact(3) == 6  # hour + commit records for 0..2
        assert _wal_hours(path) == [3, 4, 5]
        # The compacted log keeps accepting appends on the reopened handle.
        writer.begin_hour()
        writer.append_hour({"hour_index": 6, "n_entries": 0})
        writer.commit_hour(6, 1006)
        writer.close()
        scan = durability.read_wal(path)
        assert not scan.truncated_tail
        assert _wal_hours(path) == [3, 4, 5, 6]

    def test_compact_copies_the_kept_frames_verbatim(self, tmp_path):
        """The compacted log is the magic followed by the kept frames'
        original bytes, though real hour records re-encode differently."""
        sage = _build("single-basic", wal_dir=tmp_path)
        for pipeline, config in _pipes():
            sage.submit(pipeline, config)
        for _ in range(6):
            sage.advance(1.0)
        sage.close()
        path = durability.wal_path(tmp_path)
        data = path.read_bytes()
        scan = durability.read_wal(path)
        # The spans tile the file behind the magic.
        ends = [len(durability.WAL_MAGIC)] + [end for _, end in scan.spans]
        assert [start for start, _ in scan.spans] == ends[:-1]
        assert ends[-1] == scan.end_offset == len(data)
        kept = [
            data[start:end]
            for record, (start, end) in zip(scan.records, scan.spans)
            if record["hour_index"] >= 3
        ]
        assert any(
            frame != durability._encode_record(record)
            for frame, record in zip(kept, scan.records[-len(kept) :])
        ), "every kept record round-trips: the test cannot tell copy from re-encode"
        writer = durability.WalWriter(path)
        assert writer.compact(3) == len(scan.records) - len(kept)
        writer.close()
        assert path.read_bytes() == durability.WAL_MAGIC + b"".join(kept)

    def test_compact_refuses_while_hour_open(self, tmp_path):
        writer = durability.WalWriter(tmp_path / "charge.wal")
        writer.begin_hour()
        with pytest.raises(RecoveryError, match="compact"):
            writer.compact(1)
        writer.abort_hour()
        writer.close()

    def test_compact_without_drops_leaves_bytes_untouched(self, tmp_path):
        path = tmp_path / "charge.wal"
        writer = _fill_wal(path, 4)
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
        hours = _wal_hours(durability.wal_path(tmp_path))
        assert hours == list(range(oldest, 8))
        sage.close()

    @pytest.mark.parametrize("variant", MEMO_VARIANTS)
    def test_recovery_from_compacted_wal_is_byte_identical(self, variant, tmp_path):
        digests = _clean_digests(variant, hours=10)
        sage = _build(variant, wal_dir=tmp_path, snapshot_every=2)
        for pipeline, config in _pipes():
            sage.submit(pipeline, config)
        for _ in range(8):
            sage.advance(1.0)
        sage.close()
        assert min(_wal_hours(durability.wal_path(tmp_path))) == 4
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
# The writer's frame index, and compaction from it
# ----------------------------------------------------------------------
def _oracle_compact(data, upto_hour):
    """A decode-and-filter compaction of the log bytes ``data``: the magic
    plus every frame not an hour or commit record of an hour before
    ``upto_hour``, and the number of frames dropped."""
    scan = _read_bytes(data)
    kept = []
    for record, (start, end) in zip(scan.records, scan.spans):
        hour_index = record.get("hour_index")
        if not (
            record.get("kind") in ("hour", "commit")
            and hour_index is not None
            and int(hour_index) < upto_hour
        ):
            kept.append(data[start:end])
    return durability.WAL_MAGIC + b"".join(kept), len(scan.records) - len(kept)


def _scanned_index(path):
    """Each frame of the log at ``path`` as ``(hour index or None, start,
    end)``, read back from the file."""
    scan = durability.read_wal(path)
    return [
        (
            record.get("hour_index")
            if record.get("kind") in ("hour", "commit")
            else None,
            start,
            end,
        )
        for record, (start, end) in zip(scan.records, scan.spans)
    ]


_WAL_STEPS = st.lists(
    st.one_of(
        st.tuples(
            st.sampled_from(
                ["commit", "abort", "abort-empty", "unmarked", "unindexed"]
            ),
            st.integers(0, 300),
        ),
        st.tuples(st.sampled_from(["compact", "swap-crash"]), st.integers(0, 12)),
        st.tuples(st.just("reopen"), st.booleans()),
    ),
    min_size=1,
    max_size=24,
)


class TestFrameIndex:
    @given(steps=_WAL_STEPS)
    @settings(max_examples=60, deadline=None)
    def test_the_index_is_the_file(self, steps):
        """After every step -- hours committed, aborted or left without
        their marker, records with no hour, compactions (some crashing
        at the swap), reopens with and without a scan in hand -- the
        writer's index is the file's frames, and every compaction writes
        the oracle's bytes over the recycled spare."""
        with tempfile.TemporaryDirectory() as tmp:
            path = durability.wal_path(tmp)
            spare = path.with_name("charge.wal.spare")
            leftover = path.with_name("charge.wal.compact")
            writer = durability.WalWriter(path)
            hour = 0
            for op, arg in steps:
                if op in ("commit", "abort", "unmarked"):
                    writer.begin_hour()
                    writer.append_hour({"hour_index": hour, "blob": b"x" * arg})
                    if op == "commit":
                        writer.commit_hour(hour, 1000 + hour)
                        hour += 1
                    elif op == "abort":
                        writer.abort_hour()
                    else:  # the process died before the commit marker
                        writer.close()
                        writer = durability.WalWriter(path)
                        hour += 1
                elif op == "abort-empty":
                    writer.begin_hour()
                    writer.abort_hour()
                elif op == "unindexed":
                    writer.begin_hour()
                    writer.append_hour({"blob": b"u" * arg})
                    writer.commit_hour(hour, 1000 + hour)
                    hour += 1
                elif op == "reopen":
                    writer.close()
                    scan = durability.read_wal(path) if arg else None
                    writer = durability.WalWriter(path, scan=scan)
                else:
                    before = path.read_bytes()
                    # The file the rewrite claims: the spare, unless a
                    # crashed swap left it a link to the live log, else
                    # that crash's leftover temp file.
                    if spare.exists() and not os.path.samefile(spare, path):
                        stale = spare.stat().st_size
                    elif leftover.exists():
                        stale = leftover.stat().st_size
                    else:
                        stale = 0
                    body, dropped = _oracle_compact(before, arg)
                    if op == "swap-crash" and dropped:
                        with pytest.raises(faults.InjectedCrash):
                            with faults.armed_crash("wal.compact_swap"):
                                writer.compact(arg)
                        assert path.read_bytes() == before
                        assert os.path.samefile(spare, path)
                    else:
                        assert writer.compact(arg) == dropped
                        after = path.read_bytes()
                        if dropped:
                            assert after == body + bytes(max(0, stale - len(body)))
                        else:
                            assert after == before
                assert writer._frames == _scanned_index(path)
            writer.close()

    @pytest.mark.parametrize("frame_hour", [2, 4], ids=["dropped", "kept"])
    def test_a_damaged_frame_stops_compaction(self, frame_hour, tmp_path):
        """A payload byte flipped in a frame the compaction would drop, or
        in one it would keep, raises before any file is touched."""
        path = tmp_path / "charge.wal"
        writer = _fill_wal(path, 6)
        writer.compact(2)  # the old log becomes the spare
        scan = durability.read_wal(path)
        index, (start, end) = next(
            (i, span)
            for i, (record, span) in enumerate(zip(scan.records, scan.spans))
            if record["kind"] == "hour" and record["hour_index"] == frame_hour
        )
        with open(path, "r+b") as fh:
            at = (start + durability._FRAME.size + end) // 2
            fh.seek(at)
            byte = fh.read(1)[0]
            fh.seek(at)
            fh.write(bytes([byte ^ 0x40]))
        files = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert sorted(files) == ["charge.wal", "charge.wal.spare"]
        with pytest.raises(WalCorruptionError, match="record CRC mismatch") as err:
            writer.compact(4)
        assert err.value.offset == start and err.value.record == index
        assert f"@ byte {start}" in str(err.value)
        writer.close()
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == files


    def test_recovery_reads_the_log_once(self, tmp_path, monkeypatch):
        """Recovery opens the writer on the scan replay read, so the log
        is read once; a torn tail is still cut away at the end of
        recovery, and the platform keeps advancing in lockstep."""
        digests = _clean_digests("single-basic", hours=8)
        sage = _submitted("single-basic", wal_dir=tmp_path, snapshot_every=4)
        for _ in range(6):
            sage.advance(1.0)
        sage.close()
        path = durability.wal_path(tmp_path)
        size = path.stat().st_size
        frame = durability._encode_record({"kind": "hour", "hour_index": 6})
        with open(path, "ab") as fh:
            fh.write(frame[: len(frame) // 2])
        reads = []
        real = durability.read_wal
        monkeypatch.setattr(
            durability, "read_wal", lambda p: reads.append(p) or real(p)
        )
        recovered = _build("single-basic", wal_dir=tmp_path, snapshot_every=4)
        report = recovered.recover(_pipes())
        assert len(reads) == 1
        assert report.truncated_tail and report.hours_committed == 6
        assert path.stat().st_size == size
        for hour in (7, 8):
            recovered.advance(1.0)
            assert durability.state_digest(recovered) == digests[hour]
        recovered.close()
        final = _build("single-basic", wal_dir=tmp_path, snapshot_every=4)
        assert final.recover(_pipes()).hours_committed == 8
        assert durability.state_digest(final) == digests[8]
        final.close()


# ----------------------------------------------------------------------
# Recycling: retired snapshot and log files are reused, never freed
# ----------------------------------------------------------------------
class TestRecycling:
    def test_pruned_snapshot_is_the_next_writes_file(self, tmp_path):
        store = durability.SnapshotStore(tmp_path, keep=2)
        for hour in range(3):
            store.write(hour, {"hour_index": hour, "pad": "x" * 400})
        spare = tmp_path / "snapshot.spare"
        inode = spare.stat().st_ino
        # A smaller payload over the larger spare: cut to its own length.
        payload = {"hour_index": 3}
        path = store.write(3, payload)
        assert path.stat().st_ino == inode
        assert path.read_bytes() == durability.SNAP_MAGIC + durability._encode_record(
            payload
        )
        assert [p.name for p in store.snapshot_paths()] == [
            "snapshot-00000002.snap",
            "snapshot-00000003.snap",
        ]
        assert spare.exists()  # hour 1, retired by the write of hour 3
        assert store.latest()[0] == 3

    def test_compaction_reuses_the_previous_log_file(self, tmp_path):
        path = tmp_path / "charge.wal"
        spare = tmp_path / "charge.wal.spare"
        writer = _fill_wal(path, 6)
        first = path.stat().st_ino
        assert writer.compact(2) == 4
        # The first compaction writes a new file; the old log is the spare.
        assert spare.stat().st_ino == first and spare.stat().st_nlink == 1
        second = path.stat().st_ino
        assert writer.compact(4) == 4
        assert path.stat().st_ino == first and spare.stat().st_ino == second
        scan = durability.read_wal(path)
        size = path.stat().st_size
        assert not scan.truncated_tail and scan.end_offset < size
        assert path.read_bytes()[scan.end_offset :] == bytes(size - scan.end_offset)
        assert _wal_hours(path) == [4, 5]
        # Appends overwrite the zeros, on this handle and after a reopen,
        # which keeps the tail.
        writer.begin_hour()
        writer.append_hour({"hour_index": 6, "n_entries": 0})
        writer.commit_hour(6, 1006)
        writer.close()
        writer = durability.WalWriter(path)
        assert path.stat().st_size == size
        writer.begin_hour()
        writer.append_hour({"hour_index": 7, "n_entries": 0})
        writer.commit_hour(7, 1007)
        writer.close()
        assert _wal_hours(path) == [4, 5, 6, 7]

    @pytest.mark.parametrize("blob_size", [8, 4096], ids=["inside-tail", "past-tail"])
    def test_abort_over_the_zero_tail_restores_the_bytes(self, blob_size, tmp_path):
        path = tmp_path / "charge.wal"
        writer = _fill_wal(path, 6, blob=b"x" * 200)
        writer.compact(2)
        writer.compact(4)
        before = path.read_bytes()
        assert durability.read_wal(path).end_offset < len(before)
        writer.begin_hour()
        writer.append_hour({"hour_index": 6, "blob": b"y" * blob_size})
        writer.abort_hour()
        writer.close()
        assert path.read_bytes() == before

    def test_spare_linked_to_the_live_log_is_dropped_on_open(self, tmp_path):
        """What a crash between the swap's link and its replace leaves:
        the spare is a second name of the live log, and writing it in
        place would rewrite the live log.  Opening the log unlinks it."""
        path = tmp_path / "charge.wal"
        spare = tmp_path / "charge.wal.spare"
        _fill_wal(path, 4).close()
        os.link(path, spare)
        before = path.read_bytes()
        writer = durability.WalWriter(path)
        assert not spare.exists() and path.stat().st_nlink == 1
        assert writer.compact(2) == 4
        writer.close()
        assert _wal_hours(path) == [2, 3]
        assert spare.read_bytes() == before

    def test_crash_mid_snapshot_leaves_no_temp_file(self, tmp_path):
        """A crash in the hour-8 snapshot write leaves its temp file; the
        recovering platform's store adopts it as the spare, and 8 more
        hours leave only the kept snapshots, the log and the spares."""
        digests = _clean_digests("single-basic", hours=16)
        sage = _build("single-basic", wal_dir=tmp_path, snapshot_every=2)
        for pipeline, config in _pipes():
            sage.submit(pipeline, config)
        # Snapshots at hours 2, 4 and 6, then the crash at hour 8.
        with pytest.raises(faults.InjectedCrash):
            with faults.armed_crash("snapshot.mid_write", skip=3):
                for _ in range(16):
                    sage.advance(1.0)
        sage.close()
        tmp = tmp_path / "snapshot-00000008.snap.tmp"
        assert tmp.exists() and not (tmp_path / "snapshot.spare").exists()
        recovered = _build("single-basic", wal_dir=tmp_path, snapshot_every=2)
        assert not tmp.exists() and (tmp_path / "snapshot.spare").exists()
        assert recovered.recover(_pipes()).hours_committed == 8
        assert durability.state_digest(recovered) == digests[8]
        for hour in range(9, 17):
            recovered.advance(1.0)
            assert durability.state_digest(recovered) == digests[hour]
        recovered.close()
        names = sorted(path.name for path in tmp_path.iterdir())
        assert [name for name in names if name.endswith(".snap")] == [
            "snapshot-00000012.snap",
            "snapshot-00000014.snap",
            "snapshot-00000016.snap",
        ]
        assert set(names) - {
            "snapshot-00000012.snap",
            "snapshot-00000014.snap",
            "snapshot-00000016.snap",
        } <= {"charge.wal", "charge.wal.spare", "snapshot.spare"}

    def test_a_leftover_temp_snapshot_is_deleted_next_to_a_spare(self, tmp_path):
        for name in ("snapshot.spare", "snapshot-00000004.snap.tmp"):
            (tmp_path / name).write_bytes(name.encode())
        durability.SnapshotStore(tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["snapshot.spare"]
        assert (tmp_path / "snapshot.spare").read_bytes() == b"snapshot.spare"

    def test_crash_at_the_swap_then_advance_and_recover(self, tmp_path):
        """Crash between link and replace in a compaction that recycles a
        spare, reopen, advance through later compactions, recover."""
        digests = _clean_digests("single-basic", hours=12)
        sage = _build("single-basic", wal_dir=tmp_path, snapshot_every=2)
        for pipeline, config in _pipes():
            sage.submit(pipeline, config)
        path = durability.wal_path(tmp_path)
        spare = tmp_path / "charge.wal.spare"
        # Compactions at hours 2 (a fresh file) and 8 (recycles the spare).
        with pytest.raises(faults.InjectedCrash):
            with faults.armed_crash("wal.compact_swap", skip=1):
                for _ in range(12):
                    sage.advance(1.0)
        assert sage.hours_committed == 8
        assert os.path.samefile(spare, path)
        assert (tmp_path / "charge.wal.compact").exists()
        recovered = _build("single-basic", wal_dir=tmp_path, snapshot_every=2)
        assert recovered.recover(_pipes()).hours_committed == 8
        assert durability.state_digest(recovered) == digests[8]
        for hour in range(9, 13):
            recovered.advance(1.0)
            assert durability.state_digest(recovered) == digests[hour]
        assert not os.path.samefile(spare, path)
        recovered.close()
        sage.close()
        final = _build("single-basic", wal_dir=tmp_path, snapshot_every=2)
        report = final.recover(_pipes())
        assert report.hours_committed == 12
        assert durability.state_digest(final) == digests[12]
        final.close()

    def test_leftover_compact_tmp_and_spares_are_never_loaded(self, tmp_path):
        """A longer run's files under the temp and spare names would move
        recovery past hour 8 if anything loaded them."""
        digests = _clean_digests("single-basic", hours=12)
        runs = {}
        for name, hours in (("long", 12), ("short", 8)):
            wal_dir = runs[name] = tmp_path / name
            sage = _submitted("single-basic", wal_dir=wal_dir, snapshot_every=4)
            for _ in range(hours):
                sage.advance(1.0)
            sage.close()
        long_run, short = runs["long"], runs["short"]
        newest = (long_run / "snapshot-00000012.snap").read_bytes()
        (short / "snapshot-00000012.snap.tmp").write_bytes(newest)
        (short / "snapshot.spare").write_bytes(newest)
        (short / "charge.wal.compact").write_bytes((long_run / "charge.wal").read_bytes())
        recovered = _build("single-basic", wal_dir=short, snapshot_every=4)
        report = recovered.recover(_pipes())
        assert (report.snapshot_hour, report.hours_committed) == (8, 8)
        assert durability.state_digest(recovered) == digests[8]
        # Later snapshots and compactions overwrite the leftovers.
        for hour in range(9, 13):
            recovered.advance(1.0)
            assert durability.state_digest(recovered) == digests[hour]
        recovered.close()
        final = _build("single-basic", wal_dir=short, snapshot_every=4)
        assert final.recover(_pipes()).hours_committed == 12
        assert durability.state_digest(final) == digests[12]
        final.close()


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

    def test_recover_after_torn_header(self, tmp_path):
        """A log torn inside its header holds no hour: the platform advances
        over it and a fresh platform recovers the advanced state."""
        durability.wal_path(tmp_path).write_bytes(durability.WAL_MAGIC[:3])
        sage = _build("single-basic", wal_dir=tmp_path)
        for pipeline, config in _pipes():
            sage.submit(pipeline, config)
        for _ in range(3):
            sage.advance(1.0)
        sage.close()
        recovered = _build("single-basic", wal_dir=tmp_path)
        report = recovered.recover(_pipes())
        assert report.hours_committed == 3
        assert durability.state_digest(recovered) == _clean_digests(
            "single-basic", hours=3
        )[3]
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

    def test_durable_mode_refuses_per_context_policies(self, tmp_path):
        """Context ledgers are in neither the WAL nor the snapshots, so a
        durable platform with a per-context policy refuses to run an hour
        it could not recover."""
        sage = _build("single-basic", wal_dir=tmp_path)
        sage.access.add_context("dev", 0.5, 1e-7)
        with pytest.raises(DurabilityError, match="context ledgers"):
            sage.advance(1.0)
        assert sage.hours_committed == 0
        assert len(sage.access.accountant.store) == 0
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
        snapshot_every = 4 if point in SNAPSHOT_POINTS else 0
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


# ----------------------------------------------------------------------
# The incremental state digest: memo parity and coverage
# ----------------------------------------------------------------------
def _scratch_digest(sage):
    """The digest folded from an empty memo; the platform keeps its own."""
    memo = sage._digest_memo
    sage._digest_memo = {}
    try:
        return durability.state_digest(sage)
    finally:
        sage._digest_memo = memo


def _memo_digest(sage):
    """The platform's memoized digest, checked against a scratch fold."""
    digest = durability.state_digest(sage)
    assert digest == _scratch_digest(sage)
    return digest


def _submitted(variant, **kwargs):
    sage = _build(variant, **kwargs)
    for pipeline, config in _pipes():
        sage.submit(pipeline, config)
    return sage


class TestDigestMemo:
    @pytest.mark.parametrize("variant", MEMO_VARIANTS)
    def test_memo_extends_across_plain_hours(self, variant):
        sage = _submitted(variant)
        sage.advance(1.0)
        durability.state_digest(sage)
        fold = sage._digest_memo["charges"]
        for _ in range(3):
            sage.advance(1.0)
            _memo_digest(sage)
        # Appends only: the charge-log fold was extended, never rebuilt.
        assert sage._digest_memo["charges"] is fold
        assert fold.n == len(sage.access.accountant.charges) > 0
        sage.close()

    @pytest.mark.parametrize("variant", MEMO_VARIANTS)
    def test_memo_matches_scratch_through_snapshots_and_recovery(
        self, variant, tmp_path
    ):
        digests = _clean_digests(variant, hours=11)
        sage = _submitted(variant, wal_dir=tmp_path, snapshot_every=3)
        for hour in range(1, 8):
            sage.advance(1.0)
            assert _memo_digest(sage) == digests[hour]
        assert len(sage._snapshots.snapshot_paths()) == 2  # hours 3 and 6
        sage.close()
        # A recovered platform starts from an empty memo, restores the
        # hour-6 snapshot, replays hour 7, then keeps advancing.
        recovered = _build(variant, wal_dir=tmp_path, snapshot_every=3)
        report = recovered.recover(_pipes())
        assert (report.snapshot_hour, report.replayed_hours) == (6, 1)
        assert _memo_digest(recovered) == digests[7]
        for hour in range(8, 12):
            recovered.advance(1.0)
            assert _memo_digest(recovered) == digests[hour]
        recovered.close()

    @pytest.mark.parametrize("durable", [False, True], ids=["volatile", "durable"])
    @pytest.mark.parametrize("variant", MEMO_VARIANTS)
    def test_memo_matches_scratch_across_rolled_back_hour(
        self, variant, durable, tmp_path
    ):
        digests = _clean_digests(variant, hours=6)
        sage = _submitted(variant, wal_dir=tmp_path if durable else None)
        staged_at_fault = []

        def fail(point):
            staged_at_fault.append(sage.access.accountant.staged_request_count)
            raise faults.InjectedFault(point)

        for hour in range(1, 7):
            if hour == 2:
                # Fail after the second session's settle: the first one
                # has already staged charges and appended attempts.
                faults.arm("settle.mid_session", fail, skip=1)
                try:
                    with pytest.raises(faults.InjectedFault):
                        sage.advance(1.0)
                finally:
                    faults.disarm("settle.mid_session")
                assert staged_at_fault and staged_at_fault[0] > 0
                assert _memo_digest(sage) == digests[hour - 1]
            sage.advance(1.0)
            assert _memo_digest(sage) == digests[hour]
        sage.close()

    @pytest.mark.parametrize("variant", MEMO_VARIANTS)
    def test_truncate_and_regrow_attempts_refolds(self, variant):
        sage = _submitted(variant)
        for _ in range(4):
            sage.advance(1.0)
        attempts = max(
            (entry.session.attempts for entry in sage.pipelines), key=len
        )
        assert len(attempts) >= 2
        base = _memo_digest(sage)
        original = attempts[-2:]
        # Same length, same list object, new records at the tail.
        del attempts[-2:]
        for record in original:
            attempts.append(
                dataclasses.replace(record, train_size=record.train_size + 1)
            )
        regrown = _memo_digest(sage)
        assert regrown != base
        # Shorter than the memo's fold, then back to the original records.
        del attempts[-2:]
        assert _memo_digest(sage) not in (base, regrown)
        attempts.extend(original)
        assert _memo_digest(sage) == base
        sage.close()


def _mutate(obj, attr, value):
    old = getattr(obj, attr)
    setattr(obj, attr, value)
    return lambda: setattr(obj, attr, old)


def _bump_cell(array, index, delta):
    old = array[index]
    array[index] = old + delta

    def undo():
        array[index] = old

    return undo


def _flip_live_bit(sage):
    live = sage.access.accountant.store.live
    row = int(live.nonzero()[0][0])
    live[row] = False

    def undo():
        live[row] = True

    return undo


def _append_charge(sage):
    log = sage.access.accountant.charge_log
    log.append(ChargeRecord(budget=PrivacyBudget(0.01, 0.0), block_keys=(0,)))
    return log.pop


def _replace_attempt(sage):
    attempts = _busiest(sage).session.attempts
    old = attempts[-1]
    attempts[-1] = dataclasses.replace(old, train_size=old.train_size + 1)

    def undo():
        attempts[-1] = old

    return undo


def _busiest(sage):
    return max(sage.pipelines, key=lambda entry: len(entry.session.attempts))


COMPONENTS = {
    "clock": lambda s: _mutate(s.ingestor, "clock_hours", s.clock_hours + 1.0),
    "totals-cell": lambda s: _bump_cell(
        s.access.accountant.store.totals, (0, 0), 1e-9
    ),
    # The last column: a Renyi-width row's highest order.
    "totals-last-cell": lambda s: _bump_cell(
        s.access.accountant.store.totals, (0, -1), 1e-9
    ),
    "live-bit": _flip_live_bit,
    "charge-count": lambda s: _bump_cell(
        s.access.accountant.store.charge_counts, 0, 1
    ),
    "reservation-cell": lambda s: _bump_cell(
        s.reservation_table.matrix, (0, 0), 0.5
    ),
    "free-pool-cell": lambda s: _bump_cell(s.reservation_table.free_epsilon, 0, 0.5),
    "appended-charge": _append_charge,
    "replaced-attempt": _replace_attempt,
    "status": lambda s: _mutate(_busiest(s).session, "status", "timeout"),
    "release-time": lambda s: _mutate(_busiest(s), "release_time_hours", 123.0),
    "epsilon": lambda s: _mutate(
        _busiest(s).session, "epsilon", _busiest(s).session.epsilon * 2
    ),
    "window-blocks": lambda s: _mutate(
        _busiest(s).session, "window_blocks", _busiest(s).session.window_blocks + 1
    ),
    "total-spent": lambda s: _mutate(
        _busiest(s).session, "total_spent", PrivacyBudget(9.0, 0.0)
    ),
}


class TestDigestCoverage:
    @pytest.mark.parametrize("component", sorted(COMPONENTS))
    @pytest.mark.parametrize("variant", MEMO_VARIANTS)
    def test_each_component_moves_the_digest(self, variant, component):
        """Changing any one covered part changes the memoized digest, and
        undoing it restores the original -- incremental folding drops no
        part of the state."""
        sage = _submitted(variant)
        for _ in range(4):
            sage.advance(1.0)
        base = _memo_digest(sage)
        undo = COMPONENTS[component](sage)
        assert _memo_digest(sage) != base
        undo()
        assert _memo_digest(sage) == base
        sage.close()


# ----------------------------------------------------------------------
# The waiting index through recovery; reproducible snapshot files
# ----------------------------------------------------------------------
def _waiting_rows(sage):
    """The waiting index's rows, checked against the full scan."""
    rows = list(sage._waiting)
    assert rows == [entry.table_row for entry in sage.pipelines if entry.waiting]
    return rows


class TestWaitingIndexRecovery:
    @given(
        hours=st.integers(4, 10),
        snapshot_every=st.sampled_from([0, 2, 3]),
        tail=st.integers(1, 3),
    )
    @settings(max_examples=12, deadline=None)
    def test_recovered_index_matches_scan_and_live_run(
        self, hours, snapshot_every, tail
    ):
        with tempfile.TemporaryDirectory() as wal_dir:
            sage = _submitted(
                "single-basic", wal_dir=wal_dir, snapshot_every=snapshot_every
            )
            for _ in range(hours):
                sage.advance(1.0)
            live_rows, live_digest = _waiting_rows(sage), _memo_digest(sage)
            sage.close()
            recovered = _build(
                "single-basic", wal_dir=wal_dir, snapshot_every=snapshot_every
            )
            report = recovered.recover(_pipes())
            assert report.hours_committed == hours
            assert _waiting_rows(recovered) == live_rows
            assert _memo_digest(recovered) == live_digest
            # The recovered platform keeps the index in lockstep with a
            # clean run.
            digests = _clean_digests("single-basic", hours=hours + tail)
            for hour in range(hours + 1, hours + tail + 1):
                recovered.advance(1.0)
                _waiting_rows(recovered)
                assert _memo_digest(recovered) == digests[hour]
            recovered.close()


def _snapshot_bytes(wal_dir):
    return {path.name: path.read_bytes() for path in sorted(wal_dir.glob("*.snap"))}


def _durable_bytes(wal_dir):
    """Every snapshot, log and spare file of a WAL directory."""
    return {
        path.name: path.read_bytes()
        for path in sorted(wal_dir.iterdir())
        if path.name != "manifest.json"
    }


class TestSnapshotReproducibility:
    def test_two_fresh_wal_demo_runs_write_identical_snapshots(self, tmp_path):
        from repro.cli import main

        runs = []
        for name in ("a", "b"):
            wal_dir = tmp_path / name
            args = ["--wal-dir", str(wal_dir), "--hours", "6", "--snapshot-every", "4"]
            assert main(["wal-demo", *args]) == 0
            runs.append(wal_dir)
        snapshots = _snapshot_bytes(runs[0])
        assert list(snapshots) == ["snapshot-00000004.snap"]
        assert snapshots == _snapshot_bytes(runs[1])
        assert (runs[0] / "charge.wal").read_bytes() == (
            runs[1] / "charge.wal"
        ).read_bytes()

    def test_wal_demo_runs_stay_identical_across_recycling(self, tmp_path):
        """Past the third snapshot every compaction reuses the spare log
        and every snapshot the spare snapshot: still the same bytes."""
        from repro.cli import main

        runs = []
        for name in ("a", "b"):
            wal_dir = tmp_path / name
            args = ["--wal-dir", str(wal_dir), "--hours", "20", "--snapshot-every", "4"]
            assert main(["wal-demo", *args]) == 0
            runs.append(_durable_bytes(wal_dir))
        assert [name for name in runs[0] if name.endswith(".snap")] == [
            "snapshot-00000012.snap",
            "snapshot-00000016.snap",
            "snapshot-00000020.snap",
        ]
        assert runs[0] == runs[1]
        # Recycling happened: the log carries a zero tail from a spare.
        log = runs[0]["charge.wal"]
        assert _read_bytes(log).end_offset < len(log)

    @pytest.mark.parametrize(
        "point,failing_hour,skip",
        [
            # After the second driven session settled (the first staged).
            ("settle.mid_session", 2, 1),
            # Past the first recycles, when one session is still driven.
            ("settle.mid_session", 21, 0),
            # Fails after the hour record landed over the zero tail.
            ("wal.after_append", 21, 0),
        ],
    )
    @pytest.mark.parametrize("variant", MEMO_VARIANTS)
    def test_rolled_back_hour_leaves_identical_files(
        self, variant, point, failing_hour, skip, tmp_path
    ):
        """An hour that failed after staging and ingesting, then re-ran,
        leaves the same snapshot, log and spare bytes as a run where it
        never failed -- before recycling starts and after it."""
        runs = []
        for name, fails in (("clean", None), ("rolled-back", failing_hour)):
            wal_dir = tmp_path / name
            sage = _submitted(variant, wal_dir=wal_dir, snapshot_every=4)
            for hour in range(24):
                if hour == fails:
                    faults.arm_error(point, skip=skip)
                    try:
                        with pytest.raises(faults.InjectedFault):
                            sage.advance(1.0)
                    finally:
                        faults.disarm(point)
                sage.advance(1.0)
            sage.close()
            runs.append(_durable_bytes(wal_dir))
        assert list(runs[0]) == [
            "charge.wal",
            "charge.wal.spare",
            "snapshot-00000016.snap",
            "snapshot-00000020.snap",
            "snapshot-00000024.snap",
            "snapshot.spare",
        ]
        assert runs[0] == runs[1]


# Pickle writes dict keys in insertion order, so the key order of a WAL
# hour delta and of a snapshot entry is part of the file bytes.
DELTA_KEYS = [
    "index",
    "status",
    "epsilon",
    "epsilon_floor",
    "delta",
    "window_blocks",
    "total_spent",
    "settled_attempts",
    "release_time_hours",
    "attempts",
]
ENTRY_KEYS = [
    "name",
    "submit_time_hours",
    "release_time_hours",
    "settled_attempts",
    "status",
    "epsilon",
    "epsilon_floor",
    "delta",
    "window_blocks",
    "total_spent",
    "attempts",
]
# The hour record's pipeline keys, after hour_index, hours, clock_start,
# clock_hours and schema_width.
HOUR_NAME_KEYS = ["n_entries", "names_from", "entry_names"]
SESSION_KEYS = [
    "status",
    "epsilon",
    "epsilon_floor",
    "delta",
    "window_blocks",
    "total_spent",
]


class TestRecordFormat:
    def test_delta_and_entry_key_order(self, tmp_path):
        # No snapshot compacts this log, so it keeps the first hours, when
        # every session changes.
        sage = _submitted("single-basic", wal_dir=tmp_path)
        for _ in range(3):
            sage.advance(1.0)
        hours = [
            record
            for record in durability.read_wal(durability.wal_path(tmp_path)).records
            if record["kind"] == "hour"
        ]
        deltas = [delta for record in hours for delta in record["deltas"]]
        assert deltas and all(list(delta) == DELTA_KEYS for delta in deltas)
        assert all(list(record)[5:8] == HOUR_NAME_KEYS for record in hours)
        entries = durability.build_snapshot_payload(sage, sage.hours_committed)[
            "entries"
        ]
        assert entries
        assert all(list(entry) == ENTRY_KEYS for entry in entries)
        sage.close()

    def test_export_restore_round_trip(self):
        sage = _submitted("single-basic")
        for _ in range(3):
            sage.advance(1.0)
        source, target = (entry.session for entry in sage.pipelines[:2])
        state = source.export_state()
        assert list(state) == SESSION_KEYS
        target.restore_state(state)
        assert target.export_state() == state
        for key, value in state.items():
            assert getattr(target, key) is value
        sage.close()

    def test_decoded_status_comes_back_as_the_constant(self):
        sage = _submitted("single-basic")
        session = sage.pipelines[0].session
        decoded = "".join(["need", "_data"])  # equal, not the same object
        assert decoded == SessionStatus.NEED_DATA
        assert decoded is not SessionStatus.NEED_DATA
        session.restore_state({**session.export_state(), "status": decoded})
        assert session.status is SessionStatus.NEED_DATA
        sage.close()

    def test_attempt_codec_round_trips(self):
        sage = _submitted("single-basic")
        for _ in range(6):
            sage.advance(1.0)
        attempts = [a for entry in sage.pipelines for a in entry.session.attempts]
        assert attempts
        assert durability.decode_attempts(durability.encode_attempts(attempts)) == (
            attempts
        )
        sage.close()


# ----------------------------------------------------------------------
# Hour records carry only what the hour changed
# ----------------------------------------------------------------------
def _pipe(i):
    """Pipeline #i of a drive: the first three are ``_pipes()``'s, later
    ones cycle through the same sizes under new names."""
    size = (3_000.0, 12_000.0, 50_000.0)[i % 3]
    return OraclePipeline(name=f"p{i}", n_at_eps1=size), AdaptiveConfig(max_attempts=16)


def _durable_records(sage):
    """``repr`` of every session's durable record: what a snapshot entry
    keeps of it, besides bookkeeping no hour changes."""
    return [
        repr(
            (
                entry.session.export_state(),
                entry.release_time_hours,
                durability.encode_attempts(entry.session.attempts),
            )
        )
        for entry in sage.pipelines
    ]


@contextmanager
def _appended_hour_records():
    """Every hour record appended while the block runs, decoded from the
    bytes the writer put in the log."""
    real = durability.WalWriter.append_hour
    records = []

    def append_hour(self, payload):
        real(self, payload)
        _, start, end = self._frames[-1]
        with open(self.path, "rb") as fh:
            fh.seek(start)
            frame = fh.read(end - start)
        (record,) = _read_bytes(durability.WAL_MAGIC + frame).records
        records.append(record)

    durability.WalWriter.append_hour = append_hour
    try:
        yield records
    finally:
        durability.WalWriter.append_hour = real


class _CheckedDrive:
    """Advance a durable platform hour by hour, checking each hour record
    against the oracle: its deltas are the sessions whose durable record
    changed, in drive order, and its names the pipelines submitted since
    the last committed hour."""

    def __init__(self, sage, records):
        self.sage = sage
        self.records = records
        self.named = 0
        self.parked_hours = 0  # hours that left a waiting session out
        self.releases = 0  # deltas carrying a release time
        self.rolled_back = 0

    def advance(self, fail_point=None):
        sage = self.sage
        before = _durable_records(sage)
        waiting = [i for i, entry in enumerate(sage.pipelines) if entry.waiting]
        if fail_point is not None:
            faults.arm_error(fail_point)
            try:
                sage.advance(1.0)
            except faults.InjectedFault:
                # The rolled-back hour changed nothing, and the retry's
                # record is checked against the same pre-hour state.
                assert _durable_records(sage) == before
                self.rolled_back += 1
            else:
                self._check(before, waiting)
                return
            finally:
                faults.disarm(fail_point)
        sage.advance(1.0)
        self._check(before, waiting)

    def _check(self, before, waiting):
        sage = self.sage
        record = self.records[-1]
        assert record["hour_index"] == sage.hours_committed - 1
        after = _durable_records(sage)
        changed = [i for i, old in enumerate(before) if after[i] != old]
        indices = [delta["index"] for delta in record["deltas"]]
        assert indices == changed
        assert set(changed) <= set(waiting)
        self.parked_hours += len(changed) < len(waiting)
        self.releases += sum(
            delta["release_time_hours"] is not None for delta in record["deltas"]
        )
        names = [entry.name for entry in sage.pipelines]
        assert record["names_from"] == self.named
        assert record["entry_names"] == names[self.named :]
        assert record["n_entries"] == len(names)
        self.named = len(names)


class TestChangedOnlyRecords:
    @given(
        hours=st.integers(4, 10),
        late=st.lists(st.integers(0, 9), max_size=3),
        snapshot_every=st.sampled_from([0, 2, 3]),
        fail=st.one_of(
            st.none(),
            st.tuples(
                st.integers(0, 9),
                st.sampled_from(
                    [
                        "hour.opened",
                        "settle.mid_session",
                        "wal.after_append",
                        "charge.between_validate_and_commit",
                    ]
                ),
            ),
        ),
        recover_at=st.one_of(st.none(), st.integers(1, 9)),
    )
    @settings(max_examples=20, deadline=None)
    def test_deltas_are_the_changed_sessions(
        self, hours, late, snapshot_every, fail, recover_at
    ):
        """Through parked sessions, releases, late submissions, a
        rolled-back hour, snapshots and a ``recover()``, every hour record
        carries a delta for exactly the sessions whose durable record
        changed, and names exactly the pipelines new since the last
        committed hour."""
        with (
            tempfile.TemporaryDirectory() as wal_dir,
            _appended_hour_records() as records,
        ):

            def build():
                return _build(
                    "single-basic", wal_dir=wal_dir, snapshot_every=snapshot_every
                )

            sage = build()
            for i in range(3):
                sage.submit(*_pipe(i))
            drive = _CheckedDrive(sage, records)
            for hour in range(hours):
                if hour == recover_at:
                    digest = durability.state_digest(sage)
                    pipes = [_pipe(i) for i in range(len(sage.pipelines))]
                    sage.close()
                    sage = drive.sage = build()
                    report = sage.recover(pipes)
                    assert report.hours_committed == hour
                    assert durability.state_digest(sage) == digest
                for _ in range(late.count(hour)):
                    sage.submit(*_pipe(len(sage.pipelines)))
                fail_point = fail[1] if fail is not None and fail[0] == hour else None
                drive.advance(fail_point)
            sage.close()

    def test_a_drive_covers_parked_sessions_releases_and_rollback(self, tmp_path):
        """The fixed drive behind the property exercises what it claims: an
        hour that leaves a waiting session out, a release, a rolled-back
        hour and late submissions."""
        with _appended_hour_records() as records:
            sage = _build("single-basic", wal_dir=tmp_path, snapshot_every=3)
            for i in range(3):
                sage.submit(*_pipe(i))
            drive = _CheckedDrive(sage, records)
            for hour in range(12):
                if hour == 5:
                    sage.submit(*_pipe(3))
                # The hour that names p3 fails after its record landed,
                # inside the commit: the retry names p3 again.
                drive.advance(
                    "charge.between_validate_and_commit" if hour == 5 else None
                )
            sage.close()
        assert drive.parked_hours and drive.releases and drive.rolled_back
        assert any(record["deltas"] == [] for record in records)
        # Hour 5's aborted record, then its retry: both name p3.
        assert [
            (record["hour_index"], record["names_from"], record["entry_names"])
            for record in records[4:8]
        ] == [(4, 3, []), (5, 3, ["p3"]), (5, 3, ["p3"]), (6, 4, [])]

    def _durable_log(self, tmp_path, hours=4):
        sage = _submitted("single-basic", wal_dir=tmp_path)
        for _ in range(hours):
            sage.advance(1.0)
        sage.close()
        return durability.wal_path(tmp_path)

    def _rewrite_hours(self, path, edit):
        records = [
            edit(dict(record)) if record["kind"] == "hour" else record
            for record in durability.read_wal(path).records
        ]
        path.write_bytes(_framed(records)[0])

    def test_wrong_names_from_is_refused(self, tmp_path):
        path = self._durable_log(tmp_path)

        def edit(record):
            if record["hour_index"] == 2:
                record["names_from"] = 0
                record["entry_names"] = ["p0", "p1", "p2"]
            return record

        self._rewrite_hours(path, edit)
        recovered = _build("single-basic", wal_dir=tmp_path)
        with pytest.raises(RecoveryError, match="names start at pipeline #0"):
            recovered.recover(_pipes())
        recovered.close()

    def test_old_format_record_is_refused(self, tmp_path):
        """A record without ``names_from`` (every name, a delta per
        waiting session) raises RecoveryError, not KeyError."""
        path = self._durable_log(tmp_path)

        def edit(record):
            del record["names_from"]
            record["entry_names"] = ["p0", "p1", "p2"]
            return record

        self._rewrite_hours(path, edit)
        recovered = _build("single-basic", wal_dir=tmp_path)
        with pytest.raises(RecoveryError, match="no names_from"):
            recovered.recover(_pipes())
        recovered.close()

    def test_renamed_pipeline_is_refused(self, tmp_path):
        self._durable_log(tmp_path)
        pipes = _pipes()
        pipes[1] = (OraclePipeline(name="other", n_at_eps1=12_000.0), pipes[1][1])
        recovered = _build("single-basic", wal_dir=tmp_path)
        with pytest.raises(RecoveryError, match="pipeline names"):
            recovered.recover(pipes)
        recovered.close()
