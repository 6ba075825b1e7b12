"""Durable accounting: write-ahead charge log, snapshots, recovery.

This module gives :class:`~repro.core.platform.Sage` crash durability.
The drive records every settled hour in a write-ahead log *before*
committing it in memory, periodically snapshots the full accounting
state, and a restarted platform recovers by loading the latest valid
snapshot and replaying the subsequent WAL hours through ``request_many``,
whose ``charge_many`` stages and lands them through the live hour's own
staging and landing bodies -- so recovered state is byte-identical to the
uninterrupted run by construction, and the state digest verifies it.

WAL file format
---------------
One append-only file, ``charge.wal``, in the platform's ``wal_dir``::

    8 bytes   file magic ``b"SAGEWAL1"``
    repeated  records, each framed as
                 uint32le  payload length
                 uint32le  CRC32 of the payload
                 payload   pickled dict
    optional  zero tail: zero bytes up to the end of the file

A compaction that reuses an older, longer log file zeroes the bytes past
its last record (see "Snapshot format and atomicity"), and appends
overwrite the zeros, so the all-zero remainder after the last record is
the clean end of the log.

Two record kinds (the ``"kind"`` key of the payload dict):

* ``"hour"`` -- the write-ahead intent, appended and fsynced *before* the
  hour commits in memory.  Carries everything replay needs:

  ====================== ==================================================
  key                    value
  ====================== ==================================================
  ``hour_index``         0-based index of the hour being settled
  ``hours``              clock step of this ``advance`` call
  ``clock_start``        platform clock before the hour (replay restores
                         it before re-ingesting)
  ``clock_hours``        platform clock after the hour
  ``schema_width``       ledger totals width (validated on replay)
  ``n_entries``          pipelines submitted at hour start
  ``names_from``         pipelines the log had already named: the
                         previous hour record's ``n_entries`` (0 for the
                         first hour), or a snapshot's entry count
  ``entry_names``        names of pipelines ``names_from`` to
                         ``n_entries``, the ones submitted since the last
                         committed hour, in submission order (validated)
  ``new_block_keys``     keys the hour's ingest registered (validated)
  ``requests``           the exact staged ``(keys, budget, label)`` batch
                         the hour's staged commit will land
  ``rng_state_before``   the platform RNG's bit-generator state before the
                         hour (replay restores it before re-ingesting)
  ``rng_state``          the platform RNG's bit-generator state *after*
                         the hour (replay skips pipeline executions, so
                         it restores the post-hour stream position)
  ``deltas``             per session waiting at hour start whose
                         durable record the hour changed, in drive order:
                         ``index``, the session's ``export_state`` record
                         after the hour, ``release_time_hours`` and the
                         ``attempts`` the hour appended
                         (:func:`encode_attempts` form)
  ====================== ==================================================

  Pickle writes dict keys in insertion order: key order is file format.
  A record costs O(what the hour changed): a session the hour left alone
  (parked, or visited and parked again) has no delta, and a pipeline is
  named once, by the first hour that commits after its submission.
  Replay refuses, with :class:`~repro.errors.RecoveryError`, a record
  whose ``names_from`` is not the count it has validated so far, whose
  names do not match the submitted pipelines, or that has no
  ``names_from`` at all (the older format, which named every pipeline
  and gave every waiting session a delta).

* ``"commit"`` -- the commit marker, appended after the in-memory commit:
  ``hour_index`` plus the :func:`state_digest` of the committed post-hour
  state.  Replay verifies each replayed hour against it.  A trailing
  ``"hour"`` record without its marker means the process died between
  WAL append and the commit marker; the hour is durable and is replayed
  (the record was fully determined before the commit began).

The reader (:func:`read_wal`) is **truncated-tail tolerant**: a final
record with fewer bytes than its frame promises (a crash mid-append) is
reported via ``truncated_tail``/``end_offset`` and ignored, and the
writer truncates it away on reopen.  Over a zero tail a torn append
leaves its frame's unwritten bytes zero, so a frame that fails its CRC
(or runs past the end of the file) is a torn tail only if its last byte
and every byte after it are zero -- a complete frame's last byte is the
pickle STOP byte ``.`` -- and no shorter prefix of its payload ending in
that byte matches the CRC (which would mean a damaged length field).  A
*complete* record whose CRC does not match, a zero length field with
nonzero bytes after it, or a bad file magic, is real corruption and
raises :class:`~repro.errors.WalCorruptionError` naming the file, byte
offset, and record index -- a corrupt record is never silently replayed.

Snapshot format and atomicity
-----------------------------
``snapshot-<hour>.snap`` files carry one framed record (magic
``b"SAGESNP1"``, then the same length/CRC frame) whose payload captures
everything :meth:`~repro.core.platform.Sage.recover` restores: accountant
export (keys, totals, live mask, charge counts, charge log), reservation
matrix and free pool, per-pipeline entries (bookkeeping, the session's
``export_state`` record, :func:`encode_attempts` attempts), the pickled
growing database, RNG state, clock, and a state digest.  Snapshots are
written to a temp file in the same directory and published with
``os.replace``, so a crash mid-write (crash point ``snapshot.mid_write``)
can never leave a half-written snapshot where the loader finds it;
``latest()`` also skips corrupt snapshot files and falls back to the next
older valid one.  The database's packed columns pickle their live rows
and capacity only (see :class:`~repro.data.stream.PackedColumns`), so
equal states -- two runs of one seed, or a run with a rolled-back and
retried hour -- write byte-identical snapshot, log and spare files.

Retired files are recycled, never freed: on a file system mounted with
``discard``, every call that frees a file's blocks (``unlink``, a
``replace`` onto a file's last link, a shrinking ``truncate``) costs tens
of milliseconds whatever the file's size, while renaming onto a fresh
name or overwriting in place costs well under one.

* A snapshot pruned past ``keep`` is renamed to ``snapshot.spare``.  The
  next snapshot write renames the spare onto its temp name (a *claim*:
  nothing loads that name), overwrites it from offset 0, truncates it to
  the blob's length (snapshots grow, so this cuts nothing on the steady
  path), fsyncs, and publishes it with ``os.replace`` as above.
* WAL compaction decodes no record.  The writer keeps an index of the
  live log's frames, ``(hour index, start, end)`` each, built from the
  scan it opened the log with and extended by every append; compaction
  chooses the frames to keep from it, reads the log back and checks
  every frame's length field and CRC32 against its bytes, then claims
  ``charge.wal.spare`` as ``charge.wal.compact``, writes the magic and
  the kept frames byte for byte, zeroes the rest of the spare's old
  bytes and fsyncs.  The swap is link-then-replace:
  ``os.link(charge.wal, charge.wal.spare)`` keeps the live log's inode as
  the next spare, then ``os.replace`` moves the rewritten file onto
  ``charge.wal`` atomically.  The replaced name still has a link, so the
  swap frees nothing.  A crash between the two (crash point
  ``wal.compact_swap``) leaves the old log live and the spare a second
  link to it; the writer unlinks such a spare on open and before any
  compaction, so the live log is never overwritten in place.

Disk footprint: next to the ``keep`` snapshots and ``charge.wal`` the
directory holds at most one ``snapshot.spare`` and one
``charge.wal.spare``, and ``charge.wal``'s size is its high-water mark
(live records plus the zero tail).  A crash can also leave a
``snapshot-<hour>.snap.tmp`` or ``charge.wal.compact``; neither is ever
loaded.  The next :class:`SnapshotStore` opened on the directory adopts
a leftover temp snapshot as ``snapshot.spare`` (or deletes it when a
spare exists), and the next compaction overwrites a leftover
``charge.wal.compact``.

State digest
------------
:func:`state_digest` is one CRC32 chained, in this order, over:

1. ``repr`` of the clock;
2. for the ledger store's totals, live mask and charge counts, then the
   reservation matrix and free pool: ``repr`` of the array's shape, then
   its C-order bytes;
3. ``repr((n, crc))`` of the charge log, where ``crc`` chains ``repr``
   of each record's ``(epsilon, delta, block_keys, label)``;
4. per pipeline, in submission order, ``repr`` of ``(name, status, n,
   release_time_hours, epsilon, window_blocks, spent_epsilon,
   spent_delta, n, crc)``, where ``n``/``crc`` fold the session's attempt
   records, each as ``repr`` of ``(attempt, tuple(window), epsilon,
   delta, str(outcome), train_size)``.  The first ``n`` keeps the slot
   of a settled-attempt count that always equalled it.

The charge log and the attempt lists are append-only, so their running
CRCs are memoized on the platform, and so is each pipeline's encoded
``repr`` of item 4.  The cache keeps the entry's raw fields with it --
name, status, release time, epsilon, window size, the spent budget, the
attempts list, its length and its last record -- and reuses the bytes
while every one is the same object; only an entry that fails this one
identity check folds its attempts and builds its tuple again.  A
finished pipeline never changes again, so a digest encodes only the
entries that changed since the last one and folds all entry bytes with
one CRC call; it costs O(new records + changed entries) of encoding plus
one tuple compare per pipeline, not O(history).  Commit markers and
snapshots written under an earlier digest definition fail verification
with a typed error rather than replaying silently.

Recovery procedure
------------------
On a **fresh** platform constructed with the same configuration (same
source, seed, filters, accountant factory) and the original pipelines in
submission order:

1. Load the newest valid snapshot, if any: re-submit the first
   ``len(entries)`` pipelines (names validated), restore the database,
   accountant, reservation table, session states, RNG, and clock, then
   verify the snapshot's state digest.
2. For each WAL ``"hour"`` record at or past the snapshot hour, in order:
   re-submit pipelines until the record's ``n_entries`` is reached, then
   replay the hour -- validate the names from ``names_from`` on, restore
   the recorded pre-hour clock and RNG state, re-run ingest (which
   regenerates the identical blocks; keys are validated against the
   record), register / allocate / grant through the normal hour-open
   path, apply the recorded per-session deltas in drive order (settling
   reservations attempt by attempt exactly as the live drive does), and
   land the recorded request batch through **one** ``request_many`` call
   (the live hour's staging and landing bodies).
   Restore the post-hour RNG state and verify the hour's commit digest.
3. Open the WAL writer on the scan step 2 read (the log is not read
   again), positioned at the end of the last complete record (repairing
   any torn tail) so the platform can keep advancing.

Recovery limitations (by design): released model artifacts are not
re-materialized (``bundle``/``final_run`` stay ``None`` on recovered
entries -- the accounting, attempts, and release times are the durability
contract; the model store is wide-access derived data), and a pipeline
submission is durable only once a later hour has committed (submissions
are recorded in the next hour record, not journaled individually).
Budgets and block keys are persisted with :mod:`pickle`; WAL and snapshot
files are trusted local state, not an interchange format.
"""

from __future__ import annotations

import gc
import operator
import os
import pickle
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, List, Optional, Tuple

import numpy as np

from repro.core import faults
from repro.core.adaptive import AttemptRecord
from repro.errors import RecoveryError, SnapshotMismatchError, WalCorruptionError
from repro.obs.trace import NULL_PROBE

__all__ = [
    "RecoveryReport",
    "SnapshotStore",
    "WalScan",
    "WalWriter",
    "build_snapshot_payload",
    "decode_attempts",
    "encode_attempts",
    "pair_hour_records",
    "read_wal",
    "restore_snapshot_payload",
    "state_digest",
    "wal_path",
]

WAL_MAGIC = b"SAGEWAL1"
SNAP_MAGIC = b"SAGESNP1"
# Per-record frame: payload length, CRC32 of the payload.
_FRAME = struct.Struct("<II")
_PICKLE_PROTOCOL = 4


def wal_path(wal_dir) -> Path:
    """The charge log's location inside a platform's WAL directory."""
    return Path(wal_dir) / "charge.wal"


def _open_for_overwrite(path) -> BinaryIO:
    """Open ``path`` read-write at offset 0, creating it if missing but
    never truncating it: a claimed spare keeps its blocks, and the
    caller overwrites them."""
    return open(os.open(path, os.O_RDWR | os.O_CREAT, 0o666), "r+b")


def _fsync_dir(directory) -> None:
    """Make a rename in ``directory`` durable (best effort)."""
    try:
        dir_fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except OSError:  # pragma: no cover - platform-dependent best effort
        pass


def _encode_record(payload_obj) -> bytes:
    payload = pickle.dumps(payload_obj, protocol=_PICKLE_PROTOCOL)
    return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload


# ----------------------------------------------------------------------
# WAL reader (truncated-tail tolerant, CRC enforcing)
# ----------------------------------------------------------------------
@dataclass
class WalScan:
    """Result of reading a WAL file.

    ``records`` are the complete, CRC-verified payload dicts in file
    order, and ``spans[i]`` is the ``(start, end)`` byte range of record
    ``i``'s frame (header and payload); ``truncated_tail`` reports an
    incomplete trailing record (a crash mid-append) whose bytes start at
    ``end_offset`` -- the offset the writer resumes (and truncates) at.
    """

    records: List[dict]
    truncated_tail: bool
    end_offset: int
    spans: List[Tuple[int, int]] = field(default_factory=list)


def _complete_prefix(payload, crc: int) -> bool:
    """Whether a prefix of ``payload`` that ends in pickle's STOP byte
    (``.``) has CRC ``crc``: the frame's record is complete and its
    length field is what broke, so the frame is damage, not a torn
    append (whose CRC covers bytes that never landed)."""
    view = memoryview(payload)
    running = 0
    start = 0
    while True:
        stop = payload.find(b".", start)
        if stop < 0:
            return False
        running = zlib.crc32(view[start : stop + 1], running)
        if running == crc:
            return True
        start = stop + 1


def read_wal(path) -> WalScan:
    """Read every complete record of a WAL file, tolerating a torn tail.

    Raises :class:`~repro.errors.WalCorruptionError` (naming the file,
    byte offset, and record index) for a bad magic or a complete record
    whose CRC32 does not match -- corruption is surfaced, never silently
    replayed.  A missing file reads as an empty scan.  The decode runs
    with the cyclic garbage collector off (its previous state is restored
    on every exit): unpickling allocates container objects fast enough to
    trigger collections, and one that cascades into a full collection
    costs several times the whole read.  The collector's next pass, after
    the read returns, sees the decoded records once.
    """
    path = Path(path)
    data = path.read_bytes() if path.exists() else b""
    if not data:
        return WalScan(records=[], truncated_tail=False, end_offset=0)
    if len(data) < len(WAL_MAGIC):
        if WAL_MAGIC.startswith(data):
            # Crash while writing the very header: treat as a torn tail.
            return WalScan(records=[], truncated_tail=True, end_offset=0)
        raise WalCorruptionError(path, 0, "bad file magic")
    if data[: len(WAL_MAGIC)] != WAL_MAGIC:
        raise WalCorruptionError(path, 0, "bad file magic")
    records: List[dict] = []
    spans: List[Tuple[int, int]] = []
    offset = len(WAL_MAGIC)
    # Every byte from ``zero_from`` on is zero: a recycled file's zero
    # tail, which is the clean end of the log.
    zero_from = len(data.rstrip(b"\0"))
    index = 0
    truncated = False
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        while offset < zero_from:
            # A header cut short by the end of the file reads as zero-padded.
            length, crc = _FRAME.unpack(
                data[offset : offset + _FRAME.size].ljust(_FRAME.size, b"\0")
            )
            if not length:
                # No record is empty, so a zero length field with nonzero
                # bytes after it is damage, never a torn append.
                raise WalCorruptionError(
                    path, offset, "empty record frame", record=index
                )
            start = offset + _FRAME.size
            end = start + length
            payload = data[start:end]
            if end > len(data) or zlib.crc32(payload) != crc:
                # A torn append leaves the frame's last byte unwritten: zero
                # (or past the end of the file), like every byte after it.
                # A complete frame's last byte is the payload's STOP byte.
                complete = _complete_prefix(payload, crc)
                if end > zero_from and not complete:
                    truncated = True
                    break
                reason = "record length mismatch" if complete else "record CRC mismatch"
                raise WalCorruptionError(path, offset, reason, record=index)
            try:
                record = pickle.loads(payload)
            except Exception as exc:
                raise WalCorruptionError(
                    path, offset, f"undecodable record payload ({exc})", record=index
                ) from exc
            records.append(record)
            spans.append((offset, end))
            offset = end
            index += 1
        return WalScan(
            records=records, truncated_tail=truncated, end_offset=offset, spans=spans
        )
    finally:
        if was_enabled:
            gc.enable()


def _frame_hour(record: dict) -> Optional[int]:
    """The hour a record's frame belongs to in the writer's index: the
    ``hour_index`` of an hour or commit record, else ``None`` (kept by
    every compaction)."""
    hour_index = record.get("hour_index")
    if record.get("kind") in ("hour", "commit") and hour_index is not None:
        return int(hour_index)
    return None


def pair_hour_records(records) -> List[Tuple[dict, Optional[int]]]:
    """Group a scan's records into ``(hour_record, commit_digest)`` pairs.

    An hour whose commit marker is missing (crash between WAL append and
    the marker) pairs with ``None`` -- it is still replayed, just without
    a digest to verify against.
    """
    hours: List[Tuple[dict, Optional[int]]] = []
    pending: Optional[dict] = None
    for record in records:
        kind = record.get("kind")
        if kind == "hour":
            if pending is not None:
                hours.append((pending, None))
            pending = record
        elif kind == "commit":
            if (
                pending is not None
                and record.get("hour_index") == pending.get("hour_index")
            ):
                hours.append((pending, record.get("digest")))
                pending = None
            # An orphan commit marker (no matching open hour) carries no
            # replayable state; skip it rather than failing recovery.
    if pending is not None:
        hours.append((pending, None))
    return hours


# ----------------------------------------------------------------------
# WAL writer (hour lifecycle: begin / append / commit | abort)
# ----------------------------------------------------------------------
class WalWriter:
    """Appender for the charge log, with an explicit hour lifecycle.

    ``begin_hour()`` marks the current end of file; ``append_hour``
    writes + fsyncs the write-ahead hour record; ``commit_hour`` appends
    the commit marker and closes the lifecycle; ``abort_hour`` truncates
    everything appended since ``begin_hour`` (no-op when no hour is
    open).  Every ``begin_hour`` must reach ``commit_hour`` or
    ``abort_hour`` -- the invariant linter's paired-calls rule enforces
    this on the platform drive.

    Opening an existing file validates it with :func:`read_wal` (real
    corruption raises) and truncates any torn tail so appends resume at
    the last complete record; a clean zero tail stays, and appends
    overwrite it.  A file torn inside its header gets the magic
    rewritten.  A caller that already holds a :func:`read_wal` scan of
    the file, taken since its last write, passes it as ``scan`` and the
    log is not read again.

    The writer indexes every frame of the live log as ``(hour index or
    None, start, end)``: the scan seeds the index, appends extend it once
    their bytes are synced, an abort drops the frames it truncated, and
    compaction picks its frames from it without decoding a record.
    """

    def __init__(self, path, telemetry=None, scan: Optional[WalScan] = None) -> None:
        self._tracer = telemetry.tracer if telemetry is not None else NULL_PROBE
        self._metrics = telemetry.metrics if telemetry is not None else None
        self._path = Path(path)
        # The previous log file, kept for the next compaction to reuse.
        self._spare = self._path.with_name(self._path.name + ".spare")
        self._path.parent.mkdir(parents=True, exist_ok=True)
        self._drop_linked_spare()
        self._frames: List[Tuple[Optional[int], int, int]] = []
        if self._path.exists() and self._path.stat().st_size > 0:
            if scan is None:
                scan = read_wal(self._path)
            self._frames = [
                (_frame_hour(record), start, end)
                for record, (start, end) in zip(scan.records, scan.spans)
            ]
            self._fh = open(self._path, "r+b")
            self._fh.seek(scan.end_offset)
            if scan.truncated_tail:
                self._fh.truncate()
        else:
            self._fh = open(self._path, "w+b")
        if self._fh.tell() == 0:
            # A new file, or one torn inside its header: write the magic.
            self._fh.write(WAL_MAGIC)
            self._sync()
        self._hour_start: Optional[int] = None
        self._hour_size = 0

    @property
    def path(self) -> Path:
        return self._path

    def _drop_linked_spare(self) -> None:
        """Unlink a spare that is a second link to the live log -- what a
        crash between compaction's ``os.link`` and its ``os.replace``
        leaves -- so that no compaction ever overwrites the live log in
        place.  Unlinking a second link frees no blocks."""
        try:
            linked = os.path.samefile(self._spare, self._path)
        except OSError:
            return  # one of the two is missing
        if linked:
            os.unlink(self._spare)

    @property
    def hour_open(self) -> bool:
        return self._hour_start is not None

    def _sync(self) -> None:
        with self._tracer.span("wal.fsync") as span:
            self._fh.flush()
            os.fsync(self._fh.fileno())
        if self._metrics is not None:
            self._metrics.inc("sage_wal_fsyncs_total")
            self._metrics.observe("sage_wal_fsync_ticks", span.duration)

    def begin_hour(self) -> None:
        """Open an hour: remember the offset ``abort_hour`` truncates to."""
        if self._hour_start is not None:
            raise RecoveryError(
                f"WAL {self._path}: an hour is already open; commit or abort "
                "it before beginning another"
            )
        self._hour_start = self._fh.tell()
        # Every earlier write was synced, so this is the file's size.
        self._hour_size = os.fstat(self._fh.fileno()).st_size

    def append_hour(self, payload: dict) -> None:
        """Write-ahead append: the hour record lands and fsyncs *before*
        the in-memory commit (crash points fire on both sides)."""
        if self._hour_start is None:
            raise RecoveryError(f"WAL {self._path}: no hour is open to append")
        faults.trip("wal.before_append")
        record = dict(payload)
        record["kind"] = "hour"
        encoded = _encode_record(record)
        start = self._fh.tell()
        with self._tracer.span("wal.append", bytes=len(encoded)):
            self._fh.write(encoded)
            self._sync()
        if self._metrics is not None:
            self._metrics.inc("sage_wal_bytes_total", len(encoded))
            self._metrics.observe("sage_wal_append_bytes", len(encoded))
        self._frames.append((_frame_hour(record), start, start + len(encoded)))
        faults.trip("wal.after_append")

    def commit_hour(self, hour_index: int, digest: int) -> None:
        """Append the commit marker (post-commit digest) and close the hour."""
        if self._hour_start is None:
            raise RecoveryError(f"WAL {self._path}: no hour is open to commit")
        encoded = _encode_record(
            {"kind": "commit", "hour_index": int(hour_index), "digest": int(digest)}
        )
        start = self._fh.tell()
        with self._tracer.span("wal.commit", hour_index=int(hour_index)):
            self._fh.write(encoded)
            self._sync()
        if self._metrics is not None:
            self._metrics.inc("sage_wal_bytes_total", len(encoded))
        self._frames.append((int(hour_index), start, start + len(encoded)))
        self._hour_start = None

    def abort_hour(self) -> None:
        """Undo everything appended since ``begin_hour``: the file is
        again byte for byte what it was when the hour began.

        Bytes past the file's size at ``begin_hour`` are truncated away;
        bytes written over the zero tail are zeroed again.  No-op when no
        hour is open, so the platform's exception handler can call it
        unconditionally.
        """
        if self._hour_start is None:
            return
        end = self._fh.tell()
        self._fh.seek(self._hour_start)
        if end > self._hour_size:
            self._fh.truncate(self._hour_size)
        self._fh.write(bytes(min(end, self._hour_size) - self._hour_start))
        self._fh.seek(self._hour_start)
        self._sync()
        while self._frames and self._frames[-1][1] >= self._hour_start:
            self._frames.pop()
        self._hour_start = None

    def compact(self, upto_hour: int) -> int:
        """Drop hour/commit records for hours before ``upto_hour``.

        The platform calls this after each snapshot write with the
        *oldest retained* snapshot's hour: every dropped hour is folded
        into every snapshot recovery could still load, so the corrupt-
        newest-snapshot fallback keeps working.  Records that carry no
        hour index are preserved untouched, in order.  The writer's frame
        index chooses the frames; no record is decoded.  Every frame of
        the log is read back and its length field and CRC32 checked
        against its bytes (a damaged frame, kept or dropped, raises
        :class:`~repro.errors.WalCorruptionError` before any file is
        touched), and every kept frame is copied byte for byte.

        The rewrite reuses the previous compaction's file,
        ``charge.wal.spare``, instead of freeing and allocating blocks:
        it claims the spare as ``charge.wal.compact``, writes the magic
        and the kept frames from offset 0, zeroes the rest of the spare's
        old bytes and fsyncs.  Then ``os.link`` keeps the live log's
        inode as the next spare, and ``os.replace`` swaps the rewritten
        file in; the replaced name still has a link, so no blocks are
        freed.  Appends resume at the end of the kept frames, over the
        zero tail.  A crash anywhere leaves either the old log or the new
        one, both complete (crash point ``wal.compact_swap`` sits between
        the link and the replace).  Returns the number of records
        dropped (0 means the file was not rewritten).  An open hour must
        be committed or aborted first.
        """
        if self._hour_start is not None:
            raise RecoveryError(
                f"WAL {self._path}: cannot compact while an hour is open"
            )
        upto_hour = int(upto_hour)
        if upto_hour <= 0:
            return 0
        kept = [
            frame
            for frame in self._frames
            if frame[0] is None or frame[0] >= upto_hour
        ]
        dropped = len(self._frames) - len(kept)
        if not dropped:
            return 0
        data = self._read_frames()
        with self._tracer.span(
            "wal.compact", upto_hour=upto_hour, dropped=dropped
        ):
            body = WAL_MAGIC + b"".join(data[start:end] for _, start, end in kept)
            # The kept frames' index in the rewritten file, laid end to end.
            frames, offset = [], len(WAL_MAGIC)
            for hour, start, end in kept:
                frames.append((hour, offset, offset + end - start))
                offset += end - start
            tmp = self._path.with_name(self._path.name + ".compact")
            self._drop_linked_spare()
            if self._spare.exists():
                os.rename(self._spare, tmp)
            with _open_for_overwrite(tmp) as fh:
                stale = os.fstat(fh.fileno()).st_size
                fh.write(body)
                fh.write(bytes(max(0, stale - len(body))))
                fh.flush()
                os.fsync(fh.fileno())
            os.link(self._path, self._spare)
            faults.trip("wal.compact_swap")
            os.replace(tmp, self._path)
            self._frames = frames
            self._fh.close()
            _fsync_dir(self._path.parent)
            self._fh = open(self._path, "r+b")
            self._fh.seek(len(body))
        if self._metrics is not None:
            self._metrics.inc("sage_wal_compact_dropped_total", dropped)
        return dropped

    def _read_frames(self) -> bytes:
        """The log's bytes up to the end of its last indexed frame, each
        frame's length field and CRC32 checked against them."""
        self._fh.flush()
        size = self._frames[-1][2]
        data = os.pread(self._fh.fileno(), size, 0)
        if len(data) < size:
            raise WalCorruptionError(
                self._path, len(data), "log ends inside an indexed frame"
            )
        view = memoryview(data)
        for index, (_, start, end) in enumerate(self._frames):
            length, crc = _FRAME.unpack_from(data, start)
            if length != end - start - _FRAME.size:
                reason = "record length mismatch"
            elif zlib.crc32(view[start + _FRAME.size : end]) != crc:
                reason = "record CRC mismatch"
            else:
                continue
            raise WalCorruptionError(self._path, start, reason, record=index)
        return data

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()


# ----------------------------------------------------------------------
# Snapshots (atomic write, corrupt-fallback load)
# ----------------------------------------------------------------------
class SnapshotStore:
    """Periodic full-state snapshots in a platform's WAL directory.

    Files are ``snapshot-<hour>.snap``, written via a same-directory temp
    file + ``os.replace`` so readers only ever see complete snapshots;
    the newest ``keep`` snapshots are retained.  A pruned snapshot is
    renamed to ``snapshot.spare`` rather than deleted, and the next write
    claims it as its temp file, so snapshots reuse blocks instead of
    freeing them.  ``latest()`` skips corrupt files (surviving e.g. bit
    rot on the newest snapshot) and falls back to the next older valid
    one.
    """

    def __init__(self, directory, keep: int = 3, telemetry=None) -> None:
        self._tracer = telemetry.tracer if telemetry is not None else NULL_PROBE
        self._metrics = telemetry.metrics if telemetry is not None else None
        self._dir = Path(directory)
        self._dir.mkdir(parents=True, exist_ok=True)
        self._keep = max(1, int(keep))
        self._spare = self._dir / "snapshot.spare"
        # A crash at snapshot.mid_write leaves its temp file (perhaps a
        # claimed spare) behind; nothing loads that name, so it is retired
        # like a pruned snapshot.
        for leftover in sorted(self._dir.glob("snapshot-*.snap.tmp")):
            self._retire(leftover)

    def path_for(self, hour_index: int) -> Path:
        return self._dir / f"snapshot-{int(hour_index):08d}.snap"

    def snapshot_paths(self) -> List[Path]:
        return sorted(self._dir.glob("snapshot-*.snap"))

    def write(self, hour_index: int, payload: dict) -> Path:
        final = self.path_for(hour_index)
        blob = SNAP_MAGIC + _encode_record(payload)
        with self._tracer.span(
            "snapshot.write", hour_index=int(hour_index), bytes=len(blob)
        ):
            tmp = final.with_name(final.name + ".tmp")
            if self._spare.exists():
                os.rename(self._spare, tmp)
            with _open_for_overwrite(tmp) as fh:
                # Two writes around the crash point: a mid-snapshot death
                # leaves only the temp file -- the published snapshot set is
                # untouched and recovery falls back to the previous one.
                half = len(blob) // 2
                fh.write(blob[:half])
                fh.flush()
                faults.trip("snapshot.mid_write")
                fh.write(blob[half:])
                # Snapshots grow, so this cuts nothing on the steady path.
                fh.truncate(len(blob))
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, final)
            _fsync_dir(self._dir)
            self._prune()
        if self._metrics is not None:
            self._metrics.inc("sage_snapshots_written_total")
            self._metrics.set_gauge("sage_snapshot_bytes", len(blob))
        return final

    def _prune(self) -> None:
        """Retire snapshots beyond ``keep``."""
        for stale in self.snapshot_paths()[: -self._keep]:
            self._retire(stale)

    def _retire(self, path: Path) -> None:
        """Make ``path`` the spare when there is none, else delete it."""
        try:
            if self._spare.exists():
                path.unlink()
            else:
                os.rename(path, self._spare)
        except OSError:  # pragma: no cover - concurrent cleanup
            pass

    def load(self, path) -> dict:
        """Decode one snapshot file; integrity failures raise
        :class:`~repro.errors.SnapshotMismatchError` naming the file."""
        path = Path(path)
        data = path.read_bytes()
        if len(data) < len(SNAP_MAGIC) or data[: len(SNAP_MAGIC)] != SNAP_MAGIC:
            raise SnapshotMismatchError(f"snapshot {path}: bad file magic")
        offset = len(SNAP_MAGIC)
        if len(data) < offset + _FRAME.size:
            raise SnapshotMismatchError(f"snapshot {path}: truncated frame header")
        length, crc = _FRAME.unpack_from(data, offset)
        payload = data[offset + _FRAME.size : offset + _FRAME.size + length]
        if len(payload) != length:
            raise SnapshotMismatchError(
                f"snapshot {path}: truncated payload at byte {offset + _FRAME.size}"
            )
        if zlib.crc32(payload) != crc:
            raise SnapshotMismatchError(
                f"snapshot {path}: payload CRC mismatch at byte {offset}"
            )
        try:
            return pickle.loads(payload)
        except Exception as exc:
            raise SnapshotMismatchError(
                f"snapshot {path}: undecodable payload ({exc})"
            ) from exc

    def oldest_retained_hour(self) -> Optional[int]:
        """The hour of the oldest snapshot still on disk, from its
        filename -- the WAL compaction horizon: every hour before it is
        folded into every snapshot recovery could still fall back to."""
        paths = self.snapshot_paths()
        if not paths:
            return None
        stem = paths[0].stem  # snapshot-<hour zero-padded>
        try:
            return int(stem.split("-", 1)[1])
        except (IndexError, ValueError):  # pragma: no cover - foreign file
            return None

    def latest(self) -> Optional[Tuple[int, dict, List[Path]]]:
        """The newest loadable snapshot as ``(hour, payload, skipped)``.

        ``skipped`` lists newer snapshot files that failed integrity
        checks and were passed over; ``None`` when no valid snapshot
        exists at all.
        """
        skipped: List[Path] = []
        for path in reversed(self.snapshot_paths()):
            try:
                payload = self.load(path)
            except SnapshotMismatchError:
                skipped.append(path)
                continue
            return int(payload["hour_index"]), payload, skipped
        return None


# ----------------------------------------------------------------------
# State digest (the recovery-parity fingerprint, in CRC form)
# ----------------------------------------------------------------------
class _SequenceFold:
    """Running CRC over the first ``n`` records of one append-only list.

    Holds the list object itself and its last folded record, so the memo
    can check -- never trust -- that the list it folded is still the
    same one, grown only by appends (see :func:`_fold_sequence`).
    """

    __slots__ = ("seq", "n", "last", "crc")

    def __init__(self, seq) -> None:
        self.seq = seq
        self.n = 0
        self.last = None
        self.crc = 0


def _fold_sequence(memo: dict, slot, seq, encode) -> Tuple[int, int]:
    """``(len(seq), CRC of every encoded record)``, folded incrementally.

    ``memo[slot]`` extends only when it still describes a prefix of
    ``seq``: the same list object, not shorter, and ``seq[n-1]`` the very
    record folded last.  Anything else -- a rollback's ``del
    attempts[n:]``, a restored session's new list, a fresh platform --
    refolds from zero.  Records are frozen, so a folded record cannot
    change under the memo.
    """
    fold = memo.get(slot)
    n = len(seq)
    if (
        fold is None
        or fold.seq is not seq
        or n < fold.n
        or (fold.n and seq[fold.n - 1] is not fold.last)
    ):
        fold = memo[slot] = _SequenceFold(seq)
    crc = fold.crc
    for index in range(fold.n, n):
        crc = zlib.crc32(encode(seq[index]), crc)
    if n > fold.n:
        fold.n, fold.last, fold.crc = n, seq[n - 1], crc
    # The stored objects, not fresh equal ones: state_digest reuses an
    # entry's bytes only while every value it encodes is the same object.
    return fold.n, fold.crc


def _charge_bytes(record) -> bytes:
    budget = record.budget
    return repr(
        (budget.epsilon, budget.delta, record.block_keys, record.label)
    ).encode("utf-8")


def _attempt_bytes(record) -> bytes:
    budget = record.budget
    return repr(
        (
            record.attempt,
            tuple(record.window),
            budget.epsilon,
            budget.delta,
            str(record.outcome),
            record.train_size,
        )
    ).encode("utf-8")


def _entry_bytes(scalars) -> bytes:
    return repr(scalars).encode("utf-8")


def _fold_array(crc: int, array) -> int:
    """Fold an array's shape and C-order bytes (its ``tobytes()``)."""
    crc = zlib.crc32(repr(array.shape).encode("utf-8"), crc)
    return zlib.crc32(np.ascontiguousarray(array), crc)


def state_digest(sage) -> int:
    """CRC32 of everything the accounting contract makes durable -- the
    compact parity form the WAL commit markers and snapshots carry (the
    module docstring lists what it covers, in order).

    It writes nothing but the digest memo: the live mask is exact after
    every charge, so there is nothing to normalize first.  Scalars and
    records hash via ``repr`` (exact round-trip text for floats), never
    ``pickle``: pickle memoizes shared references, so two value-equal
    states could pickle differently (recovery rebuilds values, not
    identity graphs).  The charge log and each session's attempts enter
    as ``(length, running CRC)`` memoized in ``sage._digest_memo``.

    Each pipeline entry's encoded scalars are cached there too, with the
    raw fields they come from.  A cached entry is reused only while every
    field -- its status, attempts list, attempt count and last attempt
    record included -- is the very same object, checked before the
    attempts are folded or the tuple built, so a terminal entry (which
    nothing changes again) is encoded once, at its first digest after the
    transition, and a rollback, a snapshot restore or any direct edit
    re-encodes.  The entries' bytes are joined and folded with one
    ``zlib.crc32`` call: ``crc32(a + b, c) == crc32(b, crc32(a, c))``,
    so the value is the per-entry chain's.
    """
    accountant = sage.access.accountant
    store = accountant.store
    table = sage.reservation_table
    memo = sage._digest_memo
    crc = zlib.crc32(repr(float(sage.clock_hours)).encode("utf-8"))
    for array in (
        store.totals,
        store.live,
        store.charge_counts,
        table.matrix,
        table.free_epsilon,
    ):
        crc = _fold_array(crc, array)
    charges = _fold_sequence(memo, "charges", accountant.charge_log, _charge_bytes)
    crc = zlib.crc32(repr(charges).encode("utf-8"), crc)
    encoded = memo.setdefault("entries", {})
    parts = []
    for index, entry in enumerate(sage.pipelines):
        session = entry.session
        attempts = session.attempts
        spent = session.total_spent
        n = len(attempts)
        fields = (
            entry.name,
            session.status,
            entry.release_time_hours,
            session.epsilon,
            session.window_blocks,
            spent,
            attempts,
            n,
            attempts[-1] if n else None,
        )
        cached = encoded.get(index)
        # Identity, not equality: the very same objects repr the same,
        # while 0.0 == -0.0 would reuse bytes that no longer match.  The
        # same list, length and last record mean the same attempts (the
        # fold memo's own test), and a budget is frozen.
        if cached is None or not all(map(operator.is_, cached[0], fields)):
            n_attempts, attempts_crc = _fold_sequence(
                memo, index, attempts, _attempt_bytes
            )
            name, status, released, epsilon, window_blocks = fields[:5]
            scalars = (
                name,
                status,
                n_attempts,
                released,
                epsilon,
                window_blocks,
                spent.epsilon,
                spent.delta,
                n_attempts,
                attempts_crc,
            )
            cached = encoded[index] = (fields, _entry_bytes(scalars))
        parts.append(cached[1])
    return zlib.crc32(b"".join(parts), crc)


# ----------------------------------------------------------------------
# Snapshot payload build/restore (public platform surfaces only)
# ----------------------------------------------------------------------
def encode_attempts(attempts) -> tuple:
    """The durable form of a session's attempt records (WAL hour deltas,
    snapshot entries): one ``(attempt, window, budget, outcome,
    train_size)`` tuple per record."""
    return tuple(
        (a.attempt, tuple(a.window), a.budget, a.outcome, a.train_size)
        for a in attempts
    )


def decode_attempts(tuples) -> List[AttemptRecord]:
    """The attempt records an :func:`encode_attempts` tuple encodes."""
    return [
        AttemptRecord(
            attempt=attempt,
            window=window,
            budget=budget,
            outcome=outcome,
            train_size=train_size,
        )
        for attempt, window, budget, outcome, train_size in tuples
    ]


def build_snapshot_payload(sage, hours_committed: int) -> dict:
    """Capture a platform's full recoverable state as one picklable dict."""
    accountant = sage.access.accountant
    table = sage.reservation_table
    entries = tuple(
        {
            "name": entry.name,
            "submit_time_hours": entry.submit_time_hours,
            "release_time_hours": entry.release_time_hours,
            **entry.session.export_state(),
            "attempts": encode_attempts(entry.session.attempts),
        }
        for entry in sage.pipelines
    )
    return {
        "hour_index": int(hours_committed),
        "clock_hours": float(sage.clock_hours),
        "epsilon_global": sage.epsilon_global,
        "delta_global": sage.delta_global,
        "accountant": accountant.export_state(),
        "table_matrix": table.matrix.copy(),
        "table_free": table.free_epsilon.copy(),
        "entries": entries,
        "database": sage.database,
        "rng_state": sage.rng.bit_generator.state,
        "digest": state_digest(sage),
    }


def restore_entry_state(entry, state: dict) -> None:
    """Restore one submitted pipeline's session/bookkeeping from a
    snapshot entry dict (model artifacts are not recovered -- see the
    module docstring's limitations)."""
    session = entry.session
    session.restore_state(state)
    session.attempts = decode_attempts(state["attempts"])
    session.final_run = None
    entry.submit_time_hours = state["submit_time_hours"]
    entry.release_time_hours = state["release_time_hours"]
    entry.bundle = None


def restore_snapshot_payload(sage, payload: dict) -> None:
    """Restore a platform from a snapshot payload.

    The caller (``Sage.recover``) has already re-submitted the snapshot's
    pipelines in order; this validates configuration compatibility,
    restores database/accountant/table/sessions/RNG/clock, and verifies
    the snapshot's state digest.
    """
    if (
        payload["epsilon_global"] != sage.epsilon_global
        or payload["delta_global"] != sage.delta_global
    ):
        raise SnapshotMismatchError(
            f"snapshot global budget ({payload['epsilon_global']}, "
            f"{payload['delta_global']}) does not match platform "
            f"({sage.epsilon_global}, {sage.delta_global})"
        )
    entries = sage.pipelines
    states = payload["entries"]
    if len(entries) != len(states):
        raise RecoveryError(
            f"snapshot holds {len(states)} pipelines but {len(entries)} "
            "were submitted for recovery"
        )
    for entry, state in zip(entries, states):
        if entry.name != state["name"]:
            raise RecoveryError(
                f"pipeline order mismatch: snapshot recorded {state['name']!r} "
                f"where {entry.name!r} was submitted"
            )
    sage.database.adopt_state(payload["database"])
    sage.ingestor.clock_hours = payload["clock_hours"]
    sage.access.accountant.restore_state(payload["accountant"])
    matrix = payload["table_matrix"]
    if matrix.shape[0] != len(entries) or matrix.shape[1] != len(
        sage.access.accountant.store
    ):
        raise RecoveryError(
            f"snapshot reservation matrix shape {matrix.shape} does not "
            f"match restored platform ({len(entries)} pipelines, "
            f"{len(sage.access.accountant.store)} blocks)"
        )
    sage.reservation_table.restore(matrix, payload["table_free"])
    for entry, state in zip(entries, states):
        restore_entry_state(entry, state)
    sage._reindex_waiting()
    sage.rng.bit_generator.state = payload["rng_state"]
    digest = state_digest(sage)
    if digest != payload["digest"]:
        raise RecoveryError(
            f"snapshot hour {payload['hour_index']}: restored state digest "
            f"{digest} does not match recorded {payload['digest']}"
        )


@dataclass
class RecoveryReport:
    """What :meth:`~repro.core.platform.Sage.recover` reconstructed."""

    snapshot_hour: Optional[int]
    snapshots_skipped: int
    replayed_hours: int
    hours_committed: int
    clock_hours: float
    wal_records: int
    truncated_tail: bool
    # Supplied pipelines the log never mentioned (submitted in the crashed
    # run but durable in no committed hour): re-submitted fresh at the end
    # of recovery, their sessions starting over.
    fresh_pipelines: int
    # Replayed hours whose WAL commit digest was present and verified (an
    # hour replayed from a marker-less record contributes 0).
    digests_verified: int = 0

    def describe(self, telemetry=None) -> str:
        base = "recovered from scratch" if self.snapshot_hour is None else (
            f"recovered from snapshot hour {self.snapshot_hour}"
        )
        parts = [
            base,
            f"replayed {self.replayed_hours} WAL hour(s)",
            f"{self.hours_committed} hour(s) committed",
            f"clock at {self.clock_hours}h",
        ]
        if self.snapshots_skipped:
            parts.append(f"skipped {self.snapshots_skipped} corrupt snapshot(s)")
        if self.truncated_tail:
            parts.append("repaired a torn WAL tail")
        if self.fresh_pipelines:
            parts.append(
                f"{self.fresh_pipelines} supplied pipeline(s) not in the log "
                "were re-submitted fresh"
            )
        if self.digests_verified:
            parts.append(f"verified {self.digests_verified} commit digest(s)")
        text = "; ".join(parts)
        if telemetry is not None:
            telemetry.tracer.event(
                "recover.report",
                snapshot_hour=self.snapshot_hour,
                replayed_hours=self.replayed_hours,
                hours_committed=self.hours_committed,
                digests_verified=self.digests_verified,
                fresh_pipelines=self.fresh_pipelines,
            )
            telemetry.metrics.observe_recovery(self)
        return text
