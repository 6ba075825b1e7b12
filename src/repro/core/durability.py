"""Durable accounting: write-ahead charge log, snapshots, recovery.

Today's platform otherwise lives and dies with one Python process; this
module gives :class:`~repro.core.platform.Sage` crash durability (ROADMAP
open item 2's WAL/snapshot half).  The drive records every settled hour in
a write-ahead log *before* committing it in memory, periodically snapshots
the full accounting state, and a restarted platform recovers by loading
the latest valid snapshot and replaying the subsequent WAL hours through
the **existing** ``charge_many``/``request_many`` path -- so recovered
state is byte-identical to the uninterrupted run by construction, and the
repo's parity fingerprinting can verify it.

WAL file format
---------------
One append-only file, ``charge.wal``, in the platform's ``wal_dir``::

    8 bytes   file magic ``b"SAGEWAL1"``
    repeated  records, each framed as
                 uint32le  payload length
                 uint32le  CRC32 of the payload
                 payload   pickled dict

Two record kinds (the ``"kind"`` key of the payload dict):

* ``"hour"`` -- the write-ahead intent, appended and fsynced *before* the
  hour commits in memory.  Carries everything replay needs:

  ====================== ==================================================
  key                    value
  ====================== ==================================================
  ``hour_index``         0-based index of the hour being settled
  ``hours``              clock step of this ``advance`` call
  ``schema_width``       ledger totals width (validated on replay)
  ``n_entries``          pipelines submitted at hour start
  ``entry_names``        their names, submission order (validated)
  ``new_block_keys``     keys the hour's ingest registered (validated)
  ``requests``           the exact staged ``(keys, budget, label)`` batch
                         that one ``request_many`` call will commit
  ``deltas``             per driven session, in drive order: status /
                         epsilon / window_blocks / total_spent after the
                         hour plus the attempt records it appended
  ``rng_state``          the platform RNG's bit-generator state *after*
                         the hour (replay skips pipeline executions, so
                         it restores the post-hour stream position)
  ``clock_hours``        platform clock after the hour
  ====================== ==================================================

* ``"commit"`` -- the commit marker, appended after the in-memory commit:
  ``hour_index`` plus a ``digest`` (CRC32 of the pickled
  :func:`state_summary`) of the committed post-hour state.  Replay
  verifies each replayed hour against it.  A trailing ``"hour"`` record
  without its marker means the process died between WAL append and the
  commit marker; the hour is durable and is replayed (the record was
  fully determined before the commit began).

The reader (:func:`read_wal`) is **truncated-tail tolerant**: a final
record with fewer bytes than its frame promises (a crash mid-append) is
reported via ``truncated_tail``/``end_offset`` and ignored, and the
writer truncates it away on reopen.  A *complete* record whose CRC does
not match, or a bad file magic, is real corruption and raises
:class:`~repro.errors.WalCorruptionError` naming the file, byte offset,
and record index -- a corrupt record is never silently replayed.

Snapshot format and atomicity
-----------------------------
``snapshot-<hour>.snap`` files carry one framed record (magic
``b"SAGESNP1"``, then the same length/CRC frame) whose payload captures
everything :meth:`~repro.core.platform.Sage.recover` restores: accountant
export (keys, totals, live mask, charge counts, charge log), reservation
matrix and free pool, per-session protocol state, the pickled growing
database, RNG state, clock, and a state digest.  Snapshots are written to
a temp file in the same directory and published with ``os.replace``, so a
crash mid-write (crash point ``snapshot.mid_write``) can never leave a
half-written snapshot where the loader finds it; ``latest()`` also skips
corrupt snapshot files and falls back to the next older valid one.

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
   replay the hour -- re-run ingest (the restored RNG regenerates the
   identical blocks; keys are validated against the record), register /
   allocate / grant through the normal hour-open path, apply the recorded
   per-session deltas in drive order (settling reservations attempt by
   attempt exactly as the live drive does), and commit the recorded
   request batch through **one** ``request_many`` call -- the same entry
   point the live hour used, no parallel apply path.  Restore the
   post-hour RNG state and verify the hour's commit digest when present.
3. Position the WAL writer at the end of the last complete record
   (repairing any torn tail) so the platform can keep advancing.

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

import os
import pickle
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

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
    "pair_hour_records",
    "read_wal",
    "restore_snapshot_payload",
    "state_digest",
    "state_summary",
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
    order; ``truncated_tail`` reports an incomplete trailing record (a
    crash mid-append) whose bytes start at ``end_offset`` -- the offset
    the writer resumes (and truncates) at.
    """

    records: List[dict]
    truncated_tail: bool
    end_offset: int


def read_wal(path) -> WalScan:
    """Read every complete record of a WAL file, tolerating a torn tail.

    Raises :class:`~repro.errors.WalCorruptionError` (naming the file,
    byte offset, and record index) for a bad magic or a complete record
    whose CRC32 does not match -- corruption is surfaced, never silently
    replayed.  A missing file reads as an empty scan.
    """
    path = Path(path)
    if not path.exists():
        return WalScan(records=[], truncated_tail=False, end_offset=0)
    data = path.read_bytes()
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
    offset = len(WAL_MAGIC)
    index = 0
    truncated = False
    while offset < len(data):
        if offset + _FRAME.size > len(data):
            truncated = True
            break
        length, crc = _FRAME.unpack_from(data, offset)
        if offset + _FRAME.size + length > len(data):
            truncated = True
            break
        payload = data[offset + _FRAME.size : offset + _FRAME.size + length]
        if zlib.crc32(payload) != crc:
            raise WalCorruptionError(
                path, offset, "record CRC mismatch", record=index
            )
        try:
            record = pickle.loads(payload)
        except Exception as exc:
            raise WalCorruptionError(
                path, offset, f"undecodable record payload ({exc})", record=index
            ) from exc
        records.append(record)
        offset += _FRAME.size + length
        index += 1
    return WalScan(records=records, truncated_tail=truncated, end_offset=offset)


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
    the last complete record.
    """

    def __init__(self, path, telemetry=None) -> None:
        self._tracer = telemetry.probe if telemetry is not None else NULL_PROBE
        self._metrics = telemetry.metrics if telemetry is not None else None
        self._path = Path(path)
        self._path.parent.mkdir(parents=True, exist_ok=True)
        if self._path.exists() and self._path.stat().st_size > 0:
            scan = read_wal(self._path)
            self._fh = open(self._path, "r+b")
            self._fh.seek(scan.end_offset)
            self._fh.truncate()
        else:
            self._fh = open(self._path, "wb")
            self._fh.write(WAL_MAGIC)
            self._sync()
        self._hour_start: Optional[int] = None

    @property
    def path(self) -> Path:
        return self._path

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

    def append_hour(self, payload: dict) -> None:
        """Write-ahead append: the hour record lands and fsyncs *before*
        the in-memory commit (crash points fire on both sides)."""
        if self._hour_start is None:
            raise RecoveryError(f"WAL {self._path}: no hour is open to append")
        faults.trip("wal.before_append")
        record = dict(payload)
        record["kind"] = "hour"
        encoded = _encode_record(record)
        with self._tracer.span("wal.append", bytes=len(encoded)):
            self._fh.write(encoded)
            self._sync()
        if self._metrics is not None:
            self._metrics.inc("sage_wal_bytes_total", len(encoded))
            self._metrics.observe("sage_wal_append_bytes", len(encoded))
        faults.trip("wal.after_append")

    def commit_hour(self, hour_index: int, digest: int) -> None:
        """Append the commit marker (post-commit digest) and close the hour."""
        if self._hour_start is None:
            raise RecoveryError(f"WAL {self._path}: no hour is open to commit")
        encoded = _encode_record(
            {"kind": "commit", "hour_index": int(hour_index), "digest": int(digest)}
        )
        with self._tracer.span("wal.commit", hour_index=int(hour_index)):
            self._fh.write(encoded)
            self._sync()
        if self._metrics is not None:
            self._metrics.inc("sage_wal_bytes_total", len(encoded))
        self._hour_start = None

    def abort_hour(self) -> None:
        """Truncate everything appended since ``begin_hour``.

        No-op when no hour is open, so the platform's exception handler
        can call it unconditionally.
        """
        if self._hour_start is None:
            return
        self._fh.seek(self._hour_start)
        self._fh.truncate()
        self._sync()
        self._hour_start = None

    def compact(self, upto_hour: int) -> int:
        """Drop hour/commit records for hours before ``upto_hour``.

        The platform calls this after each snapshot write with the
        *oldest retained* snapshot's hour: every dropped hour is folded
        into every snapshot recovery could still load, so the corrupt-
        newest-snapshot fallback keeps working.  Records that carry no
        hour index are preserved untouched, in order.

        The rewrite is crash-atomic (same-directory temp file, fsync,
        ``os.replace``): a crash mid-compaction leaves either the old log
        or the new one, both complete.  Returns the number of records
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
        self._fh.flush()
        scan = read_wal(self._path)
        kept: List[dict] = []
        dropped = 0
        for record in scan.records:
            hour_index = record.get("hour_index")
            if (
                record.get("kind") in ("hour", "commit")
                and hour_index is not None
                and int(hour_index) < upto_hour
            ):
                dropped += 1
            else:
                kept.append(record)
        if not dropped:
            return 0
        with self._tracer.span(
            "wal.compact", upto_hour=upto_hour, dropped=dropped
        ):
            tmp = self._path.with_name(self._path.name + ".compact")
            with open(tmp, "wb") as fh:
                fh.write(WAL_MAGIC)
                for record in kept:
                    fh.write(_encode_record(record))
                fh.flush()
                os.fsync(fh.fileno())
            self._fh.close()
            os.replace(tmp, self._path)
            try:
                dir_fd = os.open(self._path.parent, os.O_RDONLY)
                try:
                    os.fsync(dir_fd)
                finally:
                    os.close(dir_fd)
            except OSError:  # pragma: no cover - platform-dependent best effort
                pass
            self._fh = open(self._path, "r+b")
            self._fh.seek(0, os.SEEK_END)
        if self._metrics is not None:
            self._metrics.inc("sage_wal_compact_dropped_total", dropped)
        return dropped

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
    the newest ``keep`` snapshots are retained.  ``latest()`` skips
    corrupt files (surviving e.g. bit rot on the newest snapshot) and
    falls back to the next older valid one.
    """

    def __init__(self, directory, keep: int = 3, telemetry=None) -> None:
        self._tracer = telemetry.probe if telemetry is not None else NULL_PROBE
        self._metrics = telemetry.metrics if telemetry is not None else None
        self._dir = Path(directory)
        self._dir.mkdir(parents=True, exist_ok=True)
        self._keep = max(1, int(keep))

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
            with open(tmp, "wb") as fh:
                # Two writes around the crash point: a mid-snapshot death
                # leaves only the temp file -- the published snapshot set is
                # untouched and recovery falls back to the previous one.
                half = len(blob) // 2
                fh.write(blob[:half])
                fh.flush()
                faults.trip("snapshot.mid_write")
                fh.write(blob[half:])
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, final)
            try:
                dir_fd = os.open(self._dir, os.O_RDONLY)
                try:
                    os.fsync(dir_fd)
                finally:
                    os.close(dir_fd)
            except OSError:  # pragma: no cover - platform-dependent best effort
                pass
            self._prune()
        if self._metrics is not None:
            self._metrics.inc("sage_snapshots_written_total")
            self._metrics.set_gauge("sage_snapshot_bytes", len(blob))
        return final

    def _prune(self) -> None:
        paths = self.snapshot_paths()
        for stale in paths[: -self._keep]:
            try:
                stale.unlink()
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
def state_summary(sage) -> tuple:
    """Everything the accounting contract makes durable, in picklable form.

    Mirrors the parity fingerprint the protocol tests compare: store
    totals/live/counts bytes, reservation matrix and free pool bytes, the
    charge log, and per-pipeline session state (status, schedule, spend,
    attempt records, release times).  Pending lazy retirement is
    refreshed first so both sides of any comparison normalize the live
    mask the same way.
    """
    accountant = sage.access.accountant
    accountant.retired_blocks()  # persist pending lazy retirement
    store = accountant.store
    table = sage.reservation_table
    return (
        float(sage.clock_hours),
        store.totals.tobytes(),
        store.live.tobytes(),
        store.charge_counts.tobytes(),
        table.matrix.tobytes(),
        table.free_epsilon.tobytes(),
        tuple(
            (record.budget.epsilon, record.budget.delta, record.block_keys, record.label)
            for record in accountant.charges
        ),
        tuple(
            (
                entry.name,
                entry.status,
                entry.settled_attempts,
                entry.release_time_hours,
                entry.session.epsilon,
                entry.session.window_blocks,
                entry.session.total_spent.epsilon,
                entry.session.total_spent.delta,
                tuple(
                    (
                        a.attempt,
                        tuple(a.window),
                        a.budget.epsilon,
                        a.budget.delta,
                        str(a.outcome),
                        a.train_size,
                    )
                    for a in entry.session.attempts
                ),
            )
            for entry in sage.pipelines
        ),
    )


def _digest_value(crc: int, obj) -> int:
    """Fold one summary value into a CRC, canonically.

    Deliberately *not* one ``pickle.dumps`` over the whole summary:
    pickle memoizes shared object references, so two states that compare
    equal value-by-value can pickle differently just because one run
    shares a tuple object where the other holds equal copies (recovery
    rebuilds values, not identity graphs).  Scalars hash via ``repr``
    (exact round-trip text for floats), containers recurse with
    delimiters.
    """
    if isinstance(obj, tuple):
        crc = zlib.crc32(b"(", crc)
        for item in obj:
            crc = _digest_value(crc, item)
        return zlib.crc32(b")", crc)
    if isinstance(obj, bytes):
        return zlib.crc32(obj, zlib.crc32(b"b", crc))
    return zlib.crc32(repr(obj).encode("utf-8"), zlib.crc32(b"s", crc))


def state_digest(sage) -> int:
    """Canonical CRC32 of :func:`state_summary` -- the compact parity form
    the WAL commit markers and snapshots carry.  Two platforms have equal
    digests iff their summaries are value-equal (same floats bit-for-bit,
    same bytes, same structure)."""
    return _digest_value(0, state_summary(sage))


# ----------------------------------------------------------------------
# Snapshot payload build/restore (public platform surfaces only)
# ----------------------------------------------------------------------
def _attempt_tuples(attempts) -> tuple:
    return tuple(
        (a.attempt, tuple(a.window), a.budget, a.outcome, a.train_size)
        for a in attempts
    )


def build_snapshot_payload(sage, hours_committed: int) -> dict:
    """Capture a platform's full recoverable state as one picklable dict."""
    accountant = sage.access.accountant
    accountant.retired_blocks()  # snapshot the normalized live mask
    table = sage.reservation_table
    entries = tuple(
        {
            "name": entry.name,
            "submit_time_hours": entry.submit_time_hours,
            "release_time_hours": entry.release_time_hours,
            "settled_attempts": entry.settled_attempts,
            "status": entry.session.status,
            "epsilon": entry.session.epsilon,
            "epsilon_floor": entry.session.epsilon_floor,
            "delta": entry.session.delta,
            "window_blocks": entry.session.window_blocks,
            "total_spent": entry.session.total_spent,
            "attempts": _attempt_tuples(entry.session.attempts),
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
    session.status = state["status"]
    session.epsilon = state["epsilon"]
    session.epsilon_floor = state["epsilon_floor"]
    session.delta = state["delta"]
    session.window_blocks = state["window_blocks"]
    session.total_spent = state["total_spent"]
    session.attempts = [
        AttemptRecord(
            attempt=attempt,
            window=window,
            budget=budget,
            outcome=outcome,
            train_size=train_size,
        )
        for attempt, window, budget, outcome, train_size in state["attempts"]
    ]
    session.final_run = None
    entry.submit_time_hours = state["submit_time_hours"]
    entry.release_time_hours = state["release_time_hours"]
    entry.settled_attempts = state["settled_attempts"]
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
            telemetry.probe.event(
                "recover.report",
                snapshot_hour=self.snapshot_hour,
                replayed_hours=self.replayed_hours,
                hours_committed=self.hours_committed,
                digests_verified=self.digests_verified,
                fresh_pipelines=self.fresh_pipelines,
            )
            telemetry.metrics.observe_recovery(self)
        return text
