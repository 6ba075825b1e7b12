"""Durability tax: the write-ahead charge log vs the volatile drive.

Two questions about ``Sage(wal_dir=...)``:

* **Parity first**: the durable drive must reproduce the volatile drive's
  simulation byte for byte (per-hour state digests), and a platform
  rebuilt from the WAL alone -- and again from the latest snapshot plus
  the log tail -- must land on the same digest.  Any drift fails the
  bench before a single timing is taken.
* **Overhead**: wall-clock of the hourly drive with the log on (frame
  encode + CRC + fsync per hour) over the log off, reported as a ratio.
  ``--assert-max-overhead`` gates it in CI.
* **Block frees per snapshot**: on a disk mounted with ``discard`` every
  call that frees a file's blocks costs tens of milliseconds, whatever
  the file's size.  A drive that runs past ``snapshot_keep`` snapshots
  counts such calls -- an ``unlink`` or a ``replace``/``rename`` that
  drops a file's last link, and a ``truncate`` that shrinks a file --
  per snapshot after the first ``snapshot_keep``.
  ``--assert-frees-per-snapshot`` gates the count, which never flakes.
* **Decodes per compaction**: compaction picks its frames from the
  writer's frame index and CRC-checks them, so it unpickles no record.
  A durable drive counts the ``pickle.loads`` calls made inside
  ``WalWriter.compact`` per compaction that rewrote the log;
  ``--assert-decodes-per-compaction`` gates that count.
* **Stale record items**: an hour record carries a delta only for the
  sessions whose durable record the hour changed, and names only the
  pipelines submitted since the last committed hour.  A snapshot-free
  durable drive compares every session's durable record before and after
  each hour and counts, over the whole log, the deltas of sessions whose
  record did not change plus the names an earlier record already gave;
  ``--assert-stale-record-items`` gates that count.  A changed session
  without a delta fails the bench outright.

Run as a script (``PYTHONPATH=src python benchmarks/bench_wal_overhead.py``).
"""

import argparse
import os
import pickle
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from benchjson import write_bench_json, write_bench_report
from repro.core import durability
from repro.errors import RecoveryError
from repro.core.adaptive import AdaptiveConfig
from repro.core.platform import Sage
from repro.workload.oracle import CountStreamSource, OraclePipeline

DEFAULT_HOURS = 24
DEFAULT_PIPELINES = 6
SNAPSHOT_KEEP = 3  # Sage's default snapshot_keep


def _build(wal_dir=None, snapshot_every=0):
    return Sage(
        CountStreamSource(4000, scale=1000),
        seed=5,
        wal_dir=wal_dir,
        snapshot_every=snapshot_every,
    )


def _pipes(n):
    # Doubling targets: early pipelines terminate inside the bench window,
    # later ones stay mid-session, so hours mix charges and redistributions.
    return [
        (
            OraclePipeline(name=f"p{i}", n_at_eps1=3_000.0 * (2.0 ** i)),
            AdaptiveConfig(max_attempts=16),
        )
        for i in range(n)
    ]


def _drive(sage, n_pipelines, hours):
    """Submit the workload, advance ``hours``, return (per-hour digests,
    total advance seconds)."""
    for pipeline, config in _pipes(n_pipelines):
        sage.submit(pipeline, config)
    digests = []
    elapsed = 0.0
    for _ in range(hours):
        start = time.perf_counter()
        sage.advance(1.0)
        elapsed += time.perf_counter() - start
        digests.append(durability.state_digest(sage))
    return digests, elapsed


def bench_overhead(hours, n_pipelines, snapshot_every):
    volatile = _build()
    volatile_digests, t_off = _drive(volatile, n_pipelines, hours)
    volatile.close()

    with tempfile.TemporaryDirectory(prefix="wal_bench_") as tmp:
        wal_dir = Path(tmp)
        durable = _build(wal_dir=wal_dir, snapshot_every=snapshot_every)
        durable_digests, t_on = _drive(durable, n_pipelines, hours)
        durable.close()
        if durable_digests != volatile_digests:
            raise AssertionError(
                "durable drive diverged from the volatile drive "
                f"(first mismatch at hour "
                f"{next(i for i, (a, b) in enumerate(zip(durable_digests, volatile_digests)) if a != b)})"
            )
        # Recovery parity: snapshot + log tail (as configured) ...
        recovered = _build(wal_dir=wal_dir, snapshot_every=snapshot_every)
        report = recovered.recover(_pipes(n_pipelines))
        if report.hours_committed != hours:
            raise AssertionError(
                f"recovery rebuilt {report.hours_committed} hours, expected {hours}"
            )
        if durability.state_digest(recovered) != volatile_digests[-1]:
            raise AssertionError("recovered state diverged from the live run")
        recovered.close()
        # ... and the compaction contract: each snapshot write compacts
        # the WAL to the oldest *retained* snapshot's hour, so with every
        # snapshot deleted the early hours are gone on purpose and
        # recovery must refuse with a typed error, not rebuild silently
        # from a gapped log.
        if snapshot_every and durability.SnapshotStore(wal_dir).snapshot_paths():
            for snap in durability.SnapshotStore(wal_dir).snapshot_paths():
                snap.unlink()
            gapped = _build(wal_dir=wal_dir)
            try:
                gapped.recover(_pipes(n_pipelines))
            except RecoveryError:
                pass
            else:
                raise AssertionError(
                    "recovery from a compacted WAL with no snapshots must "
                    "raise RecoveryError"
                )
            finally:
                gapped.close()

    # The WAL alone still rebuilds the whole run when nothing compacts
    # it: a snapshot-free drive keeps every hour in the log.
    with tempfile.TemporaryDirectory(prefix="wal_bench_replay_") as tmp:
        wal_dir = Path(tmp)
        durable = _build(wal_dir=wal_dir)
        durable_digests, _ = _drive(durable, n_pipelines, hours)
        durable.close()
        if durable_digests != volatile_digests:
            raise AssertionError("snapshot-free durable drive diverged")
        replayed = _build(wal_dir=wal_dir)
        report = replayed.recover(_pipes(n_pipelines))
        if report.snapshot_hour is not None or report.replayed_hours != hours:
            raise AssertionError(
                f"expected a pure {hours}-hour WAL replay, got {report.describe()}"
            )
        if durability.state_digest(replayed) != volatile_digests[-1]:
            raise AssertionError("pure WAL replay diverged from the live run")
        replayed.close()

    return t_off, t_on, t_on / t_off


def _drops_last_link(path) -> bool:
    """Whether removing the name ``path`` frees data blocks: it is the
    file's last link and the file holds data."""
    try:
        st = os.stat(path)
    except OSError:
        return False
    return st.st_nlink == 1 and st.st_size > 0


class _CountingFile:
    """A file object whose ``truncate`` counts the calls that shrink it."""

    def __init__(self, fh, note):
        self._fh = fh
        self._note = note

    def truncate(self, size=None):
        self._fh.flush()
        target = self._fh.tell() if size is None else size
        if target < os.fstat(self._fh.fileno()).st_size:
            self._note()
        return self._fh.truncate(size)

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


@contextmanager
def count_block_frees():
    """Count the calls that free a file's blocks while the block runs:
    ``os.unlink``/``os.remove``/``Path.unlink`` of a file's last link,
    ``os.replace``/``os.rename`` onto an existing file's last link, and
    a shrinking ``os.truncate``/``os.ftruncate`` or file-object
    ``truncate`` (the durability module's ``open`` is wrapped for that).
    Yields a one-entry list holding the running count."""
    count = [0]
    depth = [0]  # Path.unlink may call os.unlink: count the outer call

    def note():
        count[0] += 1

    def counted(real, frees):
        def wrapper(*args, **kwargs):
            if not depth[0] and frees(*args, **kwargs):
                note()
            depth[0] += 1
            try:
                return real(*args, **kwargs)
            finally:
                depth[0] -= 1

        return wrapper

    def removes(path, *args, **kwargs):
        return _drops_last_link(path)

    def overwrites(src, dst, *args, **kwargs):
        return _drops_last_link(dst) and not (
            os.path.exists(src) and os.path.samefile(src, dst)
        )

    def shrinks(path, length):
        return length < os.stat(path).st_size

    def shrinks_fd(fd, length):
        return length < os.fstat(fd).st_size

    patches = [
        (os, "unlink", removes),
        (os, "remove", removes),
        (Path, "unlink", removes),
        (os, "replace", overwrites),
        (os, "rename", overwrites),
        (os, "truncate", shrinks),
        (os, "ftruncate", shrinks_fd),
    ]
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
    for (owner, name, frees), (_, _, real) in zip(patches, saved):
        setattr(owner, name, counted(real, frees))
    durability.open = lambda *args, **kwargs: _CountingFile(open(*args, **kwargs), note)
    try:
        yield count
    finally:
        del durability.open
        for owner, name, real in saved:
            setattr(owner, name, real)


def bench_block_frees(n_pipelines, snapshot_every, extra_snapshots=3):
    """Block-freeing calls per snapshot written after the first
    ``SNAPSHOT_KEEP``, over a durable drive of ``SNAPSHOT_KEEP +
    extra_snapshots`` snapshots.  Returns ``(per snapshot, warm-up
    count)``; the warm-up count covers the first ``SNAPSHOT_KEEP``."""
    with tempfile.TemporaryDirectory(prefix="wal_bench_frees_") as tmp:
        sage = _build(wal_dir=Path(tmp), snapshot_every=snapshot_every)
        for pipeline, config in _pipes(n_pipelines):
            sage.submit(pipeline, config)
        with count_block_frees() as warmup:
            for _ in range(SNAPSHOT_KEEP * snapshot_every):
                sage.advance(1.0)
        with count_block_frees() as counted:
            for _ in range(extra_snapshots * snapshot_every):
                sage.advance(1.0)
        sage.close()
    return counted[0] / extra_snapshots, warmup[0]


@contextmanager
def count_compaction_decodes():
    """Count the ``pickle.loads`` calls made inside ``WalWriter.compact``
    while the block runs, and the compactions that rewrote the log.
    Yields a dict holding the running ``decodes`` and ``compactions``."""
    counts = {"decodes": 0, "compactions": 0}
    inside = [0]
    real_loads = pickle.loads
    real_compact = durability.WalWriter.compact

    def loads(*args, **kwargs):
        if inside[0]:
            counts["decodes"] += 1
        return real_loads(*args, **kwargs)

    def compact(self, upto_hour):
        inside[0] += 1
        try:
            dropped = real_compact(self, upto_hour)
        finally:
            inside[0] -= 1
        if dropped:
            counts["compactions"] += 1
        return dropped

    pickle.loads = loads
    durability.WalWriter.compact = compact
    try:
        yield counts
    finally:
        pickle.loads = real_loads
        durability.WalWriter.compact = real_compact


def bench_compaction_decodes(n_pipelines, snapshot_every):
    """Records decoded per compaction over a durable drive of
    ``SNAPSHOT_KEEP + 3`` snapshots.  Returns ``(per compaction,
    compactions)``."""
    with tempfile.TemporaryDirectory(prefix="wal_bench_decodes_") as tmp:
        sage = _build(wal_dir=Path(tmp), snapshot_every=snapshot_every)
        for pipeline, config in _pipes(n_pipelines):
            sage.submit(pipeline, config)
        with count_compaction_decodes() as counts:
            for _ in range((SNAPSHOT_KEEP + 3) * snapshot_every):
                sage.advance(1.0)
        sage.close()
    if not counts["compactions"]:
        raise AssertionError("the drive never compacted the log")
    return counts["decodes"] / counts["compactions"], counts["compactions"]


def _durable_records(sage):
    """``repr`` of every session's durable record (its ``export_state``,
    release time and attempts)."""
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


def bench_stale_record_items(n_pipelines, hours):
    """Deltas of unchanged sessions plus names already named, over the
    hour records of a snapshot-free durable drive that submits one more
    pipeline every third hour.  Returns ``(stale items, deltas, names)``;
    raises if a changed session has no delta."""
    with tempfile.TemporaryDirectory(prefix="wal_bench_stale_") as tmp:
        wal_dir = Path(tmp)
        sage = _build(wal_dir=wal_dir)
        pipes = _pipes(n_pipelines + hours // 3)
        for pipeline, config in pipes[:n_pipelines]:
            sage.submit(pipeline, config)
        changed = []
        for hour in range(hours):
            if hour and hour % 3 == 0:
                sage.submit(*pipes[n_pipelines + hour // 3 - 1])
            before = _durable_records(sage)
            sage.advance(1.0)
            after = _durable_records(sage)
            changed.append({i for i, old in enumerate(before) if after[i] != old})
        sage.close()
        records = [
            record
            for record in durability.read_wal(durability.wal_path(wal_dir)).records
            if record["kind"] == "hour"
        ]
    stale = deltas = names = named = 0
    for record, moved in zip(records, changed):
        indices = {delta["index"] for delta in record["deltas"]}
        if moved - indices:
            raise AssertionError(
                f"hour {record['hour_index']}: sessions {sorted(moved - indices)} "
                "changed but the record has no delta for them"
            )
        stale += len(indices - moved)
        # A record without names_from names every pipeline from the first.
        first = record.get("names_from", 0)
        stale += max(0, min(named, first + len(record["entry_names"])) - first)
        named = record["n_entries"]
        deltas += len(record["deltas"])
        names += len(record["entry_names"])
    return stale, deltas, names


def run(
    hours,
    n_pipelines,
    snapshot_every,
    assert_max_overhead=0.0,
    assert_frees_per_snapshot=None,
    assert_decodes_per_compaction=None,
    assert_stale_record_items=None,
):
    t_off, t_on, overhead = bench_overhead(hours, n_pipelines, snapshot_every)
    frees, warmup_frees = bench_block_frees(n_pipelines, snapshot_every or 4)
    decodes, compactions = bench_compaction_decodes(n_pipelines, snapshot_every or 4)
    stale, deltas, names = bench_stale_record_items(n_pipelines, hours)
    case = write_bench_json(
        "wal_overhead",
        {
            "hours": hours,
            "pipelines": n_pipelines,
            "snapshot_every": snapshot_every,
            "frees_per_snapshot": frees,
            "decodes_per_compaction": decodes,
            "stale_record_items": stale,
        },
        t_on * 1e3,
        t_off * 1e3,
        bench="wal_overhead",
    )
    table = write_bench_report(
        "wal_overhead",
        f"WAL overhead: {hours} hours x {n_pipelines} pipelines "
        f"(snapshot every {snapshot_every or 'never'})",
        [case],
        columns=("durable", "volatile"),
        notes=[
            "speedup column reads as the durable/volatile overhead ratio "
            f"({t_on / hours * 1e3:.2f}ms vs {t_off / hours * 1e3:.2f}ms per hour)",
            "parity: durable==volatile per hour; snapshot+tail and pure-WAL "
            "recovery both reproduce the final digest",
            f"block-freeing calls: {frees:g} per snapshot after the first "
            f"{SNAPSHOT_KEEP} ({warmup_frees} during them)",
            f"records decoded by compaction: {decodes:g} per compaction "
            f"({compactions} compactions)",
            f"stale hour-record items: {stale} ({deltas} deltas and {names} "
            f"names over {hours} hours)",
        ],
    )
    if assert_max_overhead and overhead > assert_max_overhead:
        raise AssertionError(
            f"durable drive costs {overhead:.2f}x the volatile drive, over "
            f"the allowed {assert_max_overhead}x"
        )
    if assert_frees_per_snapshot is not None and frees > assert_frees_per_snapshot:
        raise AssertionError(
            f"{frees:g} block-freeing calls per snapshot, over the allowed "
            f"{assert_frees_per_snapshot:g}"
        )
    if (
        assert_decodes_per_compaction is not None
        and decodes > assert_decodes_per_compaction
    ):
        raise AssertionError(
            f"compaction decoded {decodes:g} records per compaction, over "
            f"the allowed {assert_decodes_per_compaction:g}"
        )
    if assert_stale_record_items is not None and stale > assert_stale_record_items:
        raise AssertionError(
            f"hour records carry {stale} stale items (deltas of unchanged "
            "sessions, names already named), over the allowed "
            f"{assert_stale_record_items}"
        )
    return table


def test_wal_overhead_smoke():
    """CI smoke: parity plus a loose overhead ceiling.  The oracle hours
    here are sub-millisecond, so the ~1ms framed fsync dominates the
    ratio; on any real hour (training attempts) it vanishes.  The gate
    exists to catch pathological regressions (e.g. re-pickling the whole
    platform per hour), not to pin the fsync cost."""
    t_off, t_on, overhead = bench_overhead(12, 4, snapshot_every=4)
    assert overhead <= 5.0, f"{overhead:.2f}x (off {t_off:.4f}s on {t_on:.4f}s)"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--hours", type=int, default=DEFAULT_HOURS)
    parser.add_argument("--pipelines", type=int, default=DEFAULT_PIPELINES)
    parser.add_argument("--snapshot-every", type=int, default=8)
    parser.add_argument(
        "--assert-max-overhead",
        type=float,
        default=0.0,
        help="fail if the durable drive costs more than this factor of the "
        "volatile drive",
    )
    parser.add_argument(
        "--assert-frees-per-snapshot",
        type=float,
        default=None,
        help="fail if snapshots past the first snapshot_keep average more "
        "than this many block-freeing calls (unlink, replace onto a last "
        "link, shrinking truncate)",
    )
    parser.add_argument(
        "--assert-decodes-per-compaction",
        type=float,
        default=None,
        help="fail if WAL compaction unpickles more than this many records "
        "per compaction",
    )
    parser.add_argument(
        "--assert-stale-record-items",
        type=int,
        default=None,
        help="fail if the hour records of a snapshot-free durable drive "
        "carry more than this many deltas of unchanged sessions plus names "
        "an earlier record already gave",
    )
    args = parser.parse_args()
    print(
        run(
            args.hours,
            args.pipelines,
            args.snapshot_every,
            assert_max_overhead=args.assert_max_overhead,
            assert_frees_per_snapshot=args.assert_frees_per_snapshot,
            assert_decodes_per_compaction=args.assert_decodes_per_compaction,
            assert_stale_record_items=args.assert_stale_record_items,
        )
    )


if __name__ == "__main__":
    main()
