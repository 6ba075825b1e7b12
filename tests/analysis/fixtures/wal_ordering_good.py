"""Fixed twin of ``wal_ordering_bad.py``: every write syncs, the record
always precedes the marker, the digest is computed at (or provably
before) the commit, and the snapshot fsyncs before it renames; renames
onto temp or spare names are claims and need no fsync first."""

import os


class WalLog:
    def append(self, record):
        self._fh.write(encode(record))
        self._sync()

    def abort(self):
        if self._start is None:
            return
        self._fh.seek(self._start)
        self._fh.truncate()
        self._sync()


def drive(wal, sage, record):
    wal.begin_hour()
    wal.append_hour(record)
    wal.commit_hour(0, state_digest(sage))


def drive_precomputed(wal, sage, record):
    # The digest may be bound to a name first, as long as the binding
    # precedes the marker on every path.
    wal.begin_hour()
    wal.append_hour(record)
    digest = state_digest(sage)
    wal.commit_hour(0, digest)


def drive_conditional(wal, sage, record, cheap):
    # Both branches append before the shared commit below.
    wal.begin_hour()
    if cheap:
        wal.append_hour({"kind": "cheap"})
    else:
        wal.append_hour(record)
    wal.commit_hour(0, state_digest(sage))


def publish(tmp, final, blob):
    with open(tmp, "wb") as fh:
        fh.write(blob)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, final)


class Snapshots:
    def __init__(self, directory):
        self._spare = directory / "snap.spare"

    def retire(self, stale):
        # Renaming onto the spare name publishes nothing.
        os.rename(stale, self._spare)

    def write(self, final, blob):
        tmp = final.with_name(final.name + ".tmp")
        os.rename(self._spare, tmp)
        with open(tmp, "r+b") as fh:
            fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, final)
