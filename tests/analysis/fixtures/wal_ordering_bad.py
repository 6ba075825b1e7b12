"""Known-bad fixture for the wal-ordering rule.

Seven violations: an unsynced log write, a commit with no write-ahead
append, a branch that can commit before appending, a commit marker with
a constant (stale) digest, a rename published without fsync, an unsynced
publication after a (legal) spare claim, and a rename whose destination
is a published name on one path.
"""

import os


class WalLog:
    def append(self, record):
        # Finding 1: bytes hit the handle but no _sync()/fsync() follows
        # on the return path -- a crash loses the buffered record.
        self._fh.write(encode(record))

    def abort(self):
        if self._start is None:
            return
        self._fh.seek(self._start)
        self._fh.truncate()
        self._sync()


def drive_no_append(wal, sage):
    wal.begin_hour()
    # Finding 2: a commit marker with no write-ahead record above it.
    wal.commit_hour(0, state_digest(sage))


def drive_reordered(wal, sage, record, cheap):
    wal.begin_hour()
    if not cheap:
        wal.append_hour(record)
    # Finding 3: the `cheap` branch reaches the marker without the record.
    wal.commit_hour(0, state_digest(sage))


def drive_stale_digest(wal, sage, record):
    wal.begin_hour()
    wal.append_hour(record)
    # Finding 4: a constant digest makes recovery's parity check a no-op.
    wal.commit_hour(0, 12345)


def publish(tmp, final, blob):
    with open(tmp, "wb") as fh:
        fh.write(blob)
        fh.flush()
    # Finding 5: the rename can land before the payload without fsync.
    os.replace(tmp, final)


def recycle_and_publish(spare, final, blob):
    tmp = final + ".tmp"
    os.rename(spare, tmp)  # a claim: no finding here
    with open(tmp, "r+b") as fh:
        fh.write(blob)
        fh.flush()
    # Finding 6: claiming a spare does not excuse the publication's fsync.
    os.replace(tmp, final)


def publish_maybe_tmp(tmp, final, direct):
    dest = final + ".tmp"
    if direct:
        dest = final
    # Finding 7: on the `direct` path the destination is a published name.
    os.replace(tmp, dest)
