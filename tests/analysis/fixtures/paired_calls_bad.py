"""Known-bad paired-calls fixture: opened batches that cannot always close."""


def drive_never_closes(acc, requests):
    acc.begin_staging()
    for keys, budget in requests:
        acc.stage_charge(keys, budget)
    # no commit/abort anywhere: the overlay stays open forever


def drive_closer_outside_finally(acc, requests):
    acc.begin_staging()
    for keys, budget in requests:
        acc.stage_charge(keys, budget)  # a raise here leaks the batch
    acc.commit_staged()


def hour_commit_skipped_when_a_peek_raises(wal, sessions, digest):
    wal.begin_hour()
    results = [s.propose_peek() for s in sessions]
    wal.commit_hour(len(results), digest)  # skipped whenever a peek raises
    return results


def hour_never_closes(wal, record):
    wal.begin_hour()
    wal.append_hour(record)
    # no commit/abort: the next begin_hour refuses and the partial hour
    # stays as the log's tail


def hour_closer_outside_finally(wal, record, digest):
    wal.begin_hour()
    wal.append_hour(record)  # a raise here leaves the hour open
    wal.commit_hour(record["hour_index"], digest)
