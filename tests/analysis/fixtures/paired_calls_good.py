"""Fixed paired-calls fixture: every opener closes on every path."""


def drive(acc, requests):
    acc.begin_staging()
    try:
        for keys, budget in requests:
            acc.stage_charge(keys, budget)
    finally:
        acc.commit_staged()


def peek_hour(wal, sessions, digest):
    wal.begin_hour()
    try:
        results = [s.propose_peek() for s in sessions]
    except BaseException:
        wal.abort_hour()
        raise
    wal.commit_hour(len(results), digest)
    return results


def durable_hour(wal, record, digest):
    wal.begin_hour()
    try:
        wal.append_hour(record)
        wal.commit_hour(record["hour_index"], digest)
    finally:
        if wal.hour_open:
            wal.abort_hour()
