"""The per-request drive: the parity oracle for the staged hour.

``Sage.advance`` always stages: every proposal is validated against the
hour's open batch, and the hour commits through one staged commit
(:func:`count_charge_paths` counts the entry points).
The reference it must match byte for byte charges each granted proposal
at once through ``SageAccessControl.request``, with no batch open and
therefore no shared scans.  That drive lives only here, as a patch of the
access layer, so ``src/`` carries no option for it:

    with per_request_drive():
        sage.advance(1.0)

Inside the block ``SageAccessControl.begin_staging`` opens nothing and
``stage_request`` charges the proposal's keys through ``request``; the
real ``commit_staged`` then finds nothing to commit.  On a clean exit the
guard asserts that no accountant opened a staged batch and that
``request_many`` was never called, so a parity test cannot silently
compare the staged drive with itself.  Use it on volatile platforms
only: a durable hour would write ahead an empty request batch.

The platform skips a waiting session for the hour when its blocked
verdict proves its window search would find nothing: the hour pass
(``Sage._decide_parked``) proves blocked some of the sessions parked when
the hour opens, and the drive does not visit those;
``AdaptiveSession.provably_blocked`` decides the rest at their turns.
:func:`forced_poll_drive` is the reference for that skip: inside it the
pass decides nothing and the verdict always answers False, so every
waiting session is visited and polled through ``propose()`` every hour,
as before the verdict existed.  Like the per-request drive it is a
patch, not an option:

    with forced_poll_drive() as seen:
        sage.advance(1.0)
    assert seen["verdicts"]  # the drive did consult the (patched) verdict

While an hour's batch is open the accountant memoizes its whole-stream
admit scans per floor budget, and every successful stage re-decides just
the rows it staged in that memo.  :func:`fresh_scan_drive` is the
reference for that upkeep: inside it the memo is emptied before every
scan read, so each read rescans the whole stream from the effective
totals:

    with fresh_scan_drive() as seen:
        sage.advance(1.0)
    assert seen["scans"]  # the drive did read through the (patched) scan

:func:`arrival_schedule` builds the Fig. 8-style arrivals those parity
drives submit, and :func:`durable_drive` runs one such schedule on a
durable platform, through a rolled-back hour and a ``recover()``, inside
a reference patch, returning every artifact the two drives must share.

The accountant keeps no per-block objects: its store rows and its charge
log are the whole state.  Two more references check that state from the
outside:

* :func:`block_histories` rebuilds each block's charge history from the
  charge log;
* :class:`PerLedgerReference` is a small accountant that keeps one filter,
  history and totals row per block and decides one block at a time, each
  through its filter's ``admits_batch`` / ``max_epsilon_batch`` /
  ``loss_bound_batch`` on that block's own one-row totals.

The filters' rules themselves are checked against charge histories by the
independent oracle in ``composition_oracle.py``.  The filter tests ask a
filter about one block's history through :func:`history_row` (the
block's totals row, accumulated as the store does) and the
``history_*`` one-row decisions, and compare many rows with the oracle
through :func:`assert_rows_match_oracle`.
"""

from contextlib import contextmanager, nullcontext
from unittest import mock

import numpy as np

from repro.core import durability, faults
from repro.core.access_control import SageAccessControl
from repro.core.accountant import BlockAccountant
from repro.core.adaptive import AdaptiveSession
from repro.core.platform import Sage, _HourPass
from repro.dp.budget import PrivacyBudget, ZERO_BUDGET
from repro.errors import BlockRetiredError, BudgetExceededError
from repro.workload import (
    CountStreamSource,
    GammaArrivals,
    OraclePipeline,
    PowerLawComplexity,
)

__all__ = [
    "PerLedgerReference",
    "arrival_schedule",
    "assert_rows_match_oracle",
    "block_histories",
    "durable_drive",
    "forced_poll_drive",
    "fresh_scan_drive",
    "history_admits",
    "history_loss_bound",
    "history_max_epsilon",
    "history_row",
    "per_request_drive",
    "stage_keys",
]


def stage_keys(target, keys, budget, label="", **kwargs):
    """Stage a charge named by block keys on an accountant or an access
    layer, both of which stage store rows: the test's own key-to-row
    edge."""
    keys = list(keys)
    if isinstance(target, SageAccessControl):
        rows = target.accountant.rows_for_keys(keys)
        return target.stage_request(rows, keys, budget, label, **kwargs)
    return target.stage_charge(target.rows_for_keys(keys), keys, budget, label)


@contextmanager
def per_request_drive():
    """Charge every proposal made inside the block immediately, unstaged."""
    seen = {"batches_opened": 0, "request_many_calls": 0}
    open_batch = BlockAccountant.begin_staging
    settle_batch = SageAccessControl.request_many

    def counting_open(self):
        seen["batches_opened"] += 1
        return open_batch(self)

    def counting_settle(self, *args, **kwargs):
        seen["request_many_calls"] += 1
        return settle_batch(self, *args, **kwargs)

    def charge_now(self, rows, keys, budget, label="", principal=None):
        # The keyed edge: ``request`` translates the proposal's keys back
        # to the rows the staged drive charges.
        self.request(keys, budget, label=label, principal=principal)

    with mock.patch.object(
        SageAccessControl, "begin_staging", lambda self: None
    ), mock.patch.object(
        SageAccessControl, "stage_request", charge_now
    ), mock.patch.object(
        SageAccessControl, "request_many", counting_settle
    ), mock.patch.object(
        BlockAccountant, "begin_staging", counting_open
    ):
        yield
    assert seen == {"batches_opened": 0, "request_many_calls": 0}, (
        f"the per-request drive ran staged: {seen}"
    )


@contextmanager
def forced_poll_drive():
    """Poll every waiting session every hour: inside the block the hour
    pass decides no session and the blocked-session verdict answers
    False, so the drive visits every session-hour and each asks the
    verdict.  Yields live counts of the verdicts asked (``verdicts``) and
    of the session-hours driven (``sessions``)."""
    seen = {"verdicts": 0, "sessions": 0}
    drive_session = Sage._drive_session

    def no_pass(self, entries):
        return _HourPass([], set())

    def never_blocked(self):
        seen["verdicts"] += 1
        return False

    def counting_drive(self, entry):
        seen["sessions"] += 1
        return drive_session(self, entry)

    with mock.patch.object(
        Sage, "_decide_parked", no_pass
    ), mock.patch.object(
        Sage, "_drive_session", counting_drive
    ), mock.patch.object(AdaptiveSession, "provably_blocked", never_blocked):
        yield seen


@contextmanager
def fresh_scan_drive():
    """Rescan the whole stream on every admit-scan read: the open batch's
    scan memo is emptied before each ``_live_admit_rows`` call.  Yields
    live counts of the reads (``scans``)."""
    seen = {"scans": 0}
    scan = BlockAccountant._live_admit_rows

    def fresh_scan(self, floor):
        seen["scans"] += 1
        if self._staged is not None:
            self._staged.scan_memo.clear()
        return scan(self, floor)

    with mock.patch.object(BlockAccountant, "_live_admit_rows", fresh_scan):
        yield seen


def arrival_schedule(hours, rate, seed):
    """Fig. 8-style arrivals: Gamma(shape 2) gaps at ``rate`` per hour and
    power-law oracle pipelines; ``schedule[h]`` lists the pipelines
    submitted before the h-th hour."""
    rng = np.random.default_rng(seed)
    arrivals, complexity = GammaArrivals(rate, 2.0), PowerLawComplexity()
    schedule = [[] for _ in range(hours)]
    clock, count = 0.0, 0
    while True:
        clock += arrivals.sample_interarrival(rng)
        hour = int(np.ceil(clock))
        if hour >= hours:
            return schedule
        schedule[hour].append(
            OraclePipeline(name=f"p{count}", n_at_eps1=float(complexity.sample(rng)))
        )
        count += 1


def durable_drive(
    wal_dir,
    filter_factory,
    schedule,
    config,
    rollback_hour,
    recover_hour,
    reference=nullcontext,
):
    """Drive ``schedule`` (``schedule[h]`` lists the pipelines submitted
    before hour ``h``) on a durable platform inside ``reference()``.

    Hour ``rollback_hour`` first fails mid-drive, rolls back and is run
    again (``None``: no hour is made to fail, but an hour the reference
    fails with ``InjectedFault`` is run again the same way); before hour
    ``recover_hour`` the platform is rebuilt from its
    WAL directory.  Returns the state digest, the ``charge.wal`` bytes,
    every pipeline's attempt records, the released bundles, the number of
    ``propose_peek`` calls and what ``reference()`` yielded.
    """

    def build():
        return Sage(
            CountStreamSource(16_000, scale=1000),
            seed=3,
            filter_factory=filter_factory,
            wal_dir=wal_dir,
            snapshot_every=8,
        )

    sage, submitted, released = build(), [], []
    peeks = {"calls": 0}
    peek = AdaptiveSession.propose_peek

    def counting_peek(self):
        peeks["calls"] += 1
        return peek(self)

    with reference() as seen, mock.patch.object(
        AdaptiveSession, "propose_peek", counting_peek
    ):
        for hour, arrivals in enumerate(schedule):
            if hour == recover_hour:
                digest = durability.state_digest(sage)
                sage.close()
                sage = build()
                sage.recover(submitted)
                assert durability.state_digest(sage) == digest
            for pipeline in arrivals:
                sage.submit(pipeline, config)
                submitted.append((pipeline, config))
            if hour == rollback_hour:
                with faults.armed_error("settle.mid_session", skip=1):
                    try:
                        sage.advance(1.0)
                    except faults.InjectedFault:
                        pass
                    else:
                        raise AssertionError("the armed fault never fired")
            try:
                released.extend(sage.advance(1.0))
            except faults.InjectedFault:
                released.extend(sage.advance(1.0))
        sage.close()
    return {
        "digest": durability.state_digest(sage),
        "wal": durability.wal_path(wal_dir).read_bytes(),
        "attempts": [
            (entry.name, entry.status, entry.release_time_hours, entry.session.attempts)
            for entry in sage.pipelines
        ],
        "released": [
            (b.name, b.version, b.budget, b.block_keys, b.release_time_hours)
            for b in released
        ],
        "peeks": peeks["calls"],
        "seen": seen,
    }


def block_histories(accountant):
    """Every registered block's charge history, in commit order, rebuilt
    from the accountant's append-only charge log."""
    histories = {key: [] for key in accountant.block_keys}
    for record in accountant.charge_log:
        for key in record.block_keys:
            histories[key].append(record.budget)
    return histories


def history_row(filt, history, row=None):
    """One block's ``(1, totals_width)`` totals row: each charge's
    ``contribution`` added in order, as the accountant's store accumulates
    it.  Given ``row``, the charges are added to it in place."""
    if row is None:
        row = np.zeros((1, filt.totals_width))
    for budget in history:
        row += filt.contribution(budget)
    return row


def history_admits(filt, history, candidate):
    """``filt``'s decision on ``candidate`` after ``history``, as a one-row
    batch."""
    return bool(filt.admits_batch(history_row(filt, history), candidate)[0])


def history_max_epsilon(filt, history, delta):
    return filt.max_epsilon_batch(history_row(filt, history), delta)


def history_loss_bound(filt, history):
    if not history:
        return ZERO_BUDGET
    eps, delta = filt.loss_bound_batch(history_row(filt, history))
    return PrivacyBudget(float(eps[0]), float(delta[0]))


def assert_rows_match_oracle(filt, rule, histories, candidate):
    """``admits_batch`` over the histories' rows decides each row as the
    history oracle ``rule`` does, up to its threshold band."""
    matrix = np.concatenate([history_row(filt, h) for h in histories])
    for history, admitted in zip(histories, filt.admits_batch(matrix, candidate)):
        assert bool(admitted) == rule.admits(history, candidate) or rule.near_threshold(
            history, candidate
        ), f"admits_batch says {bool(admitted)} for {candidate} after {history}"


class PerLedgerReference:
    """Block composition straight from per-block filters: blocks
    ``0 .. n_blocks - 1``, each with its own filter, charge history and
    running totals row, decided one block at a time."""

    def __init__(self, factory, n_blocks, epsilon=1.0, delta=1e-6):
        self.filters = [factory(epsilon, delta) for _ in range(n_blocks)]
        self.histories = [[] for _ in range(n_blocks)]
        self.rows = [history_row(f, []) for f in self.filters]
        self.live = [True] * n_blocks
        self.charges = []
        self.retirement_budget = PrivacyBudget(epsilon / 1000.0, 0.0)

    @property
    def block_keys(self):
        return list(range(len(self.filters)))

    def _admits(self, key, budget):
        return bool(self.filters[key].admits_batch(self.rows[key], budget)[0])

    def is_retired(self, key):
        return not self._admits(key, self.retirement_budget)

    def charge_many(self, requests):
        """Apply the ``(keys, budget, label)`` batch one request at a time;
        on the first refusal, undo every earlier request of the batch and
        raise."""
        snapshot = [(len(h), r.copy()) for h, r in zip(self.histories, self.rows)]
        try:
            for keys, budget, _ in requests:
                for key in keys:
                    if not self._admits(key, budget):
                        if self.is_retired(key):
                            raise BlockRetiredError(
                                f"block {key!r} is retired", block_id=key
                            )
                        raise BudgetExceededError(
                            f"block {key!r} cannot absorb {budget}", block_id=key
                        )
                for key in keys:
                    self.histories[key].append(budget)
                    history_row(self.filters[key], [budget], self.rows[key])
        except (BlockRetiredError, BudgetExceededError):
            for key, (n_history, row) in enumerate(snapshot):
                del self.histories[key][n_history:]
                self.rows[key] = row
            raise
        self.charges.extend(
            (budget.epsilon, budget.delta, tuple(keys), label)
            for keys, budget, label in requests
        )

    def charge(self, keys, budget, label=""):
        self.charge_many([(list(keys), budget, label)])

    def usable_blocks(self, floor):
        """Blocks admitting ``floor``.  Unlike the accountant, which
        retires a block in the commit that exhausts it, this reference
        persists retirement lazily, here: compare live masks after a scan
        on both sides."""
        for key in self.block_keys:
            if self.live[key] and self.is_retired(key):
                self.live[key] = False
        return [k for k in self.block_keys if self.live[k] and self._admits(k, floor)]

    def admits_keys(self, keys, budget):
        return np.array([self._admits(k, budget) for k in keys], dtype=bool)

    def max_epsilon(self, keys, delta):
        return min(
            self.filters[k].max_epsilon_batch(self.rows[k], delta) for k in keys
        )

    def loss_bound(self, key):
        return history_loss_bound(self.filters[key], self.histories[key])

    def stream_loss_bound(self):
        worst_eps = worst_delta = 0.0
        for key in self.block_keys:
            bound = self.loss_bound(key)
            worst_eps = max(worst_eps, bound.epsilon)
            worst_delta = max(worst_delta, bound.delta)
        return PrivacyBudget(worst_eps, worst_delta)

    def fingerprint(self):
        """The state an accountant's ``(store totals, live mask, charge
        counts, charge log)`` must match byte for byte."""
        return (
            np.concatenate(self.rows).tobytes(),
            np.array(self.live, dtype=bool).tobytes(),
            np.array([len(h) for h in self.histories], dtype=np.int64).tobytes(),
            list(self.charges),
        )


def count_charge_paths(sage):
    """Wrap every charge entry point of ``sage``'s stream: returns live
    counts of per-request charges (``per_request``) and of staged commits
    that landed charges (``commits``)."""
    counts = {"per_request": 0, "commits": 0}
    accountant = sage.access.accountant

    def per_request(fn):
        def wrapped(*args, **kwargs):
            counts["per_request"] += 1
            return fn(*args, **kwargs)

        return wrapped

    for owner, name in (
        (sage.access, "request"),
        (sage.access, "request_many"),
        (accountant, "charge"),
        (accountant, "charge_many"),
    ):
        setattr(owner, name, per_request(getattr(owner, name)))
    commit = accountant.commit_staged

    def counting_commit():
        records = commit()
        counts["commits"] += bool(records)
        return records

    accountant.commit_staged = counting_commit
    return counts
