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
``stage_request`` charges through ``request``; the real ``commit_staged``
then finds nothing to commit.  On a clean exit the guard asserts that no
accountant opened a staged batch and that ``request_many`` was never
called, so a parity test cannot silently compare the staged drive with
itself.  Use it on volatile platforms only: a durable hour would write
ahead an empty request batch.

The platform skips a waiting session for the hour when
``AdaptiveSession.provably_blocked`` proves its window search would find
nothing.  :func:`forced_poll_drive` is the reference for that skip: inside
it the verdict always answers False, so every waiting session is polled
through ``propose()`` every hour, as before the verdict existed.  Like the
per-request drive it is a patch, not an option:

    with forced_poll_drive() as seen:
        sage.advance(1.0)
    assert seen["verdicts"]  # the drive did consult the (patched) verdict

:func:`arrival_schedule` builds the Fig. 8-style arrivals those parity
drives submit.

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

from contextlib import contextmanager
from unittest import mock

import numpy as np

from repro.core.access_control import SageAccessControl
from repro.core.accountant import BlockAccountant
from repro.core.adaptive import AdaptiveSession
from repro.dp.budget import PrivacyBudget, ZERO_BUDGET
from repro.errors import BlockRetiredError, BudgetExceededError
from repro.workload import GammaArrivals, OraclePipeline, PowerLawComplexity

__all__ = [
    "PerLedgerReference",
    "arrival_schedule",
    "assert_rows_match_oracle",
    "block_histories",
    "forced_poll_drive",
    "history_admits",
    "history_loss_bound",
    "history_max_epsilon",
    "history_row",
    "per_request_drive",
]


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

    def charge_now(self, keys, budget, label="", principal=None):
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
    """Poll every waiting session every hour: the blocked-session verdict
    answers False inside the block.  Yields live counts of the verdicts
    asked (``verdicts``)."""
    seen = {"verdicts": 0}

    def never_blocked(self):
        seen["verdicts"] += 1
        return False

    with mock.patch.object(AdaptiveSession, "provably_blocked", never_blocked):
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
        """Blocks admitting ``floor``; like the accountant's scans, this
        persists every retirement it finds."""
        for key in self.block_keys:
            if self.live[key] and self.is_retired(key):
                self.live[key] = False
        return [k for k in self.block_keys if self.live[k] and self._admits(k, floor)]

    def usable_blocks_tail(self, floor, count):
        return self.usable_blocks(floor)[-count:]

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
