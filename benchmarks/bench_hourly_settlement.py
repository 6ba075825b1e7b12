"""Hourly settlement throughput: ReservationTable + charge_many vs the seed.

Three hot paths of the Fig. 8 end-to-end loop, timed against faithful
reimplementations of the seed's scalar code:

* ``Sage.advance`` under heavy contention (many waiting pipelines over a
  long stream).  The baseline is the seed's allocator -- per-pipeline
  reservation *dicts* plus a per-key Python allocation filter inside window
  selection -- preserved below as :class:`LegacySage`, whose sessions are
  :class:`LegacyWindowSession`: the seed's per-key window walk and scalar
  allocation hook, which the library no longer carries.  The new platform
  keeps reservations in one pipelines x blocks ``ReservationTable`` aligned
  to the ledger store, so allocation, redistribution, settlement, and the
  window-selection filter are single NumPy passes.
* ``BlockAccountant.charge_many``: settling a whole batch of multi-block
  charges in one vectorized validate-and-commit pass, against the
  equivalent loop of per-request ``charge`` calls.
* ``ReservationTable.release`` over a contention-shaped hour: a fully
  granted table whose pipelines finish in submission order, each handing
  its holding to the pipelines still waiting.  The baseline is the
  sub-matrix ``eps[np.ix_(waiting_rows, cols)] += ...`` gather/add/scatter
  (:func:`ix_release`); the table adds one dense share vector per run of
  consecutive waiting rows as a contiguous slice.
* ``advance_batched``: the propose/settle hourly batch.  Both sides run the
  modern ReservationTable allocator; the baseline
  (:class:`PerSessionSage`) drives the seed's per-session loop where every
  attempt commits mid-hour through its own ``access.request`` -- one
  ``BlockAccountant.charge``: a store-row write plus a charge-log append --
  and reads its allocation through the seed's settle-then-read hook, while
  the batched platform stages every proposal and lands the whole hour
  through one staged-batch commit (one bulk row write).

Run as a script (``PYTHONPATH=src python benchmarks/bench_hourly_settlement.py``);
``--assert-speedup`` turns it into the CI perf gate.  Parity is always
asserted: the legacy, per-session, and batched platforms must produce
byte-identical simulations (attempt streams, ledger totals, reservations,
charge logs), and batched charges must leave the same ledger totals as
sequential ones, and the release hour must leave the table's backing
buffers byte-equal to the ``np.ix_`` form.
"""

import argparse
import copy
import sys
import time
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

import numpy as np

from benchjson import write_bench_json, write_bench_report
from repro.core.accountant import BlockAccountant
from repro.core.adaptive import AdaptiveConfig, AdaptiveSession, SessionStatus
from repro.core.platform import ReservationTable, Sage, SubmittedPipeline
from repro.dp.budget import PrivacyBudget
from repro.workload.oracle import CountStreamSource, OraclePipeline

DEFAULT_PIPELINES = 200
DEFAULT_BLOCKS = 5_000
CHARGE_WINDOW = 256  # blocks named per settlement charge
BATCHED_HOURS = 2  # hours timed for the advance_batched case


class SeedAdvanceLoop:
    """The seed's per-session advance: every waiting session resumes and
    executes its own ``access.request`` charges mid-loop -- no staging, no
    hourly bulk commit.  Mixed into the legacy baselines so they keep
    measuring the pre-propose/settle platform.

    A session here charges several attempts in one ``step()``, so the
    seed's allocation hook settled the pending attempts inside every read;
    each baseline builds its sessions with such a settle-then-read hook
    through :meth:`_session`, and counts the attempts it has settled in
    ``entry.settled_attempts`` (the platform settles each attempt on its
    turn and needs no count)."""

    def submit(self, pipeline, config=None):
        entry = SubmittedPipeline(
            pipeline=pipeline,
            session=None,
            submit_time_hours=self.clock_hours,
            table_row=self._table.add_pipeline(),
            platform=self,
        )
        entry.settled_attempts = 0
        entry.session = self._session(entry, config or AdaptiveConfig())
        self._pipelines.append(entry)
        self._waiting[entry.table_row] = entry
        return entry

    def advance(self, hours=1.0):
        new_blocks = self.ingestor.advance(hours)
        self.access.register_blocks([block.key for block in new_blocks])
        for block in new_blocks:
            self._allocate_block(block.key)
        self._grant_free_pool()
        released = []
        for entry in self._pipelines:
            if not entry.waiting:
                continue
            entry.session.resume()
            self._settle_charges(entry)
            if entry.session.status == SessionStatus.ACCEPTED:
                run = entry.session.final_run
                bundle = self.store.release(
                    name=entry.name,
                    model=run.model,
                    features=run.features,
                    validation=run.validation,
                    budget=entry.session.total_spent,
                    block_keys=entry.session.attempts[-1].window,
                    release_time_hours=self.clock_hours,
                )
                entry.bundle = bundle
                entry.release_time_hours = self.clock_hours
                released.append(bundle)
                self._waiting.pop(entry.table_row)
                self._redistribute(entry)
            elif entry.session.is_terminal:
                self._waiting.pop(entry.table_row)
                self._redistribute(entry)
        return released


class PerSessionSage(SeedAdvanceLoop, Sage):
    """Modern ReservationTable allocator driven by the seed's per-session
    charge loop -- the baseline that isolates the hourly-batch win."""

    def _session(self, entry, config):
        return AdaptiveSession(
            entry.pipeline,
            self.access,
            self.database,
            config,
            self.rng,
            row_budget_fn=lambda rows: self._settled_values(entry, rows),
            new_block_epsilon_fn=self._new_block_share,
        )

    def _settle_charges(self, entry):
        """The seed's settle: deduct every attempt not yet settled, its
        recorded window translated back to table columns."""
        rows_for_keys = self.access.accountant.rows_for_keys
        for record in entry.session.attempts[entry.settled_attempts:]:
            self._table.settle(
                entry.table_row, rows_for_keys(record.window), record.budget.epsilon
            )
        entry.settled_attempts = len(entry.session.attempts)

    def _settled_values(self, entry, rows):
        self._settle_charges(entry)
        return self._table.values(entry.table_row, rows)


# ----------------------------------------------------------------------
# The seed's dict-based allocator, preserved as the baseline under test.
# ----------------------------------------------------------------------
class LegacyWindowSession(AdaptiveSession):
    """The seed's window selection: a scalar allocation hook ``(window
    keys) -> epsilon``, asked key by key while walking the admitted blocks
    newest first until the window fills.  The hook is keyed, so this
    session translates the store rows the library hands it to keys at
    its own edge, and the window it picks back to rows."""

    def __init__(self, *args, epsilon_limit_fn, **kwargs):
        super().__init__(*args, **kwargs)
        self._epsilon_limit_fn = epsilon_limit_fn

    def _candidate_window(self, budget):
        admitted = self.access.offer_recent_blocks(
            budget, len(self.access.accountant.store)  # every admitted block
        )
        keys = self.access.accountant.keys_for_rows(admitted)
        window = []
        for row, key in zip(reversed(admitted.tolist()), reversed(keys)):
            if self._epsilon_limit_fn([key]) + 1e-12 >= budget.epsilon:
                window.append(row)
                if len(window) == self.window_blocks:
                    break
        if len(window) < self.window_blocks:
            return None
        window.reverse()
        return np.array(window, dtype=np.intp)

    def _epsilon_limit(self, rows):
        limit = min(
            self.access.max_epsilon(rows, self.delta),
            self._epsilon_limit_fn(self.access.accountant.keys_for_rows(rows)),
        )
        return min(limit, self.config.epsilon_cap)


class LegacySage(SeedAdvanceLoop, Sage):
    """Seed allocator: per-pipeline reservation dicts + scalar key filter."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._legacy_free = {}

    def _session(self, entry, config):
        entry.legacy_reservations = {}  # the table row stays aligned, unused
        return LegacyWindowSession(
            entry.pipeline,
            self.access,
            self.database,
            config,
            self.rng,
            epsilon_limit_fn=lambda window: self._reservation_limit(entry, window),
            new_block_epsilon_fn=self._new_block_share,
        )

    def _waiting_pipelines(self):
        return [p for p in self._pipelines if p.waiting]

    def _allocate_block(self, key):
        waiting = self._waiting_pipelines()
        if not waiting:
            self._legacy_free[key] = self._legacy_free.get(key, 0.0) + self.epsilon_global
            return
        share = self.epsilon_global / len(waiting)
        for entry in waiting:
            entry.legacy_reservations[key] = (
                entry.legacy_reservations.get(key, 0.0) + share
            )

    def _redistribute(self, finished):
        leftovers = {k: v for k, v in finished.legacy_reservations.items() if v > 0}
        finished.legacy_reservations = {}
        waiting = self._waiting_pipelines()
        for key, amount in leftovers.items():
            if waiting:
                share = amount / len(waiting)
                for entry in waiting:
                    entry.legacy_reservations[key] = (
                        entry.legacy_reservations.get(key, 0.0) + share
                    )
            else:
                self._legacy_free[key] = self._legacy_free.get(key, 0.0) + amount

    def _grant_free_pool(self):
        waiting = self._waiting_pipelines()
        if not waiting or not self._legacy_free:
            return
        for key, amount in list(self._legacy_free.items()):
            share = amount / len(waiting)
            for entry in waiting:
                entry.legacy_reservations[key] = (
                    entry.legacy_reservations.get(key, 0.0) + share
                )
            del self._legacy_free[key]

    def _settle_charges(self, entry):
        for record in entry.session.attempts[entry.settled_attempts:]:
            for key in record.window:
                held = entry.legacy_reservations.get(key, 0.0)
                entry.legacy_reservations[key] = max(
                    0.0, held - record.budget.epsilon
                )
        entry.settled_attempts = len(entry.session.attempts)

    def _reservation_limit(self, entry, window):
        self._settle_charges(entry)
        if not window:
            return 0.0
        return min(entry.legacy_reservations.get(key, 0.0) for key in window)


def _best_of(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


# ----------------------------------------------------------------------
# Part 1: Sage.advance under contention
# ----------------------------------------------------------------------
def build_platform(sage_cls, n_pipelines, n_blocks):
    """A stream ``n_blocks`` hours old with ``n_pipelines`` starved sessions.

    Every pipeline holds eps_g / n_pipelines on every block -- far below the
    committed epsilon_start -- so each hour every session scans the whole
    stream for an affordable window and blocks again: the worst-case (and
    steady-state heavy-traffic) shape of the Fig. 8 loop.
    """
    sage = sage_cls(CountStreamSource(1000, scale=1000), seed=0)
    sage.advance(float(n_blocks))  # blocks land with nobody waiting
    config = AdaptiveConfig(epsilon_start=0.5, epsilon_floor=0.5, max_attempts=4)
    for i in range(n_pipelines):
        sage.submit(OraclePipeline(name=f"p{i}", n_at_eps1=1e12), config)
    sage.advance(1.0)  # grant the free pool; sessions scan and starve
    return sage

def check_platform_parity():
    """Legacy and vectorized platforms must produce identical simulations."""
    outcomes = []
    for sage_cls in (LegacySage, Sage):
        sage = sage_cls(CountStreamSource(4000, scale=1000), seed=3)
        entries = [
            sage.submit(
                OraclePipeline(name=f"p{i}", n_at_eps1=complexity),
                AdaptiveConfig(max_attempts=16),
            )
            for i, complexity in enumerate((2_000.0, 10_000.0, 40_000.0, 1e9))
        ]
        for _ in range(40):
            sage.advance(1.0)
        outcomes.append(
            [
                (e.status, e.release_time_hours, len(e.session.attempts))
                for e in entries
            ]
        )
    if outcomes[0] != outcomes[1]:
        raise AssertionError(
            f"vectorized platform diverged from the legacy allocator:\n"
            f"legacy     {outcomes[0]}\nvectorized {outcomes[1]}"
        )


def bench_advance(n_pipelines, n_blocks, repeats=3):
    fast = build_platform(Sage, n_pipelines, n_blocks)
    slow = build_platform(LegacySage, n_pipelines, n_blocks)
    t_fast = _best_of(lambda: fast.advance(1.0), repeats)
    t_slow = _best_of(lambda: slow.advance(1.0), repeats)
    return t_slow, t_fast, t_slow / t_fast


# ----------------------------------------------------------------------
# Part 1b: batched propose/settle vs the seed per-session charge loop
# ----------------------------------------------------------------------
def build_charging_platform(sage_cls, n_pipelines, n_blocks, **sage_kwargs):
    """A stream where every session fires multi-block charges each hour.

    Sessions commit to a wide minimum window and an epsilon floor of ~0, so
    under contention each attempt runs at the granted allocation level and
    RETRYs (the oracle requirement is unreachable), doubling its window --
    one hour produces a burst of wide overlapping settlement charges per
    session, the write-heavy shape that separates per-attempt ledger
    commits from the hourly bulk commit.
    """
    sage = sage_cls(CountStreamSource(1000, scale=1000), seed=0, **sage_kwargs)
    sage.advance(float(n_blocks))  # blocks land with nobody waiting
    config = AdaptiveConfig(
        epsilon_start=1.0 / 16.0,
        epsilon_floor=1e-9,
        min_window_blocks=min(64, n_blocks // 4),
        max_attempts=100_000,
    )
    for i in range(n_pipelines):
        sage.submit(OraclePipeline(name=f"p{i}", n_at_eps1=1e15), config)
    return sage


def check_batched_advance_parity(n_pipelines=12, n_blocks=400, hours=3):
    """The batched hour must reproduce the per-session loop byte-for-byte."""
    outcomes = []
    for sage_cls in (PerSessionSage, Sage):
        sage = build_charging_platform(sage_cls, n_pipelines, n_blocks)
        for _ in range(hours):
            sage.advance(1.0)
        outcomes.append(
            (
                [
                    [
                        (a.attempt, a.window, a.budget.epsilon, a.outcome)
                        for a in e.session.attempts
                    ]
                    for e in sage.pipelines
                ],
                sage.access.accountant.store.totals.tobytes(),
                sage.access.accountant.store.live.tobytes(),
                sage.reservation_table.matrix.tobytes(),
                [
                    (r.budget.epsilon, r.block_keys, r.label)
                    for r in sage.access.accountant.charges
                ],
            )
        )
    if outcomes[0] != outcomes[1]:
        raise AssertionError(
            "batched propose/settle advance diverged from the per-session loop"
        )


def bench_advance_batched(n_pipelines, n_blocks, hours=BATCHED_HOURS, repeats=2):
    """Time the charging burst end-to-end, fresh platform per repeat (the
    hour mutates the stream, so the measured loop cannot be replayed)."""

    def timed(sage_cls):
        best = float("inf")
        for _ in range(repeats):
            sage = build_charging_platform(sage_cls, n_pipelines, n_blocks)
            start = time.perf_counter()
            for _ in range(hours):
                sage.advance(1.0)
            best = min(best, time.perf_counter() - start)
        return best

    t_slow = timed(PerSessionSage)
    t_fast = timed(Sage)
    return t_slow, t_fast, t_slow / t_fast


# ----------------------------------------------------------------------
# Part 1c: ReservationTable.release vs the np.ix_ scatter
# ----------------------------------------------------------------------
def ix_release(table, row, waiting_rows):
    """The sub-matrix gather/add/scatter form of ``release``."""
    eps, free = table._eps, table._free
    held = eps[row, : table.n_blocks]
    cols = np.nonzero(held > 0.0)[0]
    if cols.size:
        if len(waiting_rows):
            eps[np.ix_(waiting_rows, cols)] += held[cols] / len(waiting_rows)
        else:
            free[cols] += held[cols]
        held[cols] = 0.0


def build_release_table(n_pipelines, n_blocks):
    """A fully granted table: every block's epsilon lands in the free pool
    (nobody waits yet), then the pool goes evenly to every pipeline."""
    table = ReservationTable()
    for _ in range(n_pipelines):
        table.add_pipeline()
    for col in range(n_blocks):
        table.add_block()
        table.allocate(col, 1.0, np.array([], dtype=np.intp))
    table.grant_free(np.arange(n_pipelines, dtype=np.intp))
    return table


def release_hour(table, release):
    """Every pipeline finishes in submission order; each release goes to
    the pipelines after it (one run of consecutive waiting rows)."""
    n_pipelines = table.n_pipelines
    for row in range(n_pipelines):
        release(table, row, np.arange(row + 1, n_pipelines, dtype=np.intp))


def bench_release(n_pipelines, n_blocks, repeats=7):
    """Time the release hour both ways on copies of one table, alternating
    the two forms repeat by repeat (a burst of machine noise then hits
    both), and assert they leave byte-equal backing buffers."""
    base = build_release_table(n_pipelines, n_blocks)
    forms = {"ix": ix_release, "slices": ReservationTable.release}
    best = dict.fromkeys(forms, float("inf"))
    finished = {}
    for _ in range(repeats):
        for name, release in forms.items():
            table = copy.deepcopy(base)
            start = time.perf_counter()
            release_hour(table, release)
            best[name] = min(best[name], time.perf_counter() - start)
            finished[name] = table
    fast, slow = finished["slices"], finished["ix"]
    if (fast._eps.tobytes(), fast._free.tobytes()) != (
        slow._eps.tobytes(),
        slow._free.tobytes(),
    ):
        raise AssertionError("ReservationTable.release diverged from the np.ix_ form")
    return best["ix"], best["slices"], best["ix"] / best["slices"]


# ----------------------------------------------------------------------
# Part 2: charge_many vs sequential charge
# ----------------------------------------------------------------------
def build_accountant(n_blocks):
    acc = BlockAccountant(1.0, 1e-6)
    acc.register_blocks(range(n_blocks))
    return acc


def settlement_requests(n_requests, n_blocks, window=CHARGE_WINDOW):
    """One simulated hour of settlements: overlapping recent-block windows."""
    window = min(window, n_blocks)
    budget = PrivacyBudget(0.5 / n_requests, 1e-9 / n_requests)
    requests = []
    for j in range(n_requests):
        newest = n_blocks - 1 - (j % (n_blocks - window + 1))
        keys = list(range(newest - window + 1, newest + 1))
        requests.append((keys, budget, f"settle-{j}"))
    return requests


def check_charge_parity(n_requests, n_blocks):
    requests = settlement_requests(n_requests, n_blocks)
    batched, sequential = build_accountant(n_blocks), build_accountant(n_blocks)
    batched.charge_many(requests)
    for keys, budget, label in requests:
        sequential.charge(keys, budget, label=label)
    if not np.array_equal(batched.store.totals, sequential.store.totals):
        raise AssertionError("charge_many totals diverged from sequential charges")


def bench_charge_many(n_requests, n_blocks, repeats=3):
    requests = settlement_requests(n_requests, n_blocks)

    def run_batched():
        build_accountant(n_blocks).charge_many(requests)

    def run_sequential():
        acc = build_accountant(n_blocks)
        for keys, budget, label in requests:
            acc.charge(keys, budget, label=label)

    # Subtract the shared accountant-construction cost from both sides.
    t_build = _best_of(lambda: build_accountant(n_blocks), repeats)
    t_fast = max(1e-9, _best_of(run_batched, repeats) - t_build)
    t_slow = max(1e-9, _best_of(run_sequential, repeats) - t_build)
    return t_slow, t_fast, t_slow / t_fast


# ----------------------------------------------------------------------
def run(
    n_pipelines,
    n_blocks,
    assert_speedup=0.0,
    assert_batched_speedup=0.0,
    assert_release_speedup=0.0,
):
    check_platform_parity()
    check_batched_advance_parity()
    check_charge_parity(min(n_pipelines, 64), n_blocks)

    cases = []
    t_slow, t_fast, speedup = bench_advance(n_pipelines, n_blocks)
    cases.append(
        write_bench_json(
            "hourly_settlement_advance",
            {"pipelines": n_pipelines, "blocks": n_blocks},
            t_slow * 1e3,
            t_fast * 1e3,
            bench="hourly_settlement",
        )
    )
    if assert_speedup and speedup < assert_speedup:
        raise AssertionError(
            f"Sage.advance speedup {speedup:.1f}x at {n_pipelines} pipelines x "
            f"{n_blocks} blocks is below the required {assert_speedup}x"
        )

    b_slow, b_fast, b_speedup = bench_advance_batched(n_pipelines, n_blocks)
    cases.append(
        write_bench_json(
            "hourly_settlement_batched",
            {"pipelines": n_pipelines, "blocks": n_blocks, "hours": BATCHED_HOURS},
            b_slow * 1e3,
            b_fast * 1e3,
            bench="hourly_settlement",
        )
    )
    if assert_batched_speedup and b_speedup < assert_batched_speedup:
        raise AssertionError(
            f"batched advance speedup {b_speedup:.2f}x at {n_pipelines} "
            f"pipelines x {n_blocks} blocks is below the required "
            f"{assert_batched_speedup}x"
        )

    r_slow, r_fast, r_speedup = bench_release(n_pipelines, n_blocks)
    cases.append(
        write_bench_json(
            "hourly_settlement_release",
            {"pipelines": n_pipelines, "blocks": n_blocks},
            r_slow * 1e3,
            r_fast * 1e3,
            bench="hourly_settlement",
        )
    )
    if assert_release_speedup and r_speedup < assert_release_speedup:
        raise AssertionError(
            f"release hour speedup {r_speedup:.1f}x at {n_pipelines} pipelines x "
            f"{n_blocks} blocks is below the required {assert_release_speedup}x"
        )

    c_slow, c_fast, c_speedup = bench_charge_many(n_pipelines, n_blocks)
    cases.append(
        write_bench_json(
            "hourly_settlement_charge_many",
            {"requests": n_pipelines, "blocks": n_blocks, "window": CHARGE_WINDOW},
            c_slow * 1e3,
            c_fast * 1e3,
            bench="hourly_settlement",
        )
    )
    # Both paths translate every named key to its store row in Python,
    # which bounds charge_many's win, so its gate is looser than the
    # headline advance gate.
    charge_gate = min(assert_speedup, 2.0)
    if assert_speedup and c_speedup < charge_gate:
        raise AssertionError(
            f"charge_many speedup {c_speedup:.1f}x is below the required "
            f"{charge_gate}x"
        )
    return write_bench_report(
        "hourly_settlement",
        "hourly settlement: vectorized vs seed scalar paths "
        f"({n_pipelines} pipelines x {n_blocks} blocks, best of 3; "
        "release best of 7)",
        cases,
    )


def test_settlement_speedup():
    """CI smoke: vectorized settlement must beat the seed loop at small size."""
    check_platform_parity()
    check_batched_advance_parity()
    check_charge_parity(40, 800)
    t_slow, t_fast, speedup = bench_advance(40, 800)
    assert speedup >= 3.0, f"only {speedup:.1f}x (slow {t_slow:.4f}s fast {t_fast:.4f}s)"
    bench_release(40, 800)  # asserts byte parity with the np.ix_ form


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pipelines", type=int, default=DEFAULT_PIPELINES)
    parser.add_argument("--blocks", type=int, default=DEFAULT_BLOCKS)
    parser.add_argument(
        "--assert-speedup",
        type=float,
        default=0.0,
        help="fail unless Sage.advance beats the legacy allocator by this factor",
    )
    parser.add_argument(
        "--assert-batched-speedup",
        type=float,
        default=0.0,
        help="fail unless the batched propose/settle hour beats the seed "
        "per-session charge loop by this factor",
    )
    parser.add_argument(
        "--assert-release-speedup",
        type=float,
        default=0.0,
        help="fail unless the release hour's row-slice adds beat the np.ix_ "
        "scatter by this factor",
    )
    args = parser.parse_args()
    print(
        run(
            args.pipelines,
            args.blocks,
            assert_speedup=args.assert_speedup,
            assert_batched_speedup=args.assert_batched_speedup,
            assert_release_speedup=args.assert_release_speedup,
        )
    )


if __name__ == "__main__":
    main()
