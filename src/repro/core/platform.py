"""The Sage platform: streams in, validated DP models out (Fig. 2).

Ties every core piece together for one sensitive stream:

* a :class:`~repro.data.database.StreamIngestor` lands new blocks in the
  Growing Database;
* :class:`~repro.core.access_control.SageAccessControl` tracks per-block
  privacy loss under the global (eps_g, delta_g) policy;
* submitted pipelines run inside stateful
  :class:`~repro.core.adaptive.AdaptiveSession` escalation loops;
* newly arrived blocks' budget is divided evenly among waiting pipelines
  (the conserve allocation of §3.3), and an accepted pipeline's unused
  reservations are returned to the pool for the others;
* accepted bundles are pushed to the wide-access
  :class:`~repro.core.model_store.ModelFeatureStore`.

``advance(hours)`` is the simulation clock: ingest, allocate, drive
sessions, release.  Real deployments would drive the same calls from wall
time.

Propose/settle hourly batch
---------------------------
Sessions never execute their own privacy charges.  Each hour the platform
drives every waiting session through the two-phase protocol of
:mod:`repro.core.adaptive`: ``session.propose()`` yields a
:class:`~repro.core.adaptive.ChargeProposal` (window, budget, deferred
escalation state), the platform validates it against the hour's running
staged batch (``SageAccessControl.stage_request`` -- committed charges plus
everything staged earlier this hour), assembles the window, and feeds the
session a :class:`~repro.core.adaptive.ChargeDecision`; a granted decision
runs the pipeline and possibly escalates into another proposal, a denial
(later proposals contending with earlier staged charges) blocks the session
on NEED_DATA with its escalation state untouched.  When every session has
finished or blocked, the entire hour commits through **one**
``SageAccessControl.commit_staged`` call: one bulk write of the staged
rows.  Staging accumulated each charge with exactly the float operations
of a sequential ``charge``, so the hour is observationally identical to
the per-session sequential charges and needs no second validation.  WAL
replay lands the recorded batch through ``charge_many``, which runs the
same staging and landing bodies over a batch of its own.  Each granted attempt's reservation deduction
settles right after its ``complete()``, on the proposal's own store rows,
so a session reads its allocation through ``row_budget_fn`` as a pure
read of the reservation table.

From the admit scan to that settle a window is the read-only row array
the scan returned; the proposal builds its keys once, for what is
recorded (the staged request, hence the WAL and the charge log, and the
attempt record) and for ``database.assemble``.  Only WAL replay turns
recorded keys back into rows.

There is no other drive.  Every stream can stage, because every filter
decides from its totals rows alone.  Charging each proposal immediately
through ``request`` would produce float-identical trajectories; the test
suite keeps that drive as its parity oracle.

One transactional hour
----------------------
Every hour has one shape: capture the pre-hour state, open the hour
(ingest, register, allocate), begin staging, drive, commit.  An exception
anywhere before the commit -- ``KeyboardInterrupt`` and ``SystemExit``
included -- aborts the staged batch and restores the captured state, so a
failed hour leaves no trace -- no charges, reservations, session progress,
releases, ingest, clock or RNG movement -- and a retried hour re-runs the
very same stream slice.  The one exception is a simulated process death
(:class:`~repro.core.faults.InjectedCrash`) on a durable platform, which
freezes the state as-is for recovery to rebuild from disk.  A durable
platform (``wal_dir``) runs the same hour and additionally writes it ahead
into the charge log before the commit, then marks it committed with a
state digest; a volatile platform is the durable one without the log.

Shared scans
------------
Block composition makes every admit decision per-block arithmetic on
running totals, so inside one staged hour the only thing that can change a
session's proposal is a charge staged earlier in that hour.  The
accountant memoizes whole-stream admit scans per floor budget for as long
as the hour's staged batch is open; a stage re-decides only the rows it
staged, and the row set cannot move while the batch is open.  A
queue of blocked sessions at one floor shares a single scan, and every
decision is identical to rescanning.  Sessions are driven serially in
submission order (they share one RNG stream).

Blocked sessions
----------------
Past the knee of Fig. 8 most waiting sessions are parked in NEED_DATA,
and a window search (``propose_peek``) costs up to two scans, budget
builds and an allocation-rate read over every pipeline.  Before
a session's first proposal of the hour the drive settles its blocked
verdict, which is True when fewer than ``window_blocks`` store rows both
admit the session's lowest attemptable epsilon and hold that epsilon in
its reservation row.  Every built-in filter admits at least the same rows
at a lower epsilon (the monotonicity clause of the
:class:`~repro.core.filters.PrivacyFilter` contract), so then no window
the search could try exists, and the session ends the hour in NEED_DATA
without a proposal -- exactly the state ``wake()`` followed by
``propose() -> None`` leaves.

The verdict's definition is the session's one-row read,
:meth:`~repro.core.adaptive.AdaptiveSession.provably_blocked`.  Most
sessions of a backlog are parked from one hour to the next, so the hour
pass (:meth:`Sage._decide_parked`) proves blocked, at once, the sessions
parked when the hour opens: one ``admit_rows`` read and one reservation
gather per floor budget, compared with the verdict's own floats.  It
records only the proofs, and the drive skips those sessions with no call
at all (no ``session.drive`` span, no ``settle.mid_session`` trip;
``sage_sessions_parked_total`` counts the skips): the turn would only run
``wake()`` and set NEED_DATA again.  A proof stands for the rest of the
hour, because the count it made can only fall before the session's turn:

* a stage only adds spend, and admission is monotone in spend (the
  spend clause of the :class:`~repro.core.filters.PrivacyFilter`
  contract), so the admitted set only shrinks;
* the session's reservation row moves only through a release, and a
  termination's ``_redistribute`` runs the pass again over its parked
  sessions not yet driven;
* status, attempts, epsilon, delta and window size move only on the
  session's own turn.

Every other session (submitted since the last hour, not proven by the
pass, or re-decided as not blocked after a release) is visited and asks
``provably_blocked`` once itself.  Were a filter to break the spend
clause, a skipped session would only wait an hour longer: a skipped
session stages nothing, so no charge can exceed a budget.  The pass and
the verdict are pure reads, so the skip changes no decision, digest or
WAL byte; the test suite's forced-poll drive, which turns the pass off
and visits every session, is its parity reference.

Waiting index
-------------
The platform keeps its waiting (non-terminal) entries in ``_waiting``, a
dict from table row -- which is also the submission position -- to
entry, in submission order.  ``submit`` adds an entry; the drive and the
WAL replay drop one at its terminal transition, just before its leftovers
are redistributed; the hour rollback restores the captured index, and a
snapshot restore rebuilds it from the restored statuses.  The waiting-set
size (the new-block share), the waiting rows of every allocation and
redistribution, the drive, the pre-hour capture and ``run_until_quiet``
therefore cost O(waiting pipelines), not O(every pipeline ever
submitted), and visit entries in the order a full scan would.

Reservation table
-----------------
Per-pipeline epsilon reservations live in one contiguous
:class:`ReservationTable`: a pipelines x blocks float64 matrix whose rows
are pipelines (in submission order) and whose columns are aligned to the
stream accountant's :class:`~repro.core.accountant.LedgerStore` rows (i.e.
block registration order: a scan's row array indexes both).  Hourly
allocation, free-pool grants, redistribution of a finished pipeline's
leftovers, and settlement of a granted attempt on its proposal's rows are
each a single NumPy row/column operation (a redistribution: one slice add
per run of consecutive waiting rows) instead of O(pipelines x blocks)
dict loops, and the allocation check during window selection reaches the
window scan (``offer_recent_blocks``) as a vectorized ``row_filter``.
"""

from __future__ import annotations

import bisect
import operator
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core import durability, faults
from repro.core.access_control import SageAccessControl
from repro.core.adaptive import (
    AdaptiveConfig,
    AdaptiveSession,
    ChargeDecision,
    SessionStatus,
)
from repro.core.model_store import ModelFeatureStore, ReleasedBundle
from repro.data.database import GrowingDatabase, StreamIngestor
from repro.data.stream import StreamSource, TimePartitioner
from repro.dp.budget import PrivacyBudget
from repro.errors import (
    BlockRetiredError,
    BudgetExceededError,
    DurabilityError,
    PipelineError,
    RecoveryError,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_PROBE

__all__ = ["Sage", "SubmittedPipeline", "ReservationTable"]


class ReservationTable:
    """Contiguous pipelines x blocks epsilon reservations.

    Row = pipeline (submission order), column = ledger-store row of the
    block (registration order).  Rows and columns grow by doubling and are
    never reclaimed; a parallel free-pool vector holds per-block epsilon
    not reserved by anybody.  All mutating operations are NumPy row/column
    arithmetic; amounts match the seed's dict-based allocator float-for-
    float (same divisions, same accumulation order).

    Cost model of the two redistributions: :meth:`release` (a finished
    pipeline's holding goes back to the waiting pipelines) and
    :meth:`grant_free` (the free pool goes to them) build one dense share
    vector over all block columns and add it to the waiting rows as one
    contiguous slice add per run of consecutive row indices -- O(runs x
    blocks) of streaming arithmetic instead of a gather/add/scatter of the
    (waiting x held) sub-matrix.  Waiting rows are in submission order, so
    an hour where early pipelines finish first leaves one run.  The share
    vector is filled with ``-0.0``, not ``0.0``: ``x + -0.0`` is ``x``
    bit for bit for every ``x`` (``-0.0 + 0.0`` would be ``+0.0``), so
    columns a pipeline did not hold keep their exact bytes and the table
    (and the state digest that hashes it) matches the sub-matrix form.
    """

    def __init__(self, pipeline_capacity: int = 8, block_capacity: int = 64) -> None:
        self._eps = np.zeros(
            (max(1, int(pipeline_capacity)), max(1, int(block_capacity)))
        )
        self._free = np.zeros(self._eps.shape[1])
        self._n_pipelines = 0
        self._n_blocks = 0

    @property
    def n_pipelines(self) -> int:
        return self._n_pipelines

    @property
    def n_blocks(self) -> int:
        return self._n_blocks

    @property
    def matrix(self) -> np.ndarray:
        """The (n_pipelines, n_blocks) reservation view (do not cache:
        growth reallocates the backing buffer)."""
        return self._eps[: self._n_pipelines, : self._n_blocks]

    @property
    def free_epsilon(self) -> np.ndarray:
        """Per-block epsilon not reserved by any pipeline (view caveat as
        :attr:`matrix`)."""
        return self._free[: self._n_blocks]

    def add_pipeline(self) -> int:
        """Add a zeroed reservation row; returns the pipeline's row index."""
        if self._n_pipelines == self._eps.shape[0]:
            grown = np.zeros((2 * self._eps.shape[0], self._eps.shape[1]))
            grown[: self._n_pipelines] = self._eps
            self._eps = grown
        row = self._n_pipelines
        self._n_pipelines += 1
        return row

    def add_block(self) -> int:
        """Add a zeroed block column; returns its index (== store row)."""
        if self._n_blocks == self._eps.shape[1]:
            grown = np.zeros((self._eps.shape[0], 2 * self._eps.shape[1]))
            grown[:, : self._n_blocks] = self._eps
            self._eps = grown
            free_grown = np.zeros(2 * self._free.shape[0])
            free_grown[: self._n_blocks] = self._free
            self._free = free_grown
        col = self._n_blocks
        self._n_blocks += 1
        return col

    def allocate(self, col: int, amount: float, waiting_rows: np.ndarray) -> None:
        """Divide a new block's budget evenly among the waiting pipelines
        (into the free pool when nobody waits)."""
        if len(waiting_rows) == 0:
            self._free[col] += amount
        else:
            self._eps[waiting_rows, col] += amount / len(waiting_rows)

    def grant_free(self, waiting_rows: np.ndarray) -> None:
        """Hand the whole free pool to the waiting pipelines, evenly."""
        if len(waiting_rows) == 0 or self._n_blocks == 0:
            return
        free = self._free[: self._n_blocks]
        cols = np.nonzero(free)[0]
        if cols.size == 0:
            return
        self._add_share(waiting_rows, cols, free[cols])
        free[cols] = 0.0

    def release(self, row: int, waiting_rows: np.ndarray) -> None:
        """Return one pipeline's whole holding to the others (or the free
        pool), clearing its row.  ``row`` must not be in ``waiting_rows``."""
        held = self._eps[row, : self._n_blocks]
        cols = np.nonzero(held > 0.0)[0]
        if cols.size:
            if len(waiting_rows):
                self._add_share(waiting_rows, cols, held[cols])
            else:
                self._free[cols] += held[cols]
            held[cols] = 0.0

    def _add_share(
        self, waiting_rows: np.ndarray, cols: np.ndarray, amounts: np.ndarray
    ) -> None:
        """Add ``amounts / len(waiting_rows)`` to every waiting row on
        ``cols``: one dense slice add per run of consecutive rows.

        Cells off ``cols`` receive ``-0.0``, the additive identity, so they
        keep their exact bytes.  A repeated row stays in its run, so it is
        added to once, as in the ``np.ix_`` scatter.
        """
        n_blocks = self._n_blocks
        share = np.full(n_blocks, -0.0)
        share[cols] = amounts / len(waiting_rows)
        rows = sorted(waiting_rows.tolist())
        start = end = rows[0]
        for row in rows[1:]:
            if row > end + 1:  # a gap closes the run
                self._eps[start : end + 1, :n_blocks] += share
                start = row
            end = row
        self._eps[start : end + 1, :n_blocks] += share

    def settle(self, row: int, cols: np.ndarray, epsilon) -> None:
        """Deduct committed charges from one pipeline's reservations.

        ``epsilon`` is one attempt's charge, deducted on every column and
        clamped at zero.
        """
        self._eps[row, cols] = np.maximum(0.0, self._eps[row, cols] - epsilon)

    def values(self, row: int, cols: np.ndarray) -> np.ndarray:
        """One pipeline's reservations on the named block columns (every
        column must be one the table has; ``Sage`` checks the table spans
        the whole store when each hour opens)."""
        return self._eps[row, cols]

    def row_values(self, row: int) -> np.ndarray:
        """Copy of one pipeline's full reservation row (diagnostics)."""
        return self._eps[row, : self._n_blocks].copy()

    def restore(self, matrix: np.ndarray, free: np.ndarray) -> None:
        """Overwrite the table with a captured ``(matrix, free)`` state --
        the hour rollback and snapshot recovery.

        Every buffer cell outside the restored region is re-zeroed:
        :meth:`add_block` / :meth:`add_pipeline` hand out buffer regions
        without zeroing them, so vacated cells must stay indistinguishable
        from never-used capacity.
        """
        matrix = np.asarray(matrix, dtype=np.float64)
        free = np.asarray(free, dtype=np.float64)
        if matrix.ndim != 2 or free.ndim != 1 or free.shape[0] != matrix.shape[1]:
            raise RecoveryError(
                f"reservation restore shape mismatch: matrix "
                f"{matrix.shape}, free pool {free.shape}"
            )
        n_pipelines, n_blocks = matrix.shape
        if n_pipelines > self._eps.shape[0] or n_blocks > self._eps.shape[1]:
            row_cap = max(1, self._eps.shape[0])
            while row_cap < n_pipelines:
                row_cap *= 2
            col_cap = max(1, self._eps.shape[1])
            while col_cap < n_blocks:
                col_cap *= 2
            self._eps = np.zeros((row_cap, col_cap))
            self._free = np.zeros(col_cap)
        else:
            self._eps[:] = 0.0
            self._free[:] = 0.0
        self._eps[:n_pipelines, :n_blocks] = matrix
        self._free[:n_blocks] = free
        self._n_pipelines = n_pipelines
        self._n_blocks = n_blocks


@dataclass
class SubmittedPipeline:
    """Bookkeeping for one pipeline queued on the platform."""

    pipeline: object
    session: AdaptiveSession
    submit_time_hours: float
    release_time_hours: Optional[float] = None
    bundle: Optional[ReleasedBundle] = None
    # Row of the platform's ReservationTable holding this pipeline's
    # per-block epsilon reservations.
    table_row: int = -1
    platform: Optional["Sage"] = field(default=None, repr=False)

    @property
    def name(self) -> str:
        return self.pipeline.name

    @property
    def status(self) -> str:
        return self.session.status

    @property
    def waiting(self) -> bool:
        return not self.session.is_terminal

    @property
    def reservations(self) -> Dict[object, float]:
        """Nonzero per-block epsilon reservations (diagnostic snapshot of
        this pipeline's ReservationTable row, keyed by block key)."""
        if self.platform is None:
            return {}
        return self.platform.reservations_of(self)


@dataclass
class _HourPass:
    """The hour pass: the parked sessions it decided (in drive order), and
    the table rows of those it proved blocked."""

    parked: List[SubmittedPipeline]
    blocked: Set[int]


class Sage:
    """A Sage deployment over one sensitive stream.

    Every :meth:`advance` is one transactional hour (see the module
    docstring): sessions stage their charges and the hour settles through
    one staged-batch commit, or -- when it raises before that commit --
    rolls back to the exact pre-hour state.

    ``wal_dir`` makes the platform durable (see
    :mod:`repro.core.durability`): each hour is recorded in a write-ahead
    charge log *before* it commits in memory and marked committed with a
    state digest after, and every ``snapshot_every`` committed hours a
    full-state snapshot lands next to it (the newest ``snapshot_keep`` are
    retained).  A platform constructed over a WAL directory holding prior
    state must call :meth:`recover` before advancing.

    ``telemetry`` attaches a :class:`repro.obs.Telemetry` (tracer +
    metrics registry) to the whole deployment: every phase of the hourly
    drive emits spans/events and the drive counters land in the registry
    (see the :mod:`repro.obs` taxonomy).  Telemetry never feeds back into
    any decision, so trajectories stay byte-identical with it on or off;
    ``None`` (the default) hands every instrumented component the shared
    no-op probe (:data:`repro.obs.trace.NULL_PROBE`).  The platform always
    owns a metrics registry -- the ``last_hour_*`` diagnostics read from
    it -- and ``telemetry`` merely supplies a shared one plus the tracer.
    """

    def __init__(
        self,
        source: StreamSource,
        epsilon_global: float = 1.0,
        delta_global: float = 1e-6,
        block_hours: float = 1.0,
        filter_factory=None,
        seed: Optional[int] = None,
        wal_dir=None,
        snapshot_every: int = 0,
        snapshot_keep: int = 3,
        telemetry=None,
    ) -> None:
        # Telemetry first: the accountant, WAL writer, and snapshot store
        # constructed below all thread it through.  Disabled mode hands
        # them the no-op probe; the metrics registry always exists -- the
        # last_hour_* compatibility properties read the drive counters
        # from it.
        self._telemetry = telemetry
        self._tracer = telemetry.tracer if telemetry is not None else NULL_PROBE
        self._metrics = (
            telemetry.metrics if telemetry is not None else MetricsRegistry()
        )
        # The granted-charges counter at the top of the current advance();
        # last_hour_charges is the delta against this mark.
        self._hour_mark: float = 0
        self.database = GrowingDatabase()
        self.rng = np.random.default_rng(seed)
        self.ingestor = StreamIngestor(
            source,
            self.database,
            TimePartitioner(window_hours=block_hours),
            rng=self.rng,
        )
        self.access = SageAccessControl(
            epsilon_global, delta_global, filter_factory=filter_factory
        )
        self.store = ModelFeatureStore()
        self.epsilon_global = epsilon_global
        self.delta_global = delta_global
        self._pipelines: List[SubmittedPipeline] = []
        # The waiting index: every non-terminal entry, keyed by its table
        # row (its submission position), in submission order.
        self._waiting: Dict[int, SubmittedPipeline] = {}
        # All pipelines' epsilon reservations plus the unreserved free pool,
        # columns aligned to the stream accountant's ledger-store rows.
        self._table = ReservationTable()
        # The accountant traces only its commit point (the hour's one
        # charge batch); the serial drive's shared admit scans are memo
        # reads on the open staged batch and emit nothing.
        self.access.accountant.attach_tracer(self._tracer)
        if telemetry is not None:
            # Armed crash points report their firings as trace events
            # (the registry is process-global; close() detaches).
            faults.add_observer(self._observe_fault)
        # Durability (write-ahead charge log + snapshots; see
        # repro.core.durability).  The WAL writer is created lazily on the
        # first durable hour so merely constructing a platform never
        # touches disk.
        self._wal_dir: Optional[Path] = Path(wal_dir) if wal_dir else None
        self._wal: Optional[durability.WalWriter] = None
        self._snapshot_every = max(0, int(snapshot_every))
        self._snapshots: Optional[durability.SnapshotStore] = None
        self._hours_committed = 0
        # Pipelines the WAL has named: the n_entries of the last committed
        # hour record (or of the restored snapshot).  The next record names
        # only the pipelines submitted since.
        self._entries_named = 0
        self._needs_recovery = False
        # durability.state_digest's running CRCs of the append-only charge
        # log and attempt lists; checked on every use, dies with the
        # platform.
        self._digest_memo: dict = {}
        if self._wal_dir is not None:
            self._snapshots = durability.SnapshotStore(
                self._wal_dir, keep=snapshot_keep, telemetry=telemetry
            )
            # Prior state on disk (WAL content past the magic, or any
            # snapshot) means this platform must recover() before advancing.
            path = durability.wal_path(self._wal_dir)
            try:
                has_wal = path.stat().st_size > len(durability.WAL_MAGIC)
            except OSError:
                has_wal = False
            if has_wal or self._snapshots.snapshot_paths():
                self._needs_recovery = True

    # ------------------------------------------------------------------
    @property
    def clock_hours(self) -> float:
        return self.ingestor.clock_hours

    @property
    def hours_committed(self) -> int:
        """Completed ``advance`` calls (durable mode: WAL hour indices)."""
        return self._hours_committed

    @property
    def telemetry(self):
        """The attached :class:`repro.obs.Telemetry`, or ``None``."""
        return self._telemetry

    @property
    def metrics(self) -> MetricsRegistry:
        """The platform's metrics registry (always present; shared with
        the attached telemetry when one was supplied)."""
        return self._metrics

    @property
    def last_hour_charges(self) -> int:
        """Charges granted by the most recent ``advance()`` -- a
        compatibility view over ``sage_charges_granted_total``.  After a
        rolled-back hour it reports that hour's grants until the next
        ``advance``: counters are monotonic and keep its increments."""
        return int(
            self._metrics.counter_value("sage_charges_granted_total")
            - self._hour_mark
        )

    def _mark_hour_metrics(self) -> None:
        """Open an hour for the last-hour delta: remember the granted
        charges counter's current reading."""
        self._hour_mark = self._metrics.counter_value("sage_charges_granted_total")

    def _finish_hour_metrics(self) -> None:
        """Close the hour in the registry: the per-hour charges gauge plus
        the advanced-hours counter."""
        metrics = self._metrics
        metrics.set_gauge("sage_hour_charges", self.last_hour_charges)
        metrics.inc("sage_hours_advanced_total")

    def _observe_fault(self, point: str) -> None:
        """Fault-registry observer: an *armed* crash point fired."""
        self._tracer.event("fault.trip", point=point)
        self._metrics.inc("sage_fault_trips_total", point=point)

    @property
    def reservation_table(self) -> ReservationTable:
        return self._table

    def reservations_of(self, entry: "SubmittedPipeline") -> Dict[object, float]:
        """A pipeline's nonzero reservations as a {block key: epsilon} dict."""
        values = self._table.row_values(entry.table_row)
        keys = self.access.accountant.block_keys
        return {
            key: float(held) for key, held in zip(keys, values) if held != 0.0
        }

    def submit(
        self, pipeline, config: Optional[AdaptiveConfig] = None
    ) -> SubmittedPipeline:
        """Queue a DP pipeline for privacy-adaptive training."""
        config = config or AdaptiveConfig()
        entry = SubmittedPipeline(
            pipeline=pipeline,
            session=None,  # type: ignore[arg-type]
            submit_time_hours=self.clock_hours,
            table_row=self._table.add_pipeline(),
            platform=self,
        )
        session = AdaptiveSession(
            pipeline,
            self.access,
            self.database,
            config,
            self.rng,
            row_budget_fn=lambda rows, e=entry: self._table.values(e.table_row, rows),
            new_block_epsilon_fn=self._new_block_share,
        )
        entry.session = session
        self._pipelines.append(entry)
        self._waiting[entry.table_row] = entry
        return entry

    def _reindex_waiting(self) -> None:
        """Rebuild the waiting index from every entry's status (snapshot
        restore rewrites all of them at once)."""
        self._waiting = {
            entry.table_row: entry for entry in self._pipelines if entry.waiting
        }

    # ------------------------------------------------------------------
    # Allocation (conserve strategy of §3.3, one table op per step)
    # ------------------------------------------------------------------
    def _waiting_rows(self) -> np.ndarray:
        return np.fromiter(self._waiting, dtype=np.intp, count=len(self._waiting))

    def _new_block_share(self) -> float:
        """Per-pipeline epsilon a freshly created block would grant now."""
        return self.epsilon_global / max(1, len(self._waiting))

    def _allocate_block(self, key: object) -> None:
        """Divide a new block's budget evenly among waiting pipelines."""
        col = self._table.add_block()
        self._table.allocate(col, self.epsilon_global, self._waiting_rows())

    def _redistribute(self, finished: SubmittedPipeline) -> None:
        """Return a finished pipeline's unused reservations to the others."""
        self._table.release(finished.table_row, self._waiting_rows())

    def _grant_free_pool(self) -> None:
        """Hand any unreserved budget to newly waiting pipelines."""
        self._table.grant_free(self._waiting_rows())

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the WAL handle and detach the fault observer.  Idempotent;
        the platform keeps working afterwards (the WAL reopens on the next
        durable hour)."""
        if self._wal is not None:
            self._wal.close()
            self._wal = None
        if self._telemetry is not None:
            # Detach from the process-global fault registry (idempotent);
            # a platform advanced after close() simply stops reporting
            # armed-fault firings.
            faults.remove_observer(self._observe_fault)

    def __enter__(self) -> "Sage":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _decide_parked(self, entries: Sequence[SubmittedPipeline]) -> _HourPass:
        """The hour pass: the sessions of ``entries`` parked in NEED_DATA
        with attempts left, and those of them proven blocked, decided in
        one gather per floor.

        ``entries`` are waiting entries in drive order: every one when the
        hour opens, and after a release the parked ones not yet driven
        (a session submitted since the last hour is RUNNING and keeps its
        own verdict; no status moves before the session's turn, so the
        parked set only shrinks).  Sessions are grouped by their floor ``PrivacyBudget(
        min(epsilon, epsilon_floor), delta)``; each floor makes one
        ``admit_rows`` read -- the scan-memo entry the session's own
        :meth:`~repro.core.adaptive.AdaptiveSession.provably_blocked`
        reads -- and one gather of the group's reservation rows on the
        admitted columns, compared as ``row_budget_fn(rows) + 1e-12 >=
        lowest`` compares.  A session is proven blocked when fewer than
        its ``window_blocks`` cells qualify: ``provably_blocked``'s count
        from the same floats.  Only those proofs are recorded; they stand
        until a release (see "Blocked sessions" in the module docstring).
        A pure read.
        """
        # Grouped by the floor's (epsilon, delta) floats: one budget per
        # floor, not per session.
        parked: List[SubmittedPipeline] = []
        groups: Dict[Tuple[float, float], List[SubmittedPipeline]] = {}
        for entry in entries:
            session = entry.session
            if (
                session.status == SessionStatus.NEED_DATA
                and len(session.attempts) < session.config.max_attempts
            ):
                parked.append(entry)
                key = (min(session.epsilon, session.epsilon_floor), session.delta)
                groups.setdefault(key, []).append(entry)
        blocked: Set[int] = set()
        for key, members in groups.items():
            floor = PrivacyBudget(*key)
            admitted = self.access.admit_rows(floor)
            rows = np.fromiter(
                (entry.table_row for entry in members),
                dtype=np.intp,
                count=len(members),
            )
            held = self._table.matrix[np.ix_(rows, admitted)]
            held += 1e-12
            counts = np.count_nonzero(held >= floor.epsilon, axis=1)
            for entry, count in zip(members, counts.tolist()):
                if count < entry.session.window_blocks:
                    blocked.add(entry.table_row)
        return _HourPass(parked, blocked)

    def _drive_session(self, entry: SubmittedPipeline) -> None:
        """Run one session's propose/decide/complete loop for this hour.

        The drive never visits a session the hour pass proved blocked (see
        "Blocked sessions" in the module docstring).  A visited session
        asks its own ``provably_blocked`` once, before the first proposal,
        and when proven blocked goes back to NEED_DATA without proposing:
        the verdict is True only when every window the search could try
        is short of funded rows, so ``propose()`` would have returned
        ``None`` with that status.
        Otherwise every proposal is validated
        against the hour's staged batch, its window assembled, and the
        decision fed back; a refusal becomes a denied decision, so the
        session blocks on NEED_DATA with escalation state untouched
        instead of the refusal propagating.  A granted attempt settles its
        proposal's rows into the reservation table right after its
        ``complete()``, before the session proposes again.
        """
        session = entry.session
        session.wake()
        if session.provably_blocked():
            # What propose() -> None leaves: the verdict proved the window
            # search would find nothing.
            session.status = SessionStatus.NEED_DATA
            return
        metrics = self._metrics
        tracer = self._tracer
        while session.status == SessionStatus.RUNNING:
            proposal = session.propose()
            if proposal is None:
                break
            window = list(proposal.window)
            granted = True
            try:
                self.access.stage_request(
                    proposal.rows, window, proposal.budget, label=entry.name
                )
            except (BlockRetiredError, BudgetExceededError):
                granted = False
            metrics.inc(
                "sage_charges_granted_total"
                if granted
                else "sage_charges_denied_total"
            )
            tracer.event(
                "charge.granted" if granted else "charge.denied",
                session=entry.name,
                epsilon=proposal.budget.epsilon,
                blocks=len(window),
            )
            session.complete(
                ChargeDecision(
                    proposal=proposal,
                    granted=granted,
                    batch=self.database.assemble(window) if granted else None,
                )
            )
            if granted:
                self._table.settle(
                    entry.table_row, proposal.rows, proposal.budget.epsilon
                )

    def advance(self, hours: float = 1.0) -> List[ReleasedBundle]:
        """Move the clock one transactional hour: ingest, allocate, drive
        sessions, settle, release, commit.

        Returns the bundles released during this step.  The hour
        commits all its charges through exactly one
        ``SageAccessControl.commit_staged`` call after every session has
        finished or blocked; any exception before that commit, interrupts
        included, rolls the platform back to its pre-hour state (see the
        module docstring).

        With ``wal_dir`` set, ordering is the whole durability argument:
        the hour record (the exact request batch plus session deltas) is
        appended and fsynced *before* the in-memory commit, so a crash on
        either side of the commit point leaves the WAL describing a state
        recovery can rebuild exactly; a rolled-back hour also truncates
        its partial WAL record.
        """
        if self._needs_recovery:
            raise RecoveryError(
                f"WAL directory {self._wal_dir} holds prior platform state; "
                "call recover() before advancing"
            )
        wal = None if self._wal_dir is None else self._ensure_wal()
        txn = self._capture_hour()
        tracer = self._tracer
        tracer.hour = self._hours_committed
        self._mark_hour_metrics()
        with tracer.span(
            "advance.hour", mode="volatile" if wal is None else "durable"
        ):
            if wal is not None:
                wal.begin_hour()
            try:
                new_blocks = self._open_hour(hours)
                faults.trip("hour.opened")
                self.access.begin_staging()
                released = self._drive_hour()
                if wal is not None:
                    # Build the record while the staged batch is still open
                    # (it carries the batch verbatim), write ahead, then
                    # commit.
                    wal.append_hour(
                        self._build_hour_record(txn, hours, new_blocks)
                    )
                    # The log has named every pipeline; a rollback truncates
                    # the record and restores the count with it.
                    self._entries_named = len(self._pipelines)
                self._metrics.observe(
                    "sage_staged_batch_requests",
                    self.access.accountant.staged_request_count,
                )
                with tracer.span("staging.commit"):
                    self.access.commit_staged()
            except BaseException as exc:
                # KeyboardInterrupt/SystemExit roll back too: a volatile
                # platform has no log to rebuild from.  Only a simulated
                # process death on a durable platform skips the rollback
                # -- recovery rebuilds that state from disk.
                crashed = wal is not None and isinstance(
                    exc, faults.InjectedCrash
                )
                if not crashed:
                    try:
                        # The batch goes first: the accountant's row set
                        # cannot move while one is open.
                        if self.access.staging_active:
                            self.access.abort_staged()
                        self._rollback_hour(txn)
                    finally:
                        if wal is not None:
                            wal.abort_hour()
                raise
            self._hours_committed += 1
            if wal is not None:
                wal.commit_hour(
                    self._hours_committed - 1, durability.state_digest(self)
                )
                faults.trip("hour.after_commit")
                if self._snapshot_every > 0 and (
                    self._hours_committed % self._snapshot_every == 0
                ):
                    self._write_snapshot()
        self._finish_hour_metrics()
        return released

    def _open_hour(self, hours: float) -> List:
        """Ingest the hour's stream slice and fund its blocks: register
        them, allocate evenly to waiting pipelines, grant the free pool.
        Returns the new blocks (also the WAL replay re-entry point --
        identical given identical clock/RNG state)."""
        # Columns mirror the accountant's registration order only while
        # every block enters through this ingest path; a block registered
        # with the accountant directly would shift every later column and
        # misdirect budget, so it is a hard error.
        n_rows = len(self.access.accountant.store)
        if self._table.n_blocks != n_rows:
            raise PipelineError(
                f"reservation table spans {self._table.n_blocks} blocks "
                f"but the ledger store has {n_rows} rows (a block was "
                "registered outside the platform's ingest path)"
            )
        with self._tracer.span("advance.open") as opening:
            new_blocks = self.ingestor.advance(hours)
            self.access.register_blocks([block.key for block in new_blocks])
            for block in new_blocks:
                self._allocate_block(block.key)
            self._grant_free_pool()
            opening.set(new_blocks=len(new_blocks))
        return new_blocks

    def _drive_hour(self) -> List[ReleasedBundle]:
        """Drive the waiting sessions through the hour's propose/settle
        loop (after :meth:`_open_hour`, inside the staging window): every
        one but those the hour pass proved blocked (see "Blocked sessions"
        in the module docstring).  Returns the hour's released bundles."""
        tracer = self._tracer
        released: List[ReleasedBundle] = []
        driven = parked = 0
        order = list(self._waiting.values())
        hour_pass = self._decide_parked(order)
        for entry in order:
            if entry.table_row in hour_pass.blocked:
                # Still blocked: its turn would only wake it and park it
                # again.
                parked += 1
                continue
            # The span covers the session's whole hour -- drive, settle,
            # release, redistribute -- so the wall view attributes the
            # settlement tail (a whole-table ReservationTable op per
            # terminating session) to the session that caused it.  The
            # settle/release helpers emit no telemetry, so the widened
            # body leaves the deterministic tick sequence untouched.
            with tracer.span("session.drive", session=entry.name):
                self._drive_session(entry)
                self._metrics.inc("sage_sessions_driven_total")
                driven += 1
                faults.trip("settle.mid_session")
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
                if entry.session.is_terminal:
                    self._waiting.pop(entry.table_row)
                    self._redistribute(entry)
                    if hour_pass.parked:
                        # The release moved held values in the waiting
                        # rows: decide the parked sessions not yet driven
                        # again.
                        rest = bisect.bisect_right(
                            hour_pass.parked,
                            entry.table_row,
                            key=operator.attrgetter("table_row"),
                        )
                        hour_pass = self._decide_parked(hour_pass.parked[rest:])
        self._metrics.inc("sage_sessions_parked_total", parked)
        # One settle marker per hour (not per session: settle instants
        # ride the per-session hot path, and the session.drive spans
        # already carry the per-session timeline).
        if driven:
            tracer.event("reservations.settle", sessions=driven)
        return released

    # ------------------------------------------------------------------
    # Durability: pre-hour capture, rollback, WAL records, recovery
    # ------------------------------------------------------------------
    def _ensure_wal(self, scan=None) -> durability.WalWriter:
        """The open WAL writer; opening it reuses ``scan``, a
        :func:`~repro.core.durability.read_wal` of the log taken since
        its last write, instead of reading the log again."""
        if self._wal_dir is None:
            raise DurabilityError("platform was constructed without a wal_dir")
        if self._wal is None:
            self._wal = durability.WalWriter(
                durability.wal_path(self._wal_dir),
                telemetry=self._telemetry,
                scan=scan,
            )
        return self._wal

    def _capture_hour(self) -> dict:
        """Everything :meth:`_rollback_hour` needs to undo one hour:
        the accounting plane (ledger registrations, reservations, session
        state, released bundles) and the data plane (database tail, stream
        clock, RNG state) -- a rolled-back hour leaves no trace at all, so
        the retried hour re-ingests the very same stream slice.  Only
        waiting pipelines are captured: the hour never touches finished
        ones."""
        entries = [
            (
                index,
                entry.session.export_state(),
                len(entry.session.attempts),
                entry.session.final_run,
                entry.release_time_hours,
                entry.bundle,
            )
            for index, entry in self._waiting.items()
        ]
        return {
            "n_blocks": len(self.access.accountant.store),
            "clock": self.clock_hours,
            "rng_state": self.rng.bit_generator.state,
            "db_mark": self.database.mark(),
            "matrix": self._table.matrix.copy(),
            "free": self._table.free_epsilon.copy(),
            "store_marks": self.store.version_marks(),
            "entries": entries,
            "waiting": dict(self._waiting),
            "entries_named": self._entries_named,
        }

    def _rollback_hour(self, txn: dict) -> None:
        """Restore the platform to the :meth:`_capture_hour` state:
        deregister the hour's blocks (truncating the ledger store),
        restore reservations, rewind every session, withdraw the hour's
        released bundles, unwind the ingest, rewind clock and RNG."""
        self.access.rollback_registrations(txn["n_blocks"])
        self.database.truncate_to_mark(txn["db_mark"])
        self.ingestor.clock_hours = txn["clock"]
        self.rng.bit_generator.state = txn["rng_state"]
        self._table.restore(txn["matrix"], txn["free"])
        for index, state, n_attempts, final_run, released_at, bundle in txn["entries"]:
            entry = self._pipelines[index]
            session = entry.session
            session.restore_state(state)
            session.final_run = final_run
            del session.attempts[n_attempts:]
            entry.release_time_hours = released_at
            entry.bundle = bundle
        self._waiting = txn["waiting"]
        self._entries_named = txn["entries_named"]
        self.store.rollback_to_marks(txn["store_marks"])

    def _build_hour_record(self, txn: dict, hours: float, new_blocks) -> dict:
        """The hour's WAL record: the staged request batch verbatim, the
        names of the pipelines submitted since the last committed hour
        (from position ``names_from``) and a delta per session whose
        durable record the hour changed, bracketed by the pre/post clock
        and RNG states (replay restores the *pre* pair before re-ingesting
        and the *post* pair after, so it never depends on the recovering
        process's own clock or RNG position).

        A captured session's record changed when the hour appended an
        attempt, or when its ``release_time_hours`` or any
        ``export_state()`` value is not the object :meth:`_capture_hour`
        captured.  The drive writes those fields only by assigning new
        objects or the :class:`SessionStatus` constants, so the test reads
        state, not which sessions the drive visited: a drive that visits
        every session writes the same bytes."""
        deltas = []
        for index, state, n_attempts, _, released_at, _ in txn["entries"]:
            entry = self._pipelines[index]
            session = entry.session
            current = session.export_state()
            if (
                len(session.attempts) == n_attempts
                and entry.release_time_hours is released_at
                and all(map(operator.is_, current.values(), state.values()))
            ):
                continue
            deltas.append(
                {
                    "index": index,
                    **current,
                    "release_time_hours": entry.release_time_hours,
                    "attempts": durability.encode_attempts(
                        session.attempts[n_attempts:]
                    ),
                }
            )
        return {
            "hour_index": self._hours_committed,
            "hours": hours,
            "clock_start": txn["clock"],
            "clock_hours": self.clock_hours,
            "schema_width": self.access.accountant.store.width,
            "n_entries": len(self._pipelines),
            "names_from": self._entries_named,
            "entry_names": [
                entry.name for entry in self._pipelines[self._entries_named :]
            ],
            "new_block_keys": [block.key for block in new_blocks],
            "requests": self.access.accountant.staged_requests,
            "rng_state_before": txn["rng_state"],
            "rng_state": self.rng.bit_generator.state,
            "deltas": deltas,
        }

    def _write_snapshot(self) -> None:
        self._snapshots.write(
            self._hours_committed,
            durability.build_snapshot_payload(self, self._hours_committed),
        )
        # Compact the charge log up to the *oldest* snapshot still on
        # disk: recovery can fall back that far (corrupt-newest), but
        # never further, so everything older is dead weight in the WAL.
        oldest = self._snapshots.oldest_retained_hour()
        if oldest is not None and self._wal is not None:
            self._wal.compact(oldest)

    def recover(self, pipelines: Sequence = ()) -> "durability.RecoveryReport":
        """Rebuild this platform's state from its WAL directory.

        Call on a *freshly constructed* platform (same configuration as
        the crashed one) whose ``wal_dir`` points at the prior state.
        ``pipelines`` supplies the pipelines to re-submit, in original
        submission order, as pipeline objects or ``(pipeline, config)``
        pairs -- they are submitted lazily as the log first mentions them,
        so supplying the full original set always works; any the log never
        mentions (submitted in the crashed run, durable in no committed
        hour) are re-submitted fresh at the end.

        Loads the newest valid snapshot (if any), then replays every
        subsequent WAL hour (see :meth:`_replay_hour`), each verified
        against its commit marker's state digest.  A torn trailing record (mid-append crash)
        is discarded and repaired; a complete record with a bad CRC raises
        :class:`~repro.errors.WalCorruptionError` and is never replayed.
        """
        if self._wal_dir is None:
            raise RecoveryError("recover() requires a platform with a wal_dir")
        if self._hours_committed or self._pipelines or len(
            self.access.accountant.store
        ):
            raise RecoveryError(
                "recover() must run on a freshly constructed platform"
            )
        supplied = list(pipelines)
        submitted = 0

        def submit_next() -> None:
            nonlocal submitted
            if submitted >= len(supplied):
                raise RecoveryError(
                    f"log records pipeline #{submitted} but only "
                    f"{len(supplied)} were supplied to recover()"
                )
            item = supplied[submitted]
            if isinstance(item, tuple):
                self.submit(item[0], item[1])
            else:
                self.submit(item)
            submitted += 1

        tracer = self._tracer
        with tracer.span("recover.run"):
            scan = durability.read_wal(durability.wal_path(self._wal_dir))
            hour_pairs = durability.pair_hour_records(scan.records)
            latest = self._snapshots.latest()
            snapshot_hour: Optional[int] = None
            snapshots_skipped = 0
            if latest is not None:
                snapshot_hour, payload, skipped = latest
                snapshots_skipped = len(skipped)
                while submitted < len(payload["entries"]):
                    submit_next()
                durability.restore_snapshot_payload(self, payload)
                self._hours_committed = snapshot_hour
                self._entries_named = len(payload["entries"])
                tracer.event(
                    "recover.snapshot",
                    hour=snapshot_hour,
                    skipped=snapshots_skipped,
                )
            replayed = 0
            digests_verified = 0
            for record, digest in hour_pairs:
                hour_index = record["hour_index"]
                if hour_index < self._hours_committed:
                    continue  # already folded into the snapshot
                if hour_index != self._hours_committed:
                    raise RecoveryError(
                        f"WAL hour {hour_index} does not follow committed hour "
                        f"count {self._hours_committed} (missing log records?)"
                    )
                while submitted < record["n_entries"]:
                    submit_next()
                tracer.hour = hour_index
                with tracer.span(
                    "recover.hour",
                    hour_index=hour_index,
                    digest_checked=digest is not None,
                ):
                    self._replay_hour(record, digest)
                self._hours_committed += 1
                replayed += 1
                if digest is not None:
                    digests_verified += 1
            # Pipelines the log never mentioned were submitted in the
            # crashed run but are durable in no committed hour: re-submit
            # them fresh (their sessions start over -- submissions become
            # durable only once a later hour commits).
            fresh = len(supplied) - submitted
            while submitted < len(supplied):
                submit_next()
            self._needs_recovery = False
            # Re-open the log for appending from the scan replay read (the
            # log is unchanged since); a torn tail is truncated here.
            self._ensure_wal(scan)
        report = durability.RecoveryReport(
            snapshot_hour=snapshot_hour,
            snapshots_skipped=snapshots_skipped,
            replayed_hours=replayed,
            hours_committed=self._hours_committed,
            clock_hours=self.clock_hours,
            wal_records=len(scan.records),
            truncated_tail=scan.truncated_tail,
            fresh_pipelines=fresh,
            digests_verified=digests_verified,
        )
        self._metrics.observe_recovery(report)
        return report

    def _replay_hour(self, record: dict, digest: Optional[int]) -> None:
        """Re-apply one WAL hour through the live platform paths.

        Validates the record's names first: they must start at
        ``names_from``, the pipeline count already validated (the
        restored snapshot's entries, or the previous record's
        ``n_entries``), and match the submitted pipelines up to
        ``n_entries``; a record without ``names_from`` predates this
        format and is refused.  Then re-ingests the hour's stream slice
        under the recorded pre-hour clock/RNG (regenerating the same
        blocks), re-applies the recorded attempts of each session the
        hour changed with a settle after every one (the drive's own
        cadence and settle calls, on the recorded windows' rows),
        restores that session's recorded ``export_state`` record,
        redistributes exactly where the drive would have, and lands the
        hour's charges through one ``request_many`` call.  A session
        without a delta kept its record through the hour.  The batch's
        ``charge_many`` stages the charges into a batch of its own and
        lands it through the staging and landing bodies the live hour's
        ``stage_charge`` and ``commit_staged`` ran, so the store ends
        byte-identical to the live staged commit by construction.
        """
        accountant = self.access.accountant
        if record["schema_width"] != accountant.store.width:
            raise RecoveryError(
                f"WAL hour {record['hour_index']}: schema width "
                f"{record['schema_width']} does not match platform "
                f"{accountant.store.width} (different filter_factory?)"
            )
        if "names_from" not in record:
            raise RecoveryError(
                f"WAL hour {record['hour_index']}: the record has no names_from "
                "(an older record format this platform does not replay)"
            )
        if record["names_from"] != self._entries_named:
            raise RecoveryError(
                f"WAL hour {record['hour_index']}: names start at pipeline "
                f"#{record['names_from']} but {self._entries_named} were "
                "already named (missing or reordered log records?)"
            )
        names = [
            entry.name
            for entry in self._pipelines[self._entries_named : record["n_entries"]]
        ]
        if record["entry_names"] != names:
            raise RecoveryError(
                f"WAL hour {record['hour_index']}: pipeline names "
                f"{record['entry_names']} do not match submitted {names}"
            )
        self._entries_named = record["n_entries"]
        self.rng.bit_generator.state = record["rng_state_before"]
        self.ingestor.clock_hours = record["clock_start"]
        new_blocks = self._open_hour(record["hours"])
        if [block.key for block in new_blocks] != record["new_block_keys"]:
            raise RecoveryError(
                f"WAL hour {record['hour_index']}: re-ingested block keys "
                "do not match the recorded hour (different stream source?)"
            )
        rows_for_keys = accountant.rows_for_keys
        for delta in record["deltas"]:
            entry = self._pipelines[delta["index"]]
            session = entry.session
            for attempt in durability.decode_attempts(delta["attempts"]):
                session.attempts.append(attempt)
                # Settle after every attempt, as the drive does after
                # every complete(): the same settle calls in the same order.
                self._table.settle(
                    entry.table_row,
                    rows_for_keys(attempt.window),
                    attempt.budget.epsilon,
                )
            session.restore_state(delta)
            entry.release_time_hours = delta["release_time_hours"]
            if session.is_terminal:
                self._waiting.pop(entry.table_row)
                self._redistribute(entry)
        if record["requests"]:
            self.access.request_many(record["requests"])
        self.rng.bit_generator.state = record["rng_state"]
        if digest is not None and durability.state_digest(self) != digest:
            raise RecoveryError(
                f"WAL hour {record['hour_index']}: replayed state digest "
                "does not match the commit marker"
            )

    # ------------------------------------------------------------------
    def run_until_quiet(self, max_hours: int = 200) -> List[ReleasedBundle]:
        """Advance hour by hour until no pipeline is waiting (or the cap)."""
        released: List[ReleasedBundle] = []
        for _ in range(max_hours):
            released.extend(self.advance(1.0))
            if not self._waiting:
                break
        return released

    @property
    def pipelines(self) -> List[SubmittedPipeline]:
        return list(self._pipelines)

    def pipeline_named(self, name: str) -> SubmittedPipeline:
        for entry in self._pipelines:
            if entry.name == name:
                return entry
        raise PipelineError(f"no pipeline named {name!r}")
