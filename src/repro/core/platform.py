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
``SageAccessControl.request_many`` call -- ``charge_many``'s intra-batch
accumulation makes the batch observationally identical to the per-session
sequential charges, and staged validation replays the exact same float
accumulation, so the commit can never be refused (its validation stays on
as an end-to-end check).  Sessions' reservation deductions settle in one
fused vectorized pass per session.

Streams that cannot stage (per-context policies or custom scalar-only
filters: ``SageAccessControl.supports_staged_requests`` is False) run the
same propose/complete drive with immediate per-proposal ``request``
execution -- trajectories are float-identical either way; only the commit
granularity changes.

One transactional hour
----------------------
Every staged hour has one shape: capture the pre-hour state, open the hour
(ingest, register, allocate), begin staging, drive, commit.  An exception
anywhere before the commit -- ``KeyboardInterrupt`` and ``SystemExit``
included -- restores the captured state and aborts the staged batch, so a
failed hour leaves no trace -- no charges, reservations, session progress,
releases, ingest, clock or RNG movement -- and a retried hour re-runs the
very same stream slice.  The one exception is a simulated process death
(:class:`~repro.core.faults.InjectedCrash`) on a durable platform, which
freezes the state as-is for recovery to rebuild from disk.  A durable
platform (``wal_dir``) runs the same hour and additionally writes it ahead
into the charge log before the commit, then marks it committed with a
state digest; a volatile platform is the durable one without the log.
Per-request hours (streams that cannot stage) commit each charge as it is
granted and are not rolled back; durable mode refuses them.

Parallel propose drive (sharding-ready)
---------------------------------------
With ``propose_workers > 0`` the staged hour opens with a *parallel
propose phase*: every waiting session's first proposal is peeked
concurrently in a thread pool (:meth:`AdaptiveSession.propose_peek` is a
pure read -- PR 3's contract) against the freshly opened, empty overlay,
and whole-stream admit scans are shared across the sessions for the
duration of the phase (the accountant's snapshot-scoped scan memo).  The
serial settle loop then adopts each speculation only while its snapshot
token provably still holds -- zero charges staged so far and an unchanged
waiting-pipeline count (allocation shares, redistribution, and the
escalation rate all key off it); otherwise the session proposes for real.
Either way the trajectory is byte-identical to the sequential drive.
Pipeline execution itself stays serial in submission order (sessions
share one RNG stream).

The accountant side composes: ``accountant_factory`` (e.g.
:func:`repro.core.sharding.sharded_accountant_factory`) swaps in a
:class:`~repro.core.sharding.ShardedBlockAccountant`, whose per-shard
contiguous stores validate the hour's one ``request_many`` batch shard by
shard and commit all-or-nothing -- the hourly batch is the shard-commit
unit.  The reservation table needs no changes: sharded accountants keep
``rows_for_keys`` in the same global row space.

Reservation table
-----------------
Per-pipeline epsilon reservations live in one contiguous
:class:`ReservationTable`: a pipelines x blocks float64 matrix whose rows
are pipelines (in submission order) and whose columns are aligned to the
stream accountant's :class:`~repro.core.accountant.LedgerStore` rows (i.e.
block registration order -- ``BlockAccountant.rows_for_keys`` is the shared
index space).  Hourly allocation, free-pool grants, redistribution of a
finished pipeline's leftovers, and settlement of a session's charges are
each a single NumPy row/column operation instead of O(pipelines x blocks)
dict loops, and the allocation check during window selection reaches the
accountant's tail scan as a vectorized ``row_filter``.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import durability, faults
from repro.core.access_control import SageAccessControl
from repro.core.adaptive import (
    AdaptiveConfig,
    AdaptiveSession,
    AttemptRecord,
    ChargeDecision,
    ChargeProposal,
    SessionStatus,
)
from repro.core.model_store import ModelFeatureStore, ReleasedBundle
from repro.data.database import GrowingDatabase, StreamIngestor
from repro.data.stream import StreamSource, TimePartitioner
from repro.errors import (
    BlockRetiredError,
    BudgetExceededError,
    DurabilityError,
    PipelineError,
    RecoveryError,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_PROBE

__all__ = ["Sage", "SubmittedPipeline", "ReservationTable", "SpeculativeProposal"]


@dataclass(frozen=True)
class SpeculativeProposal:
    """A session's first proposal of the hour, computed ahead of its turn.

    Produced by the parallel propose phase (``propose_workers > 0``):
    every waiting session is peeked concurrently against the hour's empty
    staged overlay -- a pure read by the propose/settle contract.  The
    serial settle loop adopts the result only while the snapshot it was
    computed against provably still holds; the *token* is

    * ``n_waiting`` -- the waiting-pipeline count at peek time (allocation
      shares, redistribution targets, and the escalation rate all key off
      it), and
    * zero charges staged so far this hour (staged spend changes the
      effective totals every proposal reads).

    If either moved, the speculation is discarded and the session proposes
    for real -- so trajectories are byte-identical to the sequential drive
    whether or not any speculation survives.
    """

    proposal: Optional[ChargeProposal]
    status_after: str
    n_waiting: int
    n_attempts: int


class ReservationTable:
    """Contiguous pipelines x blocks epsilon reservations.

    Row = pipeline (submission order), column = ledger-store row of the
    block (registration order).  Rows and columns grow by doubling and are
    never reclaimed; a parallel free-pool vector holds per-block epsilon
    not reserved by anybody.  All mutating operations are NumPy row/column
    arithmetic; amounts match the seed's dict-based allocator float-for-
    float (same divisions, same accumulation order).
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
        self._eps[np.ix_(waiting_rows, cols)] += free[cols] / len(waiting_rows)
        free[cols] = 0.0

    def release(self, row: int, waiting_rows: np.ndarray) -> None:
        """Return one pipeline's whole holding to the others (or the free
        pool), clearing its row.  ``row`` must not be in ``waiting_rows``."""
        held = self._eps[row, : self._n_blocks]
        cols = np.nonzero(held > 0.0)[0]
        if cols.size:
            if len(waiting_rows):
                self._eps[np.ix_(waiting_rows, cols)] += held[cols] / len(
                    waiting_rows
                )
            else:
                self._free[cols] += held[cols]
            held[cols] = 0.0

    def settle(self, row: int, cols: np.ndarray, epsilon) -> None:
        """Deduct committed charges from one pipeline's reservations.

        ``epsilon`` may be a scalar (one charge across all columns) or a
        per-column array (several attempts' charges fused into one pass --
        clamped sequential deduction equals clamped deduction of the sum,
        since reservations and charges are nonnegative).
        """
        self._eps[row, cols] = np.maximum(0.0, self._eps[row, cols] - epsilon)

    def values(self, row: int, cols: np.ndarray) -> np.ndarray:
        """One pipeline's reservations on the named block columns.

        Columns the table has never seen (blocks registered with the
        accountant outside the platform's ingest path) read as zero.
        """
        cols = np.asarray(cols, dtype=np.intp)
        if cols.size and int(cols.max()) >= self._n_blocks:
            out = np.zeros(cols.size)
            known = cols < self._n_blocks
            out[known] = self._eps[row, cols[known]]
            return out
        return self._eps[row, cols]

    def limit(self, row: int, cols: np.ndarray) -> float:
        """The smallest reservation the pipeline holds across the columns."""
        if len(cols) == 0:
            return 0.0
        return float(self.values(row, cols).min())

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
    # Number of session attempts already deducted from reservations.
    settled_attempts: int = 0
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


class Sage:
    """A Sage deployment over one sensitive stream.

    Every :meth:`advance` is one transactional hour (see the module
    docstring): sessions stage their charges and the hour settles through
    one ``request_many`` batch, or -- when it raises before that commit --
    rolls back to the exact pre-hour state.  Streams that cannot stage
    (per-context policies, scalar-only filters) charge each proposal as
    it is granted instead.

    ``accountant_factory`` swaps the stream accountant implementation
    (e.g. :func:`repro.core.sharding.sharded_accountant_factory` for a
    partitioned ledger store); ``propose_workers`` enables the parallel
    propose phase of each staged hour (see the module docstring) -- both
    preserve trajectories byte for byte.

    ``wal_dir`` makes the platform durable (see
    :mod:`repro.core.durability`): each hour is recorded in a write-ahead
    charge log *before* it commits in memory and marked committed with a
    state digest after, and every ``snapshot_every`` committed hours a
    full-state snapshot lands next to it (the newest ``snapshot_keep`` are
    retained).  A platform constructed over a WAL directory holding prior
    state must call :meth:`recover` before advancing.  Durable mode
    requires the staged drive: the WAL records each hour as one request
    batch.

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
        accountant_factory=None,
        propose_workers: int = 0,
        wal_dir=None,
        snapshot_every: int = 0,
        snapshot_keep: int = 3,
        telemetry=None,
    ) -> None:
        # Telemetry first: the accountant, WAL writer, and snapshot store
        # constructed below all thread it through.  Disabled mode hands
        # them the no-op probe; the metrics registry always exists -- the
        # last_hour_* compatibility properties read the drive counters
        # from it.  The probe is the tracer itself normally, or the
        # tracer + wall-profiler tee when profiling is on -- same
        # span/event/hour surface either way.
        self._telemetry = telemetry
        self._tracer = telemetry.probe if telemetry is not None else NULL_PROBE
        self._metrics = (
            telemetry.metrics if telemetry is not None else MetricsRegistry()
        )
        # Counter readings at the top of the current advance(); the
        # last-hour diagnostics are deltas against this mark.
        self._hour_mark: Tuple[float, float, float] = (0, 0, 0)
        self.database = GrowingDatabase()
        self.rng = np.random.default_rng(seed)
        self.ingestor = StreamIngestor(
            source,
            self.database,
            TimePartitioner(window_hours=block_hours),
            rng=self.rng,
        )
        self.access = SageAccessControl(
            epsilon_global,
            delta_global,
            filter_factory=filter_factory,
            accountant_factory=accountant_factory,
        )
        self.store = ModelFeatureStore()
        self.epsilon_global = epsilon_global
        self.delta_global = delta_global
        self._pipelines: List[SubmittedPipeline] = []
        # All pipelines' epsilon reservations plus the unreserved free pool,
        # columns aligned to the stream accountant's ledger-store rows.
        self._table = ReservationTable()
        # Parallel propose drive: peek every waiting session's first
        # proposal of the hour in this many worker threads (0 = off).
        # Requires the staged path (speculation is validated against the
        # staged overlay's emptiness); trajectories are byte-identical to
        # the sequential drive either way.
        self.propose_workers = max(0, int(propose_workers))
        self._propose_pool: Optional[ThreadPoolExecutor] = None
        # The drive emits its spans from the accountant's serial commit
        # points (charge batches, per-shard validation footprints).
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
        self._needs_recovery = False
        if self._wal_dir is not None:
            self._require_staging()
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
        granted, _, _ = self._hour_mark
        return int(
            self._metrics.counter_value("sage_charges_granted_total") - granted
        )

    @property
    def last_hour_speculations(self) -> Tuple[int, int]:
        """Speculations (adopted, invalidated) in the most recent
        ``advance()``: each speculation is counted exactly once, under the
        outcome its snapshot token earned it (ordinary proposes appear in
        neither counter).  Compatibility view over the registry's
        ``sage_speculations_*_total`` counters."""
        _, adopted, invalidated = self._hour_mark
        metrics = self._metrics
        return (
            int(
                metrics.counter_value("sage_speculations_adopted_total")
                - adopted
            ),
            int(
                metrics.counter_value("sage_speculations_invalidated_total")
                - invalidated
            ),
        )

    def _mark_hour_metrics(self) -> None:
        """Open an hour for the last-hour deltas: remember the drive
        counters' current readings."""
        metrics = self._metrics
        self._hour_mark = (
            metrics.counter_value("sage_charges_granted_total"),
            metrics.counter_value("sage_speculations_adopted_total"),
            metrics.counter_value("sage_speculations_invalidated_total"),
        )

    def _finish_hour_metrics(self) -> None:
        """Close the hour in the registry: per-hour gauges from the
        counter deltas plus the advanced-hours counter."""
        metrics = self._metrics
        adopted, invalidated = self.last_hour_speculations
        metrics.set_gauge("sage_hour_charges", self.last_hour_charges)
        metrics.set_gauge("sage_hour_speculations_adopted", adopted)
        metrics.set_gauge("sage_hour_speculations_invalidated", invalidated)
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
            row_budget_fn=lambda rows, e=entry: self._reservation_values(e, rows),
            new_block_epsilon_fn=self._new_block_share,
        )
        entry.session = session
        self._pipelines.append(entry)
        return entry

    # ------------------------------------------------------------------
    # Allocation (conserve strategy of §3.3, one table op per step)
    # ------------------------------------------------------------------
    def _waiting_pipelines(self) -> List[SubmittedPipeline]:
        return [p for p in self._pipelines if p.waiting]

    def _waiting_rows(self) -> np.ndarray:
        return np.fromiter(
            (p.table_row for p in self._pipelines if p.waiting), dtype=np.intp
        )

    def _new_block_share(self) -> float:
        """Per-pipeline epsilon a freshly created block would grant now."""
        waiting = max(1, len(self._waiting_pipelines()))
        return self.epsilon_global / waiting

    def _reservation_values(
        self, entry: SubmittedPipeline, rows: np.ndarray
    ) -> np.ndarray:
        """Per-store-row epsilon this pipeline may still spend.  Charges made
        earlier in the same session step are settled first so mid-step
        attempts cannot overdraw the reservation."""
        self._settle_charges(entry)
        return self._table.values(entry.table_row, rows)

    def _reservation_limit(self, entry: SubmittedPipeline, window) -> float:
        """The epsilon this pipeline may spend on that window: the smallest
        reservation it holds across the window's blocks."""
        self._settle_charges(entry)
        if not window:
            return 0.0
        rows = self.access.accountant.rows_for_keys(window)
        return self._table.limit(entry.table_row, rows)

    def _allocate_block(self, key: object) -> None:
        """Divide a new block's budget evenly among waiting pipelines."""
        col = self._table.add_block()
        # Columns mirror the accountant's registration order by
        # construction; a drifted column (e.g. a block registered with the
        # accountant outside the platform's ingest path) would silently
        # misdirect budget, so it must be a hard error.
        store_row = int(self.access.accountant.rows_for_keys([key])[0])
        if col != store_row:
            raise PipelineError(
                f"reservation column {col} drifted from store row "
                f"{store_row} for block {key!r}"
            )
        self._table.allocate(col, self.epsilon_global, self._waiting_rows())

    def _redistribute(self, finished: SubmittedPipeline) -> None:
        """Return a finished pipeline's unused reservations to the others."""
        self._table.release(finished.table_row, self._waiting_rows())

    def _grant_free_pool(self) -> None:
        """Hand any unreserved budget to newly waiting pipelines."""
        self._table.grant_free(self._waiting_rows())

    def _settle_charges(self, entry: SubmittedPipeline) -> None:
        """Decrement reservations by what the session actually charged.

        All unsettled attempts settle in one pass: one ``rows_for_keys``
        call over every window, a ``bincount`` fusing per-block deductions,
        and a single clamped ``ReservationTable.settle`` update.  Clamped
        sequential deduction equals the clamped deduction of the sum in
        exact arithmetic; with more than one pending attempt the fused sum
        can differ from the sequential loop by float rounding (~1 ulp).
        The platform drive never produces that case -- window selection
        settles after every attempt via ``row_budget_fn``, so at most one
        attempt is pending here -- and the single-attempt path below is
        bit-identical to the seed loop.
        """
        attempts = entry.session.attempts
        pending = attempts[entry.settled_attempts:]
        if not pending:
            return
        accountant = self.access.accountant
        rows = accountant.rows_for_keys(
            [key for record in pending for key in record.window]
        )
        if len(pending) == 1:
            self._table.settle(entry.table_row, rows, pending[0].budget.epsilon)
        else:
            epsilons = np.repeat(
                np.array([record.budget.epsilon for record in pending]),
                [len(record.window) for record in pending],
            )
            fused = np.bincount(rows, weights=epsilons)
            cols = np.nonzero(fused)[0]
            self._table.settle(entry.table_row, cols, fused[cols])
        entry.settled_attempts = len(attempts)

    # ------------------------------------------------------------------
    # Parallel propose phase (speculative first proposals)
    # ------------------------------------------------------------------
    def _ensure_propose_pool(self) -> ThreadPoolExecutor:
        if self._propose_pool is None:
            self._propose_pool = ThreadPoolExecutor(
                max_workers=self.propose_workers,
                thread_name_prefix="sage-propose",
            )
        return self._propose_pool

    def close(self) -> None:
        """Release worker threads (the propose pool and, for sharded
        accountants, the shard-validation pool).  Idempotent; the platform
        keeps working afterwards -- pools are re-created on demand."""
        if self._propose_pool is not None:
            self._propose_pool.shutdown(wait=False)
            self._propose_pool = None
        accountant_close = getattr(self.access.accountant, "close", None)
        if accountant_close is not None:
            accountant_close()
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

    def _speculate_proposals(self) -> Dict[int, SpeculativeProposal]:
        """Peek every waiting session's first proposal in the worker pool.

        Runs right after ``begin_staging()`` opened the hour's (empty)
        overlay, so each peek reads exactly the state the sequential drive
        would show the *first* session -- committed totals, this hour's
        allocations, no staged spend.  Peeks are pure reads
        (``propose_peek`` mutates nothing; window scans against an open
        overlay defer retirement persistence), so any interleaving yields
        the same per-session results.  Sessions are dealt round-robin into
        one task per worker to amortize dispatch overhead.  Hours with
        fewer than two waiting sessions skip speculation entirely (there
        is nothing to share; both counters stay zero).
        """
        waiting = [e for e in self._pipelines if e.waiting]
        if len(waiting) < 2:
            return {}
        n_waiting = len(waiting)
        workers = min(self.propose_workers, n_waiting)

        def peek_chunk(chunk):
            out = []
            for entry in chunk:
                proposal, status_after = entry.session.propose_peek()
                out.append(
                    (
                        id(entry),
                        SpeculativeProposal(
                            proposal=proposal,
                            status_after=status_after,
                            n_waiting=n_waiting,
                            n_attempts=len(entry.session.attempts),
                        ),
                    )
                )
            return out

        pool = self._ensure_propose_pool()
        chunks = [waiting[w::workers] for w in range(workers)]
        speculations: Dict[int, SpeculativeProposal] = {}
        # All peeks read the same frozen snapshot (the empty overlay), so
        # whole-stream admit scans are shared across sessions for the
        # duration of the phase -- the second leg of the parallel win.
        accountant = self.access.accountant
        accountant.begin_scan_memo()
        try:
            for result in pool.map(peek_chunk, chunks):
                speculations.update(result)
        finally:
            accountant.end_scan_memo()
        return speculations

    def _speculation_valid(
        self,
        entry: SubmittedPipeline,
        spec: SpeculativeProposal,
        waiting_count: int,
    ) -> bool:
        """Whether the peeked snapshot provably still holds (see
        :class:`SpeculativeProposal`).  ``waiting_count`` is the current
        waiting-pipeline count, maintained O(1) by the hour loop (sessions
        only leave the waiting set by terminating during their own drive)."""
        return (
            spec.n_attempts == len(entry.session.attempts)
            and self.access.accountant.staged_request_count == 0
            and spec.n_waiting == waiting_count
        )

    # ------------------------------------------------------------------
    def _drive_session(
        self,
        entry: SubmittedPipeline,
        staged: bool,
        spec: Optional[SpeculativeProposal],
        waiting_count: int,
    ) -> None:
        """Run one session's propose/decide/complete loop for this hour.

        Every proposal is validated against the hour's staged batch (or
        executed immediately on the sequential path), its window assembled,
        and the decision fed back; a refusal becomes a denied decision, so
        the session blocks on NEED_DATA with escalation state untouched
        instead of the refusal propagating.

        ``spec`` is the session's speculative first proposal from the
        parallel propose phase: adopted for the first iteration when its
        snapshot token still holds (skipping the propose scan entirely),
        discarded otherwise.  Only the first attempt can be speculative --
        later attempts depend on this hour's own staged charges.
        """
        session = entry.session
        session.wake()
        metrics = self._metrics
        tracer = self._tracer
        if spec is not None and not self._speculation_valid(
            entry, spec, waiting_count
        ):
            spec = None
            metrics.inc("sage_speculations_invalidated_total")
            tracer.event("speculation.invalidated", session=entry.name)
        while session.status == SessionStatus.RUNNING:
            if spec is not None:
                proposal, status_after = spec.proposal, spec.status_after
                spec = None
                metrics.inc("sage_speculations_adopted_total")
                tracer.event("speculation.adopted", session=entry.name)
                if proposal is None:
                    # Exactly the transition propose() would have made.
                    session.status = status_after
                    break
            else:
                proposal = session.propose()
                if proposal is None:
                    break
            window = list(proposal.window)
            granted = True
            try:
                if staged:
                    self.access.stage_request(
                        window, proposal.budget, label=entry.name
                    )
                else:
                    self.access.request(window, proposal.budget, label=entry.name)
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

    def advance(self, hours: float = 1.0) -> List[ReleasedBundle]:
        """Move the clock one transactional hour: ingest, allocate, drive
        sessions, settle, release, commit.

        Returns the bundles released during this step.  A staged hour
        commits all its charges through exactly one
        ``SageAccessControl.request_many`` call after every session has
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
        staged = self.access.supports_staged_requests
        wal = None
        if self._wal_dir is not None:
            self._require_staging()
            wal = self._ensure_wal()
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
                if staged:
                    self.access.begin_staging()
                released = self._drive_hour(staged)
                if wal is not None:
                    # Build the record while the staged batch is still open
                    # (it carries the batch verbatim), write ahead, then
                    # commit.
                    wal.append_hour(
                        self._build_hour_record(txn, hours, new_blocks)
                    )
                if staged:
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
                # -- recovery rebuilds that state from disk.  Per-request
                # hours charged as they went, so there is no consistent
                # pre-hour state to return them to.
                crashed = wal is not None and isinstance(
                    exc, faults.InjectedCrash
                )
                if staged and not crashed:
                    try:
                        self._rollback_hour(txn)
                    finally:
                        if self.access.staging_active:
                            self.access.abort_staged()
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
        """Ingest the hour's stream slice and fund its blocks: register in
        every ledger set, allocate evenly to waiting pipelines, grant the
        free pool.  Returns the new blocks (also the WAL replay re-entry
        point -- identical given identical clock/RNG state)."""
        with self._tracer.span("advance.open") as opening:
            new_blocks = self.ingestor.advance(hours)
            # Register the hour's blocks in every ledger set (stream-wide
            # and per-context); the access layer interleaves sets per key
            # so a failure cannot leave them inconsistent.
            self.access.register_blocks([block.key for block in new_blocks])
            for block in new_blocks:
                self._allocate_block(block.key)
            self._grant_free_pool()
            opening.set(new_blocks=len(new_blocks))
        return new_blocks

    def _drive_hour(self, staged: bool) -> List[ReleasedBundle]:
        """Drive every waiting session through the hour's propose/settle
        loop (after :meth:`_open_hour`; inside the staging window on the
        staged path).  Returns the hour's released bundles."""
        # Parallel propose phase: peek every waiting session's first
        # proposal against the freshly opened (empty) overlay.  Needs
        # the staged path -- speculation tokens are defined against it.
        speculations: Dict[int, SpeculativeProposal] = {}
        tracer = self._tracer
        if staged and self.propose_workers > 0:
            with tracer.span(
                "advance.propose_fanout", workers=self.propose_workers
            ) as fanout:
                speculations = self._speculate_proposals()
                fanout.set(peeked=len(speculations))
        released: List[ReleasedBundle] = []
        # Maintained O(1) through the loop: sessions only leave the
        # waiting set by terminating during their own drive below.
        waiting_count = sum(1 for p in self._pipelines if p.waiting)
        driven = 0
        for entry in self._pipelines:
            if not entry.waiting:
                continue
            # The span covers the session's whole hour -- drive, settle,
            # release, redistribute -- so the profiler attributes the
            # settlement tail (a whole-table ReservationTable op per
            # terminating session) to the session that caused it.  The
            # settle/release helpers emit no telemetry, so the widened
            # body leaves the deterministic tick sequence untouched.
            with tracer.span("session.drive", session=entry.name):
                self._drive_session(
                    entry, staged, speculations.get(id(entry)), waiting_count
                )
                self._metrics.inc("sage_sessions_driven_total")
                driven += 1
                if entry.session.is_terminal:
                    waiting_count -= 1
                self._settle_charges(entry)
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
                    self._redistribute(entry)
        # One settle marker per hour (not per session: settle instants
        # ride the per-session hot path, and the session.drive spans
        # already carry the per-session timeline).
        if driven:
            tracer.event("reservations.settle", sessions=driven)
        return released

    # ------------------------------------------------------------------
    # Durability: pre-hour capture, rollback, WAL records, recovery
    # ------------------------------------------------------------------
    def _require_staging(self) -> None:
        """Durable mode records each hour as one staged request batch."""
        if not self.access.supports_staged_requests:
            raise DurabilityError(
                "durable mode (wal_dir) requires the staged hourly drive: a "
                "staging-capable accountant and no per-context policies"
            )

    def _ensure_wal(self) -> durability.WalWriter:
        if self._wal_dir is None:
            raise DurabilityError("platform was constructed without a wal_dir")
        if self._wal is None:
            self._wal = durability.WalWriter(
                durability.wal_path(self._wal_dir), telemetry=self._telemetry
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
        entries = []
        for index, entry in enumerate(self._pipelines):
            if not entry.waiting:
                continue
            session = entry.session
            entries.append(
                (
                    index,
                    {
                        "status": session.status,
                        "epsilon": session.epsilon,
                        "epsilon_floor": session.epsilon_floor,
                        "delta": session.delta,
                        "window_blocks": session.window_blocks,
                        "n_attempts": len(session.attempts),
                        "total_spent": session.total_spent,
                        "final_run": session.final_run,
                        "settled_attempts": entry.settled_attempts,
                        "release_time_hours": entry.release_time_hours,
                        "bundle": entry.bundle,
                    },
                )
            )
        return {
            "n_blocks": len(self.access.accountant.store),
            "clock": self.clock_hours,
            "rng_state": self.rng.bit_generator.state,
            "db_mark": self.database.mark(),
            "matrix": self._table.matrix.copy(),
            "free": self._table.free_epsilon.copy(),
            "store_marks": self.store.version_marks(),
            "entries": entries,
        }

    def _rollback_hour(self, txn: dict) -> None:
        """Restore the platform to the :meth:`_capture_hour` state:
        deregister the hour's blocks (truncating the ledger store),
        restore reservations, rewind every session, withdraw the hour's
        released bundles, unwind the ingest, rewind clock and RNG."""
        self.access.accountant.rollback_registrations(txn["n_blocks"])
        self.database.truncate_to_mark(txn["db_mark"])
        self.ingestor.clock_hours = txn["clock"]
        self.rng.bit_generator.state = txn["rng_state"]
        self._table.restore(txn["matrix"], txn["free"])
        for index, pre in txn["entries"]:
            entry = self._pipelines[index]
            session = entry.session
            session.status = pre["status"]
            session.epsilon = pre["epsilon"]
            session.epsilon_floor = pre["epsilon_floor"]
            session.delta = pre["delta"]
            session.window_blocks = pre["window_blocks"]
            session.total_spent = pre["total_spent"]
            session.final_run = pre["final_run"]
            del session.attempts[pre["n_attempts"]:]
            entry.settled_attempts = pre["settled_attempts"]
            entry.release_time_hours = pre["release_time_hours"]
            entry.bundle = pre["bundle"]
        self.store.rollback_to_marks(txn["store_marks"])

    def _build_hour_record(self, txn: dict, hours: float, new_blocks) -> dict:
        """The hour's WAL record: the staged request batch verbatim plus
        per-session deltas, bracketed by the pre/post clock and RNG states
        (replay restores the *pre* pair before re-ingesting and the *post*
        pair after, so it never depends on the recovering process's own
        clock or RNG position)."""
        deltas = []
        for index, pre in txn["entries"]:
            entry = self._pipelines[index]
            session = entry.session
            deltas.append(
                {
                    "index": index,
                    "status": session.status,
                    "epsilon": session.epsilon,
                    "epsilon_floor": session.epsilon_floor,
                    "delta": session.delta,
                    "window_blocks": session.window_blocks,
                    "total_spent": session.total_spent,
                    "settled_attempts": entry.settled_attempts,
                    "release_time_hours": entry.release_time_hours,
                    "attempts": durability._attempt_tuples(
                        session.attempts[pre["n_attempts"]:]
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
            "entry_names": [entry.name for entry in self._pipelines],
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
        subsequent WAL hour through the live ``charge_many`` path --
        byte-identical by construction, verified against each commit
        marker's state digest.  A torn trailing record (mid-append crash)
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
            # Re-open the log for appending; a torn tail is truncated here.
            self._ensure_wal()
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

        Re-ingests the hour's stream slice under the recorded pre-hour
        clock/RNG (regenerating the same blocks), re-applies each
        session's recorded attempts with a settle after every one (the
        drive's own cadence -- single-pending settles are bit-identical),
        redistributes exactly where the drive would have, and lands the
        hour's charges through the **same** ``request_many`` call the
        live hour committed through.  No parallel apply path exists.
        """
        accountant = self.access.accountant
        if record["schema_width"] != accountant.store.width:
            raise RecoveryError(
                f"WAL hour {record['hour_index']}: schema width "
                f"{record['schema_width']} does not match platform "
                f"{accountant.store.width} (different filter_factory?)"
            )
        names = [entry.name for entry in self._pipelines]
        if record["entry_names"] != names:
            raise RecoveryError(
                f"WAL hour {record['hour_index']}: pipeline names "
                f"{record['entry_names']} do not match submitted {names}"
            )
        self.rng.bit_generator.state = record["rng_state_before"]
        self.ingestor.clock_hours = record["clock_start"]
        new_blocks = self._open_hour(record["hours"])
        if [block.key for block in new_blocks] != record["new_block_keys"]:
            raise RecoveryError(
                f"WAL hour {record['hour_index']}: re-ingested block keys "
                "do not match the recorded hour (different stream source?)"
            )
        for delta in record["deltas"]:
            entry = self._pipelines[delta["index"]]
            session = entry.session
            for attempt, window, budget, outcome, train_size in delta["attempts"]:
                session.attempts.append(
                    AttemptRecord(
                        attempt=attempt,
                        window=window,
                        budget=budget,
                        outcome=outcome,
                        train_size=train_size,
                    )
                )
                # Settle after every attempt -- the drive's own cadence
                # (row_budget_fn settles mid-step), so each settle sees at
                # most one pending attempt and stays bit-identical.
                self._settle_charges(entry)
            session.status = delta["status"]
            session.epsilon = delta["epsilon"]
            session.epsilon_floor = delta["epsilon_floor"]
            session.delta = delta["delta"]
            session.window_blocks = delta["window_blocks"]
            session.total_spent = delta["total_spent"]
            entry.settled_attempts = delta["settled_attempts"]
            entry.release_time_hours = delta["release_time_hours"]
            if session.is_terminal:
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
            if not self._waiting_pipelines():
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
