"""Block-level privacy accounting (the paper's central mechanism).

The :class:`BlockAccountant` keeps every data block's running loss sums in
one :class:`LedgerStore` row and implements Alg. 4(c)'s ``AccessControl``
check: a query naming a set of blocks and an (epsilon, delta) is admitted
iff the filter admits the charge on *every* named block's row; the charge
is then committed atomically (all blocks or none).  By Theorem 4.2/4.3
this enforces the global (eps_g, delta_g)-DP guarantee for the whole
stream while new blocks keep arriving with zero privacy loss -- the
property that lets Sage run forever.

A block whose filter no longer admits the configured minimum charge is
*retired* (the DP-informed retention policy of §3.2): it stays retired for
good, since privacy loss never decreases.

Struct-of-arrays ledger store (pluggable totals schema)
-------------------------------------------------------
Every composition analysis here decides admissibility from running sums per
block, so the accountant keeps every block's totals in one contiguous
float64 matrix (:class:`LedgerStore`) of shape
``(n_blocks, filter.totals_width)``.  The first ``TOTALS_BASE`` (= 4)
columns are fixed for every filter class:

====== ==========================================
column meaning
====== ==========================================
0      ``sum eps_i``           (basic composition)
1      ``sum delta_i``         (basic composition)
2      ``sum eps_i^2``         (Theorem A.2 variance term)
3      ``sum (e^{eps_i} - 1) eps_i / 2``  (Theorem A.2 linear term)
====== ==========================================

and a filter may extend the row with its own additively-composed state:
:class:`~repro.core.filters.RenyiCompositionFilter` appends one running-RDP
column per Renyi order (columns ``4 .. 4 + len(orders)``, in the filter's
``orders`` sequence order), so an RDP stream's whole ledger is one
``(n_blocks, 4 + len(orders))`` matrix and every scan below stays a single
vectorized pass.  The increment a charge adds to a row is defined solely by
``filter.contribution(budget)`` -- ``charge`` and the staged overlay
(every batch, ``charge_many``'s included) both apply that exact vector,
which is what keeps single, batched and staged accounting float-identical
whatever the schema width.

The store also keeps a per-row charge count and a boolean *live* mask
(False once a block is retired).  Rows are in registration order and are
never reclaimed; the arrays grow by doubling.  The store rows plus the
append-only charge log are the accountant's whole per-block state: a
block's charge history, when a caller wants one, is the charge log
filtered by key.

Filter API: the ``filter_factory`` runs once per accountant, and the one
filter it builds makes every decision -- charges, ``charge_many`` batches,
staged charges and the whole-stream scans (``admit_rows``,
``usable_blocks``, ``can_charge``, ``max_epsilon``, ``retired_blocks``)
and the ``stream_loss_bound`` report -- through its
``admits_batch`` / ``max_epsilon_batch`` / ``loss_bound_batch`` over store
rows, the only decision forms a filter has (see ``repro.core.filters``).
The guarantee needs ``admits_batch`` alone: ``charge`` and staging
validate every write through it, a batch lands only what staging
validated, and ``max_epsilon_batch`` only sizes proposals -- so a filter
subclass that overrides ``admits_batch`` and inherits the rest can get a
proposal refused, never over-admitted.

Batched atomic multi-charge (``charge_many``)
---------------------------------------------
``charge_many(requests)`` settles a whole batch of ``(block_keys, budget[,
label])`` charges -- e.g. one simulated hour of allocator settlements -- in
one pass.  Its contract:

* **Sequential equivalence.**  Requests are validated in order against
  running totals that already include every earlier request in the batch
  (intra-batch accumulation), so two charges naming the same block in one
  batch are checked against their combined total.  A committed batch leaves
  the store rows and the charge log exactly as the same charges applied
  one at a time through ``charge`` would have.
* **Atomicity.**  The commit is all-or-nothing: if any request is refused,
  nothing is committed anywhere and the error ``charge`` would have raised
  for that request (``BlockRetiredError`` / ``BudgetExceededError``)
  propagates.
* **The hour's own bodies.**  The batch is staged into a private
  :class:`StagedBatch` and landed with one bulk row write, through the
  staging and landing bodies of ``stage_charge`` and ``commit_staged``.
  ``can_charge_many`` stages it and discards it.

Staged batches (the propose/settle commit path)
-----------------------------------------------
The platform's two-phase session protocol validates charges as sessions
propose them but commits the whole hour in one bulk write.  The accountant
supports this with a :class:`StagedBatch` overlay opened by
``begin_staging()``:

* ``stage_charge(rows, keys, budget, label)`` validates a request against
  the *effective* totals (committed store rows plus every earlier staged
  charge, accumulated in request order) and records it without touching
  the store.  A refusal raises the same error ``charge`` would and stages
  nothing.
* While a batch is open, every admissibility read (``admits_keys``,
  ``can_charge``, ``max_epsilon``, ``admit_rows`` and the keyed
  ``usable_blocks`` over it) sees the effective totals, so later
  proposers contend with earlier staged charges exactly as they would
  with committed ones.  ``stream_loss_bound``
  and the charge log keep reporting *committed* state only, and retirement
  is not persisted until the batch closes (scans still filter staged-retired
  blocks out).
* While a batch is open, whole-stream admit scans are memoized per floor
  budget on the batch itself (``StagedBatch.scan_memo``): an admit mask
  over the store rows plus the read-only row array readers get.  The
  memo survives stages.  A successful ``stage_charge`` re-decides only
  the rows it staged -- one ``admits_batch`` over those rows at the
  retirement budget, one more per memoized floor -- and re-derives the
  row array of each floor where one of those decisions changed, so a
  stage costs O(rows staged x floors) plus one O(stream) derivation per
  floor it moved, instead of the next reader's rescan.  A floor whose
  decisions all stand keeps its array object: while the batch is open,
  the same array means the same decisions.  This is exact: ``admits_batch``
  decides a row from that row's totals alone, the staged charge moved no
  other row's effective totals, and ``store.live`` cannot move while a
  batch is open (retirement is persisted only outside one).  A refused
  ``stage_charge`` moves nothing and touches no entry; a block registered
  or registrations rolled back mid-batch (both rare) clear the memo.
  Decisions are identical to rescanning.
* ``commit_staged()`` closes the overlay and lands it: the touched
  effective rows and their staged charge counts in one bulk row write,
  then the requests on the charge log.  Staging already validated every
  request, so the commit does not validate again; WAL replay's
  ``charge_many(requests)`` runs the same bodies.  ``pop_staged()``
  closes the overlay without committing and returns the requests (the
  platform's hour rollback).

Every accountant can stage, since every filter decides from the totals the
overlay carries.  Mutating the accountant through
``charge``/``charge_many`` while a batch is open is an error, since the
overlay could not see those writes.

The hour reads and stages store rows (``admit_rows``, ``max_epsilon``,
``stage_charge``); ``keys_for_rows`` builds a window's keys once, for what
is recorded, and the keyed methods serve callers outside the hour, WAL
replay's ``rows_for_keys`` among them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import faults
from repro.core.filters import TOTALS_BASE, BasicCompositionFilter, PrivacyFilter
from repro.dp.budget import PrivacyBudget, ZERO_BUDGET
from repro.errors import (
    BlockRetiredError,
    BudgetExceededError,
    InvalidBudgetError,
    RecoveryError,
    SnapshotMismatchError,
)
from repro.obs.trace import NULL_PROBE

__all__ = [
    "BlockAccountant",
    "ChargeRecord",
    "LedgerStore",
    "StagedBatch",
]

# Column indices of the shared base columns of the totals matrix (see
# module docstring); filter-specific columns (e.g. per-order RDP) follow.
TOT_EPS, TOT_DELTA, TOT_SQ, TOT_LINEAR = range(TOTALS_BASE)


@dataclass(frozen=True)
class ChargeRecord:
    """One committed charge: who consumed what, against which blocks."""

    budget: PrivacyBudget
    block_keys: tuple
    label: str = ""


class LedgerStore:
    """Contiguous struct-of-arrays running totals for a stream's blocks.

    One row per registered block, in registration order; rows are appended
    with amortized O(1) doubling growth and never deleted (retirement only
    clears the live bit -- privacy loss is forever).  ``width`` is the
    filter's totals-row length: the shared base columns plus any
    filter-specific extension (see the module docstring's column map).
    """

    def __init__(self, capacity: int = 64, width: int = TOTALS_BASE) -> None:
        capacity = max(1, int(capacity))
        self._width = max(TOTALS_BASE, int(width))
        self._totals = np.zeros((capacity, self._width), dtype=np.float64)
        self._live = np.zeros(capacity, dtype=bool)
        self._counts = np.zeros(capacity, dtype=np.int64)
        self._size = 0

    def __len__(self) -> int:
        return self._size

    @property
    def width(self) -> int:
        """Totals-row length (4 base columns + filter extension)."""
        return self._width

    @property
    def totals(self) -> np.ndarray:
        """The (n_blocks, width) totals matrix.

        A view into the backing buffer: re-read it on each use rather than
        caching it, since registering a block past the current capacity
        reallocates the buffer and silently detaches old views.
        """
        return self._totals[: self._size]

    @property
    def live(self) -> np.ndarray:
        """Boolean mask of blocks not yet retired.

        A writable view with the same caveat as :attr:`totals`: growth
        reallocates, so never cache it across block registrations.
        """
        return self._live[: self._size]

    @property
    def charge_counts(self) -> np.ndarray:
        """Number of committed charges per block (view caveat as above)."""
        return self._counts[: self._size]

    def _grow(self, array: np.ndarray) -> np.ndarray:
        shape = (2 * array.shape[0],) + array.shape[1:]
        grown = np.zeros(shape, dtype=array.dtype)
        grown[: self._size] = array[: self._size]
        return grown

    def append(self) -> int:
        """Add a zeroed row for a new block; returns its row index."""
        if self._size == self._totals.shape[0]:
            self._totals = self._grow(self._totals)
            self._live = self._grow(self._live)
            self._counts = self._grow(self._counts)
        index = self._size
        self._totals[index, :] = 0.0
        self._live[index] = True
        self._counts[index] = 0
        self._size += 1
        return index

    def write_rows(self, indices, totals: np.ndarray, counts: np.ndarray) -> None:
        """Bulk row update (every charge commit lands through here)."""
        self._totals[indices] = totals
        self._counts[indices] = counts

    def retire(self, indices) -> None:
        # repro: allow(purity) -- deferred retirement persistence: scans may
        # lazily mark exhausted blocks; idempotent and observationally
        # invisible (a retired block refuses every charge either way).
        self._live[indices] = False

    def truncate_to(self, size: int) -> None:
        """Drop every row past ``size`` (the durability layer's hour
        rollback: the only rows ever truncated are same-hour registrations
        that no committed charge has touched).  Vacated buffer regions are
        re-zeroed so they stay indistinguishable from never-used capacity.
        """
        size = int(size)
        if size < 0 or size > self._size:
            raise RecoveryError(
                f"cannot truncate store of {self._size} rows to {size}"
            )
        if size == self._size:
            return
        self._totals[size : self._size] = 0.0
        self._live[size : self._size] = False
        self._counts[size : self._size] = 0
        self._size = size


class StagedBatch:
    """Charges validated against the accountant but not yet committed.

    The hour's open batch, or a private one of ``charge_many``.  Keeps one
    dense *effective-totals* matrix: a copy of the committed store totals
    that absorbs each staged request's contribution in request order, so
    staging decisions and the final commit can never disagree, and reads
    through the overlay are as cheap as reads of the store itself -- plus
    each request's store rows (``rows``, aligned with ``requests``), whose
    per-row tally the commit adds to the store's charge counts.
    """

    def __init__(self, accountant: "BlockAccountant") -> None:
        self._eff = accountant.store.totals.copy()
        self.requests: List[tuple] = []
        self.rows: List[np.ndarray] = []
        # Whole-stream admit scans by floor budget: (admit mask over the
        # store rows, its read-only np.flatnonzero row array).  Filled by
        # BlockAccountant._live_admit_rows, brought up to date on the
        # staged rows by every successful stage, cleared when the row set
        # moves; it dies with the batch.
        self.scan_memo: Dict[PrivacyBudget, Tuple[np.ndarray, np.ndarray]] = {}

    def effective_totals(self, size: int) -> np.ndarray:
        """The (size, width) committed-plus-staged totals view.

        Blocks registered after the batch opened have zero committed totals
        and no staged charges, so their effective rows are zero too.
        """
        if size > self._eff.shape[0]:
            capacity = max(size, 2 * self._eff.shape[0])
            grown = np.zeros((capacity, self._eff.shape[1]))
            grown[: self._eff.shape[0]] = self._eff
            # repro: allow(purity) -- capacity growth only: new rows are all
            # zero, so every read returns the same values as before.
            self._eff = grown
        return self._eff[:size]

    def charged_rows(self):
        """Rows with staged charges (ascending) and how many each has."""
        counts = np.bincount(np.concatenate(self.rows))
        rows = np.flatnonzero(counts)
        return rows, counts[rows]


class BlockAccountant:
    """The privacy accounting of one sensitive stream's blocks, with atomic
    multi-block charges.

    Parameters
    ----------
    epsilon_global / delta_global:
        The stream's global DP policy (the company-configured ceiling).
    filter_factory:
        Called once, with ``(epsilon_global, delta_global)``, to build the
        filter that decides for every block; defaults to basic composition
        (Theorem 4.3).  Pass ``StrongCompositionFilter`` for Theorem A.2
        accounting.  The filter decides from the totals row alone (see the
        module docstring).

    Blocks that cannot absorb ``retirement_budget`` any more count as
    retired; it is fixed at (epsilon_global/1000, 0).
    """

    def __init__(
        self,
        epsilon_global: float,
        delta_global: float,
        filter_factory: Optional[Callable[[float, float], PrivacyFilter]] = None,
    ) -> None:
        if filter_factory is None:
            filter_factory = BasicCompositionFilter
        self.epsilon_global = epsilon_global
        self.delta_global = delta_global
        self.retirement_budget = PrivacyBudget(epsilon_global / 1000.0, 0.0)
        self._charges: List[ChargeRecord] = []
        # The one filter that evaluates the whole matrix in one pass + the
        # struct-of-arrays totals store sized to its declared schema width.
        self._batch_filter = filter_factory(epsilon_global, delta_global)
        self._store = LedgerStore(width=self._batch_filter.totals_width)
        self._keys: List[object] = []
        self._rows: Dict[object, int] = {}
        # Open staged batch (the propose/settle overlay), or None.
        self._staged: Optional[StagedBatch] = None
        # Telemetry probe attached by a traced platform (the no-op probe
        # otherwise).  Consulted only on the mutating charge path, never by
        # the pure read surface, and never fed back into accounting
        # decisions.
        self._tracer = NULL_PROBE

    # ------------------------------------------------------------------
    # Block lifecycle
    # ------------------------------------------------------------------
    def register_block(self, key: object) -> None:
        """Add a store row for a freshly ingested block (zero loss so far)."""
        if key in self._rows:
            raise InvalidBudgetError(f"block {key!r} already registered")
        # A new row changes every whole-stream scan: memoized scans are stale.
        self._invalidate_scans()
        self._rows[key] = self._store.append()
        self._keys.append(key)

    def register_blocks(self, keys: Sequence[object]) -> None:
        for key in keys:
            self.register_block(key)

    def __contains__(self, key: object) -> bool:
        return key in self._rows

    @property
    def block_keys(self) -> List[object]:
        return list(self._keys)

    @property
    def store(self) -> LedgerStore:
        """The struct-of-arrays totals store (rows in registration order)."""
        return self._store

    @property
    def batch_filter(self) -> PrivacyFilter:
        """The accountant's one filter (telemetry reads its order grid to
        gauge Renyi order saturation; accounting goes through the batch
        scan methods, not this handle)."""
        return self._batch_filter

    def attach_tracer(self, tracer) -> None:
        """Attach a telemetry probe (``NULL_PROBE`` detaches).  The probe
        only ever *records* -- the ``charge.batch`` span of
        ``charge_many`` and of ``commit_staged`` -- so attaching one
        cannot change any admission decision."""
        self._tracer = tracer

    @property
    def delta_reserved(self) -> float:
        """Share of ``delta_global`` the filter's own analysis consumes
        (zero for basic composition); sessions ration attempt deltas out of
        the remainder so repeated attempts cannot delta-exhaust a block."""
        return self._batch_filter.delta_reserved

    def _key_rows(self, keys: Sequence[object]) -> np.ndarray:
        """Store rows for the named keys; rejects unregistered keys."""
        try:
            return np.fromiter(
                map(self._rows.__getitem__, keys), dtype=np.intp, count=len(keys)
            )
        except KeyError as exc:
            raise InvalidBudgetError(
                f"block {exc.args[0]!r} was never registered"
            ) from None

    def rows_for_keys(self, keys: Sequence[object]) -> np.ndarray:
        """Store row indices (registration order) for the named keys, the
        index space of the platform's ``ReservationTable`` columns too: the
        edge translation for keyed callers such as WAL replay."""
        return self._key_rows(keys)

    def keys_for_rows(self, rows: np.ndarray) -> tuple:
        """The registered keys of the store ``rows``, in row-array order
        (a window's recorded names)."""
        return tuple(map(self._keys.__getitem__, rows.tolist()))

    def _totals_view(self) -> np.ndarray:
        """Totals every admissibility read decides from: the committed store
        rows, overlaid with staged contributions while a batch is open."""
        if self._staged is not None:
            return self._staged.effective_totals(len(self._store))
        return self._store.totals

    # ------------------------------------------------------------------
    # Staged batches (validate now, commit the hour in one commit_staged)
    # ------------------------------------------------------------------
    @property
    def staging_active(self) -> bool:
        return self._staged is not None

    @property
    def staged_requests(self) -> List[tuple]:
        """Copy of the open batch's ``(keys, budget, label)`` requests
        (empty when no batch is open).

        This is what the durability layer writes ahead: the exact batch the
        closing ``commit_staged`` will land, captured *before* the commit
        so a crash between WAL append and commit replays the identical
        requests (through ``charge_many``).
        """
        if self._staged is None:
            return []
        return list(self._staged.requests)

    @property
    def staged_request_count(self) -> int:
        """Number of charges staged in the open batch (0 when none is open).

        The platform records it per hour (``sage_staged_batch_requests``).
        """
        return len(self._staged.requests) if self._staged is not None else 0

    def begin_staging(self) -> StagedBatch:
        """Open a staged batch; subsequent reads see staged charges."""
        if self._staged is not None:
            raise InvalidBudgetError("a staged batch is already open")
        self._staged = StagedBatch(self)
        return self._staged

    def _invalidate_scans(self) -> None:
        """Forget the open batch's memoized scans (the row set just
        moved); a no-op when no batch is open."""
        if self._staged is not None:
            self._staged.scan_memo.clear()

    def _redecide_staged_rows(self, rows: np.ndarray) -> None:
        """Bring every memoized scan up to date after a charge on ``rows``
        was staged: re-decide those rows, and re-derive the row array of
        each floor where a decision changed (a new read-only array; ones
        already handed out never change).  A floor whose decisions all
        stand keeps its array object, so the same array means the same
        decisions.  Every other row keeps its effective totals and its
        live bit, so each entry stays equal to a fresh scan."""
        memo = self._staged.scan_memo
        if not memo:
            return
        totals = self._staged.effective_totals(len(self._store))[rows]
        alive = self._store.live[rows] & self._batch_filter.admits_batch(
            totals, self.retirement_budget
        )
        for floor, (mask, _) in memo.items():
            if floor == self.retirement_budget:
                decided = alive
            else:
                decided = alive & self._batch_filter.admits_batch(totals, floor)
            if np.array_equal(mask[rows], decided):
                continue
            mask[rows] = decided
            admitted = np.flatnonzero(mask)
            admitted.setflags(write=False)  # shared across memo readers
            memo[floor] = (mask, admitted)

    def _stage(self, batch: StagedBatch, rows, keys, budget, label) -> None:
        """Validate one request against ``batch``'s effective totals and
        stage it there (the one staging body): request ``j`` is checked
        against exactly the totals a sequential :meth:`charge` loop would
        have produced.  Raises what :meth:`charge` would and stages
        nothing on refusal."""
        eff = batch.effective_totals(len(self._store))
        before = eff[rows]
        self._refuse_unless_admitted(keys, before, budget)
        eff[rows] = before + self._contribution(budget)
        batch.requests.append((keys, budget, label))
        # A copy: a scan's rows may be a view that would keep a whole
        # scan-memo array alive until the batch closes.
        batch.rows.append(rows.copy())

    def stage_charge(
        self, rows: np.ndarray, keys: Sequence, budget: PrivacyBudget, label: str = ""
    ) -> None:
        """Validate one request against the effective totals and stage it.

        ``rows`` come from a scan (registered and distinct by construction);
        ``keys`` name them and are recorded as given.  Raises exactly what
        :meth:`charge` would (``BlockRetiredError`` / ``BudgetExceededError``)
        and stages nothing on refusal; on success the request joins the
        batch and becomes visible to every subsequent read and stage
        decision (intra-batch accumulation).  Only that success re-decides
        the staged rows in the batch's scan memo: a refusal moves no totals
        and leaves the memo as it is.
        """
        if self._staged is None:
            raise InvalidBudgetError("no staged batch is open")
        if not len(rows):
            raise InvalidBudgetError("a charge must name at least one block")
        self._stage(self._staged, rows, keys, budget, label)
        self._redecide_staged_rows(rows)

    def commit_staged(self) -> List[ChargeRecord]:
        """Close the staged batch and commit it in one bulk row write.

        Every request was validated when it was staged, so the touched
        effective rows are the exact post-batch totals and land as they
        are; the requests then join the charge log.  Commits nothing when
        no batch is open or it is empty.  A staged charge on a block
        rolled back since raises ``InvalidBudgetError`` and commits
        nothing.
        """
        staged, self._staged = self._staged, None
        if staged is None or not staged.requests:
            return []
        return self._land(staged)

    def _land(self, batch: StagedBatch) -> List[ChargeRecord]:
        """Commit a non-empty staged batch (the one landing body): the
        touched effective rows and their staged charge counts in one bulk
        row write, then the requests on the charge log."""
        with self._tracer.span("charge.batch", requests=len(batch.requests)):
            touched, counts = batch.charged_rows()
            if touched[-1] >= len(self._store):
                raise InvalidBudgetError(
                    "a staged charge names a block rolled back since it was staged"
                )
            # Crash point between validation (done at staging) and the
            # commit: nothing has been written.
            faults.trip("charge.between_validate_and_commit")
            return self._commit_validated(
                batch.requests,
                touched,
                batch.effective_totals(len(self._store))[touched],
                counts,
            )

    def pop_staged(self) -> List[tuple]:
        """Close the staged batch without committing it, returning its
        ``(keys, budget, label)`` requests (the batch is aborted; its scan
        memo goes with it)."""
        staged, self._staged = self._staged, None
        return staged.requests if staged is not None else []

    def _forbid_staging(self, what: str) -> None:
        if self._staged is not None:
            raise InvalidBudgetError(
                f"cannot {what} while a staged batch is open; "
                "pop_staged() and commit it first"
            )

    # ------------------------------------------------------------------
    # The AccessControl check (Alg. 4(c) line 8)
    # ------------------------------------------------------------------
    def admits_keys(self, keys: Sequence[object], budget: PrivacyBudget) -> np.ndarray:
        """Per-key admit decisions in one batched filter pass."""
        if not keys:
            return np.zeros(0, dtype=bool)
        rows = self._key_rows(keys)
        return self._batch_filter.admits_batch(self._totals_view()[rows], budget)

    def can_charge(self, keys: Sequence[object], budget: PrivacyBudget) -> bool:
        """True iff every named block admits the charge."""
        if not keys:
            return False
        return bool(self.admits_keys(keys, budget).all())

    def charge(
        self, keys: Sequence[object], budget: PrivacyBudget, label: str = ""
    ) -> ChargeRecord:
        """Atomically charge ``budget`` to every named block.

        Either every named row absorbs the charge or none does (a failed
        check on any block leaves every other block untouched).
        """
        self._forbid_staging("charge")
        keys = list(keys)
        if not keys:
            raise InvalidBudgetError("a charge must name at least one block")
        if len(set(keys)) != len(keys):
            raise InvalidBudgetError("duplicate block keys in one charge")
        rows = self._key_rows(keys)
        totals = self._store.totals[rows]
        self._refuse_unless_admitted(keys, totals, budget)
        (record,) = self._commit_validated(
            [(keys, budget, label)],
            rows,
            totals + self._contribution(budget),
            np.ones(rows.size, dtype=np.int64),
        )
        return record

    # ------------------------------------------------------------------
    # Batched hourly settlement (atomic multi-request charges)
    # ------------------------------------------------------------------
    def _contribution(self, budget: PrivacyBudget) -> np.ndarray:
        """One charge's totals-row increment (every write path adds it)."""
        return self._batch_filter.contribution(budget)

    def _refuse_unless_admitted(
        self, keys: List[object], totals: np.ndarray, budget: PrivacyBudget
    ) -> None:
        """Raise for the first of ``keys`` whose totals row (``totals`` is
        aligned with ``keys``) refuses ``budget``: ``BlockRetiredError`` if
        that row no longer admits the retirement budget either, else
        ``BudgetExceededError``."""
        admitted = self._batch_filter.admits_batch(totals, budget)
        if admitted.all():
            return
        pos = int(np.argmin(admitted))
        key = keys[pos]
        row = totals[pos : pos + 1]
        if not self._batch_filter.admits_batch(row, self.retirement_budget)[0]:
            raise BlockRetiredError(f"block {key!r} is retired", block_id=key)
        raise BudgetExceededError(
            f"block {key!r} cannot absorb {budget}", block_id=key
        )

    def _stage_many(self, requests) -> StagedBatch:
        """Stage ``(keys, budget[, label])`` requests, in order, into a new
        batch of their own (never the open one), after the per-request
        checks :meth:`charge` makes.  Every request's keys are translated
        before any is validated, so an unregistered key anywhere raises
        ``InvalidBudgetError`` ahead of any refusal."""
        norm = []
        for request in requests:
            if len(request) == 2:
                keys, budget = request
                label = ""
            else:
                keys, budget, label = request
            keys = list(keys)
            if not keys:
                raise InvalidBudgetError("a charge must name at least one block")
            if len(set(keys)) != len(keys):
                raise InvalidBudgetError("duplicate block keys in one charge")
            norm.append((keys, budget, label))
        row_lists = [self._key_rows(keys) for keys, _, _ in norm]
        batch = StagedBatch(self)
        for (keys, budget, label), rows in zip(norm, row_lists):
            self._stage(batch, rows, keys, budget, label)
        return batch

    def charge_many(self, requests) -> List[ChargeRecord]:
        """Atomically commit a whole batch of ``(keys, budget[, label])`` charges.

        The batch contract: requests are validated in order against running
        totals that include every earlier request in the batch (intra-batch
        accumulation), so a committed batch is observationally identical to
        the same charges applied sequentially via :meth:`charge` -- but the
        commit is all-or-nothing: one refusing request anywhere leaves the
        totals store and the charge log untouched, and raises the error
        :meth:`charge` would have raised for that request.

        The batch is staged into a private :class:`StagedBatch` and landed
        with a single bulk row write, as the hour's batch is.
        """
        self._forbid_staging("charge_many")
        batch = self._stage_many(requests)
        if not batch.requests:
            return []
        return self._land(batch)

    def _commit_validated(
        self,
        norm: List[tuple],
        touched: np.ndarray,
        work: np.ndarray,
        counts_delta: np.ndarray,
    ) -> List[ChargeRecord]:
        """Land a validated batch: one bulk store-row write, then the charge
        log.  ``work`` must hold the touched rows' exact post-batch totals
        and ``counts_delta`` their numbers of new charges."""
        records = [
            ChargeRecord(budget=budget, block_keys=tuple(keys), label=label)
            for keys, budget, label in norm
        ]
        self._store.write_rows(
            touched, work, self._store.charge_counts[touched] + counts_delta
        )
        self._charges.extend(records)
        return records

    def can_charge_many(self, requests) -> bool:
        """True iff :meth:`charge_many` would commit the whole batch.

        An empty batch is vacuously committable.  Malformed requests (empty
        key sets, duplicate keys, unregistered blocks) raise just as
        ``charge_many`` does.
        """
        try:
            self._stage_many(requests)
        except (BudgetExceededError, BlockRetiredError):
            return False
        return True

    # ------------------------------------------------------------------
    # Durability hooks (hour rollback + snapshot export/restore)
    # ------------------------------------------------------------------
    def rollback_registrations(self, n_blocks: int) -> None:
        """Unregister every block past the first ``n_blocks`` (registration
        order) -- the durability layer's hour rollback.

        Only same-hour registrations are ever rolled back, and the platform
        rolls back strictly *before* the hour's staged batch commits, so the
        removed rows carry no committed charges; dropping them (and their
        store rows) restores the exact pre-hour accountant.
        """
        if n_blocks < 0 or n_blocks > len(self._keys):
            raise RecoveryError(
                f"cannot roll registrations back to {n_blocks}; "
                f"{len(self._keys)} blocks are registered"
            )
        removed = self._keys[n_blocks:]
        if not removed:
            return
        for key in removed:
            del self._rows[key]
        del self._keys[n_blocks:]
        # Memoized scans may name the removed rows.
        self._invalidate_scans()
        self._store.truncate_to(n_blocks)

    def export_state(self) -> dict:
        """Snapshot this accountant's full committed state (picklable).

        Pending lazy retirement is persisted first so the exported live
        mask is the normalized one every scan would converge to.
        """
        self.admit_rows()
        store = self._store
        return {
            "schema_width": store.width,
            "epsilon_global": self.epsilon_global,
            "delta_global": self.delta_global,
            "keys": list(self._keys),
            "totals": store.totals.copy(),
            "live": store.live.copy(),
            "counts": store.charge_counts.copy(),
            "charges": [
                (r.budget, r.block_keys, r.label) for r in self._charges
            ],
        }

    def restore_state(self, state: dict) -> None:
        """Restore an :meth:`export_state` snapshot into a *fresh* accountant.

        Blocks re-register through the normal registration path, the
        exported charge log is appended as is, and the exported totals,
        counts and live mask are written back verbatim -- the restored
        store is byte-identical to the exported one.  Arrays whose shape
        does not match the exported key set raise ``SnapshotMismatchError``,
        and a charge naming a block outside it raises ``RecoveryError``,
        before anything is restored.
        """
        if self._keys or self._charges:
            raise RecoveryError(
                "restore_state requires a fresh accountant "
                f"({len(self._keys)} blocks, {len(self._charges)} charges "
                "already present)"
            )
        if state["schema_width"] != self._store.width:
            raise SnapshotMismatchError(
                f"snapshot schema width {state['schema_width']} does not "
                f"match this accountant's width {self._store.width}"
            )
        if (
            state["epsilon_global"] != self.epsilon_global
            or state["delta_global"] != self.delta_global
        ):
            raise SnapshotMismatchError(
                f"snapshot global budget ({state['epsilon_global']}, "
                f"{state['delta_global']}) does not match this accountant's "
                f"({self.epsilon_global}, {self.delta_global})"
            )
        n_blocks = len(state["keys"])
        totals = np.asarray(state["totals"], dtype=np.float64)
        counts = np.asarray(state["counts"], dtype=np.int64)
        live = np.asarray(state["live"], dtype=bool)
        for name, array, expected in (
            ("totals", totals, (n_blocks, self._store.width)),
            ("counts", counts, (n_blocks,)),
            ("live", live, (n_blocks,)),
        ):
            if array.shape != expected:
                raise SnapshotMismatchError(
                    f"snapshot {name} shape {array.shape} does not match "
                    f"the exported key set {expected}"
                )
        known = set(state["keys"])
        for _, block_keys, _ in state["charges"]:
            for key in block_keys:
                if key not in known:
                    raise RecoveryError(
                        f"snapshot charge names unknown block {key!r}"
                    )
        for key in state["keys"]:
            self.register_block(key)
        self._charges.extend(
            ChargeRecord(budget=budget, block_keys=tuple(block_keys), label=label)
            for budget, block_keys, label in state["charges"]
        )
        rows = np.arange(n_blocks, dtype=np.intp)
        self._store.write_rows(rows, totals, counts)
        self._store.retire(np.flatnonzero(~live))

    # ------------------------------------------------------------------
    # Queries used by the platform / iterators (vectorized scans)
    # ------------------------------------------------------------------
    def max_epsilon(self, rows: np.ndarray, delta: float = 0.0) -> float:
        """Largest epsilon chargeable to *all* the store ``rows`` at once."""
        if not len(rows):
            return 0.0
        return float(
            self._batch_filter.max_epsilon_batch(self._totals_view()[rows], delta)
        )

    def _live_admit_rows(self, floor: PrivacyBudget) -> np.ndarray:
        """Rows of live blocks admitting ``floor``, marking newly retired
        blocks dead along the way -- the shared body of every block scan.

        While a staged batch is open the result is cached per floor budget
        in the batch's scan memo, with its admit mask, and shared read-only
        across callers.
        """
        memo = None
        if self._staged is not None:
            memo = self._staged.scan_memo
            cached = memo.get(floor)
            if cached is not None:
                return cached[1]
        live_rows = np.nonzero(self._store.live)[0]
        if live_rows.size == 0:
            return live_rows
        alive = self._batch_filter.admits_batch(
            self._totals_view()[live_rows], self.retirement_budget
        )
        if not alive.all():
            retired_rows = live_rows[~alive]
            # Retirement is persisted only from *committed* totals: while a
            # staged batch is open, staged-retired blocks are filtered out
            # of this scan but stay live until the batch commits.
            if self._staged is None:
                # repro: allow(purity) -- deferred retirement: idempotent
                # persistence of a fact the scan already proved.
                self._store.retire(retired_rows)
            live_rows = live_rows[alive]
        if floor != self.retirement_budget:
            admitted = self._batch_filter.admits_batch(
                self._totals_view()[live_rows], floor
            )
            live_rows = live_rows[admitted]
        if memo is not None:
            mask = np.zeros(len(self._store), dtype=bool)
            mask[live_rows] = True
            live_rows.setflags(write=False)  # shared across memo readers
            # repro: allow(purity) -- scan-memo cache fill: every stage
            # re-decides its rows in the memo and a moved row set clears
            # it, so the cached rows are the value an uncached scan would
            # recompute identically.
            memo[floor] = (mask, live_rows)
        return live_rows

    def admit_rows(self, min_budget: Optional[PrivacyBudget] = None) -> np.ndarray:
        """Store rows of the blocks that can still absorb ``min_budget``
        (default: the retirement threshold), in registration order -- the
        one whole-stream scan every block read goes through.  While a
        staged batch is open the array is the batch's shared scan-memo
        entry: read-only, and current until a successful stage changes
        one of its decisions, which replaces the entry with a new array
        (a stage that changes none keeps the array object)."""
        return self._live_admit_rows(min_budget or self.retirement_budget)

    def usable_blocks(self, min_budget: Optional[PrivacyBudget] = None) -> List[object]:
        """Keys of blocks that can still absorb ``min_budget`` (default: the
        retirement threshold), in registration order."""
        return [self._keys[i] for i in self.admit_rows(min_budget)]

    def retired_blocks(self) -> List[object]:
        """Keys of retired blocks, in registration order."""
        self._live_admit_rows(self.retirement_budget)  # persist new retirements
        return [self._keys[i] for i in np.flatnonzero(~self._store.live)]

    def stream_loss_bound(self) -> PrivacyBudget:
        """The stream-wide guarantee: a bound dominating *every* block
        (Theorem 4.2), i.e. the component-wise max over block bounds.

        (A lexicographic max would under-report delta whenever the
        highest-epsilon block is not also the highest-delta one.)

        One ``loss_bound_batch`` pass of the filter over the charged rows;
        blocks with no charges contribute zero, not the filter's slack.
        """
        charged = self._store.charge_counts > 0
        if not charged.any():
            return ZERO_BUDGET
        eps, delta = self._batch_filter.loss_bound_batch(self._store.totals[charged])
        return PrivacyBudget(float(eps.max()), float(delta.max()))

    @property
    def charges(self) -> List[ChargeRecord]:
        return list(self._charges)

    @property
    def charge_log(self) -> Sequence[ChargeRecord]:
        """The committed charge log itself, not a copy: read it, never
        mutate it.  The same list object for the accountant's whole life,
        and append-only -- which lets the durability digest fold it
        incrementally."""
        return self._charges
