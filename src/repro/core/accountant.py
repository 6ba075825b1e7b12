"""Block-level privacy accounting (the paper's central mechanism).

The :class:`BlockAccountant` keeps one :class:`BlockLedger` per data block
and implements Alg. 4(c)'s ``AccessControl`` check: a query naming a set of
blocks and an (epsilon, delta) is admitted iff *every* named block's filter
admits the charge; the charge is then committed atomically (all blocks or
none).  By Theorem 4.2/4.3 this enforces the global (eps_g, delta_g)-DP
guarantee for the whole stream while new blocks keep arriving with zero
privacy loss -- the property that lets Sage run forever.

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
``filter.contribution(budget)`` -- ledgers, ``charge_many``'s scratch
validation, and the staged overlay all apply that exact vector, which is
what keeps scalar and batched accounting float-identical whatever the
schema width.

The store also keeps a parallel boolean *live* mask (False once a block is retired).  Rows
are in registration order and are never reclaimed; the matrix grows by
doubling.  Every :class:`BlockLedger` stays the per-block API -- it owns the
charge history and mirrors its totals into its store row on every commit, so
the matrix is always in sync no matter whether a charge lands through the
accountant or directly on a ledger.

Batched-API contract: the accountant evaluates whole-stream scans
(``usable_blocks``, ``usable_blocks_tail``, ``can_charge``, ``max_epsilon``,
``retired_blocks``, ``stream_loss_bound``) through a single prototype
filter's ``admits_batch`` / ``max_epsilon_batch`` over store rows.  This
assumes the ``filter_factory`` is *homogeneous*: every per-block filter
built by it must make decisions that depend only on the block's totals (as
:class:`~repro.core.filters.BasicCompositionFilter` and
:class:`~repro.core.filters.StrongCompositionFilter` do), not on per-filter
mutable state.  Custom filter classes that keep the base-class
``admits_batch`` are assumed to decide from the charge *history* instead;
the accountant detects them and routes every scan through per-ledger
scalar ``admits`` so enforcement stays exact (at per-ledger loop speed).
The detection inspects overrides of ``admits`` / ``admits_batch`` /
``max_epsilon`` / ``max_epsilon_batch`` only: a subclass that changes
decisions through a helper those methods call (e.g. ``remaining``) must
override the decision method (or its batch form) as well, or batched scans
will not see the change.

Batched atomic multi-charge (``charge_many``)
---------------------------------------------
``charge_many(requests)`` settles a whole batch of ``(block_keys, budget[,
label])`` charges -- e.g. one simulated hour of allocator settlements -- in
one pass.  Its contract:

* **Sequential equivalence.**  Requests are validated in order against
  running totals that already include every earlier request in the batch
  (intra-batch accumulation), so two charges naming the same block in one
  batch are checked against their combined total.  A committed batch leaves
  ledger histories, running totals, store rows, and the charge log exactly
  as the same charges applied one at a time through ``charge`` would have.
* **Atomicity.**  The commit is all-or-nothing: if any request is refused,
  nothing is committed anywhere and the error ``charge`` would have raised
  for that request (``BlockRetiredError`` / ``BudgetExceededError``)
  propagates.
* **Filter routing.**  Homogeneous totals-deciding filters are validated
  with one vectorized filter pass per request over a scratch copy of the
  touched store rows and committed with a single bulk row write; custom
  scalar-only filter classes route through the exact per-ledger path
  (sequential apply with snapshot rollback), at per-ledger loop speed.

Staged batches (the propose/settle commit path)
-----------------------------------------------
The platform's two-phase session protocol validates charges as sessions
propose them but commits the whole hour in one ``charge_many`` call.  The
accountant supports this with a :class:`StagedBatch` overlay opened by
``begin_staging()``:

* ``stage_charge(keys, budget, label)`` validates a request against the
  *effective* totals (committed store rows plus every earlier staged
  charge, accumulated in request order with exactly ``charge_many``'s
  float operations) and records it without touching any ledger.  A refusal
  raises the same error ``charge`` would and stages nothing.
* While a batch is open, every admissibility read (``admits_keys``,
  ``can_charge``, ``max_epsilon``, ``usable_blocks``/``usable_blocks_tail``)
  sees the effective totals, so later proposers contend with earlier staged
  charges exactly as they would with committed ones.  ``stream_loss_bound``
  and the charge log keep reporting *committed* state only, and retirement
  is not persisted until the batch closes (scans still filter staged-retired
  blocks out).
* ``pop_staged()`` closes the overlay and hands back the request list for a
  single ``charge_many`` commit.  Because staging replayed the exact
  accumulation ``charge_many`` validates with, a staged batch can never be
  refused at commit time; the commit's full re-validation is kept anyway
  as an end-to-end check of that claim.  Discarding the returned list
  aborts the batch (the platform's hour rollback).

Staging requires the vectorized filter path (``staging_supported``);
mutating the accountant through ``charge``/``charge_many`` while a batch is
open is an error, since the overlay could not see those writes.

Sharding
--------
:mod:`repro.core.sharding` builds on exactly these contracts: a
:class:`~repro.core.sharding.ShardedBlockAccountant` keeps each shard's
totals in its own contiguous :class:`LedgerStore` while presenting the
same global row space (rows in registration order -- the
``rows_for_keys`` / ``ReservationTable`` alignment invariant), validates
``charge_many`` batches shard-locally with this module's float
accumulation, and commits all shards or none.  The partitioner contract
and the global-row-space invariant are documented there.  The
snapshot-scoped scan memo (``begin_scan_memo``) serves the platform's
parallel propose phase: while a staged batch is open and untouched,
whole-stream admit scans may be computed once and shared across sessions.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core import faults
from repro.core.filters import (
    TOTALS_BASE,
    BasicCompositionFilter,
    PrivacyFilter,
    StrongCompositionFilter,
)
from repro.dp.budget import PrivacyBudget, ZERO_BUDGET
from repro.dp.composition import rogers_filter_epsilon_from_sums_batch
from repro.errors import (
    BlockRetiredError,
    BudgetExceededError,
    InvalidBudgetError,
    RecoveryError,
    SnapshotMismatchError,
)
from repro.obs.trace import NULL_PROBE

__all__ = [
    "BlockLedger",
    "BlockAccountant",
    "ChargeRecord",
    "LedgerStore",
    "StagedBatch",
]

# Column indices of the shared base columns of the totals matrix (see
# module docstring); filter-specific columns (e.g. per-order RDP) follow.
TOT_EPS, TOT_DELTA, TOT_SQ, TOT_LINEAR = range(TOTALS_BASE)

# Bound on the memoized key-tuple -> store-row-array mapping (the window
# scan hot path re-resolves the same windows every hour).
_ROW_CACHE_LIMIT = 4096


@dataclass(frozen=True)
class ChargeRecord:
    """One committed charge: who consumed what, against which blocks."""

    budget: PrivacyBudget
    block_keys: tuple
    label: str = ""


# Per-class cache: does this filter's loss_bound accept the O(1) ``totals``
# keyword, or is it a legacy override with the plain (history) signature?
_LOSS_BOUND_ACCEPTS_TOTALS: Dict[type, bool] = {}


def _loss_bound_accepts_totals(filter_obj: PrivacyFilter) -> bool:
    cls = type(filter_obj)
    cached = _LOSS_BOUND_ACCEPTS_TOTALS.get(cls)
    if cached is None:
        try:
            params = inspect.signature(cls.loss_bound).parameters
            cached = "totals" in params or any(
                p.kind is p.VAR_KEYWORD for p in params.values()
            )
        except (TypeError, ValueError):  # pragma: no cover - exotic callables
            cached = False
        _LOSS_BOUND_ACCEPTS_TOTALS[cls] = cached
    return cached


def _defining_class(cls: type, name: str) -> type:
    return next(c for c in cls.__mro__ if name in c.__dict__)


def _scans_can_vectorize(filter_obj: PrivacyFilter) -> bool:
    """Whether batched scans are exact for this filter class.

    The base-class ``admits_batch`` sees an empty history, so it is only
    valid for totals-deciding filters; and an *inherited* concrete
    ``admits_batch`` must not shadow a subclass's overridden scalar rule
    (the batch method has to be defined at or below wherever ``admits`` /
    ``max_epsilon`` were last overridden).

    Only these four decision methods are inspected: a subclass that changes
    behavior through a *helper* they call (e.g. ``remaining``) without
    overriding the decision method itself is undetectable here and must
    override the corresponding batch method too -- see the batched-API
    contract in the module docstring.
    """
    cls = type(filter_obj)
    batch_owner = _defining_class(cls, "admits_batch")
    if batch_owner is PrivacyFilter:
        return False
    if not issubclass(batch_owner, _defining_class(cls, "admits")):
        return False
    max_batch_owner = _defining_class(cls, "max_epsilon_batch")
    max_owner = _defining_class(cls, "max_epsilon")
    if max_batch_owner is PrivacyFilter:
        # The base max_epsilon_batch bisects admits_batch; that is exact
        # only while the scalar max_epsilon has not been overridden below
        # the class whose admits_batch the bisection runs against.
        return issubclass(batch_owner, max_owner)
    # A concrete batch method must sit at or below the scalar it mirrors.
    return issubclass(max_batch_owner, max_owner)


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

    def write_row(self, index: int, totals: Sequence[float], count: int) -> None:
        self._totals[index, :] = totals
        self._counts[index] = count

    def write_rows(self, indices, totals: np.ndarray, counts: np.ndarray) -> None:
        """Bulk row update (the batched ``charge_many`` commit path)."""
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

    Keeps one dense *effective-totals* matrix: a copy of the committed store
    totals that absorbs each staged request's contribution in request order
    -- the exact float accumulation ``charge_many``'s validation replays --
    so staging decisions and the final commit can never disagree, and reads
    through the overlay are as cheap as reads of the store itself.  The
    per-request store rows are retained alongside the requests so shard
    diagnostics can derive the batch's footprint without re-resolving keys.
    """

    def __init__(self, accountant: "BlockAccountant") -> None:
        self._eff = accountant.store.totals.copy()
        self._width = accountant.store.width
        self.requests: List[tuple] = []
        self.request_rows: List[np.ndarray] = []

    def __len__(self) -> int:
        return len(self.requests)

    def effective_totals(self, size: int) -> np.ndarray:
        """The (size, width) committed-plus-staged totals view.

        Blocks registered after the batch opened have zero committed totals
        and no staged charges, so their effective rows are zero too.
        """
        if size > self._eff.shape[0]:
            grown = np.zeros((max(size, 2 * self._eff.shape[0]), self._width))
            grown[: self._eff.shape[0]] = self._eff
            # repro: allow(purity) -- capacity growth only: new rows are all
            # zero, so every read returns the same values as before.
            self._eff = grown
        return self._eff[:size]

    def add(self, rows: np.ndarray, contribution: np.ndarray) -> None:
        self._eff[rows] += contribution


@dataclass
class BlockLedger:
    """Charge history + filter for a single block.

    Running totals (epsilon, delta, epsilon^2, and the strong-composition
    linear term) are maintained on every charge so admissibility checks are
    O(1) instead of O(|history|).  A ledger registered with a
    :class:`BlockAccountant` additionally mirrors its totals into the
    accountant's :class:`LedgerStore` row on every commit, which is what
    keeps the vectorized block scans exact.
    """

    key: object
    filter: PrivacyFilter
    history: List[PrivacyBudget] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._store: Optional[LedgerStore] = None
        self._row = -1
        # Base columns (eps, delta, eps^2, linear) plus whatever the filter's
        # schema appends (e.g. one running-RDP sum per order).
        width = getattr(self.filter, "totals_width", TOTALS_BASE)
        self._totals = [0.0] * width
        for budget in self.history:
            self._accumulate(budget)

    def _attach(self, store: LedgerStore, row: int) -> None:
        """Bind this ledger to its struct-of-arrays row (accountant use)."""
        self._store = store
        self._row = row
        store.write_row(row, self._totals, len(self.history))

    def _accumulate(
        self, budget: PrivacyBudget, contribution: Optional[np.ndarray] = None
    ) -> None:
        # The filter defines the charge's row increment; scalar adds over
        # its entries are the same float64 ops the batched paths apply, so
        # per-ledger and vectorized accounting stay bit-identical.
        if contribution is None:
            contribution = self.filter.contribution(budget)
        totals = self._totals
        for index, value in enumerate(contribution.tolist()):
            totals[index] += value
        if self._store is not None:
            self._store.write_row(self._row, totals, len(self.history))

    @property
    def totals(self) -> tuple:
        """The running totals row (base sums first, schema extension after)."""
        return tuple(self._totals)

    def record(
        self, budget: PrivacyBudget, contribution: Optional[np.ndarray] = None
    ) -> None:
        """Append a committed charge, keeping the running totals in sync.

        ``contribution`` is an optional precomputed ``filter.contribution``
        vector for the budget (a multi-block charge shares one across its
        ledgers -- the increment is a pure function of the budget, so the
        accumulated floats are identical either way).
        """
        self.history.append(budget)
        self._accumulate(budget, contribution)

    def admits(self, candidate: PrivacyBudget) -> bool:
        return self.filter.admits(self.history, candidate, totals=tuple(self._totals))

    def charge(self, budget: PrivacyBudget) -> None:
        if not self.admits(budget):
            raise BudgetExceededError(
                f"charge {budget} exceeds block {self.key!r}'s remaining budget",
                block_id=self.key,
            )
        self.record(budget)

    def max_epsilon(self, delta: float = 0.0) -> float:
        """Largest epsilon still chargeable at the given delta."""
        return self.filter.max_epsilon(self.history, delta)

    def loss_bound(self) -> PrivacyBudget:
        """DP guarantee covering everything charged to this block so far."""
        if _loss_bound_accepts_totals(self.filter):
            return self.filter.loss_bound(self.history, totals=tuple(self._totals))
        return self.filter.loss_bound(self.history)

    def is_retired(self, min_budget: PrivacyBudget) -> bool:
        """True when the block can no longer absorb even ``min_budget``."""
        return not self.admits(min_budget)


class BlockAccountant:
    """All block ledgers of one sensitive stream, with atomic multi-block charges.

    Parameters
    ----------
    epsilon_global / delta_global:
        The stream's global DP policy (the company-configured ceiling).
    filter_factory:
        Builds the per-block filter; defaults to basic composition
        (Theorem 4.3).  Pass ``StrongCompositionFilter`` for Theorem A.2
        accounting.  Must be homogeneous (see module docstring) for the
        vectorized scans to be exact.
    retirement_budget:
        Blocks that cannot absorb this charge any more count as retired;
        defaults to (epsilon_global/1000, 0).
    """

    def __init__(
        self,
        epsilon_global: float,
        delta_global: float,
        filter_factory: Optional[Callable[[float, float], PrivacyFilter]] = None,
        retirement_budget: Optional[PrivacyBudget] = None,
    ) -> None:
        if filter_factory is None:
            filter_factory = BasicCompositionFilter
        self._make_filter = filter_factory
        self.epsilon_global = epsilon_global
        self.delta_global = delta_global
        self.retirement_budget = retirement_budget or PrivacyBudget(
            epsilon_global / 1000.0, 0.0
        )
        self._ledgers: Dict[object, BlockLedger] = {}
        self._charges: List[ChargeRecord] = []
        # The prototype filter that evaluates the whole matrix in one pass
        # (all per-block filters share its params) + the struct-of-arrays
        # totals store sized to the filter's declared schema width.
        self._batch_filter = filter_factory(epsilon_global, delta_global)
        self._store = LedgerStore(
            width=getattr(self._batch_filter, "totals_width", TOTALS_BASE)
        )
        # A filter whose batch methods are missing or shadowed by scalar
        # overrides (e.g. it decides from the charge history, or a subclass
        # tightened admits without re-deriving admits_batch) must scan
        # through per-ledger scalar admits, or batched scans would silently
        # admit what the scalar rule refuses.
        self._vectorized = _scans_can_vectorize(self._batch_filter)
        self._keys: List[object] = []
        self._rows: Dict[object, int] = {}
        # Memoized key-tuple -> row-array translations (rows never move, so
        # entries never go stale; the cache is only bounded for memory).
        self._row_cache: Dict[tuple, np.ndarray] = {}
        # Open staged batch (the propose/settle overlay), or None.
        self._staged: Optional[StagedBatch] = None
        # Snapshot-scoped scan memo (see begin_scan_memo), or None.
        self._scan_memo: Optional[Dict] = None
        # Retirement is permanent (privacy loss never decreases), so dead
        # blocks can be pruned from every scan once detected.  This keeps
        # usable_blocks() linear in the number of *live* blocks even when a
        # stream has run for thousands of hours.
        self._dead: set = set()
        # Telemetry probe attached by a traced platform (the no-op probe
        # otherwise).  Consulted only on the mutating charge path, never by
        # the pure read surface, and never fed back into accounting
        # decisions.
        self._tracer = NULL_PROBE

    # ------------------------------------------------------------------
    # Block lifecycle
    # ------------------------------------------------------------------
    def register_block(self, key: object) -> BlockLedger:
        """Create a ledger for a freshly ingested block (zero loss so far)."""
        if key in self._ledgers:
            raise InvalidBudgetError(f"block {key!r} already registered")
        # A new row changes every whole-stream scan: memoized scans are stale.
        self._scan_memo = None
        ledger = BlockLedger(
            key=key, filter=self._make_filter(self.epsilon_global, self.delta_global)
        )
        row = self._append_store_row(key)
        ledger._attach(self._store, row)
        self._ledgers[key] = ledger
        self._keys.append(key)
        self._rows[key] = row
        return ledger

    def _append_store_row(self, key: object) -> int:
        """Store-row allocation hook for :meth:`register_block`; sharded
        accountants route the row to the partitioner's shard."""
        return self._store.append()

    def register_blocks(self, keys: Sequence[object]) -> None:
        for key in keys:
            self.register_block(key)

    def __contains__(self, key: object) -> bool:
        return key in self._ledgers

    def ledger(self, key: object) -> BlockLedger:
        if key not in self._ledgers:
            raise InvalidBudgetError(f"block {key!r} was never registered")
        return self._ledgers[key]

    @property
    def block_keys(self) -> List[object]:
        return list(self._keys)

    @property
    def store(self) -> LedgerStore:
        """The struct-of-arrays totals store (rows in registration order)."""
        return self._store

    @property
    def batch_filter(self) -> PrivacyFilter:
        """The prototype batch filter (telemetry reads its order grid to
        gauge Renyi order saturation; accounting goes through the batch
        scan methods, not this handle)."""
        return self._batch_filter

    def attach_tracer(self, tracer) -> None:
        """Attach a telemetry probe (``NULL_PROBE`` detaches).  The probe
        only ever *records* -- batch spans on ``charge_many`` and, for
        sharded accountants, per-shard commit spans -- so attaching one
        cannot change any admission decision."""
        self._tracer = tracer

    @property
    def delta_reserved(self) -> float:
        """Share of ``delta_global`` the filter's own analysis consumes
        (zero for basic composition); sessions ration attempt deltas out of
        the remainder so repeated attempts cannot delta-exhaust a block."""
        return getattr(self._batch_filter, "delta_reserved", 0.0)

    def _key_rows(self, keys: Sequence[object]) -> np.ndarray:
        """Store rows for the named keys; rejects unregistered keys.

        The hourly drive resolves the same windows over and over (every
        proposal, settlement, and reservation read names a recent-blocks
        window), so translations are memoized by key tuple.  Rows are
        assigned once at registration and never move, so cached arrays
        never go stale; they are returned read-only since callers share
        them.
        """
        tkey = tuple(keys)
        cached = self._row_cache.get(tkey)
        if cached is None:
            try:
                cached = np.fromiter(
                    (self._rows[k] for k in keys), dtype=np.intp, count=len(keys)
                )
            except KeyError as exc:
                raise InvalidBudgetError(
                    f"block {exc.args[0]!r} was never registered"
                ) from None
            cached.setflags(write=False)
            if len(self._row_cache) >= _ROW_CACHE_LIMIT:
                # repro: allow(purity) -- bounded memo-cache reset; rebuilt
                # entries are value-identical to the evicted ones.
                self._row_cache.clear()
            # repro: allow(purity) -- memo-cache fill; reads are value-identical
            self._row_cache[tkey] = cached
        return cached

    def rows_for_keys(self, keys: Sequence[object]) -> np.ndarray:
        """Store row indices (registration order) for the named keys.

        This is the alignment contract the platform's ``ReservationTable``
        relies on: its block columns are indexed by exactly these rows.
        """
        return self._key_rows(keys)

    def _totals_view(self) -> np.ndarray:
        """Totals every admissibility read decides from: the committed store
        rows, overlaid with staged contributions while a batch is open."""
        if self._staged is not None:
            return self._staged.effective_totals(len(self._store))
        return self._store.totals

    # ------------------------------------------------------------------
    # Staged batches (validate now, commit the hour in one charge_many)
    # ------------------------------------------------------------------
    @property
    def staging_supported(self) -> bool:
        """Staging needs the vectorized filter path: the overlay replays
        batched filter decisions over effective totals, which a custom
        scalar-only (history-deciding) filter cannot reproduce."""
        return self._vectorized

    @property
    def staging_active(self) -> bool:
        return self._staged is not None

    @property
    def staged_requests(self) -> List[tuple]:
        """Copy of the open batch's ``(keys, budget, label)`` requests
        (empty when no batch is open).

        This is what the durability layer writes ahead: the exact batch the
        closing ``charge_many`` commit will land, captured *before*
        the commit so a crash between WAL append and commit replays the
        identical requests.
        """
        if self._staged is None:
            return []
        return list(self._staged.requests)

    @property
    def staged_request_count(self) -> int:
        """Number of charges staged in the open batch (0 when none is open).

        The platform's parallel propose drive uses this as (part of) its
        speculation token: a first proposal computed against the empty
        overlay is reusable only while nothing has been staged since.
        """
        return len(self._staged.requests) if self._staged is not None else 0

    def _new_staged_batch(self) -> StagedBatch:
        """Overlay factory hook; sharded accountants return an overlay that
        also tracks staged spend per shard."""
        return StagedBatch(self)

    def begin_staging(self) -> StagedBatch:
        """Open a staged batch; subsequent reads see staged charges."""
        if self._staged is not None:
            raise InvalidBudgetError("a staged batch is already open")
        if not self._vectorized:
            raise InvalidBudgetError(
                "staging requires a homogeneous totals-deciding filter; "
                "this accountant's filter routes through the scalar path"
            )
        self._staged = self._new_staged_batch()
        return self._staged

    # ------------------------------------------------------------------
    # Snapshot-scoped scan memo (the parallel propose phase)
    # ------------------------------------------------------------------
    def begin_scan_memo(self) -> None:
        """Start memoizing whole-stream admit scans by floor budget.

        Valid only while the effective totals are *frozen*: a staged batch
        must be open and nothing may be staged, charged, or registered
        until :meth:`end_scan_memo`.  The platform's parallel propose
        phase brackets its session peeks with this -- every peek reads the
        same snapshot by construction, so the live-admit scan for a given
        floor budget is computed once and shared across all sessions
        (decisions are identical to recomputing; only the redundant passes
        disappear).  Reads are thread-safe: concurrent memo misses just
        compute the same read-only row array twice.
        """
        if self._staged is None:
            raise InvalidBudgetError(
                "scan memoization requires an open (frozen) staged batch"
            )
        self._scan_memo = {}

    def end_scan_memo(self) -> None:
        self._scan_memo = None

    def stage_charge(
        self, keys: Sequence[object], budget: PrivacyBudget, label: str = ""
    ) -> None:
        """Validate one request against the effective totals and stage it.

        Raises exactly what :meth:`charge` would (``BlockRetiredError`` /
        ``BudgetExceededError``) and stages nothing on refusal; on success
        the request joins the batch and becomes visible to every subsequent
        read and stage decision (intra-batch accumulation).
        """
        if self._staged is None:
            raise InvalidBudgetError("no staged batch is open")
        # Staging moves the effective totals: any memoized scans are stale.
        self._scan_memo = None
        keys = list(keys)
        if not keys:
            raise InvalidBudgetError("a charge must name at least one block")
        if len(set(keys)) != len(keys):
            raise InvalidBudgetError("duplicate block keys in one charge")
        rows = self._key_rows(keys)
        eff = self._staged.effective_totals(len(self._store))
        admitted = self._batch_filter.admits_batch(eff[rows], budget)
        if not admitted.all():
            pos = int(np.argmin(admitted))
            retired = not bool(
                self._batch_filter.admits_batch(
                    eff[rows[pos]], self.retirement_budget
                )[0]
            )
            self._raise_refusal(keys[pos], budget, retired)
        self._staged.add(rows, self._contribution(budget))
        self._staged.requests.append((keys, budget, label))
        self._staged.request_rows.append(rows)

    def pop_staged(self) -> List[tuple]:
        """Close the staged batch, returning its ``(keys, budget, label)``
        requests for a single :meth:`charge_many` commit (nothing has been
        committed yet; discarding the return value aborts the batch)."""
        # Closing the overlay ends the frozen snapshot any scan memo was
        # defined against (commits may follow immediately).
        self._scan_memo = None
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
        if not self._vectorized:
            return np.fromiter(
                (self.ledger(k).admits(budget) for k in keys),
                dtype=bool,
                count=len(keys),
            )
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

        Either all ledgers absorb the charge or none do (a failed check on
        any block leaves every other block untouched).
        """
        self._forbid_staging("charge")
        keys = list(keys)
        if not keys:
            raise InvalidBudgetError("a charge must name at least one block")
        if len(set(keys)) != len(keys):
            raise InvalidBudgetError("duplicate block keys in one charge")
        admitted = self.admits_keys(keys, budget)
        if not admitted.all():
            key = keys[int(np.argmin(admitted))]  # first refusing block
            if self._ledgers[key].is_retired(self.retirement_budget):
                raise BlockRetiredError(f"block {key!r} is retired", block_id=key)
            raise BudgetExceededError(
                f"block {key!r} cannot absorb {budget}", block_id=key
            )
        # Homogeneous filters share one contribution vector across the
        # charge's blocks; custom (scalar-path) filters compute per ledger,
        # since only homogeneity guarantees the prototype's increment is
        # every ledger's increment.
        contribution = self._contribution(budget) if self._vectorized else None
        for key in keys:
            self._ledgers[key].record(budget, contribution)
        record = ChargeRecord(budget=budget, block_keys=tuple(keys), label=label)
        self._charges.append(record)
        return record

    # ------------------------------------------------------------------
    # Batched hourly settlement (atomic multi-request charges)
    # ------------------------------------------------------------------
    @staticmethod
    def _normalize_requests(requests) -> List[tuple]:
        """Coerce ``(keys, budget[, label])`` requests into a uniform list,
        applying the same per-request validation as :meth:`charge`."""
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
        return norm

    def _contribution(self, budget: PrivacyBudget) -> np.ndarray:
        """One charge's totals-row increment (same ops as ``_accumulate``)."""
        return self._batch_filter.contribution(budget)

    def _raise_refusal(
        self, key: object, budget: PrivacyBudget, retired: bool
    ) -> None:
        if retired:
            raise BlockRetiredError(f"block {key!r} is retired", block_id=key)
        raise BudgetExceededError(
            f"block {key!r} cannot absorb {budget}", block_id=key
        )

    def _validate_many_vectorized(self, norm: List[tuple]):
        """Vectorized all-requests admissibility check with intra-batch
        accumulation.

        Returns ``(touched_rows, work, counts_delta)`` where ``work`` holds
        the touched rows' totals *after* the whole batch and ``counts_delta``
        the per-row number of new charges.  ``work`` starts as a copy of
        the store rows and absorbs each request's contribution in order, so
        request ``j`` is checked against exactly the float totals a
        sequential ``charge`` loop would have produced -- two charges against
        the same block in one batch are checked against their combined total.
        Raises (committing nothing) on the first refusing request, with the
        same error :meth:`charge` raises.
        """
        row_lists = [self._key_rows(keys) for keys, _, _ in norm]
        touched = np.unique(np.concatenate(row_lists))
        work = self._store.totals[touched].copy()
        counts_delta = np.zeros(touched.size, dtype=np.int64)
        for (keys, budget, _), rows in zip(norm, row_lists):
            # touched is sorted-unique and rows is a subset, so searchsorted
            # is an exact row -> scratch-index translation.
            lrows = np.searchsorted(touched, rows)
            admitted = self._batch_filter.admits_batch(work[lrows], budget)
            if not admitted.all():
                pos = int(np.argmin(admitted))
                retired = not bool(
                    self._batch_filter.admits_batch(
                        work[lrows[pos]], self.retirement_budget
                    )[0]
                )
                self._raise_refusal(keys[pos], budget, retired)
            work[lrows] += self._contribution(budget)
            counts_delta[lrows] += 1
        return touched, work, counts_delta

    def _validate_for_commit(self, norm: List[tuple]):
        """Phase-one validation as invoked from the commit path.

        Same contract as :meth:`_validate_many_vectorized`, which it
        delegates to -- but this seam is reachable only from
        :meth:`charge_many` (a mutator), never from the pure read surface
        (``can_charge_many`` calls the validator directly).  The sharded
        accountant overrides it to stopwatch per-shard validation for the
        wall profiler, which the telemetry-isolation and purity rules
        forbid on the shared pure-reachable validator itself.
        """
        return self._validate_many_vectorized(norm)

    def _apply_many_scalar(self, norm: List[tuple], commit: bool) -> List[ChargeRecord]:
        """Per-ledger sequential apply with full rollback -- the exact path
        for filters whose decisions batched scans cannot reproduce."""
        # dict.fromkeys, not a set: ledger creation and snapshot/rollback
        # order must be first-touch deterministic run to run.
        touched_keys = dict.fromkeys(key for keys, _, _ in norm for key in keys)
        ledgers = {key: self.ledger(key) for key in touched_keys}
        snapshot = {
            key: (len(led.history), list(led._totals))
            for key, led in ledgers.items()
        }

        def rollback() -> None:
            for key, (n_history, totals) in snapshot.items():
                led = ledgers[key]
                del led.history[n_history:]
                led._totals = totals
                self._store.write_row(led._row, totals, n_history)

        records = []
        try:
            for keys, budget, label in norm:
                for key in keys:
                    if not ledgers[key].admits(budget):
                        retired = ledgers[key].is_retired(self.retirement_budget)
                        self._raise_refusal(key, budget, retired)
                for key in keys:
                    ledgers[key].record(budget)
                records.append(
                    ChargeRecord(budget=budget, block_keys=tuple(keys), label=label)
                )
        except Exception:
            rollback()
            raise
        if not commit:
            rollback()
            return records
        self._charges.extend(records)
        return records

    def charge_many(self, requests) -> List[ChargeRecord]:
        """Atomically commit a whole batch of ``(keys, budget[, label])`` charges.

        The batch contract: requests are validated in order against running
        totals that include every earlier request in the batch (intra-batch
        accumulation), so a committed batch is observationally identical to
        the same charges applied sequentially via :meth:`charge` -- but the
        commit is all-or-nothing: one refusing request anywhere leaves every
        ledger, the totals store, and the charge log untouched, and raises
        the error :meth:`charge` would have raised for that request.

        For homogeneous totals-deciding filters the whole batch is validated
        in one vectorized pass over the ledger store and committed with a
        single bulk row write; custom scalar-only filter classes route
        through the exact per-ledger path (apply + rollback).
        """
        self._forbid_staging("charge_many")
        norm = self._normalize_requests(requests)
        if not norm:
            return []
        if not self._vectorized:
            return self._apply_many_scalar(norm, commit=True)
        with self._tracer.span("charge.batch", requests=len(norm)):
            touched, work, counts_delta = self._validate_for_commit(norm)
            # Crash point between phase-one validation and the phase-two
            # commit (for the sharded accountant this sits exactly between
            # the 2PC phases: every shard has validated, none has written).
            faults.trip("charge.between_validate_and_commit")
            return self._commit_validated(norm, touched, work, counts_delta)

    def _commit_validated(
        self,
        norm: List[tuple],
        touched: np.ndarray,
        work: np.ndarray,
        counts_delta: np.ndarray,
    ) -> List[ChargeRecord]:
        """Land a validated batch: bulk store-row write, history append,
        ledger-totals sync, charge log.  ``work`` must hold the touched
        rows' exact post-batch totals (``charge_many``'s scratch)."""
        ledgers = self._ledgers
        records = []
        for keys, budget, label in norm:
            for key in keys:
                ledgers[key].history.append(budget)
            records.append(
                ChargeRecord(budget=budget, block_keys=tuple(keys), label=label)
            )
        self._store.write_rows(
            touched, work, self._store.charge_counts[touched] + counts_delta
        )
        block_keys = self._keys
        for row, totals in zip(touched.tolist(), work.tolist()):
            ledgers[block_keys[row]]._totals = totals
        self._charges.extend(records)
        return records

    def can_charge_many(self, requests) -> bool:
        """True iff :meth:`charge_many` would commit the whole batch.

        An empty batch is vacuously committable.  Malformed requests (empty
        key sets, duplicate keys, unregistered blocks) raise just as
        ``charge_many`` does.
        """
        norm = self._normalize_requests(requests)
        if not norm:
            return True
        try:
            if not self._vectorized:
                self._apply_many_scalar(norm, commit=False)
            else:
                self._validate_many_vectorized(norm)
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
            del self._ledgers[key]
            del self._rows[key]
            self._dead.discard(key)
        del self._keys[n_blocks:]
        # Cached row arrays / memoized scans may name the removed rows.
        self._row_cache.clear()
        self._scan_memo = None
        self._store.truncate_to(n_blocks)

    def export_state(self) -> dict:
        """Snapshot this accountant's full committed state (picklable).

        Pending lazy retirement is persisted first so the exported live
        mask is the normalized one every scan would converge to.
        """
        self.retired_blocks()
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

        Blocks re-register through the normal registration path (so a
        sharded accountant rebuilds the identical row-to-shard routing),
        ledger histories are rebuilt from the exported charge log, and the
        exported totals are written back verbatim -- the restored store is
        byte-identical to the exported one.
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
        for key in state["keys"]:
            self.register_block(key)
        totals = np.asarray(state["totals"], dtype=np.float64)
        counts = np.asarray(state["counts"], dtype=np.int64)
        live = np.asarray(state["live"], dtype=bool)
        expected = (len(self._keys), self._store.width)
        if totals.shape != expected:
            raise SnapshotMismatchError(
                f"snapshot totals shape {totals.shape} does not match "
                f"the restored key set {expected}"
            )
        for budget, block_keys, label in state["charges"]:
            for key in block_keys:
                if key not in self._ledgers:
                    raise RecoveryError(
                        f"snapshot charge names unknown block {key!r}"
                    )
                self._ledgers[key].history.append(budget)
            self._charges.append(
                ChargeRecord(budget=budget, block_keys=tuple(block_keys), label=label)
            )
        if self._keys:
            rows = np.arange(len(self._keys), dtype=np.intp)
            self._store.write_rows(rows, totals, counts)
            for key, row_totals in zip(self._keys, totals.tolist()):
                self._ledgers[key]._totals = row_totals
            dead_rows = np.flatnonzero(~live)
            if dead_rows.size:
                self._store.retire(dead_rows)
                self._dead.update(self._keys[i] for i in dead_rows)

    # ------------------------------------------------------------------
    # Queries used by the platform / iterators (vectorized scans)
    # ------------------------------------------------------------------
    def max_epsilon(self, keys: Sequence[object], delta: float = 0.0) -> float:
        """Largest epsilon chargeable to *all* named blocks at once."""
        if not keys:
            return 0.0
        if not self._vectorized:
            return min(self.ledger(k).max_epsilon(delta) for k in keys)
        rows = self._key_rows(keys)
        return float(
            self._batch_filter.max_epsilon_batch(self._totals_view()[rows], delta)
        )

    def _live_admit_rows(self, floor: PrivacyBudget) -> np.ndarray:
        """Rows of live blocks admitting ``floor``, marking newly retired
        blocks dead along the way -- the shared body of every block scan.

        While a scan memo is active (totals frozen, see
        :meth:`begin_scan_memo`) the result is cached per floor budget and
        shared read-only across callers.
        """
        memo = self._scan_memo
        if memo is not None:
            cached = memo.get(floor)
            if cached is not None:
                return cached
        live_rows = np.nonzero(self._store.live)[0]
        if live_rows.size == 0:
            return live_rows
        if not self._vectorized:
            alive = np.fromiter(
                (
                    not self._ledgers[self._keys[i]].is_retired(self.retirement_budget)
                    for i in live_rows
                ),
                dtype=bool,
                count=live_rows.size,
            )
        else:
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
                # persistence of a fact the scan already proved; _dead is
                # only ever read for membership, never iterated.
                self._store.retire(retired_rows)
                # repro: allow(purity) -- see above
                self._dead.update(self._keys[i] for i in retired_rows)
            live_rows = live_rows[alive]
        if floor != self.retirement_budget:
            if not self._vectorized:
                admitted = np.fromiter(
                    (self._ledgers[self._keys[i]].admits(floor) for i in live_rows),
                    dtype=bool,
                    count=live_rows.size,
                )
            else:
                admitted = self._batch_filter.admits_batch(
                    self._totals_view()[live_rows], floor
                )
            live_rows = live_rows[admitted]
        if memo is not None:
            live_rows.setflags(write=False)  # shared across memo readers
            # repro: allow(purity) -- scan-memo cache fill: the memo only
            # exists while totals are frozen, and the cached rows are the
            # value an uncached scan would recompute identically.
            memo[floor] = live_rows
        return live_rows

    def usable_blocks(self, min_budget: Optional[PrivacyBudget] = None) -> List[object]:
        """Keys of blocks that can still absorb ``min_budget`` (default: the
        retirement threshold), in registration order."""
        floor = min_budget or self.retirement_budget
        return [self._keys[i] for i in self._live_admit_rows(floor)]

    def usable_blocks_tail(
        self,
        min_budget: Optional[PrivacyBudget],
        count: int,
        key_filter=None,
        row_filter=None,
    ) -> List[object]:
        """The newest ``count`` usable blocks (chronological order) -- the
        hot path of window selection.  One vectorized admit pass over live
        blocks.  ``row_filter`` is the vectorized per-caller filter (an
        ndarray of store rows -> boolean mask, e.g. the platform's
        reservation check); ``key_filter`` is the scalar per-key form.
        Either only ever sees blocks whose ledgers admitted the floor."""
        if count <= 0:
            return []
        floor = min_budget or self.retirement_budget
        if not self._vectorized:
            # Scalar-filter fallback keeps the seed's early-stopping tail
            # walk: O(count) ledger evaluations, not O(n_live).
            out = []
            live = self._store.live
            for i in range(len(self._store) - 1, -1, -1):
                if not live[i]:
                    continue
                key = self._keys[i]
                led = self._ledgers[key]
                if led.is_retired(self.retirement_budget):
                    # repro: allow(purity) -- deferred retirement (scalar
                    # tail walk); same idempotent persistence as the
                    # vectorized scan above.
                    self._store.retire(i)
                    # repro: allow(purity) -- see above
                    self._dead.add(key)
                    continue
                if not led.admits(floor):
                    continue
                if row_filter is not None and not bool(
                    np.asarray(row_filter(np.array([i], dtype=np.intp)))[0]
                ):
                    continue
                if key_filter is not None and not key_filter(key):
                    continue
                out.append(key)
                if len(out) == count:
                    break
            out.reverse()
            return out
        rows = self._live_admit_rows(floor)
        if row_filter is not None and rows.size:
            rows = rows[np.asarray(row_filter(rows), dtype=bool)]
        if key_filter is None:
            return [self._keys[i] for i in rows[-count:]]
        out: List[object] = []
        for i in rows[::-1]:
            key = self._keys[i]
            if not key_filter(key):
                continue
            out.append(key)
            if len(out) == count:
                break
        out.reverse()
        return out

    def retired_blocks(self) -> List[object]:
        self._live_admit_rows(self.retirement_budget)  # refresh the dead set
        return [k for k in self._keys if k in self._dead]

    def stream_loss_bound(self) -> PrivacyBudget:
        """The stream-wide guarantee: a bound dominating *every* block
        (Theorem 4.2), i.e. the component-wise max over block bounds.

        (A lexicographic max would under-report delta whenever the
        highest-epsilon block is not also the highest-delta one.)
        """
        if not self._keys:
            return ZERO_BUDGET
        return self._loss_bound_over_rows(None)

    def _loss_bound_over_rows(self, rows: Optional[np.ndarray]) -> PrivacyBudget:
        """Component-wise max of the per-block bounds of the named store
        rows -- ``stream_loss_bound`` over all rows (``rows=None``, which
        reduces over the store view without copying it), a shard's bound
        over its rows (``ShardedBlockAccountant.shard_loss_bounds``).  One
        vectorized pass for the known filter families; blocks with no
        charges contribute zero, not the filter's slack."""
        if rows is None:
            if len(self._store) == 0:
                return ZERO_BUDGET
            totals_rows = self._store.totals
            counts = self._store.charge_counts
        else:
            if rows.size == 0:
                return ZERO_BUDGET
            totals_rows = self._store.totals[rows]
            counts = self._store.charge_counts[rows]
        if type(self._batch_filter) is BasicCompositionFilter:
            # Basic composition's per-block bound is exactly the totals row.
            eps = float(totals_rows[:, TOT_EPS].max())
            delta = float(np.minimum(1.0, totals_rows[:, TOT_DELTA]).max())
            return PrivacyBudget(eps, delta)
        if type(self._batch_filter) is StrongCompositionFilter:
            # One vectorized Theorem A.2 pass over the charged rows.
            charged = counts > 0
            if not charged.any():
                return ZERO_BUDGET
            totals = totals_rows[charged]
            f = self._batch_filter
            strong = rogers_filter_epsilon_from_sums_batch(
                totals[:, TOT_SQ], totals[:, TOT_LINEAR],
                f.epsilon_global, f.delta_slack,
            )
            eps = float(np.minimum(strong, totals[:, TOT_EPS]).max())
            delta = float(np.minimum(1.0, f.delta_slack + totals[:, TOT_DELTA]).max())
            return PrivacyBudget(eps, delta)
        loss_bound_batch = getattr(self._batch_filter, "loss_bound_batch", None)
        if self._vectorized and loss_bound_batch is not None:
            # Filters with a vectorized per-row bound (e.g. the Renyi
            # filter's converted-RDP curve): one pass over charged rows.
            charged = counts > 0
            if not charged.any():
                return ZERO_BUDGET
            eps_rows, delta_rows = loss_bound_batch(totals_rows[charged])
            return PrivacyBudget(
                float(eps_rows.max()), float(min(1.0, delta_rows.max()))
            )
        worst_eps = 0.0
        worst_delta = 0.0
        row_iter = range(len(self._store)) if rows is None else rows
        for i in row_iter:
            bound = self._ledgers[self._keys[i]].loss_bound()
            worst_eps = max(worst_eps, bound.epsilon)
            worst_delta = max(worst_delta, bound.delta)
        return PrivacyBudget(worst_eps, worst_delta)

    @property
    def charges(self) -> List[ChargeRecord]:
        return list(self._charges)
