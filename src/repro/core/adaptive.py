"""Privacy-adaptive training (§3.3) as a two-phase propose/settle protocol.

Wraps a DP pipeline in the escalation loop that addresses the
privacy-utility tradeoff: start with a small budget (epsilon_0) on a minimal
window of recent blocks; on RETRY, double the privacy budget while the
pipeline's allocation allows, otherwise double the data window; stop on
ACCEPT, REJECT, or timeout.

The doubling schedule gives the paper's conservation guarantee: failed
iterations together cost at most the final accepted budget, and the final
budget overshoots the smallest sufficient one by at most 2x -- so the whole
search costs at most 4x the optimum (§3.3).

Propose/settle lifecycle
------------------------
A session never executes its own privacy charges.  The contract with
whoever drives it (the platform, a trainer, a test) is two-phase:

1. :meth:`AdaptiveSession.propose` picks the next attempt's window and
   budget **without touching the accountant** and returns a
   :class:`ChargeProposal` (or ``None``, leaving the session ``TIMEOUT`` /
   ``NEED_DATA``).  Escalation state is *not* mutated at propose time --
   in particular the aggressive strategy's epsilon commitment rides along
   in ``ChargeProposal.epsilon_after`` until the charge is known granted.
2. The driver decides the proposal: it charges the accountant itself
   (immediately via ``SageAccessControl.request``, or staged into the
   platform's hourly batch), assembles the training
   window, and hands the session a :class:`ChargeDecision`.
3. :meth:`AdaptiveSession.complete` consumes the decision: a granted
   charge commits escalation state, runs the pipeline, records the
   :class:`AttemptRecord`, and either finishes or escalates so the next
   ``propose()`` asks for more; a denial leaves every piece of session
   state untouched and blocks the session on ``NEED_DATA``.

:meth:`AdaptiveSession.step` and :meth:`AdaptiveSession.resume` are the
one immediate driver: they run exactly this propose -> request -> complete
loop with immediate charges, reproducing the historical one-call behavior
float-for-float.  :class:`PrivacyAdaptiveTrainer` is the one-shot
convenience wrapper used on static databases (Fig. 6 experiments); it
drives its session through :meth:`AdaptiveSession.step`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.core.access_control import SageAccessControl
from repro.core.pipeline import PipelineRun
from repro.core.validation.outcomes import Outcome
from repro.data.database import GrowingDatabase
from repro.dp.budget import PrivacyBudget, ZERO_BUDGET
from repro.errors import PipelineError

__all__ = [
    "AdaptiveConfig",
    "AttemptRecord",
    "ChargeProposal",
    "ChargeDecision",
    "SessionStatus",
    "AdaptiveSession",
    "PrivacyAdaptiveTrainer",
]


@dataclass(frozen=True)
class AdaptiveConfig:
    """Escalation policy knobs.

    ``epsilon_start``/``epsilon_cap`` bound the doubling search; ``delta`` is
    the per-attempt delta -- ``None`` (the default) rations the share of the
    stream's delta_global not reserved by its filter's own analysis evenly
    across ``max_attempts`` so repeated attempts on the
    same blocks can never delta-exhaust them; ``strategy`` is "conserve"
    (the Sage default) or "aggressive" (use everything available at once,
    the §5.4 ablation).
    """

    epsilon_start: float = 1.0 / 16.0
    epsilon_cap: float = 1.0
    delta: Optional[float] = None
    min_window_blocks: int = 1
    max_attempts: int = 32
    strategy: str = "conserve"
    # Smallest epsilon worth attempting with.  Under heavy contention the
    # platform's even split can allocate less than epsilon_start per block;
    # rather than deadlock, the session attempts with whatever it has down
    # to this floor (compensating with data, the paper's exchange rate).
    epsilon_floor: Optional[float] = None

    def __post_init__(self) -> None:
        if not 0 < self.epsilon_start <= self.epsilon_cap:
            raise PipelineError(
                f"need 0 < epsilon_start <= epsilon_cap, got "
                f"{self.epsilon_start}, {self.epsilon_cap}"
            )
        if self.epsilon_floor is not None and not 0 < self.epsilon_floor <= self.epsilon_start:
            raise PipelineError(
                f"need 0 < epsilon_floor <= epsilon_start, got {self.epsilon_floor}"
            )
        if self.delta is not None and not 0.0 <= self.delta < 1.0:
            raise PipelineError(f"delta must be in [0, 1), got {self.delta}")
        if self.min_window_blocks <= 0:
            raise PipelineError("min_window_blocks must be > 0")
        if self.max_attempts <= 0:
            raise PipelineError("max_attempts must be > 0")
        if self.strategy not in ("conserve", "aggressive"):
            raise PipelineError(f"unknown strategy {self.strategy!r}")


@dataclass(frozen=True)
class AttemptRecord:
    """One training attempt inside a session.

    Frozen: a recorded attempt never changes in place (the durability
    digest folds each record into a running CRC exactly once).
    """

    attempt: int
    window: Tuple
    budget: PrivacyBudget
    outcome: Outcome
    train_size: int


class SessionStatus:
    """Terminal and blocked states of an adaptive session."""

    RUNNING = "running"
    ACCEPTED = "accepted"
    REJECTED = "rejected"
    TIMEOUT = "timeout"
    NEED_DATA = "need_data"  # blocked: not enough usable blocks / budget yet

    @staticmethod
    def canonical(status: str) -> str:
        """The constant equal to ``status``.  A decoded status is a new
        string object, and pickle writes one object once per record but
        equal copies each in full.  The drive does not touch a parked
        session's status, so the WAL and snapshot restores hand back the
        constants, and later hour records stay byte-identical to a run
        that never restarted."""
        return _STATUSES[status]


_STATUSES = {
    status: status
    for status in (
        SessionStatus.RUNNING,
        SessionStatus.ACCEPTED,
        SessionStatus.REJECTED,
        SessionStatus.TIMEOUT,
        SessionStatus.NEED_DATA,
    )
}


@dataclass(frozen=True)
class ChargeProposal:
    """Phase one of an attempt: what the session wants to charge.

    Produced by :meth:`AdaptiveSession.propose` without touching the
    accountant or any session state beyond status.  ``epsilon_after`` is the
    escalation epsilon the session will commit to *iff* the charge is
    granted (the aggressive strategy raises it to everything available;
    conserve leaves it at the current schedule) -- deferring this mutation
    to the grant is what keeps a denied attempt side-effect free.

    ``rows`` is the window as its scan found it (read-only store rows, what
    the driver stages and settles); ``window`` holds their keys, built once.
    """

    session: "AdaptiveSession" = field(repr=False)
    attempt: int
    window: Tuple
    rows: np.ndarray = field(repr=False, compare=False)
    budget: PrivacyBudget
    epsilon_after: float
    label: str = ""


@dataclass(frozen=True)
class ChargeDecision:
    """Phase two: the driver's verdict on a proposal.

    ``granted`` means the proposal's budget was charged (immediately or
    staged into an hourly batch) and ``batch`` carries the assembled
    training window (``None`` lets the session assemble it itself).  A
    denial carries no batch; the session blocks on NEED_DATA with all
    escalation state untouched.
    """

    proposal: ChargeProposal
    granted: bool
    batch: Optional[object] = None


class AdaptiveSession:
    """The per-pipeline escalation state machine.

    Parameters
    ----------
    row_budget_fn:
        Optional allocation hook ``(store_rows) -> per-row epsilon``: the
        epsilon this pipeline may still spend on each block, aligned to
        the accountant's ledger-store rows.  The platform passes its
        per-pipeline reservations here; window selection filters candidate
        blocks through it in one NumPy pass.  It must be a pure read, since
        :meth:`propose_peek` calls it.  Standalone use (no hook) spends
        whatever the blocks themselves can absorb.
    """

    def __init__(
        self,
        pipeline,
        access: SageAccessControl,
        database: GrowingDatabase,
        config: AdaptiveConfig,
        rng: np.random.Generator,
        new_block_epsilon_fn: Optional[Callable[[], float]] = None,
        row_budget_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    ) -> None:
        self.pipeline = pipeline
        self.access = access
        self.database = database
        self.config = config
        self.rng = rng
        self._row_budget_fn = row_budget_fn
        # Epsilon this pipeline can expect to hold on a brand-new block
        # (the platform's allocation rate); drives the §3.3 escalation
        # choice between doubling budget and doubling data.
        self._new_block_epsilon_fn = new_block_epsilon_fn
        if config.delta is not None:
            self.delta = config.delta
        else:
            # Ration the per-attempt delta out of the share the stream's
            # filter leaves to queries: strong composition reserves its
            # slack and Renyi accounting its conversion delta, and attempts
            # charged against the reserved share would be refused long
            # before the attempt budget ran out.
            available = max(
                0.0,
                access.accountant.delta_global - access.accountant.delta_reserved,
            )
            self.delta = available / config.max_attempts
        self.epsilon = config.epsilon_start
        self.epsilon_floor = (
            config.epsilon_floor
            if config.epsilon_floor is not None
            else config.epsilon_start / 16.0
        )
        self.window_blocks = config.min_window_blocks
        self.status = SessionStatus.RUNNING
        self.attempts: List[AttemptRecord] = []
        self.final_run: Optional[PipelineRun] = None
        self.total_spent: PrivacyBudget = ZERO_BUDGET

    # ------------------------------------------------------------------
    def _candidate_window(self, budget: PrivacyBudget) -> Optional[np.ndarray]:
        """Rows of the newest ``window_blocks`` blocks that can fund ``budget``.

        A block qualifies when its ledger can absorb the charge AND this
        pipeline's own allocation on it covers the epsilon; blocks reserved
        for other pipelines are skipped rather than vetoing the window.

        Ledger admissibility is decided by the accountant's single batched
        filter pass over the whole live-block store; ``row_budget_fn``, when
        given, then filters only the rows that passed it, in one vectorized
        pass.
        """
        row_filter = None
        if self._row_budget_fn is not None:
            row_filter = (
                lambda rows: self._row_budget_fn(rows) + 1e-12 >= budget.epsilon
            )
        rows = self.access.offer_recent_blocks(
            budget, self.window_blocks, row_filter=row_filter
        )
        if len(rows) < self.window_blocks:
            return None
        return rows

    def _new_block_rate(self) -> float:
        """Epsilon this session can expect on a freshly created block."""
        rate = self.access.accountant.epsilon_global
        if self._new_block_epsilon_fn is not None:
            rate = min(rate, self._new_block_epsilon_fn())
        return min(rate, self.config.epsilon_cap)

    def _select_attempt(self):
        """Pick (window rows, epsilon) for the next attempt, or (None, None).

        An attempt fires only when a window of the committed size can fund
        the committed budget; otherwise the session waits for fresh blocks.
        (Attempting early at whatever is affordable would skim budget off
        the freshest blocks, so no window could ever afford the committed
        epsilon again.)  The one exception is allocation contention -- the
        schedule still at epsilon_start but the platform granting less --
        where the attempt runs at the granted level, compensating with data.
        """
        rows = self._candidate_window(PrivacyBudget(self.epsilon, self.delta))
        if rows is not None:
            available = self._epsilon_limit(rows)
            if available + 1e-12 >= self.epsilon:
                return rows, self.epsilon
        # Contention fallback: when the schedule has not escalated yet, or
        # the allocation rate has since dropped below the committed epsilon
        # (more pipelines arrived), run with whatever is granted instead of
        # stalling -- compensating with data per the exchange rate.
        under_contention = (
            self.epsilon <= self.config.epsilon_start + 1e-12
            or self._new_block_rate() < self.epsilon - 1e-12
        )
        if under_contention:
            rows = self._candidate_window(
                PrivacyBudget(self.epsilon_floor, self.delta)
            )
            if rows is not None:
                available = self._epsilon_limit(rows)
                if available + 1e-12 >= self.epsilon_floor:
                    return rows, min(available, self.epsilon)
        return None, None

    def _epsilon_limit(self, rows: np.ndarray) -> float:
        """Largest epsilon this session may spend on the window ``rows`` now:
        whatever the blocks can absorb, intersected with the platform's
        per-pipeline allocation (both strategies honour the even split of
        §5.4; they differ in how much of it each attempt consumes)."""
        limit = self.access.max_epsilon(rows, self.delta)
        if self._row_budget_fn is not None:
            held = self._row_budget_fn(rows)
            limit = min(limit, float(held.min()) if held.size else 0.0)
        return min(limit, self.config.epsilon_cap)

    # ------------------------------------------------------------------
    # The two-phase protocol
    # ------------------------------------------------------------------
    def provably_blocked(self) -> bool:
        """True only if :meth:`propose_peek` would return
        ``(None, NEED_DATA)`` -- decided from one row read, with no window
        search.

        Every window :meth:`_select_attempt` can try needs
        ``window_blocks`` store rows that admit its budget and hold its
        epsilon in this session's reservation row: the main window asks
        for ``epsilon``, the contention fallback for ``epsilon_floor``.
        Every built-in filter is monotone in epsilon at a fixed delta (a
        row admitting ``(e, delta)`` admits ``(e', delta)`` for every
        ``e' <= e``; see :class:`~repro.core.filters.PrivacyFilter`), and
        so is the reservation comparison, so the rows qualifying at
        ``lowest = min(epsilon, epsilon_floor)`` contain those of both
        windows.  Fewer than ``window_blocks`` of them means neither
        window exists.  False means nothing: the full search decides.  The
        budgets are rebuilt from the live fields on every call, since WAL
        replay and the hour rollback rewrite them in place.  A pure read,
        like :meth:`propose_peek`; while the hour's batch is open its row
        read is the batch's memoized scan at ``lowest``, which every stage
        keeps current by re-deciding only the rows it staged.  The
        platform's hour pass (``Sage._decide_parked``) computes this same
        count for all its parked sessions at once and skips those it
        proves blocked; every session the drive visits asks this method
        once, so it stays the definition.  A True answer stands until the
        session's own turn or a release: a stage only adds spend, and
        admission is monotone in spend (the
        :class:`~repro.core.filters.PrivacyFilter` contract).
        """
        if self.status not in (SessionStatus.RUNNING, SessionStatus.NEED_DATA):
            return False
        if len(self.attempts) >= self.config.max_attempts:
            return False  # propose_peek would report TIMEOUT
        lowest = min(self.epsilon, self.epsilon_floor)
        rows = self.access.admit_rows(PrivacyBudget(lowest, self.delta))
        if rows.size < self.window_blocks:
            return True
        if self._row_budget_fn is None:
            return False
        held = self._row_budget_fn(rows) + 1e-12 >= lowest
        return int(np.count_nonzero(held)) < self.window_blocks

    def propose_peek(self) -> Tuple[Optional[ChargeProposal], str]:
        """Preview :meth:`propose` without mutating *any* session state.

        Returns ``(proposal, status_after)``: exactly the proposal a
        woken-then-``propose()``-ed session would produce and the status it
        would transition to -- but computed as a pure read (a blocked
        NEED_DATA session is evaluated as if :meth:`wake` had run).
        :meth:`propose` is this peek plus the status write.  The
        platform's serial hour drives the waiting sessions one after
        another, each through :meth:`propose`, so this read always sees
        the charges staged by the sessions before it.  Because it writes
        nothing, the accountant scans behind it can be shared: while the
        hour's staged batch is open, its scan memo holds one whole-stream
        admit scan per floor, and every session at that floor reads it.
        A successful stage re-decides only the rows it staged in each
        memoized scan (exact, since a filter decides each row from that
        row's totals alone), so the next proposer pays for those rows,
        not for a rescan of the stream; only a block registration or a
        registration rollback clears the memo.

        The peek always runs the full window search.  The platform
        settles the cheaper blocked verdict first, once per session and
        hour -- it skips the sessions its hour pass proved blocked when the
        hour opened (or since the last release), and every session it
        visits asks :meth:`provably_blocked` -- and calls :meth:`propose`
        only when that verdict is False; a check here instead would repeat
        that verdict's row read on every proposal of a session that is not
        blocked.
        """
        status = self.status
        if status == SessionStatus.NEED_DATA:
            status = SessionStatus.RUNNING  # what wake() would do
        if status != SessionStatus.RUNNING:
            return None, status
        if len(self.attempts) >= self.config.max_attempts:
            return None, SessionStatus.TIMEOUT
        rows, eps_attempt = self._select_attempt()
        if rows is None:
            return None, SessionStatus.NEED_DATA
        epsilon_after = self.epsilon
        if self.config.strategy == "aggressive":
            # Spend everything available on this window right away -- but
            # only commit the raised schedule once the charge is granted.
            eps_attempt = max(eps_attempt, self._epsilon_limit(rows))
            epsilon_after = max(self.epsilon, eps_attempt)
        proposal = ChargeProposal(
            session=self,
            attempt=len(self.attempts) + 1,
            window=self.access.accountant.keys_for_rows(rows),
            rows=rows,
            budget=PrivacyBudget(eps_attempt, self.delta),
            epsilon_after=epsilon_after,
            label=self.pipeline.name,
        )
        return proposal, SessionStatus.RUNNING

    def propose(self) -> Optional[ChargeProposal]:
        """Phase one: pick the next attempt without touching the accountant.

        Returns the :class:`ChargeProposal` the driver should decide, or
        ``None`` when the session cannot attempt -- after transitioning to
        TIMEOUT (attempt budget exhausted) or NEED_DATA (no affordable
        window; :meth:`wake` unblocks once new data lands).  No escalation
        state is mutated here: even the aggressive strategy's epsilon grab
        is merely *carried* on the proposal until the charge is granted.
        """
        if self.status != SessionStatus.RUNNING:
            return None
        proposal, status_after = self.propose_peek()
        self.status = status_after
        return proposal

    def complete(self, decision: ChargeDecision) -> str:
        """Phase two: consume the driver's decision on our proposal.

        Granted: commit the proposal's escalation state, run the pipeline
        on the assembled window, record the attempt, and finish or escalate
        (the next :meth:`propose` continues the search).  Denied: leave
        epsilon, window size, attempts, and total_spent untouched and block
        on NEED_DATA until the platform wakes the session.
        """
        proposal = decision.proposal
        if proposal.session is not self:
            raise PipelineError(
                f"decision for session of {proposal.label!r} handed to "
                f"{self.pipeline.name!r}"
            )
        if self.status != SessionStatus.RUNNING:
            raise PipelineError(f"cannot complete a {self.status} session")
        if proposal.attempt != len(self.attempts) + 1:
            raise PipelineError(
                f"stale proposal: attempt {proposal.attempt} but "
                f"{len(self.attempts)} attempts already recorded"
            )
        if not decision.granted:
            self.status = SessionStatus.NEED_DATA
            return self.status

        self.epsilon = proposal.epsilon_after
        window = list(proposal.window)
        budget = proposal.budget
        self.total_spent = self.total_spent + budget
        batch = decision.batch
        if batch is None:
            batch = self.database.assemble(window)
        run = self.pipeline.run(batch, budget, self.rng)
        self.attempts.append(
            AttemptRecord(
                attempt=proposal.attempt,
                window=proposal.window,
                budget=budget,
                outcome=run.outcome,
                train_size=len(batch),
            )
        )
        if run.outcome is Outcome.ACCEPT:
            self.final_run = run
            self.status = SessionStatus.ACCEPTED
        elif run.outcome is Outcome.REJECT:
            self.final_run = run
            self.status = SessionStatus.REJECTED
        else:
            self._escalate(window)
        return self.status

    def wake(self) -> str:
        """Unblock a NEED_DATA session (the platform calls this when new
        blocks have landed) so :meth:`propose` evaluates again."""
        if self.status == SessionStatus.NEED_DATA:
            self.status = SessionStatus.RUNNING
        return self.status

    # ------------------------------------------------------------------
    # Compatibility shims (one-call drivers over the two-phase protocol)
    # ------------------------------------------------------------------
    def step(self) -> str:
        """Run attempts until ACCEPT/REJECT/timeout or until blocked on data.

        A self-driving loop over the two-phase protocol with immediate
        charges: every proposal is executed via ``access.request`` and
        completed as granted -- float-identical to the historical
        imperative loop.  The platform path does NOT use this; it stages
        proposals into one hourly staged batch instead.
        """
        while self.status == SessionStatus.RUNNING:
            proposal = self.propose()
            if proposal is None:
                break
            self.access.request(
                list(proposal.window), proposal.budget, label=self.pipeline.name
            )
            self.complete(ChargeDecision(proposal=proposal, granted=True))
        return self.status

    def _escalate(self, window: List[object]) -> None:
        """RETRY: double the budget if the allocation rate allows, else
        double the window (§3.3's exact escalation rule).

        The budget-doubling test asks whether *freshly arriving* blocks can
        fund the doubled epsilon for this pipeline -- not whether the
        just-spent window can (it never can once epsilon exceeds half the
        block budget).  Committing here and waiting for qualifying blocks is
        what lets the schedule actually reach epsilon_cap.
        """
        doubled = 2.0 * self.epsilon
        if doubled <= self.config.epsilon_cap + 1e-12 and doubled <= self._new_block_rate() + 1e-12:
            self.epsilon = doubled
            return
        self.window_blocks *= 2
        # Epsilon never shrinks across escalations (§3.3's doubling argument).

    def resume(self) -> str:
        """Compatibility hook: unblock after new data arrived, step again."""
        self.wake()
        return self.step()

    @property
    def is_terminal(self) -> bool:
        return self.status in (
            SessionStatus.ACCEPTED,
            SessionStatus.REJECTED,
            SessionStatus.TIMEOUT,
        )

    def export_state(self) -> dict:
        """The session's durable scalars, in record order (the hour
        rollback keeps it; WAL hour deltas and snapshot entries splice it
        in, and pickle writes dict keys in insertion order, so the order
        is file format).  Attempts and the final run are not in it."""
        return {
            "status": self.status,
            "epsilon": self.epsilon,
            "epsilon_floor": self.epsilon_floor,
            "delta": self.delta,
            "window_blocks": self.window_blocks,
            "total_spent": self.total_spent,
        }

    def restore_state(self, state: dict) -> None:
        """Apply an :meth:`export_state` record (extra keys are ignored);
        a decoded status comes back as the :class:`SessionStatus` constant."""
        self.status = SessionStatus.canonical(state["status"])
        self.epsilon = state["epsilon"]
        self.epsilon_floor = state["epsilon_floor"]
        self.delta = state["delta"]
        self.window_blocks = state["window_blocks"]
        self.total_spent = state["total_spent"]


@dataclass
class AdaptiveResult:
    """Outcome of a one-shot privacy-adaptive training run."""

    status: str
    run: Optional[PipelineRun]
    attempts: List[AttemptRecord] = field(default_factory=list)
    total_spent: PrivacyBudget = ZERO_BUDGET

    @property
    def accepted(self) -> bool:
        return self.status == SessionStatus.ACCEPTED


class PrivacyAdaptiveTrainer:
    """One-shot adaptive training on a (currently static) database."""

    def __init__(
        self,
        access: SageAccessControl,
        database: GrowingDatabase,
        config: Optional[AdaptiveConfig] = None,
    ) -> None:
        self.access = access
        self.database = database
        self.config = config or AdaptiveConfig()

    def train(self, pipeline, rng: np.random.Generator) -> AdaptiveResult:
        session = AdaptiveSession(
            pipeline, self.access, self.database, self.config, rng
        )
        # On a static database a denial cannot un-block, so the session's
        # own immediate driver (every proposal charged at once) runs it.
        session.step()
        return AdaptiveResult(
            status=session.status,
            run=session.final_run,
            attempts=session.attempts,
            total_spent=session.total_spent,
        )
