"""Dynamic twin of the static purity rule (see ``repro.analysis.rules.purity``).

The linter proves no *statically visible* write sits on the peek path, but
name-based analysis cannot see through stored callables (allocation hooks,
row filters).  This test closes that hole at runtime: it fingerprints the
complete object graph of a live session -- accountant, ledgers, store
arrays, reservation state, RNG state, everything reachable -- calls
``propose_peek`` (or the blocked-session verdict ``provably_blocked``,
the other pure seed on a session, or the platform's hour pass
``Sage._decide_parked``), and requires the fingerprint to be
byte-identical.

Reservation state is pure from the first call: on a platform session the
peek reads its allocation through ``row_budget_fn`` and never settles, so
the reservation table and the session's attempts stay put even right
after a granted ``complete()``.  Only the documented memo caches (the
scan memo, staged effective-totals growth) may fill on the first call, and the
linter's allow comments cover exactly those; so the whole-graph fingerprint
is compared from the second call on.
"""

import enum
import types

import numpy as np
import pytest

from repro.core.access_control import SageAccessControl
from repro.core.adaptive import AdaptiveConfig, AdaptiveSession, SessionStatus
from repro.core.pipeline import PipelineRun
from repro.core.platform import Sage
from repro.core.validation.outcomes import Outcome, ValidationResult
from repro.data.database import GrowingDatabase, StreamIngestor
from repro.data.stream import TimePartitioner
from repro.data.taxi import TaxiGenerator
from repro.dp.budget import PrivacyBudget
from repro.workload.oracle import CountStreamSource, OraclePipeline


class _Threshold:
    """Pure pipeline double (propose_peek must never run it anyway)."""

    name = "oracle"

    def __init__(self, threshold=900.0):
        self.threshold = threshold
        self.calls = []

    def run(self, batch, budget, rng, correct_for_dp=True):
        self.calls.append((len(batch), budget))
        outcome = (
            Outcome.ACCEPT
            if len(batch) * budget.epsilon >= self.threshold
            else Outcome.RETRY
        )
        return PipelineRun(
            name=self.name,
            outcome=outcome,
            validation=ValidationResult(outcome, PrivacyBudget(budget.epsilon, 0.0)),
            budget_charged=budget,
        )


def build_world(hours=8):
    db = GrowingDatabase()
    ingestor = StreamIngestor(
        TaxiGenerator(points_per_hour=1000),
        db,
        TimePartitioner(1.0),
        rng=np.random.default_rng(0),
    )
    access = SageAccessControl(1.0, 1e-6)
    for block in ingestor.advance(hours):
        access.register_block(block.key)
    return db, access


def fingerprint(obj):
    """Deterministic (path, value) trace of the complete object graph."""
    out = []
    _walk(obj, "root", {}, out)
    return out


def _walk(obj, path, seen, out):
    if isinstance(obj, (bool, int, float, complex, str, bytes, type(None))):
        out.append((path, repr(obj)))
        return
    if isinstance(obj, np.ndarray):
        out.append((path, (obj.shape, str(obj.dtype), obj.tobytes())))
        return
    if isinstance(obj, np.generic):
        out.append((path, repr(obj)))
        return
    if isinstance(obj, enum.Enum):
        out.append((path, repr(obj)))
        return
    if isinstance(
        obj,
        (
            types.FunctionType,
            types.MethodType,
            types.BuiltinFunctionType,
            type,
            types.ModuleType,
        ),
    ):
        out.append((path, f"<callable {getattr(obj, '__qualname__', obj)}>"))
        return
    oid = id(obj)
    if oid in seen:
        out.append((path, f"<shared -> {seen[oid]}>"))
        return
    seen[oid] = path
    if isinstance(obj, dict):
        for index, (key, value) in enumerate(obj.items()):
            _walk(key, f"{path}<key {index}>", seen, out)
            _walk(value, f"{path}[{index}]", seen, out)
    elif isinstance(obj, (list, tuple)):
        for index, value in enumerate(obj):
            _walk(value, f"{path}[{index}]", seen, out)
    elif isinstance(obj, (set, frozenset)):
        out.append((path, sorted(repr(value) for value in obj)))
    elif isinstance(obj, np.random.Generator):
        _walk(obj.bit_generator.state, f"{path}.bit_generator.state", seen, out)
    elif hasattr(obj, "__dict__"):
        for name in sorted(vars(obj)):
            _walk(vars(obj)[name], f"{path}.{name}", seen, out)
    else:
        out.append((path, f"<opaque {type(obj).__qualname__}>"))


def assert_read_leaves_no_trace(read, session, access, *args):
    """Call the pure read ``read`` (a method name, given ``args``) twice
    and require the whole object graph to be unchanged across the second
    call."""
    getattr(session, read)(*args)  # warm-up: benign caches may fill once
    before = fingerprint((session, access))
    result = getattr(session, read)(*args)
    after = fingerprint((session, access))
    for (path_b, val_b), (path_a, val_a) in zip(before, after):
        assert path_b == path_a and val_b == val_a, (
            f"{read} mutated state at {path_b}"
        )
    assert len(before) == len(after)
    return result


def assert_peek_leaves_no_trace(session, access):
    return assert_read_leaves_no_trace("propose_peek", session, access)


class TestProposePeekIsPure:
    @pytest.mark.parametrize("strategy", ["conserve", "aggressive"])
    def test_fresh_session(self, strategy):
        db, access = build_world()
        session = AdaptiveSession(
            _Threshold(),
            access,
            db,
            AdaptiveConfig(strategy=strategy),
            np.random.default_rng(0),
        )
        proposal, status_after = assert_peek_leaves_no_trace(session, access)
        assert proposal is not None
        assert status_after == SessionStatus.RUNNING
        assert session.attempts == []

    def test_mid_protocol_session(self):
        db, access = build_world()
        session = AdaptiveSession(
            _Threshold(threshold=1e12),
            access,
            db,
            AdaptiveConfig(max_attempts=6),
            np.random.default_rng(0),
        )
        status = session.step()  # a few real escalation rounds first
        assert status == SessionStatus.TIMEOUT
        assert_peek_leaves_no_trace(session, access)

    def test_need_data_session(self):
        db = GrowingDatabase()
        access = SageAccessControl(1.0, 1e-6)
        session = AdaptiveSession(
            _Threshold(), access, db, AdaptiveConfig(), np.random.default_rng(0)
        )
        proposal, status_after = assert_peek_leaves_no_trace(session, access)
        assert proposal is None
        assert status_after == SessionStatus.NEED_DATA

    def test_peek_never_runs_the_pipeline(self):
        db, access = build_world()
        pipeline = _Threshold()
        session = AdaptiveSession(
            pipeline, access, db, AdaptiveConfig(), np.random.default_rng(0)
        )
        session.propose_peek()
        session.propose_peek()
        assert pipeline.calls == []


class TestPlatformAllocationReadIsPure:
    def test_peek_after_granted_complete_settles_nothing(self):
        """Mid-hour, right after a granted ``complete()`` and before the
        session's next proposal, the first ``propose_peek`` leaves the
        reservation table and the session's attempts untouched."""
        sage = Sage(CountStreamSource(4000, scale=1000), seed=5)
        entry = sage.submit(
            OraclePipeline(name="p0", n_at_eps1=1e9), AdaptiveConfig(max_attempts=16)
        )
        session = entry.session
        propose = session.propose
        seen_attempts = checks = 0

        def propose_after_peek():
            nonlocal seen_attempts, checks
            if len(session.attempts) > seen_attempts:  # a granted complete() ran
                seen_attempts = len(session.attempts)
                matrix = sage.reservation_table.matrix.tobytes()
                session.propose_peek()
                assert sage.reservation_table.matrix.tobytes() == matrix
                assert len(session.attempts) == seen_attempts
                checks += 1
            return propose()

        session.propose = propose_after_peek
        for _ in range(4):
            sage.advance(1.0)
        assert checks, "no proposal followed a granted complete()"


class TestBlockedVerdictIsPure:
    """``provably_blocked`` and the hour pass are pure seeds too: the same
    whole-graph snapshot, taken around the verdict or the pass."""

    def test_fresh_session(self):
        db, access = build_world()
        session = AdaptiveSession(
            _Threshold(), access, db, AdaptiveConfig(), np.random.default_rng(0)
        )
        assert assert_read_leaves_no_trace("provably_blocked", session, access) is False

    def test_blocked_session(self):
        session = AdaptiveSession(
            _Threshold(),
            SageAccessControl(1.0, 1e-6),  # no blocks: provably blocked
            GrowingDatabase(),
            AdaptiveConfig(),
            np.random.default_rng(0),
        )
        session.status = SessionStatus.NEED_DATA
        access = session.access
        assert assert_read_leaves_no_trace("provably_blocked", session, access) is True
        assert session.status == SessionStatus.NEED_DATA

    def test_platform_session_mid_hour(self):
        """Inside an open hour, with a staged charge and the reservation
        hook in play, the verdict moves neither the table nor the batch."""
        sage = Sage(CountStreamSource(4000, scale=1000), seed=5)
        sage.advance(3.0)  # nobody waits: the blocks' budget is free
        entries = [
            sage.submit(
                OraclePipeline(name=f"p{i}", n_at_eps1=1e9),
                AdaptiveConfig(min_window_blocks=2 ** (3 * i)),
            )
            for i in range(2)
        ]
        sage._grant_free_pool()  # as the next hour's opening would
        access = sage.access
        access.begin_staging()
        try:
            key = access.accountant.block_keys[0]
            access.stage_request([0], [key], PrivacyBudget(0.01, 0.0))
            verdicts = [
                assert_read_leaves_no_trace(
                    "provably_blocked", e.session, (access, sage.reservation_table)
                )
                for e in entries
            ]
        finally:
            access.abort_staged()
        assert verdicts == [False, True]  # 1 of 3 blocks is funded; 8 are not

    def test_hour_pass_mid_hour(self):
        """The hour pass over a parked queue, with a staged charge in the
        open batch, moves neither the table, the batch nor any session."""
        sage = Sage(CountStreamSource(4000, scale=1000), seed=5)
        sage.advance(3.0)
        entries = [
            sage.submit(
                OraclePipeline(name=f"p{i}", n_at_eps1=1e9),
                AdaptiveConfig(min_window_blocks=2 ** (3 * i)),
            )
            for i in range(3)
        ]
        sage.advance(1.0)
        access = sage.access
        access.begin_staging()
        try:
            key = access.accountant.block_keys[0]
            access.stage_request([0], [key], PrivacyBudget(0.01, 0.0))
            parked = assert_read_leaves_no_trace(
                "_decide_parked",
                sage,
                (access, sage.reservation_table, [e.session for e in entries]),
                entries,
            )
        finally:
            access.abort_staged()
        assert parked.parked, "no session was parked: nothing was checked"
