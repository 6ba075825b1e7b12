"""Forward dataflow over the CFG: solver, mutation facts, path queries.

Three layers, each usable on its own:

* :func:`solve_forward` -- a generic worklist fixpoint solver.  An
  analysis provides ``initial()``, ``transfer(node, fact)`` and
  ``join(facts)`` over hashable facts; the solver iterates to a fixed
  point (facts must grow monotonically under ``join`` for termination,
  which every frozenset-powerset analysis here satisfies).

* Concrete analyses: :class:`ReachingMutations` (which mutation events
  may have executed by the time control reaches each node -- the purity
  and rollback rules' backbone) and :class:`MayAlias` (which locals may
  alias ``self``-rooted storage -- ``tmp = self._cache`` followed by
  ``tmp[k] = v`` is a ``self._cache`` write, and a ``for entry in
  self._pipelines:`` target aliases the pipelines list's elements).

* Path queries: :func:`feasible_path_exists` is the path-sensitive core
  of the pairing/ordering rules.  It searches for a CFG path with simple
  *branch correlation*: along one path a branch test (by source text) may
  not be taken both ways unless a name it reads was reassigned in
  between, so ``if staged: open()`` ... ``finally: if staged: close()``
  correlates and the open-but-skip-close pseudo-path is pruned.
  :func:`always_precedes` / :func:`always_followed_by` phrase the
  ordering contracts on top of it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.cfg import CFG, CFGNode
from repro.analysis.astutil import (
    MUTATOR_METHODS,
    SELF_MUTATOR_METHODS,
    assigned_target_nodes,
    attr_chain,
    attr_root,
    call_name,
)

__all__ = [
    "solve_forward",
    "Mutation",
    "ReachingMutations",
    "MayAlias",
    "mutations_in_stmt",
    "feasible_path_exists",
    "always_precedes",
    "always_followed_by",
]


# ----------------------------------------------------------------------
# Generic forward solver
# ----------------------------------------------------------------------
def solve_forward(cfg: CFG, analysis) -> Tuple[Dict[int, object], Dict[int, object]]:
    """Run a forward analysis to fixpoint; returns ``(in_facts, out_facts)``
    keyed by node index.  ``analysis`` provides ``initial()`` (the entry
    fact), ``transfer(node, fact)`` and ``join(iterable_of_facts)``."""
    in_facts: Dict[int, object] = {}
    out_facts: Dict[int, object] = {}
    entry_fact = analysis.initial()
    in_facts[cfg.entry.index] = entry_fact
    out_facts[cfg.entry.index] = analysis.transfer(cfg.entry, entry_fact)
    worklist = [succ for succ, _ in cfg.succs(cfg.entry)]
    seen_on_list = {node.index for node in worklist}
    while worklist:
        node = worklist.pop(0)
        seen_on_list.discard(node.index)
        pred_facts = [
            out_facts[p.index] for p, _ in cfg.preds(node) if p.index in out_facts
        ]
        if not pred_facts:
            continue
        new_in = analysis.join(pred_facts)
        if node.index in in_facts and in_facts[node.index] == new_in:
            continue
        in_facts[node.index] = new_in
        new_out = analysis.transfer(node, new_in)
        if out_facts.get(node.index) == new_out:
            continue
        out_facts[node.index] = new_out
        for succ, _ in cfg.succs(node):
            if succ.index not in seen_on_list:
                worklist.append(succ)
                seen_on_list.add(succ.index)
    return in_facts, out_facts


# ----------------------------------------------------------------------
# Mutation extraction (shared by the purity and rollback rules)
# ----------------------------------------------------------------------
@dataclass(frozen=True, order=True)
class Mutation:
    """One state-mutating event inside a statement.

    ``root`` is the base name of the mutated storage (``"self"`` for
    attribute state), ``path`` the dotted attribute path (aliases already
    resolved when an alias map is supplied), ``what`` a human rendering
    for findings, ``lineno``/``col_offset`` the source anchor (the pair a
    :meth:`Rule.finding` call expects on its node).
    """

    root: str
    path: Tuple[str, ...]
    what: str
    lineno: int
    col_offset: int = 0


def _resolve(chain: Tuple[str, ...], aliases: Optional[Dict[str, Tuple[str, ...]]]):
    """Rewrite a chain through the alias map: ``tmp._x`` with ``tmp ->
    ('self', '_cache')`` becomes ``('self', '_cache', '_x')``."""
    if aliases and chain and chain[0] in aliases:
        return aliases[chain[0]] + chain[1:]
    return chain


def mutations_in_stmt(
    stmt: ast.stmt,
    aliases: Optional[Dict[str, Tuple[str, ...]]] = None,
    roots: Tuple[str, ...] = ("self",),
) -> List[Mutation]:
    """Every mutation event in one statement (assignments to tracked
    roots, subscript writes through them, mutator-method calls).

    ``aliases`` maps local names to the ``self``-rooted path they may
    alias (see :class:`MayAlias`); a write through an alias is reported
    against the resolved path.  Compound statements contribute only their
    header (their bodies are separate CFG nodes).
    """
    probe: ast.AST = stmt
    if isinstance(stmt, (ast.If, ast.While)):
        probe = stmt.test
    elif isinstance(stmt, ast.For):
        probe = stmt.iter
    elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return []
    out: List[Mutation] = []
    for node in ast.walk(probe):
        for target in assigned_target_nodes(node):
            if isinstance(target, ast.Attribute):
                chain = tuple(attr_chain(target))
                chain = _resolve(chain, aliases)
                if chain and chain[0] in roots:
                    out.append(
                        Mutation(
                            chain[0],
                            chain,
                            f"assigns {'.'.join(chain)}",
                            getattr(node, "lineno", 0),
                            getattr(node, "col_offset", 0),
                        )
                    )
            elif isinstance(target, ast.Subscript):
                chain = tuple(attr_chain(target.value))
                chain = _resolve(chain, aliases)
                if chain and chain[0] in roots:
                    out.append(
                        Mutation(
                            chain[0],
                            chain,
                            f"writes {'.'.join(chain)}[...]",
                            getattr(node, "lineno", 0),
                            getattr(node, "col_offset", 0),
                        )
                    )
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            callee = node.func.attr
            chain = tuple(attr_chain(node.func.value))
            chain = _resolve(chain, aliases)
            if callee in MUTATOR_METHODS:
                receiver = ".".join(chain) if chain else "<expr>"
                root = chain[0] if chain else ""
                out.append(
                    Mutation(
                        root,
                        chain,
                        f"calls mutator {receiver}.{callee}()",
                        node.lineno,
                        node.col_offset,
                    )
                )
            elif callee in SELF_MUTATOR_METHODS and chain and chain[0] in roots:
                out.append(
                    Mutation(
                        chain[0],
                        chain,
                        f"calls mutator {'.'.join(chain)}.{callee}()",
                        node.lineno,
                        node.col_offset,
                    )
                )
    return out


class ReachingMutations:
    """Forward analysis: the set of mutation event indices that *may*
    have executed on some path reaching each node.

    Events are interned so facts are small frozensets of ints;
    ``events`` maps index -> (node_index, Mutation).
    """

    def __init__(self, cfg: CFG, aliases=None, roots: Tuple[str, ...] = ("self",)):
        self.events: List[Tuple[int, Mutation]] = []
        self._by_node: Dict[int, FrozenSet[int]] = {}
        for node in cfg.stmt_nodes():
            ids = []
            for mutation in mutations_in_stmt(node.stmt, aliases, roots):
                ids.append(len(self.events))
                self.events.append((node.index, mutation))
            self._by_node[node.index] = frozenset(ids)

    def initial(self) -> FrozenSet[int]:
        return frozenset()

    def join(self, facts: Iterable[FrozenSet[int]]) -> FrozenSet[int]:
        out: FrozenSet[int] = frozenset()
        for fact in facts:
            out |= fact
        return out

    def transfer(self, node: CFGNode, fact: FrozenSet[int]) -> FrozenSet[int]:
        return fact | self._by_node.get(node.index, frozenset())


class MayAlias:
    """Forward analysis: which ``self``-rooted storage each local may alias.

    Facts are frozensets of ``(name, path)`` pairs.  Generated by plain
    assignments ``x = self.a.b`` (``x`` may alias ``('self','a','b')``),
    ``for x in self.a:`` (``x`` aliases an *element* of ``self.a`` --
    tracked as the container path itself, which is what the mutation
    rules need), and ``with self.a as x:``.  An assignment of anything
    else kills the name's aliases.
    """

    def __init__(self, cfg: CFG) -> None:
        self._cfg = cfg

    def initial(self) -> FrozenSet[Tuple[str, Tuple[str, ...]]]:
        return frozenset()

    def join(self, facts) -> FrozenSet[Tuple[str, Tuple[str, ...]]]:
        out: FrozenSet = frozenset()
        for fact in facts:
            out |= fact
        return out

    @staticmethod
    def _aliasable(value: ast.AST) -> Optional[Tuple[str, ...]]:
        chain = tuple(attr_chain(value))
        if len(chain) >= 2 and chain[0] == "self":
            return chain
        return None

    def transfer(self, node: CFGNode, fact: FrozenSet) -> FrozenSet:
        stmt = node.stmt
        if stmt is None:
            return fact
        gen: Set[Tuple[str, Tuple[str, ...]]] = set()
        kill: Set[str] = set()
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 and isinstance(
            stmt.targets[0], ast.Name
        ):
            name = stmt.targets[0].id
            kill.add(name)
            path = self._aliasable(stmt.value)
            if path is not None:
                gen.add((name, path))
        elif isinstance(stmt, ast.For) and isinstance(stmt.target, ast.Name):
            path = self._aliasable(stmt.iter)
            kill.add(stmt.target.id)
            if path is not None:
                gen.add((stmt.target.id, path))
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                if isinstance(item.optional_vars, ast.Name):
                    kill.add(item.optional_vars.id)
                    path = self._aliasable(item.context_expr)
                    if path is not None:
                        gen.add((item.optional_vars.id, path))
        if not gen and not kill:
            return fact
        return frozenset(p for p in fact if p[0] not in kill) | frozenset(gen)

    def alias_map(self) -> Dict[str, Tuple[str, ...]]:
        """Flow-insensitive summary: name -> aliased path, only for names
        with exactly one may-alias over the whole function (ambiguous
        names are dropped rather than guessed)."""
        _, out_facts = solve_forward(self._cfg, self)
        candidates: Dict[str, Set[Tuple[str, ...]]] = {}
        for fact in out_facts.values():
            for name, path in fact:
                candidates.setdefault(name, set()).add(path)
        return {
            name: next(iter(paths))
            for name, paths in candidates.items()
            if len(paths) == 1
        }


# ----------------------------------------------------------------------
# Path queries with branch correlation
# ----------------------------------------------------------------------
def _test_source(node: CFGNode) -> Optional[str]:
    stmt = node.stmt
    if isinstance(stmt, (ast.If, ast.While)):
        try:
            return ast.unparse(stmt.test)
        except Exception:  # pragma: no cover - unparse is total on parsed ASTs
            return None
    return None


def _names_in_test(src: str, node: CFGNode) -> FrozenSet[str]:
    stmt = node.stmt
    names: Set[str] = set()
    if isinstance(stmt, (ast.If, ast.While)):
        for child in ast.walk(stmt.test):
            if isinstance(child, ast.Name):
                names.add(child.id)
    return frozenset(names)


def _assigned_names(stmt: Optional[ast.stmt]) -> Set[str]:
    if stmt is None:
        return set()
    out: Set[str] = set()
    probe: ast.AST = stmt
    if isinstance(stmt, (ast.If, ast.While)):
        return out
    if isinstance(stmt, ast.For):
        for target in ast.walk(stmt.target):
            if isinstance(target, ast.Name):
                out.add(target.id)
        return out
    for node in ast.walk(probe):
        for target in assigned_target_nodes(node):
            if isinstance(target, ast.Name):
                out.add(target.id)
    return out


def feasible_path_exists(
    cfg: CFG,
    starts: Sequence[CFGNode],
    targets: Sequence[CFGNode],
    avoid: Sequence[CFGNode] = (),
    via: Optional[Sequence[CFGNode]] = None,
    correlate: bool = True,
) -> bool:
    """Whether some CFG path runs from a start to a target while avoiding
    every node in ``avoid``.

    With ``via`` the path must additionally pass through one of the
    ``via`` nodes first, and ``avoid``/``targets`` only bind *after* that
    point -- the shape of a pairing query ("entry reaches an exit through
    the opener without hitting a closer") phrased so branch decisions
    taken before the opener still prune the suffix.

    With ``correlate=True`` (the default) paths that take the *same*
    branch test both TRUE and FALSE are pruned, unless a statement in
    between assigned one of the test's names -- cheap path sensitivity
    that understands the ``if flag: open()`` ... ``if flag: close()``
    idiom without a real condition solver.
    """
    avoid_ids = {node.index for node in avoid}
    target_ids = {node.index for node in targets}
    via_ids = {node.index for node in via} if via is not None else None
    # State: (node, passed_via, frozenset of (test_src, branch_bool)) --
    # the branch decisions still binding on this path.
    Decisions = FrozenSet[Tuple[str, bool]]
    stack: List[Tuple[CFGNode, bool, Decisions]] = []
    seen: Set[Tuple[int, bool, Decisions]] = set()

    def admit(node: CFGNode, passed: bool, decisions: Decisions) -> Optional[bool]:
        """Returns True if the node is a (post-via) target, None if the
        path dies here, False if the search should continue from it."""
        if via_ids is not None and node.index in via_ids:
            passed = True
        if passed and node.index in avoid_ids:
            return None
        if passed and node.index in target_ids:
            return True
        key = (node.index, passed, decisions)
        if key in seen:
            return None
        seen.add(key)
        stack.append((node, passed, decisions))
        return False

    for start in starts:
        verdict = admit(start, via_ids is None, frozenset())
        if verdict:
            return True
    while stack:
        node, passed, decisions = stack.pop()
        # A statement assigning a name read by a recorded test unbinds
        # that decision (the flag may have changed).
        assigned = _assigned_names(node.stmt)
        if assigned:
            decisions = frozenset(
                (src, val)
                for src, val in decisions
                if not (_names_for_src.get(src, frozenset()) & assigned)
            )
        test_src = _test_source(node) if correlate else None
        if test_src is not None:
            _names_for_src.setdefault(test_src, _names_in_test(test_src, node))
        # A ``via`` node models an event that *completed*: its own
        # exception edge means the event never happened, so that edge
        # does not extend a post-via path.
        is_via = via_ids is not None and node.index in via_ids
        for succ, kind in cfg.succs(node):
            if is_via and kind == "exc":
                continue
            new_decisions = decisions
            if test_src is not None and kind in ("true", "false"):
                taken = kind == "true"
                if (test_src, not taken) in decisions:
                    continue  # contradicts an earlier decision on this path
                new_decisions = decisions | {(test_src, taken)}
            if admit(succ, passed, new_decisions):
                return True
    return False


# Memo of test source -> names read (shared across queries; source text is
# a stable key and the name set depends only on the text's AST).
_names_for_src: Dict[str, FrozenSet[str]] = {}


def always_precedes(
    cfg: CFG, first: Sequence[CFGNode], second: Sequence[CFGNode]
) -> bool:
    """True iff every path from entry to a ``second`` node passes through
    some ``first`` node (``first`` dominates every ``second`` event)."""
    if not second:
        return True
    if not first:
        return False
    return not feasible_path_exists(cfg, [cfg.entry], second, avoid=first)


def always_followed_by(
    cfg: CFG,
    first: Sequence[CFGNode],
    second: Sequence[CFGNode],
    exits: Optional[Sequence[CFGNode]] = None,
) -> bool:
    """True iff every path that executes a ``first`` node reaches an exit
    only through some ``second`` node.  ``exits`` defaults to the normal
    exit only -- ordering contracts bind successful completion; the
    exception path is the pairing rules' business.
    """
    if not first:
        return True
    exits = list(exits) if exits is not None else [cfg.exit]
    return not feasible_path_exists(
        cfg, [cfg.entry], exits, avoid=second, via=first
    )
