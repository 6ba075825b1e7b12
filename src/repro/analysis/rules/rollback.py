"""Rollback-completeness rule: the hour must restore what it touched.

``Sage.advance`` opens every hour by capturing the pre-hour state
(``txn = self._capture_hour()``) and runs it up to the commit point; its
exception handler promises to return the platform to that state
(``self._rollback_hour(txn)``), with or without a write-ahead log.  The
crash matrix spot-checks this dynamically at registered fault points, but
a *new* mutation added to the drive path -- a log, a cache, a counter --
silently widens the gap between what the hour touches and what the
rollback restores, and no fault point fails until a crash lands exactly
there.

This rule proves the containment statically.  For every function that
binds ``<txn> = self._capture*()``, the protected region is every
statement after that capture from which the rollback call is reachable
(everything after it, when there is no rollback call):

* the exception path out of the protected region must call a rollback
  helper -- a ``self`` method taking ``<txn>`` as its sole argument;
* every ``self``-attribute the protected region may mutate -- direct
  assignments, subscript writes, and known-mutator calls, collected
  transitively through ``self.*()`` calls on the typed call graph and
  resolved through local aliases -- must have its root attribute either
  **restored** (the rollback helper assigns through it or calls a method
  on it) or **exempt** (diagnostics the contract documents as
  non-rolled-back);
* every key the capture helper stores (``return {"clock": ..., ...}``)
  must be consumed by the rollback helper (``txn["clock"]``) -- a
  captured-but-never-restored key is half a rollback.

Known limitation (documented, deliberate): mutations reached through
receivers the type layer cannot ground in ``self`` (e.g. session objects
handed around as parameters) are out of scope here; the per-entry session
state is covered by the capture/restore *key* check and the dynamic crash
matrix.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.callgraph import CallGraph
from repro.analysis.cfg import build_cfg
from repro.analysis.dataflow import MayAlias, mutations_in_stmt
from repro.analysis.engine import Finding, Module, Project, Rule
from repro.analysis.astutil import attr_chain, call_name, walk_calls

__all__ = ["RollbackCompletenessRule"]

_SCOPE_PREFIX = "src/repro/core/"

# Hour-scoped diagnostics and mechanisms the rollback contract documents
# as not-rolled-back: the per-hour counters are reset at the top of every
# advance, and the WAL/pool handles are the durability machinery itself.
EXEMPT_ROOTS = frozenset(
    {
        "last_hour_charges",
        "last_hour_speculations",
        "_wal",
        "_propose_pool",
        "_snapshots",
        "_hours_committed",
        # Telemetry (PR 9) is observational by contract: counters are
        # monotonic, the hour mark is reset at the top of every advance,
        # and a rolled-back hour deliberately keeps its trace -- the spans
        # record what happened, including the failure.
        "_telemetry",
        "_tracer",
        "_metrics",
        "_hour_mark",
    }
)

_MAX_DEPTH = 4  # transitive self-call collection depth


class RollbackCompletenessRule(Rule):
    name = "rollback-completeness"
    description = (
        "every self-attribute mutated between begin_hour and the commit "
        "point must be restored by the rollback helper (or exempt)"
    )

    def applies(self, module: Module) -> bool:
        return module.relpath.startswith(_SCOPE_PREFIX)

    def check(self, module: Module, project: Project) -> Iterable[Finding]:
        callgraph = self._callgraph(project)
        for class_node in module.tree.body:
            if not isinstance(class_node, ast.ClassDef):
                continue
            methods = {
                item.name: item
                for item in class_node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            for func in methods.values():
                yield from self._check_function(
                    module, class_node.name, func, methods, callgraph
                )

    # ------------------------------------------------------------------
    @staticmethod
    def _callgraph(project: Project) -> CallGraph:
        cache = getattr(project, "_rollback_callgraph", None)
        if cache is None:
            scope = [
                m for m in project if m.relpath.startswith(_SCOPE_PREFIX)
            ]
            cache = CallGraph(project, scope=scope)
            project._rollback_callgraph = cache  # type: ignore[attr-defined]
        return cache

    def _check_function(
        self,
        module: Module,
        class_name: str,
        func: ast.FunctionDef,
        methods: Dict[str, ast.FunctionDef],
        callgraph: CallGraph,
    ) -> Iterable[Finding]:
        txn_info = self._find_capture(func)
        if txn_info is None:
            return
        txn_name, capture_name = txn_info
        rollback_name = self._find_rollback(func, txn_name)
        capture_fn = methods.get(capture_name)
        rollback_fn = methods.get(rollback_name) if rollback_name else None

        cfg = build_cfg(func)
        openers = cfg.nodes_calling({capture_name})
        if not openers:
            return
        region = self._protected_region(cfg, openers, rollback_name)
        mutated = self._mutated_roots(
            cfg, region, class_name, callgraph, depth=_MAX_DEPTH
        )

        if mutated and rollback_fn is None:
            anchor = openers[0].stmt
            yield self.finding(
                module,
                anchor,
                f"{class_name}.{func.name} mutates state after "
                f"{capture_name}() but its exception path never calls a "
                "rollback helper "
                f"taking {txn_name!r}",
            )
            return

        restored = self._restored_roots(rollback_fn) if rollback_fn else set()
        for root, (lineno, col, what) in sorted(mutated.items()):
            if root in restored or root in EXEMPT_ROOTS:
                continue
            yield Finding(
                path=module.relpath,
                line=lineno,
                col=col + 1,
                rule=self.name,
                message=(
                    f"{class_name}.{func.name} protected region {what}, but "
                    f"{rollback_name} never restores self.{root} "
                    "(add a restore, or document the exemption)"
                ),
            )

        if capture_fn is not None and rollback_fn is not None:
            captured = self._captured_keys(capture_fn)
            consumed = self._consumed_keys(rollback_fn, rollback_fn.args)
            for key in sorted(captured - consumed):
                yield self.finding(
                    module,
                    capture_fn,
                    f"{class_name}.{capture_name} captures {key!r} but "
                    f"{rollback_name} never reads it -- captured state is "
                    "not restored",
                )

    # ------------------------------------------------------------------
    @staticmethod
    def _find_capture(func: ast.FunctionDef) -> Optional[Tuple[str, str]]:
        """``txn = self._capture_hour()`` -> ``("txn", "_capture_hour")``."""
        for node in ast.walk(func):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Call)
            ):
                callee = call_name(node.value)
                chain = attr_chain(node.value.func)
                if (
                    callee
                    and "capture" in callee
                    and chain[:1] == ["self"]
                ):
                    return node.targets[0].id, callee
        return None

    @staticmethod
    def _find_rollback(func: ast.FunctionDef, txn_name: str) -> Optional[str]:
        """The ``self`` method called with the txn as its sole argument."""
        for call in walk_calls(func):
            chain = attr_chain(call.func)
            if (
                len(chain) == 2
                and chain[0] == "self"
                and len(call.args) == 1
                and isinstance(call.args[0], ast.Name)
                and call.args[0].id == txn_name
                and not call.keywords
            ):
                return chain[1]
        return None

    @staticmethod
    def _protected_region(cfg, openers, rollback_name: Optional[str]) -> List:
        """Statement nodes whose mutations the rollback must cover: after
        an opener, and able to reach the rollback call (i.e. inside the
        protected try).  Without a rollback call, everything reachable
        from the opener counts."""
        reach_from_open: Set[int] = set()
        stack = [n for opener in openers for n, _ in cfg.succs(opener)]
        while stack:
            node = stack.pop()
            if node.index in reach_from_open:
                continue
            reach_from_open.add(node.index)
            stack.extend(s for s, _ in cfg.succs(node))
        if rollback_name:
            rollback_nodes = cfg.nodes_calling({rollback_name})
            can_reach: Set[int] = {n.index for n in rollback_nodes}
            stack = list(rollback_nodes)
            while stack:
                node = stack.pop()
                for pred, _ in cfg.preds(node):
                    if pred.index not in can_reach:
                        can_reach.add(pred.index)
                        stack.append(pred)
            reach_from_open &= can_reach
            reach_from_open -= {n.index for n in rollback_nodes}
        return [
            n for n in cfg.stmt_nodes() if n.index in reach_from_open
        ]

    def _mutated_roots(
        self,
        cfg,
        region,
        class_name: str,
        callgraph: CallGraph,
        depth: int,
    ) -> Dict[str, Tuple[int, int, str]]:
        """Root attribute -> (line, col, rendering) for every ``self``
        mutation the region may perform, following ``self.*()`` calls."""
        out: Dict[str, Tuple[int, int, str]] = {}
        stmts = [n.stmt for n in region]
        self._collect(
            stmts,
            class_name,
            callgraph,
            depth,
            out,
            set(),
            aliases=MayAlias(cfg).alias_map(),
            via="",
        )
        return out

    def _collect(
        self,
        stmts,
        class_name: str,
        callgraph: CallGraph,
        depth: int,
        out: Dict[str, Tuple[int, int, str]],
        visited: Set[Tuple[str, str]],
        aliases,
        via: str,
    ) -> None:
        for stmt in stmts:
            for mutation in mutations_in_stmt(stmt, aliases):
                if mutation.root != "self" or len(mutation.path) < 2:
                    continue
                root = mutation.path[1]
                out.setdefault(
                    root,
                    (mutation.lineno, mutation.col_offset, mutation.what + via),
                )
            if depth <= 0:
                continue
            for call in walk_calls(stmt):
                chain = attr_chain(call.func)
                if len(chain) != 2 or chain[0] != "self":
                    continue
                for ref in callgraph.resolve_call(call, class_name):
                    if ref in visited:
                        continue
                    visited.add(ref)
                    defn = callgraph.method_def(ref)
                    if defn is None:
                        continue
                    _, callee_fn = defn
                    self._collect(
                        list(callee_fn.body),
                        ref[0],
                        callgraph,
                        depth - 1,
                        out,
                        visited,
                        aliases=MayAlias(build_cfg(callee_fn)).alias_map(),
                        via=f" (via {ref[0]}.{ref[1]})" if ref[0] else f" (via {ref[1]})",
                    )

    # ------------------------------------------------------------------
    @staticmethod
    def _restored_roots(rollback_fn: ast.FunctionDef) -> Set[str]:
        """Root ``self`` attributes the rollback helper touches: targets
        of assignments through them, receivers of calls on them, and
        containers it iterates to restore elements."""
        roots: Set[str] = set()
        aliases = MayAlias(build_cfg(rollback_fn)).alias_map()
        for node in ast.walk(rollback_fn):
            chains: List[Tuple[str, ...]] = []
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    if isinstance(target, ast.Subscript):
                        target = target.value
                    chains.append(tuple(attr_chain(target)))
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                chains.append(tuple(attr_chain(node.func.value)))
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                chains.append(tuple(attr_chain(node.iter)))
                for deeper in ast.walk(node.iter):
                    if isinstance(deeper, ast.Call):
                        for arg in deeper.args:
                            chains.append(tuple(attr_chain(arg)))
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    if isinstance(target, ast.Subscript):
                        chains.append(tuple(attr_chain(target.value)))
            for chain in chains:
                if chain and chain[0] in aliases:
                    chain = aliases[chain[0]] + chain[1:]
                if len(chain) >= 2 and chain[0] == "self":
                    roots.add(chain[1])
        return roots

    @staticmethod
    def _captured_keys(capture_fn: ast.FunctionDef) -> Set[str]:
        keys: Set[str] = set()
        for node in ast.walk(capture_fn):
            if isinstance(node, ast.Return) and isinstance(node.value, ast.Dict):
                for key in node.value.keys:
                    if isinstance(key, ast.Constant) and isinstance(key.value, str):
                        keys.add(key.value)
        return keys

    @staticmethod
    def _consumed_keys(rollback_fn: ast.FunctionDef, args: ast.arguments) -> Set[str]:
        params = [a.arg for a in args.args if a.arg != "self"]
        txn_param = params[0] if params else None
        keys: Set[str] = set()
        if txn_param is None:
            return keys
        for node in ast.walk(rollback_fn):
            if (
                isinstance(node, ast.Subscript)
                and isinstance(node.value, ast.Name)
                and node.value.id == txn_param
                and isinstance(node.slice, ast.Constant)
                and isinstance(node.slice.value, str)
            ):
                keys.add(node.slice.value)
        return keys
