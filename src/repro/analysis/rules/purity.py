"""Purity rule: pure accountant read paths must not mutate anything.

The propose/decide/settle protocol (PR 3) and the staged hour's shared
scans both rest on one contract: ``AdaptiveSession.propose_peek`` and the
accountant's read surface (``admits_keys`` / ``can_charge`` /
``max_epsilon``) are *pure reads*.  Sessions share memoized scans within
an hour precisely because nothing along those paths writes -- a single
mutation silently breaks byte-parity without failing any direct unit
test.

Since PR 8 the rule runs on the typed interprocedural call graph
(:mod:`repro.analysis.callgraph`): ``self.access.accountant.can_charge``
resolves through attribute and property types to the *defining* class, so
reachability is per ``(class, method)`` pair instead of merging every
method of one name across the tree.  Each reachable method is scanned
with the alias-aware mutation extractor
(:func:`repro.analysis.dataflow.mutations_in_stmt`):

* assignments to ``self.*`` (including augmented and annotated targets);
* subscript writes through ``self`` (``self._cache[k] = v``), including
  writes through a local that aliases ``self`` storage
  (``store = self._store; store[k] = v``);
* calls to known accounting mutators (``record``, ``stage_charge``,
  ``settle``, ``retire``, ``write_row``/``write_rows``, ...) on any
  receiver, and container mutators (``.add``/``.update``/``.clear``...)
  on receivers rooted at ``self`` -- again through aliases.

Findings name the exact mutated attribute path and the resolved call
chain back to the seed.  Known limitations (by design -- this is a
linter, not an interpreter): calls routed through stored callables
(``self._row_budget_fn(...)``) still escape the graph; the runtime
sanitizer (:mod:`repro.analysis.sanitizer`) and the full-state snapshot
test in ``tests/analysis/test_propose_peek_purity.py`` cover those.

Benign-by-design writes on read paths (memo caches with value-identical
reads, deferred retirement persistence) must carry an explicit
``# repro: allow(purity) -- reason`` so every such exception is a
reviewed, documented decision.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Tuple

from repro.analysis.callgraph import CallGraph, MethodRef
from repro.analysis.cfg import build_cfg
from repro.analysis.dataflow import MayAlias, Mutation, mutations_in_stmt
from repro.analysis.engine import Finding, Module, Project, Rule
from repro.analysis.astutil import SELF_MUTATOR_METHODS

__all__ = ["PurityRule", "PURE_SEEDS"]

# Entry points of the pure-read contract.  ``propose_peek`` is the
# parallel propose drive's whole foundation; the accountant reads are what
# every window scan and admissibility decision flows through.
PURE_SEEDS = (
    "propose_peek",
    "admits_keys",
    "can_charge",
    "max_epsilon",
)

# Builtin-container method names whose untyped call sites must not create
# graph edges (they would alias e.g. ``list.append`` onto
# ``LedgerStore.append``).  Typed resolution is unaffected; these only
# gate the by-name fallback.  They are still checked as mutations when
# invoked on a ``self``-rooted receiver.
_EDGE_EXCLUDED = SELF_MUTATOR_METHODS | frozenset(
    {"get", "items", "keys", "values", "copy", "tolist", "join", "split",
     "min", "max", "sum", "all", "any", "astype", "reshape", "setflags"}
)

_SCOPE_PREFIX = "src/repro/core/"


class PurityRule(Rule):
    name = "purity"
    description = (
        "methods reachable from propose_peek/admits_keys/can_charge/"
        "max_epsilon must not mutate session, accountant, or store state"
    )

    def applies(self, module: Module) -> bool:
        return module.relpath.startswith(_SCOPE_PREFIX)

    # The call graph spans every in-scope module, so it is built once per
    # project and findings are emitted while visiting the defining module.
    def check(self, module: Module, project: Project) -> Iterable[Finding]:
        graph = self._project_graph(project)
        callgraph: CallGraph = graph["callgraph"]
        parents: Dict[MethodRef, MethodRef] = graph["parents"]
        for ref in sorted(graph["reached"]):
            defn = callgraph.method_def(ref)
            if defn is None:
                continue
            owner_module, func = defn
            if owner_module is not module:
                continue
            chain = self._seed_chain(ref, parents)
            qualname = f"{ref[0]}.{ref[1]}" if ref[0] else ref[1]
            for mutation in self._violations(func):
                yield Finding(
                    path=module.relpath,
                    line=mutation.lineno,
                    col=mutation.col_offset + 1,
                    rule=self.name,
                    message=(
                        f"{qualname} {mutation.what}, but it is reachable "
                        f"from pure read path {chain}"
                    ),
                )

    # ------------------------------------------------------------------
    def _project_graph(self, project: Project) -> dict:
        cache = getattr(project, "_purity_graph", None)
        if cache is not None:
            return cache
        scope = [m for m in project if self.applies(m)]
        callgraph = CallGraph(project, scope=scope, fallback_excluded=_EDGE_EXCLUDED)
        reached, parents = callgraph.reachable_from(PURE_SEEDS)
        graph = {"callgraph": callgraph, "reached": reached, "parents": parents}
        project._purity_graph = graph  # type: ignore[attr-defined]
        return graph

    @staticmethod
    def _seed_chain(ref: MethodRef, parents: Dict[MethodRef, MethodRef]) -> str:
        chain = [ref]
        seen = {ref}
        while chain[-1] in parents and parents[chain[-1]] not in seen:
            chain.append(parents[chain[-1]])
            seen.add(chain[-1])
        return " <- ".join(
            f"{cls}.{name}" if cls else name for cls, name in chain
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _violations(func: ast.FunctionDef) -> List[Mutation]:
        cfg = build_cfg(func)
        aliases = MayAlias(cfg).alias_map()
        out: List[Mutation] = []
        for node in cfg.stmt_nodes():
            out.extend(mutations_in_stmt(node.stmt, aliases))
        return out
