"""Paired-calls rule: staged batches and WAL hours must always close.

The hourly drive's central contract is that ``begin_staging`` reaches a
commit or abort on *every* path -- an hour that raises mid-drive must
still land its completed attempts' charges (``Sage.advance`` commits from
a ``finally``), and an overlay left open poisons every later read (all
admissibility checks see stale staged spend) while blocking every later
``charge``/``charge_many``.  The WAL hour lifecycle has the same shape:
a ``begin_hour`` left open would make the *next* hour's
``begin_hour`` fail and -- worse -- leave a partial hour record as the
log's tail, so every ``begin_hour`` must reach ``commit_hour`` or
``abort_hour``, with one of them in a ``finally``.

Since PR 8 the check is *path-sensitive* on the function's CFG instead of
the old "one closer somewhere inside a finally" heuristic: the rule asks
whether any feasible path runs from a completed opener call to a function
exit (normal or raising) without passing a closer.  Branch correlation
prunes pseudo-leaks such as ``if x: begin_staging()`` ... ``finally: if x:
commit_staged()``, and a closer guarded by a state test
(``if wal.hour_open: abort_hour()``) counts as closing at the guard --
the guard is trusted to detect openness, which is exactly what such
guards are for.  Functions *named* like the opener or a closer (the
definitions and thin wrappers) are exempt; tests and benchmarks are out
of scope on purpose -- they open batches mid-assertion to exercise
exactly the error paths this rule forbids in production code.
"""

from __future__ import annotations

import ast
from typing import Iterable, List

from repro.analysis.cfg import CFG, CFGNode, build_cfg
from repro.analysis.dataflow import feasible_path_exists
from repro.analysis.engine import Finding, Module, Project, Rule
from repro.analysis.astutil import call_name, walk_calls

__all__ = ["PairedCallsRule"]

PAIRS = (
    ("begin_staging", ("commit_staged", "abort_staged", "pop_staged")),
    ("begin_hour", ("commit_hour", "abort_hour")),
)

_SCOPE_PREFIX = "src/repro/"


def _closer_nodes(cfg: CFG, closers) -> List[CFGNode]:
    """Nodes that count as "the pair closes here": closer call statements,
    plus branch headers whose taken body top-level contains a closer call
    (``if wal.hour_open: wal.abort_hour()`` closes at the guard -- the
    guard exists to detect openness)."""
    nodes = list(cfg.nodes_calling(closers))
    wanted = set(closers)
    for node in cfg.stmt_nodes():
        if not isinstance(node.stmt, ast.If):
            continue
        for stmt in node.stmt.body:
            if any(call_name(c) in wanted for c in walk_calls(stmt)):
                nodes.append(node)
                break
    return nodes


class PairedCallsRule(Rule):
    name = "paired-calls"
    description = (
        "begin_staging/begin_hour must reach their closing "
        "call on every feasible CFG path"
    )

    def applies(self, module: Module) -> bool:
        return module.relpath.startswith(_SCOPE_PREFIX)

    def check(self, module: Module, project: Project) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            called = {
                name for name in (call_name(c) for c in walk_calls(node)) if name
            }
            cfg = None
            for opener, closers in PAIRS:
                if node.name == opener or node.name in closers:
                    continue  # definitions and their thin wrappers
                if opener not in called:
                    continue
                if cfg is None:
                    cfg = build_cfg(node)
                opener_nodes = cfg.nodes_calling({opener})
                if not opener_nodes:
                    continue  # opener only inside a nested def
                if not (called & set(closers)):
                    yield self.finding(
                        module,
                        opener_nodes[0].stmt,
                        f"{node.name}() calls {opener}() but never calls any of "
                        f"{'/'.join(closers)} -- the batch cannot close on any path",
                    )
                    continue
                if feasible_path_exists(
                    cfg,
                    [cfg.entry],
                    [cfg.exit, cfg.raise_exit],
                    avoid=_closer_nodes(cfg, closers),
                    via=opener_nodes,
                ):
                    yield self.finding(
                        module,
                        opener_nodes[0].stmt,
                        f"{node.name}() has a path from {opener}() to an exit "
                        f"that skips {'/'.join(closers)} -- a raising path "
                        "leaves the batch open",
                    )
