"""Shared AST helpers for the analysis core and the invariant rules.

Lives outside the ``rules`` package on purpose: ``cfg``/``dataflow``/
``callgraph`` depend on these helpers, and importing anything from
``repro.analysis.rules`` runs that package's ``__init__`` -- which
imports the rule modules, which import ``dataflow`` -- a cycle.  The
core must only ever depend on this module and on each other.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional

__all__ = [
    "call_name",
    "attr_root",
    "attr_chain",
    "assigned_target_nodes",
    "walk_calls",
    "function_defs",
    "MUTATOR_METHODS",
    "SELF_MUTATOR_METHODS",
]

# Method names that unambiguously mutate accounting state wherever they are
# called: ledger/store writes, charge execution, staging, settlement.  Used
# by the purity and thread-shared-state rules regardless of the receiver,
# since e.g. ``led.record(...)`` mutates no matter what local name the
# ledger is bound to.
MUTATOR_METHODS = frozenset(
    {
        "record",
        "charge",
        "charge_many",
        "stage_charge",
        "stage_request",
        "begin_staging",
        "pop_staged",
        "commit_staged",
        "abort_staged",
        "settle",
        "retire",
        "write_row",
        "write_rows",
        "request",
        "request_many",
        "complete",
        "wake",
        "_escalate",
        "_settle_charges",
        "_accumulate",
        "_attach",
        "register_block",
        "register_blocks",
        "allocate",
        "release",
        "grant_free",
        "add_block",
        "add_pipeline",
    }
)

# Container mutators that only count when the receiver chain is rooted at
# ``self`` (``self._dead.update(...)`` mutates session state; a local
# list's ``out.append(...)`` does not).
SELF_MUTATOR_METHODS = frozenset(
    {"append", "add", "update", "clear", "extend", "insert", "pop", "popitem",
     "remove", "discard", "setdefault"}
)


def call_name(node: ast.Call) -> Optional[str]:
    """The called name: ``f(...)`` -> ``f``, ``a.b.f(...)`` -> ``f``."""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def attr_root(node: ast.AST) -> Optional[str]:
    """The base name of an attribute/subscript chain: ``self.a.b[c].d`` -> ``self``."""
    while isinstance(node, (ast.Attribute, ast.Subscript, ast.Call)):
        if isinstance(node, ast.Call):
            node = node.func
        else:
            node = node.value
    return node.id if isinstance(node, ast.Name) else None


def attr_chain(node: ast.AST) -> List[str]:
    """Dotted names of an attribute chain, base first (``a.b.c`` ->
    ``['a', 'b', 'c']``); empty when the base is not a plain name."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return []


def assigned_target_nodes(node: ast.AST) -> Iterator[ast.AST]:
    """The leaf targets of an assignment statement (tuples flattened)."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    else:
        return
    stack = list(targets)
    while stack:
        target = stack.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            stack.extend(target.elts)
        elif isinstance(target, ast.Starred):
            stack.append(target.value)
        else:
            yield target


def walk_calls(node: ast.AST) -> Iterator[ast.Call]:
    for child in ast.walk(node):
        if isinstance(child, ast.Call):
            yield child


def function_defs(tree: ast.AST) -> Iterator[ast.FunctionDef]:
    """Every (sync or async) function definition in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node
