"""Schema-width rule: totals columns are written through the declared schema.

PR 4 made the ledger's totals row *pluggable*: a filter declares
``totals_width`` and ``contribution(budget)``, and every accumulation path
applies exactly that vector.  The contract only holds if nobody outside
the accounting modules reaches into the row layout directly -- a
hard-coded ``totals[:, 0]`` silently reads the wrong column the moment a
filter reorders or extends its schema, and a direct ``_totals[...]``
write bypasses the accountant's checks and its charge log entirely (the
store rows would diverge from the logged charges without any error).

Flags, everywhere except ``accountant.py`` / ``filters.py`` (the
schema's owners):

* any access to a ``_totals`` attribute (the private store array);
* hard-coded integer *column* indices into totals rows: tuple subscripts
  with a constant column (``store.totals[:, 0]``,
  ``totals[rows, 2]``) and plain integer subscripts on per-block totals
  rows (``.totals[0]`` on a call result, a bare ``totals[1]``).  Row indexing
  (``store.totals[3]``) is layout-independent and stays legal.

The fix is almost always importing the named base-column constants
(``TOT_EPS`` ... ``TOT_LINEAR`` from ``repro.core.accountant``) or going
through the filter's declared ``contribution``/``loss_bound`` surface.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.engine import Finding, Module, Project, Rule

__all__ = ["SchemaWidthRule"]

# The modules that own the totals schema and may touch raw columns.
_ALLOWED = frozenset(
    {
        "src/repro/core/accountant.py",
        "src/repro/core/filters.py",
    }
)


def _is_int_constant(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and isinstance(node.value, int) and not isinstance(node.value, bool)


class SchemaWidthRule(Rule):
    name = "schema-width"
    description = (
        "no hard-coded totals column indices or _totals[...] access outside "
        "accountant.py/filters.py"
    )

    def applies(self, module: Module) -> bool:
        return module.relpath not in _ALLOWED

    def check(self, module: Module, project: Project) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Attribute) and node.attr == "_totals":
                yield self.finding(
                    module,
                    node,
                    "direct LedgerStore `_totals` access outside "
                    "the accounting modules bypasses the filter-declared schema",
                )
            elif isinstance(node, ast.Subscript):
                yield from self._check_subscript(module, node)

    def _check_subscript(self, module: Module, node: ast.Subscript):
        base = node.value
        is_totals_attr = isinstance(base, ast.Attribute) and base.attr == "totals"
        is_totals_name = isinstance(base, ast.Name) and base.id == "totals"
        if not (is_totals_attr or is_totals_name):
            return
        slice_node = node.slice
        if isinstance(slice_node, ast.Tuple):
            # (row, col) indexing: any constant past the row position is a
            # hard-coded column.
            if any(_is_int_constant(elt) for elt in slice_node.elts[1:]):
                yield self.finding(
                    module,
                    node,
                    "hard-coded totals column index; use the named TOT_* "
                    "constants / the filter's declared schema",
                )
        elif _is_int_constant(slice_node):
            # A single integer subscript is a *column* only on 1-D per-block
            # rows: a bare `totals` name or a `.totals` on a call result
            # (`f(key).totals[0]`).  `store.totals[3]` is row indexing.
            if is_totals_name or (
                is_totals_attr and isinstance(base.value, ast.Call)
            ):
                yield self.finding(
                    module,
                    node,
                    "hard-coded totals column index on a per-block totals row; "
                    "use the named TOT_* constants",
                )
