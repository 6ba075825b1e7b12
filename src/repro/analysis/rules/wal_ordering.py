"""WAL-ordering rule: durability writes land in the provable order.

The recovery contract (PR 7) only holds if three orderings hold on every
control-flow path, not just the one the tests happen to drive:

* **sync-after-write** -- inside the WAL writer, every byte that goes
  through the log handle (``self._fh.write``/``.truncate``) is fsynced
  before the method returns.  A buffered hour record followed by an
  in-memory commit is exactly the lost-update a crash turns into silent
  budget loss.
* **append-before-commit** -- a platform path that reaches
  ``commit_hour()`` must have passed ``append_hour()`` first: the commit
  marker asserts "the write-ahead record below me is complete", so a
  marker without its record corrupts recovery rather than merely losing
  an hour.
* **digest-before-marker** -- the commit marker must carry a digest
  computed from live state *at the call* (a ``*digest*`` call in the
  argument, or a name bound from one on every path into the commit).
  Recovery compares this digest after replay; a stale or constant value
  turns the byte-parity check into a no-op.

A fourth check covers the snapshot side of the same contract:
**fsync-before-rename** -- any function that publishes with
``os.replace``/``os.rename`` must ``os.fsync`` the payload first on
every path, else the rename can land before the data and a crash
publishes a hole.  A rename onto an unpublished name -- a temp file
(``*.tmp``, ``*.compact``) or a spare kept for reuse (``*.spare``) -- is
a *claim*: no reader loads that name, so it needs no fsync first.  The
destination is read from the call, from the local name's assignments,
or from the class's ``self.<attr>`` assignments; one that cannot be
resolved to an unpublished name counts as a publication.

All checks are path-sensitive on the CFG (``always_precedes`` /
``always_followed_by``); dunder methods are exempt from
sync-after-write -- construction-time tail trims are re-derived by the
next open's scan, so the contract starts at the hour lifecycle.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional

from repro.analysis.cfg import CFG, CFGNode, _stmt_probe, build_cfg
from repro.analysis.dataflow import always_followed_by, always_precedes
from repro.analysis.engine import Finding, Module, Project, Rule
from repro.analysis.astutil import attr_chain, call_name, walk_calls

__all__ = ["WalOrderingRule"]

_SCOPE_PREFIX = "src/repro/core/"

_SYNC_NAMES = frozenset({"_sync", "fsync"})
_RENAME_NAMES = ("replace", "rename")
# Names no reader ever loads: temp files and spares kept for reuse.
_UNPUBLISHED_SUFFIXES = (".tmp", ".compact", ".spare")
_HANDLE_WRITE_NAMES = frozenset({"write", "truncate"})


def _nodes_where(cfg: CFG, predicate) -> List[CFGNode]:
    """Statement nodes whose *header* contains a call matching the
    predicate (compound bodies belong to their own nodes)."""
    out = []
    for node in cfg.stmt_nodes():
        if any(predicate(c) for c in walk_calls(_stmt_probe(node.stmt))):
            out.append(node)
    return out


def _is_self_handle_write(call: ast.Call) -> bool:
    """``self.<handle>.write(...)`` / ``.truncate(...)`` -- a byte hitting
    the instance's log handle."""
    chain = attr_chain(call.func)
    return (
        len(chain) >= 3
        and chain[0] == "self"
        and chain[-1] in _HANDLE_WRITE_NAMES
    )


def _is_os_call(call: ast.Call, names) -> bool:
    chain = attr_chain(call.func)
    return len(chain) == 2 and chain[0] == "os" and chain[1] in names


def _assigned_values(scope: ast.AST, chain: List[str]) -> List[ast.expr]:
    """Every value ``scope`` assigns to the name or attribute chain
    ``chain`` (``['tmp']``, ``['self', '_spare']``)."""
    values = []
    for node in ast.walk(scope):
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        values.extend(value for target in targets if attr_chain(target) == chain)
    return values


def _names_unpublished(node: ast.expr) -> bool:
    return any(
        isinstance(c, ast.Constant)
        and isinstance(c.value, str)
        and c.value.endswith(_UNPUBLISHED_SUFFIXES)
        for c in ast.walk(node)
    )


def _is_claim(call: ast.Call, func: ast.AST, cls: Optional[ast.ClassDef]) -> bool:
    """A rename onto an unpublished name: every value the destination
    (the second positional argument) can hold names a temp file or a
    spare."""
    if len(call.args) < 2:
        return False
    dest = call.args[1]
    chain = attr_chain(dest)
    if isinstance(dest, ast.Name):
        values = _assigned_values(func, chain)
    elif chain[:1] == ["self"] and cls is not None:
        values = _assigned_values(cls, chain)
    else:
        values = [dest]
    return bool(values) and all(_names_unpublished(v) for v in values)


def _mentions_digest_call(node: ast.AST) -> bool:
    return any("digest" in (call_name(c) or "") for c in walk_calls(node))


class WalOrderingRule(Rule):
    name = "wal-ordering"
    description = (
        "fsync-before-commit and digest-before-marker must hold on every "
        "CFG path through the durability layer"
    )

    def applies(self, module: Module) -> bool:
        return module.relpath.startswith(_SCOPE_PREFIX)

    def check(self, module: Module, project: Project) -> Iterable[Finding]:
        for node in module.tree.body:
            if isinstance(node, ast.ClassDef) and "wal" in node.name.lower():
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        yield from self._check_writer_method(module, node.name, item)
        owners = {
            item: cls
            for cls in ast.walk(module.tree)
            if isinstance(cls, ast.ClassDef)
            for item in cls.body
        }
        for func in ast.walk(module.tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_commit_site(module, func)
                yield from self._check_rename_site(module, func, owners.get(func))

    # ------------------------------------------------------------------
    # sync-after-write (inside the WAL writer class)
    # ------------------------------------------------------------------
    def _check_writer_method(
        self, module: Module, class_name: str, func: ast.FunctionDef
    ) -> Iterable[Finding]:
        if func.name.startswith("__"):
            return  # construction-time trims are re-derived by the next scan
        cfg = build_cfg(func)
        writes = _nodes_where(cfg, _is_self_handle_write)
        if not writes:
            return
        syncs = _nodes_where(
            cfg, lambda c: (call_name(c) or "") in _SYNC_NAMES
        )
        if not always_followed_by(cfg, writes, syncs):
            yield self.finding(
                module,
                writes[0].stmt,
                f"{class_name}.{func.name}() writes the log handle but can "
                "return without a _sync()/fsync() -- buffered bytes are lost "
                "on crash, breaking the write-ahead guarantee",
            )

    # ------------------------------------------------------------------
    # append-before-commit + digest-before-marker (call sites)
    # ------------------------------------------------------------------
    def _check_commit_site(
        self, module: Module, func: ast.FunctionDef
    ) -> Iterable[Finding]:
        if func.name in ("commit_hour", "append_hour"):
            return  # the definitions and thin wrappers
        called = {name for name in (call_name(c) for c in walk_calls(func)) if name}
        if "commit_hour" not in called:
            return
        cfg = build_cfg(func)
        commit_nodes = _nodes_where(
            cfg, lambda c: call_name(c) == "commit_hour"
        )
        if not commit_nodes:
            return  # only inside a nested def; that def is checked itself
        append_nodes = _nodes_where(
            cfg, lambda c: call_name(c) == "append_hour"
        )
        if not append_nodes:
            yield self.finding(
                module,
                commit_nodes[0].stmt,
                f"{func.name}() calls commit_hour() but never append_hour() "
                "-- a commit marker without its write-ahead record corrupts "
                "recovery",
            )
        elif not always_precedes(cfg, append_nodes, commit_nodes):
            yield self.finding(
                module,
                commit_nodes[0].stmt,
                f"{func.name}() has a path that reaches commit_hour() without "
                "append_hour() -- the marker must never land before the "
                "write-ahead record",
            )
        yield from self._check_digest(module, func, cfg, commit_nodes)

    def _check_digest(
        self,
        module: Module,
        func: ast.FunctionDef,
        cfg: CFG,
        commit_nodes: List[CFGNode],
    ) -> Iterable[Finding]:
        for node in commit_nodes:
            for call in walk_calls(_stmt_probe(node.stmt)):
                if call_name(call) != "commit_hour":
                    continue
                if any(_mentions_digest_call(arg) for arg in call.args):
                    continue
                digest_name = self._digest_arg_name(call)
                if digest_name is not None:
                    binds = [
                        n
                        for n in cfg.stmt_nodes()
                        if self._binds_digest(n.stmt, digest_name)
                    ]
                    if binds and always_precedes(cfg, binds, [node]):
                        continue
                yield self.finding(
                    module,
                    node.stmt,
                    f"{func.name}() commits an hour without a digest computed "
                    "at the marker -- recovery's byte-parity check needs the "
                    "post-commit state digest in the commit record",
                )

    @staticmethod
    def _digest_arg_name(call: ast.Call) -> Optional[str]:
        """A plain-name argument that could carry a precomputed digest."""
        for arg in call.args:
            if isinstance(arg, ast.Name):
                return arg.id
        for kw in call.keywords:
            if kw.arg and "digest" in kw.arg and isinstance(kw.value, ast.Name):
                return kw.value.id
        return None

    @staticmethod
    def _binds_digest(stmt: ast.stmt, name: str) -> bool:
        if not isinstance(stmt, ast.Assign):
            return False
        return any(
            isinstance(t, ast.Name) and t.id == name for t in stmt.targets
        ) and _mentions_digest_call(stmt.value)

    # ------------------------------------------------------------------
    # fsync-before-rename (snapshot publication)
    # ------------------------------------------------------------------
    def _check_rename_site(
        self, module: Module, func: ast.FunctionDef, cls: Optional[ast.ClassDef]
    ) -> Iterable[Finding]:
        def publishes(call: ast.Call) -> bool:
            return _is_os_call(call, _RENAME_NAMES) and not _is_claim(call, func, cls)

        if not any(publishes(c) for c in walk_calls(func)):
            return
        cfg = build_cfg(func)
        renames = _nodes_where(cfg, publishes)
        if not renames:
            return
        fsyncs = _nodes_where(cfg, lambda c: (call_name(c) or "") == "fsync")
        if not always_precedes(cfg, fsyncs, renames):
            yield self.finding(
                module,
                renames[0].stmt,
                f"{func.name}() publishes with os.replace/os.rename on a path "
                "with no preceding os.fsync -- the rename can land before the "
                "payload and a crash publishes a torn file",
            )
