"""Runtime write-barrier sanitizer for the declared-pure read paths.

The static purity rule proves that no *known* mutation is reachable from
the pure seeds (``propose_peek``, ``admits_keys``, ``can_charge``,
``max_epsilon``); this module enforces the same contract dynamically so
the parts the static layer cannot see -- C-level NumPy writes, monkeypatched
callables, reflection -- still fault loudly instead of silently skewing
the ledger.  While a declared-pure call is on the stack, the accounting
slabs (``LedgerStore._totals``/``_counts``, and for sharded stores the
mirror's and every shard's slabs) are flipped to ``writeable=False``; any
in-place write raises ``ValueError: assignment destination is read-only``
at the exact offending line.

Deliberately **not** frozen:

* ``LedgerStore._live`` -- deferred retirement marks exhausted blocks
  from read paths (a reviewed ``allow(purity)`` site); freezing it would
  fault on sanctioned behavior.
* the reservation table and scan memo -- Python-object state already
  covered by the static rule, and the memo cache-fill on read paths is a
  reviewed allow site.

Usage: ``install()`` wraps the pure entry points in place (idempotent;
``uninstall()`` restores them), and ``REPRO_SANITIZER=1`` makes the test
suite's conftest install it for the whole run.  ``write_barrier(store)``
is the underlying context manager, usable directly in tests.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from functools import wraps
from typing import Dict, Iterator, List, Tuple

__all__ = ["write_barrier", "frozen_arrays", "install", "uninstall", "installed"]

_ENV_FLAG = "REPRO_SANITIZER"

# (class, method) -> original unwrapped function, while installed.
_installed: Dict[Tuple[type, str], object] = {}


def frozen_arrays(store) -> List[object]:
    """The slabs the barrier freezes for one store (duck-typed so the
    sharded store's mirror and per-shard sub-stores all contribute)."""
    out: List[object] = []
    if store is None:
        return out
    mirror = getattr(store, "_mirror", None)
    if mirror is not None:
        out.extend(frozen_arrays(mirror))
        for shard in getattr(store, "_shards", ()):
            out.extend(frozen_arrays(shard))
        return out
    for name in ("_totals", "_counts"):
        array = getattr(store, name, None)
        if array is not None and hasattr(array, "flags"):
            out.append(array)
    return out


@contextmanager
def write_barrier(store) -> Iterator[None]:
    """Make the store's totals/counts slabs read-only for the duration.

    Only arrays this invocation itself flipped are restored, so nested
    barriers (a pure call inside a pure call) compose: the innermost
    enter sees already-frozen slabs and flips nothing.
    """
    flipped = []
    for array in frozen_arrays(store):
        if array.flags.writeable:
            array.flags.writeable = False
            flipped.append(array)
    try:
        yield
    finally:
        for array in flipped:
            array.flags.writeable = True


def _wrap(cls: type, method: str, store_of) -> None:
    key = (cls, method)
    if key in _installed:
        return
    original = cls.__dict__[method]

    @wraps(original)
    def guarded(self, *args, **kwargs):
        with write_barrier(store_of(self)):
            return original(self, *args, **kwargs)

    _installed[key] = original
    setattr(cls, method, guarded)


def install() -> None:
    """Wrap every declared-pure entry point with a write barrier.

    Idempotent; the wrapped set mirrors ``PURE_SEEDS`` in the static
    purity rule -- keep the two in sync (the purity rule's seed-list test
    pins the names).
    """
    from repro.core.accountant import BlockAccountant
    from repro.core.adaptive import AdaptiveSession

    for method in ("admits_keys", "can_charge", "max_epsilon"):
        _wrap(BlockAccountant, method, lambda acct: acct._store)
    _wrap(
        AdaptiveSession,
        "propose_peek",
        lambda session: session.access.accountant._store,
    )


def uninstall() -> None:
    """Restore every wrapped method (test isolation helper)."""
    for (cls, method), original in list(_installed.items()):
        setattr(cls, method, original)
        del _installed[(cls, method)]


def installed() -> bool:
    return bool(_installed)


def install_from_env() -> bool:
    """Install when ``REPRO_SANITIZER=1`` is set; returns whether it did."""
    if os.environ.get(_ENV_FLAG, "") in ("1", "true", "yes"):
        install()
        return True
    return False
