"""Named crash points for fault-injection testing of the durable drive.

The durability layer's central claim -- killing the platform at *any*
moment and recovering from snapshot + WAL yields a state byte-identical
to the uninterrupted run -- is only testable if tests can actually kill
the drive at every interesting moment.  This module threads a registry of
named **crash points** through the hourly drive and the WAL/snapshot
machinery; production code calls :func:`trip` (a dictionary probe, no-op
unless a test armed something), and tests arm a point to raise either

* :class:`InjectedFault` -- an ordinary ``Exception``.  ``Sage.advance``
  catches it like any mid-hour pipeline failure: the hour rolls back and
  the process lives.  This is how the rollback property ("an exception
  anywhere in ``advance`` leaves accountant, staged batch, and
  reservation table byte-identical to pre-hour state") is exercised.
* :class:`InjectedCrash` -- a ``BaseException``.  On a durable platform
  it propagates out of ``advance`` with **no** rollback, *by design*,
  simulating the process dying at that instant.  Whatever the
  WAL/snapshot files held at that moment is exactly what a restarted
  platform recovers from.  A volatile platform has no log to recover
  from, so it rolls the hour back as for any other interruption.

Registered points (see :data:`CRASH_POINTS`):

======================================= =====================================
point                                   fires
======================================= =====================================
``hour.opened``                         after ingest/register/allocate,
                                        before any session is driven
``settle.mid_session``                  after each driven session settles
                                        its reservation deductions
``wal.before_append``                   in ``WalWriter.append_hour``, before
                                        the hour record reaches the file
``wal.after_append``                    after the hour record is fsynced,
                                        before the in-memory commit
``charge.between_validate_and_commit``  inside ``charge_many`` and the
                                        staged-batch commit, after the
                                        batch's validation, before its
                                        store write
``snapshot.mid_write``                  mid-way through writing a snapshot
                                        temp file, before ``os.replace``
``wal.compact_swap``                    in ``WalWriter.compact``, after the
                                        live log is linked as the next spare,
                                        before ``os.replace`` swaps the
                                        rewritten log in
``hour.after_commit``                   after the hour committed in memory
                                        and the WAL commit marker landed
======================================= =====================================
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Dict, List

from repro.errors import ReproError

__all__ = [
    "CRASH_POINTS",
    "FaultConfigError",
    "InjectedCrash",
    "InjectedFault",
    "add_observer",
    "arm",
    "arm_crash",
    "arm_error",
    "armed_crash",
    "armed_error",
    "clear",
    "disarm",
    "is_armed",
    "remove_observer",
    "trip",
]

CRASH_POINTS = (
    "hour.opened",
    "settle.mid_session",
    "wal.before_append",
    "wal.after_append",
    "charge.between_validate_and_commit",
    "snapshot.mid_write",
    "wal.compact_swap",
    "hour.after_commit",
)


class FaultConfigError(ReproError, ValueError):
    """The fault registry was configured with an unknown crash point."""


class InjectedFault(Exception):
    """An injected *recoverable* failure (ordinary ``Exception`` path)."""

    def __init__(self, point: str) -> None:
        super().__init__(f"injected fault at crash point {point!r}")
        self.point = point


class InjectedCrash(BaseException):
    """An injected process death.

    Deliberately a ``BaseException`` so no ``except Exception`` handler in
    the library can observe it: on a durable platform, state at the moment
    of the crash is frozen as-is, exactly like a SIGKILL would leave it.
    """

    def __init__(self, point: str) -> None:
        super().__init__(f"injected crash at crash point {point!r}")
        self.point = point


# Armed handlers by point name; empty in production, so the hot-path cost
# of an un-armed trip() is one truthiness check on an empty dict.
_HANDLERS: Dict[str, "_Armed"] = {}

# Observers notified when an armed handler is about to fire (telemetry:
# a traced platform records ``fault.trip`` events).  Notification happens
# only on the armed slow path, so the production no-op cost of trip() is
# unchanged, and observers run *before* the handler raises -- the trip is
# recorded even when the handler simulates process death.
_OBSERVERS: List[Callable[[str], None]] = []


class _Armed:
    __slots__ = ("handler", "skip")

    def __init__(self, handler: Callable[[str], None], skip: int) -> None:
        self.handler = handler
        self.skip = skip


def _check_point(point: str) -> str:
    if point not in CRASH_POINTS:
        raise FaultConfigError(
            f"unknown crash point {point!r}; registered points: "
            f"{', '.join(CRASH_POINTS)}"
        )
    return point


def trip(point: str) -> None:
    """Fire the crash point: no-op unless a test armed a handler for it."""
    if not _HANDLERS:
        return
    armed = _HANDLERS.get(point)
    if armed is None:
        return
    if armed.skip > 0:
        armed.skip -= 1
        return
    for observer in tuple(_OBSERVERS):
        observer(point)
    armed.handler(point)


def arm(point: str, handler: Callable[[str], None], skip: int = 0) -> None:
    """Arm ``handler`` at ``point``; the first ``skip`` trips are ignored."""
    _HANDLERS[_check_point(point)] = _Armed(handler, max(0, int(skip)))


def arm_error(point: str, skip: int = 0) -> None:
    """Arm an :class:`InjectedFault` (recoverable ``Exception``) at ``point``."""

    def raise_fault(p: str) -> None:
        raise InjectedFault(p)

    arm(point, raise_fault, skip=skip)


def arm_crash(point: str, skip: int = 0) -> None:
    """Arm an :class:`InjectedCrash` (simulated process death) at ``point``."""

    def raise_crash(p: str) -> None:
        raise InjectedCrash(p)

    arm(point, raise_crash, skip=skip)


def disarm(point: str) -> None:
    """Remove the handler at ``point`` (no-op if none is armed)."""
    _HANDLERS.pop(_check_point(point), None)


def is_armed(point: str) -> bool:
    return _check_point(point) in _HANDLERS


def add_observer(observer: Callable[[str], None]) -> None:
    """Register a callable notified with the point name whenever an armed
    handler is about to fire (never on un-armed trips)."""
    _OBSERVERS.append(observer)


def remove_observer(observer: Callable[[str], None]) -> None:
    """Unregister an observer (no-op if it is not registered)."""
    try:
        _OBSERVERS.remove(observer)
    except ValueError:
        pass


def clear() -> None:
    """Disarm every crash point (test teardown)."""
    _HANDLERS.clear()


@contextmanager
def armed_error(point: str, skip: int = 0):
    """``with``-scoped :func:`arm_error`; disarms on exit either way."""
    arm_error(point, skip=skip)
    try:
        yield
    finally:
        disarm(point)


@contextmanager
def armed_crash(point: str, skip: int = 0):
    """``with``-scoped :func:`arm_crash`; disarms on exit either way."""
    arm_crash(point, skip=skip)
    try:
        yield
    finally:
        disarm(point)
