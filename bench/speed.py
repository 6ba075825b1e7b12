"""Wall times scaled to a reference machine speed.

The benchmark's host is shared.  Its speed moves between a few levels --
a fixed piece of work takes 1.0x, about 1.4x or about 1.75x its fastest
time -- and each level lasts from a fraction of a second to minutes, so
the share of a run spent at each level, and with it every wall time the
run reports, differs from one run to the next by up to a third.

So the benchmark times a fixed reference kernel right before and right
after everything it measures, and reports each wall time scaled by
``REFERENCE_MS`` over the kernel's mean time across that interval: the
time the same work takes while the kernel runs in ``REFERENCE_MS``, about
the kernel's time on an unloaded core of the machine the bounds were set
on.  The kernel is timed in CPU time of the calling thread, so a thread
the program under test leaves running cannot slow the kernel and flatter
the program.  ``machine_slowdown`` reports how far the host was from that
speed; a wall time is about the scaled time times the slowdown.
"""

from __future__ import annotations

import time

# The reference speed: the kernel's CPU time in milliseconds, rounded from
# its fastest runs (0.94--1.1 ms) on a 2-vCPU Intel Xeon VM.  Changing it
# rescales every timing, so compare only results made with one value.
REFERENCE_MS = 1.0


def reference_work() -> float:
    """A fixed mix of interpreter work and small NumPy calls, like the
    platform's own."""
    import numpy as np  # here, so importing this module imports no NumPy

    values = np.arange(4096, dtype=np.float64)
    total = 0.0
    table = {}
    for i in range(2000):
        table[i % 97] = table.get(i % 97, 0) + i
        if i % 20 == 0:
            total += float(np.sum(values * 1.0001 + i))
    return total + len(table)


def probe() -> float:
    """CPU milliseconds of one run of the reference kernel."""
    start = time.thread_time()
    reference_work()
    return (time.thread_time() - start) * 1e3


def scaled(wall: float, before_ms: float, after_ms: float) -> float:
    """``wall`` (in any unit) at the reference speed, given the probes
    taken right before and right after it."""
    return wall * 2.0 * REFERENCE_MS / (before_ms + after_ms)
