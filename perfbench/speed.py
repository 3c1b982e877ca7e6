"""The speed of the core a run is on, from a fixed reference loop.

On a shared host the core under a run is at times slowed by other tenants,
by up to about 2x and for seconds to minutes at a stretch, and an op's wall
and CPU time grow with it.  The benchmark therefore times the reference loop
right before and right after each op (in the same thread, so on the same
core) and reports every time scaled by REFERENCE_MS / loop time: the time at
the speed at which the loop takes REFERENCE_MS, its time on the unloaded
reference machine.  The loop mixes what drypend's scalar code does: float
arithmetic through `math`, calls, tuples, list appends and dict access.
"""

from __future__ import annotations

import math
import time

# best time of `_reference_loop` on the reference machine, unloaded (ms)
REFERENCE_MS = 0.150
REPEATS = 7


def _reference_loop() -> float:
    acc = 0.0
    table: dict[int, float] = {}
    pairs = []
    for i in range(600):
        x = math.sin(i * 0.01) * 1.5 + math.cos(i * 0.02)
        pairs.append((x, i))
        table[i & 63] = x
        acc += table.get((i * 7) & 63, 0.0) * x
    return acc


def loop_ms() -> float:
    """Best of REPEATS back-to-back timings of the reference loop (ms)."""
    best = math.inf
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _reference_loop()
        best = min(best, time.perf_counter() - t0)
    return 1e3 * best
