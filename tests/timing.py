"""The one timing helper behind every scaling gate.

A scaling gate runs one function on a small input and on a four times
larger one, and asserts that the large run costs well under the 16x a
quadratic path would. ``best_times`` makes the two figures comparable
on a shared machine whose speed drifts.
"""

from __future__ import annotations

import gc
import math
import time


def best_times(run, small, large, repeats=7, prepare=None):
    """Best wall time of ``run`` on ``small`` and on ``large``.

    The small and large runs alternate, so a drift in machine speed
    falls on both alike. Each timed call starts after ``gc.collect()``
    with the collector off, so no collection lands inside it. The best
    of ``repeats`` calls per side is the least disturbed one.
    ``prepare``, when given, turns an input into the call's argument
    outside the timed region, for runs that consume their argument.
    """
    best = [math.inf, math.inf]
    for _ in range(repeats):
        for side, value in enumerate((small, large)):
            argument = prepare(value) if prepare else value
            gc.collect()
            gc.disable()
            try:
                started = time.perf_counter()
                run(argument)
                elapsed = time.perf_counter() - started
            finally:
                gc.enable()
            best[side] = min(best[side], elapsed)
    return best[0], best[1]
