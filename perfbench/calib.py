"""A fixed piece of pure-Python work that times the host, not indepax.

It shares no code with the package: memoized recursion over tuple keys,
small-integer arithmetic and generator expressions, the kind of work the
pure kernel's interpreter loop does.  ``timed_chunk()`` takes a few
milliseconds.  The worker runs it between requests, so that ``run.py`` can
scale each request's latency to a reference host speed (see ``scaled``
there).
"""

import gc
import time


def chunk() -> int:
    memo: dict = {}

    def rec(i: int, a: int, b: int) -> bool:
        key = (i, a, b)
        hit = memo.get(key)
        if hit is not None:
            return hit
        if i == 0:
            out = ((a * 7 + b * 13) >> 2) & 1 == 1
        else:
            out = (any(rec(i - 1, (a + v) % 9, (b * v) % 9) for v in range(3))
                   and not rec(i - 1, b, a))
        memo[key] = out
        return out

    total = 0
    for s in range(16):
        memo.clear()
        total += rec(7, s % 9, (s * 5) % 9)
    return total


def timed_chunk() -> float:
    """Seconds one ``chunk()`` takes.  The garbage collector is off meanwhile,
    so the chunk never pays for a collection of the program's heap."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t = time.perf_counter()
        chunk()
        return time.perf_counter() - t
    finally:
        if was_enabled:
            gc.enable()
