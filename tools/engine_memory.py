"""Time ``KeyAgreeEngine.ensure(DEPTH)`` and measure the memory its rounds hold.

    python3 tools/engine_memory.py

For each alphabet size n in ``SIZES`` it builds the linear pmf
p(k) = k / (n (n + 1) / 2), k = 1..n, and prints one line: the wall time of
``ensure(DEPTH)`` on a fresh engine, untraced (best of ``REPEAT`` runs), and
the bytes a fresh engine holds after ``ensure(DEPTH)``, read with
``tracemalloc`` in a separate run (the engine's allocations, measured from
before it is made). Timing is never taken under ``tracemalloc``, which slows
the build about tenfold. Stdlib only; run it from anywhere inside the
repository.
"""

from __future__ import annotations

import gc
import os
import sys
import time
import tracemalloc

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from stopkey.common import KeyAgreeEngine  # noqa: E402
from stopkey.probability import Pmf  # noqa: E402

SIZES = (1000, 20000, 100000)
DEPTH = 30
REPEAT = 3


def linear_pmf(n: int) -> Pmf:
    return Pmf(tuple(f"s{i}" for i in range(n)), tuple(range(1, n + 1)), n * (n + 1) // 2)


def ensure_seconds(p: Pmf) -> float:
    best = float("inf")
    for _ in range(REPEAT):
        gc.collect()
        start = time.perf_counter()
        KeyAgreeEngine(p).ensure(DEPTH)
        best = min(best, time.perf_counter() - start)
    return best


def held_bytes(p: Pmf) -> int:
    """Bytes still allocated, with the engine alive, after ``ensure(DEPTH)``."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        engine = KeyAgreeEngine(p)
        engine.ensure(DEPTH)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    del engine
    return held


def main() -> int:
    print(f"python {sys.version.split()[0]}, ensure({DEPTH}) on linear pmfs")
    for n in SIZES:
        p = linear_pmf(n)
        seconds = ensure_seconds(p)
        held = held_bytes(p)
        print(f"|X| = {n:>6}: ensure {seconds:8.3f} s, held {held / 1e6:8.2f} MB ({held} B)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
