"""Time ``KeyAgreeEngine.ensure(DEPTH)`` and measure the memory its rounds hold.

    python3 tools/engine_memory.py

For each alphabet size n in ``SIZES`` it builds the linear pmf
p(k) = k / (n (n + 1) / 2), k = 1..n, and prints one line: the wall time of
``ensure(DEPTH)`` on a fresh engine, untraced (best of ``REPEAT`` runs), and
the bytes a fresh engine holds after ``ensure(DEPTH)``, read with
``tracemalloc`` in a separate run (the engine's allocations, measured from
before it is made). Timing is never taken under ``tracemalloc``, which slows
the build about tenfold.

A last line times the small engines of a random-table average: the
exact-report benchmark's diagonal has the weights ``DIAGONAL``, and its
average builds one engine per bucket set, every subset of two or more
labels. The line gives the time of ``ensure(DEPTH)`` on a fresh engine for
every set (best of ``SET_REPEAT``), the rounds those engines build (past its
period an engine lists built rounds again), the time per built round, and
the bytes the full set's engine holds. Stdlib only; run it from anywhere
inside the repository.
"""

from __future__ import annotations

import gc
import itertools
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
SET_REPEAT = 100  # the bucket-set engines take about a millisecond in all
# the diagonal numerators of the exact-report benchmark's 5 x 5 joint
DIAGONAL = (8, 9, 10, 11, 12)


def linear_pmf(n: int) -> Pmf:
    return Pmf(tuple(f"s{i}" for i in range(n)), tuple(range(1, n + 1)), n * (n + 1) // 2)


def bucket_set_pmfs() -> list[Pmf]:
    """The agreement conditional of every set of two or more labels of
    ``DIAGONAL``, over all of its labels, largest set last."""
    labels = tuple(f"d{i}" for i in range(len(DIAGONAL)))
    pmfs = []
    for size in range(2, len(DIAGONAL) + 1):
        for members in itertools.combinations(range(len(DIAGONAL)), size):
            nums = [w if i in members else 0 for i, w in enumerate(DIAGONAL)]
            pmfs.append(Pmf(labels, nums, sum(nums)))
    return pmfs


def ensure_seconds(*pmfs: Pmf, repeat: int = REPEAT) -> float:
    """Best of ``repeat``: ``ensure(DEPTH)`` on a fresh engine per pmf."""
    best = float("inf")
    for _ in range(repeat):
        gc.collect()
        start = time.perf_counter()
        for p in pmfs:
            KeyAgreeEngine(p).ensure(DEPTH)
        best = min(best, time.perf_counter() - start)
    return best


def built_rounds(p: Pmf) -> int:
    """Rounds ``ensure(DEPTH)`` builds: the distinct round objects."""
    engine = KeyAgreeEngine(p)
    return len({id(engine.round(w)) for w in range(1, DEPTH + 1)})


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
    sets = bucket_set_pmfs()
    seconds = ensure_seconds(*sets, repeat=SET_REPEAT)
    rounds = sum(map(built_rounds, sets))
    held = held_bytes(sets[-1])
    print(
        f"bucket sets of {DIAGONAL}: {len(sets)} engines, ensure {seconds * 1e3:.3f} ms, "
        f"{rounds} built rounds, {seconds / rounds * 1e6:.2f} us per built round, "
        f"held {held} B (full set)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
