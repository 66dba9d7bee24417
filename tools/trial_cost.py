"""Split a serial simulate trial's cost into its seedings and the rest.

    python3 tools/trial_cost.py [--trials N] [--repeat R]

For three protocols it times ``plan.runs()`` serially in this process (the
loop a report's block plays, with no fork) and prints one line each:

- common: the zero-error scheme on the pmf p(k) = k/36, k = 1..8 (the
  ``common-mc`` benchmark's source);
- almost: the hash check with the derandomized table on ``CORRELATED_3``,
  m = 2;
- correlated: the two-stage pipeline with ``hashmap:1`` on ``CORRELATED_3``,
  m = 2 (the ``sketch-mc`` benchmark's source and reconciler).

Each line gives the µs per trial (best of R runs of N trials, on a plan
warmed by one run), the generators a trial seeds (counted over one run by
wrapping ``randomsource._generator``), and the floor: those seedings times
the µs of one ``_generator`` call (best of R x N calls on seed material of
a trial's length), with the floor's share of the trial. The rest of the
trial is everything else: deriving its streams, drawing, deciding and
counting. Stdlib only; run it from anywhere inside the repository.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from collections import Counter

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from stopkey import randomsource  # noqa: E402
from stopkey.harness import ExperimentConfig  # noqa: E402

CORRELATED_3 = {
    "x_labels": ["a", "b", "c"],
    "y_labels": ["a", "b", "c"],
    "joint": [["5/12", "1/12", "1/12"], ["1/12", "1/8", "1/24"], ["0", "1/24", "1/8"]],
}
CASES = {
    "common": dict(
        protocol="common",
        source_doc={"alphabet": [str(k) for k in range(8)], "pmf": [f"{k}/36" for k in range(1, 9)]},
    ),
    "almost": dict(protocol="almost", source_doc=CORRELATED_3, m=2),
    "correlated": dict(protocol="correlated", source_doc=CORRELATED_3, m=2, reconciler="hashmap:1"),
}


def best_of(repeat: int, fn) -> float:
    """The least wall time of ``repeat`` calls of ``fn``, in seconds."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def seedings(plan) -> int:
    """The generators one run of the plan's trials seeds."""
    raw = randomsource._generator
    built = []

    def counting(material):
        built.append(material)
        return raw(material)

    randomsource._generator = counting
    try:
        Counter(plan.runs())
    finally:
        randomsource._generator = raw
    return len(built)


def generator_us(trials: int, repeat: int) -> float:
    """µs of one ``_generator`` call, on the material of a trial's stream."""
    generator = randomsource._generator
    materials = [repr((5, ("trial", str(i), "source"))).encode() for i in range(trials)]
    return best_of(repeat, lambda: [generator(m) for m in materials]) / trials * 1e6


def measure(trials: int, repeat: int) -> list[tuple[str, float, float, float]]:
    """(protocol, µs per trial, seedings per trial, floor µs per trial)."""
    per_call = generator_us(trials, repeat)
    rows = []
    for name, options in CASES.items():
        plan = ExperimentConfig(trials=trials, seed=5, **options).plan()
        Counter(plan.runs())  # builds the engines, samplers and stage caches
        us = best_of(repeat, lambda: Counter(plan.runs())) / trials * 1e6
        per_trial = seedings(plan) / trials
        rows.append((name, us, per_trial, per_trial * per_call))
    return rows


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--trials", type=int, default=20000)
    ap.add_argument("--repeat", type=int, default=7)
    args = ap.parse_args(argv)
    for name, us, per_trial, floor in measure(args.trials, args.repeat):
        print(
            f"{name:<10} {us:6.2f} us/trial  {per_trial:.3f} seedings/trial  "
            f"floor {floor:6.2f} us ({floor / us:.0%})  rest {us - floor:6.2f} us"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
