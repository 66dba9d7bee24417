"""Shared fixtures: the pmf corpus and joint-source corpus.

Every distribution here is exact rational. The corpus deliberately mixes
dyadic pmfs (whose keys collapse to the empty string), the two-symbol
cycling case, richer non-dyadic sources, and degenerate point masses.
"""

import sys
import threading
import time
from fractions import Fraction

import pytest

from stopkey import randomsource
from stopkey.probability import JointPmf, Pmf
from stopkey.randomsource import RandomSource


def pmf(*masses) -> Pmf:
    return Pmf.from_masses(tuple(Fraction(m) for m in masses))


def dyadic_exponent(m) -> int | None:
    """j >= 0 with m == 2**-j, or None if m is not of that form."""
    m = Fraction(m)
    if m <= 0 or m > 1 or m.numerator != 1:
        return None
    d = m.denominator
    return d.bit_length() - 1 if d & (d - 1) == 0 else None


def round_weight_partial_entropy(n: int) -> Fraction:
    """Exact partial sum sum_{w<=n} w * 2**-w = 2 - (n + 2) * 2**-n: the
    round-index entropy H(W) = 2 truncated after n rounds."""
    assert n >= 0
    return 2 - Fraction(n + 2, 1 << n)


CORPUS = {
    "point": pmf(1),
    "uniform2": pmf("1/2", "1/2"),
    "dyadic3": pmf("1/2", "1/4", "1/4"),
    "thirds": pmf("1/3", "2/3"),
    "uniform3": pmf("1/3", "1/3", "1/3"),
    "sevenths": pmf("1/7", "2/7", "4/7"),
    "tenths": pmf("2/5", "3/10", "1/5", "1/10"),
}


@pytest.fixture(params=sorted(CORPUS), ids=sorted(CORPUS))
def corpus_pmf(request) -> Pmf:
    return CORPUS[request.param]


def random_rational_pmf(rng: RandomSource, max_support: int = 8) -> Pmf:
    """A random pmf with small integer numerators over a common denominator."""
    n = 2 + rng.randrange(max_support - 1)
    weights = [1 + rng.randrange(12) for _ in range(n)]
    total = sum(weights)
    return Pmf.from_masses(tuple(Fraction(w, total) for w in weights))


def joint(rows, x_labels, y_labels) -> JointPmf:
    return JointPmf.from_rows(
        tuple(tuple(Fraction(c) for c in row) for row in rows),
        tuple(x_labels),
        tuple(y_labels),
    )


# The worked almost-common example: p = 3/4, disagreement concentrated on
# the (1, 0) cell, conditional-on-agree = (2/3, 1/3).
WORKED_JOINT = joint([["1/2", "0"], ["1/4", "1/4"]], "01", "01")


def diag_joint(p: Pmf) -> JointPmf:
    """X = Y with X ~ p."""
    n = len(p)
    rows = [[p.masses[i] if i == k else Fraction(0) for k in range(n)] for i in range(n)]
    return JointPmf.from_rows(tuple(tuple(r) for r in rows), p.labels, p.labels)


def product_joint(px: Pmf, py: Pmf) -> JointPmf:
    rows = [[mx * my for my in py.masses] for mx in px.masses]
    return JointPmf.from_rows(tuple(tuple(r) for r in rows), px.labels, py.labels)


CORRELATED_3 = joint(
    [["5/12", "1/12", "1/12"], ["1/12", "1/8", "1/24"], ["0", "1/24", "1/8"]],
    ("a", "b", "c"),
    ("a", "b", "c"),
)

FOUR_SYMBOL = joint(
    [
        ["7/20", "1/20", "0", "0"],
        ["0", "3/10", "0", "0"],
        ["0", "0", "1/5", "0"],
        ["0", "1/40", "0", "3/40"],
    ],
    "0123",
    "0123",
)


def count_seeding(monkeypatch) -> list:
    """Record every generator a RandomSource builds from now on: its seed
    material, one entry per ``randomsource._generator`` call."""
    built = []
    raw = randomsource._generator

    def counting(*args):
        built.append(args)
        return raw(*args)

    monkeypatch.setattr(randomsource, "_generator", counting)
    return built


def run_threads(target, n_threads: int = 8, timeout: float = 4.0) -> list[Exception]:
    """Run ``target`` on daemon threads with a tiny switch interval, so the
    interpreter preempts them mid-update; returns what they raised."""
    raised: list[Exception] = []

    def run():
        try:
            target()
        except Exception as exc:
            raised.append(exc)

    threads = [threading.Thread(target=run, daemon=True) for _ in range(n_threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        deadline = time.monotonic() + timeout
        for t in threads:
            t.join(max(0.0, deadline - time.monotonic()))
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads), "threads still running"
    return raised
