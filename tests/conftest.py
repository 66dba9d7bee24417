"""Shared fixtures and helpers; the corpora themselves are in corpus.py,
and are importable from here as before."""

import sys
import threading
import time
from fractions import Fraction

import pytest

from stopkey import randomsource
from stopkey.probability import Pmf

from corpus import (  # noqa: F401  (re-exported for the test modules)
    CORPUS,
    CORRELATED_3,
    FOUR_SYMBOL,
    WORKED_JOINT,
    diag_joint,
    joint,
    pmf,
    product_joint,
    random_rational_pmf,
)


def dyadic_exponent(m) -> int | None:
    """j >= 0 with m == 2**-j, or None if m is not of that form."""
    m = Fraction(m)
    if m <= 0 or m > 1 or m.numerator != 1:
        return None
    d = m.denominator
    return d.bit_length() - 1 if d & (d - 1) == 0 else None


def positive_indices(p: Pmf) -> list[int]:
    """Indices of p's positive-mass symbols, in alphabet order."""
    return [i for i, n in enumerate(p.numerators) if n]


def round_weight_partial_entropy(n: int) -> Fraction:
    """Exact partial sum sum_{w<=n} w * 2**-w = 2 - (n + 2) * 2**-n: the
    round-index entropy H(W) = 2 truncated after n rounds."""
    assert n >= 0
    return 2 - Fraction(n + 2, 1 << n)


@pytest.fixture(params=sorted(CORPUS), ids=sorted(CORPUS))
def corpus_pmf(request) -> Pmf:
    return CORPUS[request.param]


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
