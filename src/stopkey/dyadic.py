"""Exact sampling from rational pmfs, and the round-weight entropy.

The Knuth-Yao sampler draws from an arbitrary rational pmf using fair
bits (at most H(p) + 2 expected flips) by walking the tree defined by
the binary expansions of the masses: the sampling-direction mirror of
the key extraction, whose dyadic decomposition of the source into rounds
of weight 2**-w lives in ``common.KeyAgreeEngine``.
"""

from __future__ import annotations

import threading
from fractions import Fraction

from .errors import ValidationError
from .probability import Pmf

__all__ = [
    "KnuthYaoSampler",
    "ROUND_WEIGHT_ENTROPY",
]

#: Entropy in bits of the round-index distribution P(W = w) = 2**-w:
#: H(W) = sum w * 2**-w = 2 exactly (the partial sum through n rounds is
#: 2 - (n + 2) * 2**-n).
ROUND_WEIGHT_ENTROPY = Fraction(2)

# a walk passes depth d with probability below len(p) * 2**-d
_MAX_DEPTH = 20000


class KnuthYaoSampler:
    """Exact sampler for a rational pmf driven by fair bits.

    Walks the discrete distribution generating tree defined by the binary
    expansions of the masses: at depth L there is one terminal per symbol
    whose mass has bit L set. Expected consumption is at most H(p) + 2
    bits. Expansion levels are materialized lazily, so non-terminating
    expansions (e.g. 1/3) cost nothing until the walk actually reaches
    their depth.
    """

    def __init__(self, p: Pmf):
        self.pmf = p
        self._levels: list[tuple[int, ...]] = []
        self._lock = threading.Lock()

    def _level(self, depth: int) -> tuple[int, ...]:
        """Level ``depth``, built with every level above it on first use.
        A walk reaches a level only after reading every one above it, so
        the depth cap is checked here, off the per-bit path."""
        if depth >= len(self._levels):
            if depth > _MAX_DEPTH:
                raise ValidationError(
                    f"sampler exceeded depth {_MAX_DEPTH}; pmf expansion too deep"
                )
            with self._lock:
                while len(self._levels) <= depth:
                    ell = len(self._levels)
                    den = self.pmf.denominator
                    terms = []
                    for i, n in enumerate(self.pmf.numerators):
                        if n == 0:
                            continue
                        if ell == 0:
                            bit = 1 if n == den else 0
                        else:
                            bit = ((n << ell) // den) & 1
                        if bit:
                            terms.append(i)
                    self._levels.append(tuple(terms))
        return self._levels[depth]

    def sample(self, rng) -> tuple[int, int]:
        """Draw one symbol; returns (symbol index, fair bits consumed)."""
        levels = self._levels
        top = levels[0] if levels else self._level(0)
        if top:
            return top[0], 0
        fair_bit = rng.fair_bit
        node = 0
        depth = 0
        while True:
            depth += 1
            node = (node << 1) | fair_bit()
            # levels only grow, and are appended whole
            terms = levels[depth] if depth < len(levels) else self._level(depth)
            if node < len(terms):
                return terms[node], depth
            node -= len(terms)
