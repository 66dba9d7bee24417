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
    "round_weight_partial_entropy",
]

#: Entropy in bits of the round-index distribution P(W = w) = 2**-w.
#: H(W) = sum w * 2**-w = 2 exactly; see round_weight_partial_entropy.
ROUND_WEIGHT_ENTROPY = Fraction(2)

# a walk passes depth d with probability below len(p) * 2**-d
_MAX_DEPTH = 20000


def round_weight_partial_entropy(n: int) -> Fraction:
    """Exact partial sum sum_{w<=n} w * 2**-w = 2 - (n + 2) * 2**-n."""
    if n < 0:
        raise ValidationError("partial sum needs n >= 0")
    return 2 - Fraction(n + 2, 1 << n)


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
        if depth >= len(self._levels):
            with self._lock:
                while len(self._levels) <= depth:
                    ell = len(self._levels)
                    terms = []
                    for i, m in enumerate(self.pmf.masses):
                        if m == 0:
                            continue
                        if ell == 0:
                            bit = 1 if m == 1 else 0
                        else:
                            bit = ((m.numerator << ell) // m.denominator) & 1
                        if bit:
                            terms.append(i)
                    self._levels.append(tuple(terms))
        return self._levels[depth]

    def sample(self, rng) -> tuple[int, int]:
        """Draw one symbol; returns (symbol index, fair bits consumed)."""
        node = 0
        top = self._level(0)
        if top:
            return top[0], 0
        depth = 0
        while True:
            depth += 1
            if depth > _MAX_DEPTH:
                raise ValidationError(
                    f"sampler exceeded depth {_MAX_DEPTH}; pmf expansion too deep"
                )
            node = (node << 1) | rng.fair_bit()
            terms = self._level(depth)
            if node < len(terms):
                return terms[node], depth
            node -= len(terms)
