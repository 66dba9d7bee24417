"""Seeded randomness with exact-rational comparisons.

``RandomSource`` wraps the stdlib Mersenne Twister, whose bit stream is
stable across platforms and Python versions, and adds two things the
protocols need: substreams derived deterministically from a master seed
(so trial i sees the same randomness no matter how trials are scheduled),
and ``LazyUniform``, a uniform variate on [0, 1) materialized one bit at
a time so it can be compared against exact rational thresholds with no
rounding. A comparison extends the expansion only until the interval of
still-possible values clears the threshold, which takes 2 extra bits on
average per query.

A source is seeded on its first draw, not when it is derived: deriving a
substream only records its path, so a stream nothing reads costs no
sha256 and no Mersenne Twister seeding. A common trial thus seeds 2
generators (its ``source`` and ``alice`` streams), never the trial's own
parent stream. The bytes of every stream are those of eager seeding.
"""

from __future__ import annotations

import hashlib
import random
import threading
from fractions import Fraction

from .errors import StopkeyError, ValidationError

__all__ = ["RandomSource", "LazyUniform"]

# Hard cap on expansion length: a rational threshold comparison that fails
# to resolve in this many bits has probability < 2**-4096 per query and
# indicates a misuse (e.g. comparing against the running value itself).
_MAX_BITS = 4096


class LazyUniform:
    """A uniform draw on [0, 1) with a lazily extended exact binary expansion.

    After n bits the value is known to lie in [v/2**n, (v+1)/2**n). The
    half-open convention makes every comparison against a rational
    threshold decidable in finitely many bits, including thresholds that
    are exactly dyadic.
    """

    __slots__ = ("_rng", "value_bits", "nbits")

    def __init__(self, rng: random.Random):
        self._rng = rng
        self.value_bits = 0
        self.nbits = 0

    def _extend(self) -> None:
        self.value_bits = (self.value_bits << 8) | self._rng.getrandbits(8)
        self.nbits += 8

    def at_least(self, threshold: Fraction) -> bool:
        """Decide U >= threshold exactly."""
        tn, td = threshold.numerator, threshold.denominator
        # td > 0, so these are threshold <= 0 and threshold >= 1
        if tn <= 0:
            return True
        if tn >= td:
            return False
        while True:
            scaled = tn << self.nbits
            lo = self.value_bits * td
            if lo >= scaled:
                return True
            if (self.value_bits + 1) * td <= scaled:
                return False
            if self.nbits >= _MAX_BITS:
                raise StopkeyError(
                    "uniform comparison failed to resolve in "
                    f"{_MAX_BITS} bits against {threshold}"
                )
            self._extend()

    def less_than(self, threshold: Fraction) -> bool:
        return not self.at_least(threshold)

    def as_bracket(self) -> tuple[Fraction, Fraction]:
        """The interval [lo, hi) currently known to contain the draw."""
        return (
            Fraction(self.value_bits, 1 << self.nbits),
            Fraction(self.value_bits + 1, 1 << self.nbits),
        )


def _seed_int(material: bytes) -> int:
    return int.from_bytes(hashlib.sha256(material).digest(), "big")


# taken only to publish a source's generator, on its first draw
_SEEDING = threading.Lock()


class RandomSource:
    """Deterministic stream of fair bits and exact uniform draws.

    The same seed always yields the same stream. ``substream`` derives an
    independent child source from (seed path, label); harnesses key
    children by trial index so results do not depend on worker scheduling.
    The generator is built from (seed, path) on the first draw, and
    published once: threads racing on a fresh source share one stream.
    """

    __slots__ = ("seed", "path", "_rng")

    def __init__(self, seed: int | str, _path: tuple[str, ...] = ()):
        if not isinstance(seed, (int, str)):
            raise ValidationError("seed must be an int or str")
        self.seed = seed
        self.path = _path
        self._rng: random.Random | None = None

    def _seeded(self) -> random.Random:
        """The generator, built on first use. Draws read it as
        ``self._rng or self._seeded()``: a built Random is truthy, so only
        a fresh source's first draw calls here and takes the lock."""
        with _SEEDING:
            rng = self._rng
            if rng is None:
                material = repr((self.seed, self.path)).encode()
                rng = self._rng = random.Random(_seed_int(material))
        return rng

    def substream(self, *labels: int | str) -> "RandomSource":
        return RandomSource(self.seed, self.path + tuple(map(str, labels)))

    def fair_bit(self) -> int:
        return (self._rng or self._seeded()).getrandbits(1)

    def bits(self, k: int) -> int:
        """k fair bits as an integer, most significant bit first."""
        if k <= 0:
            raise ValidationError("bit count must be positive")
        return (self._rng or self._seeded()).getrandbits(k)

    def lazy_uniform(self) -> LazyUniform:
        return LazyUniform(self._rng or self._seeded())

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n), from the underlying stream."""
        return (self._rng or self._seeded()).randrange(n)

