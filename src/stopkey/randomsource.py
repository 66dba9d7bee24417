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
sha256 and no Mersenne Twister seeding. The bytes of every stream are
those of eager seeding.

A run of trials makes its streams from a ``StreamTemplate``: the seed
material ``repr((seed, path))`` is spelled once with a mark for the trial
index and split there into a bytes format, so trial i's stream is made by
one formatting, with the bytes of
``substream("trial", i).substream(leaf)``, and with no path tuple,
``repr`` or ``substream`` call per trial. A common trial thus seeds 2
generators (its ``source`` and ``alice`` streams) and derives nothing
else.

A generator is allocated and seeded in C alone (``_generator``): it holds
the state ``random.Random(n)`` would, without that class's Python
``__init__`` and ``seed`` wrappers, which cost about a fifth of a seeding.
"""

from __future__ import annotations

import _random
import hashlib
import random
import threading
from fractions import Fraction

from .errors import StopkeyError, ValidationError

__all__ = ["RandomSource", "LazyUniform", "StreamTemplate"]

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
        """Decide U >= threshold exactly. Only the threshold's ``numerator``
        and ``denominator`` (> 0) are read, so an int or an int pair with
        those fields will do."""
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


class _Generator(random.Random):
    """``random.Random`` as ``_generator`` builds it. The class attribute
    stands in for the one ``Random.__init__`` sets, so ``getstate`` and
    ``gauss`` work on a generator that never ran it."""

    gauss_next = None


_allocate = _Generator.__new__
_c_seed = _random.Random.seed


def _generator(material: bytes) -> random.Random:
    """``random.Random(n)``'s generator for n the big-endian sha256 of
    ``material``, seeded straight through the C ``seed`` that
    ``Random.seed`` ends in."""
    rng = _allocate(_Generator)
    _c_seed(rng, int.from_bytes(hashlib.sha256(material).digest(), "big"))
    return rng


# taken only to publish a source's generator, on its first draw
_SEEDING = threading.Lock()
_new_source = object.__new__


def _spell(seed: int | str, path: tuple[str, ...]) -> bytes:
    """The seed material of the stream at ``path`` under ``seed``: the
    bytes ``_generator`` hashes. The one place the format is written."""
    return repr((seed, path)).encode()


class RandomSource:
    """Deterministic stream of fair bits and exact uniform draws.

    The same seed always yields the same stream. ``substream`` derives an
    independent child source from (seed path, label); harnesses key
    children by trial index so results do not depend on worker scheduling.
    The generator is built from (seed, path) on the first draw, and
    published once: threads racing on a fresh source share one stream.
    """

    __slots__ = ("seed", "path", "_rng")

    def __init__(self, seed: int | str):
        if not isinstance(seed, (int, str)):
            raise ValidationError("seed must be an int or str")
        self.seed = seed
        self.path: tuple[str, ...] = ()
        self._rng: random.Random | None = None

    def _seeded(self) -> random.Random:
        """The generator, built on first use. Draws read it as
        ``self._rng or self._seeded()``: a built Random is truthy, so only
        a fresh source's first draw calls here and takes the lock."""
        with _SEEDING:
            rng = self._rng
            if rng is None:
                rng = self._rng = _generator(self._material())
        return rng

    def _material(self) -> bytes:
        return _spell(self.seed, self.path)

    def substream(self, *labels: int | str) -> "RandomSource":
        # built past __init__: the seed was checked when the root was made
        child = _new_source(RandomSource)
        child.seed = self.seed
        # from a list, not an iterator: tuple() sizes it exactly, where an
        # iterator's guessed size is shrunk after the fact
        child.path = self.path + tuple([str(label) for label in labels])
        child._rng = None
        return child

    def fair_bit(self) -> int:
        return (self._rng or self._seeded()).getrandbits(1)

    def generator(self) -> random.Random:
        """The seeded Mersenne Twister itself, for loops that read it bit by
        bit without a Python call per bit: ``getrandbits(1)`` on it is
        ``fair_bit``."""
        return self._rng or self._seeded()

    def lazy_uniform(self) -> LazyUniform:
        return LazyUniform(self._rng or self._seeded())

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n), from the underlying stream."""
        return (self._rng or self._seeded()).randrange(n)


class _Stream(RandomSource):
    """A template's stream: made with its seed material, which its first
    draw hashes. It is only drawn from: it holds no seed or path, so it
    derives no substreams."""

    __slots__ = ("_bytes",)

    def _material(self) -> bytes:
        return self._bytes


# the index label a template spells its material with and splits it at: an
# index's own spelling, so its repr is quoted as every index's is
_MARK = "0"
_MARK_REPR = repr(_MARK).encode()


class StreamTemplate:
    """The streams ``root.substream(label, i, *leaf)`` of every index i,
    each made from one formatting of seed material.

    The material of such a stream is ``repr((seed, path))`` with ``str(i)``
    at one place in ``path``. The template spells it once with ``_MARK``
    there, through ``_spell``, and puts ``%d`` in place of the mark's
    digits; ``stream(i)`` formats i into it. A stream is seeded on its
    first draw, under the lock and through ``_generator``, as every source
    is.
    """

    __slots__ = ("_format",)

    def __init__(self, root: RandomSource, label: int | str, *leaf: int | str):
        after = tuple(map(str, leaf))
        # the split takes the last mark, so no leaf may spell one
        if _MARK_REPR in _spell(0, after):
            raise ValidationError(f"leaf {leaf!r} spells the index mark")
        material = _spell(root.seed, root.path + (str(label), _MARK) + after)
        head, tail = material.rsplit(_MARK_REPR, 1)
        # the quotes stay: an int's digits need no escape
        self._format = b"'%d'".join(part.replace(b"%", b"%%") for part in (head, tail))

    def stream(self, i: int) -> RandomSource:
        """The stream at index ``i``, an int, unseeded."""
        src = _new_source(_Stream)
        src._bytes = self._format % i
        src._rng = None
        return src
