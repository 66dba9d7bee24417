"""The published per-round agreement loop, transliterated in Fractions.

Kept deliberately naive (Fractions, re-sorting every round) as the
oracle ``KeyAgreeEngine`` is differentially tested against: driven from
the same bit stream, the two must emit identical keys and round indexes.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from stopkey.common import _MAX_ROUNDS
from stopkey.errors import InvariantError, ProtocolError, ValidationError
from stopkey.probability import ZERO, Pmf
from stopkey.randomsource import LazyUniform, RandomSource

from entropy_oracle import ceil_neg_log2


class ScaledUniform:
    """g = bound * U for a lazy uniform U; supports exact g >= t queries."""

    __slots__ = ("uniform", "bound")

    def __init__(self, uniform: LazyUniform, bound: Fraction):
        self.uniform = uniform
        self.bound = bound

    def at_least(self, threshold: Fraction) -> bool:
        return self.uniform.at_least(threshold / self.bound)

    def less_than(self, threshold: Fraction) -> bool:
        return not self.at_least(threshold)


def uniform_below(rng: RandomSource, bound: Fraction) -> ScaledUniform:
    """An exact uniform draw on [0, bound), compared lazily."""
    if bound <= 0:
        raise ValidationError("bound must be positive")
    return ScaledUniform(rng.lazy_uniform(), bound)


def sorted_support(masses: Sequence[Fraction]) -> list[int]:
    """Positive-mass indices by descending mass, ties by ascending index.

    Both parties of a protocol must sort identically or keys diverge.
    """
    return sorted(
        (i for i, m in enumerate(masses) if m > 0),
        key=lambda i: (-masses[i], i),
    )


def _digits(value: Fraction, length: int) -> str:
    """First ``length`` binary digits of a dyadic fraction in [0, 1)."""
    if length == 0:
        return ""
    scaled = value * (1 << length)
    if scaled.denominator != 1:
        raise InvariantError(f"cumulative mass {value} not aligned to 2**-{length}")
    return f"{int(scaled):0{length}b}"


def keyagree_literal(
    role: str,
    p: Pmf,
    x: int,
    *,
    w: int | None = None,
    g: Fraction | ScaledUniform | None = None,
    rng: RandomSource | None = None,
) -> tuple[str, int]:
    """Direct transliteration of the per-round agreement loop.

    For role "alice", ``g`` is the uniform draw on [0, p(x)); pass an
    exact Fraction, a lazily compared draw, or a RandomSource to draw
    from. For role "bob", ``w`` is the round index received from the
    other party. Returns (key, round index).
    """
    if role not in ("alice", "bob"):
        raise ValidationError(f"role must be alice or bob, not {role!r}")
    if not 0 <= x < len(p):
        raise ValidationError(f"symbol index {x} out of range")
    if p.masses[x] == 0:
        raise ValidationError(f"cannot run on zero-mass symbol {x}")
    if role == "alice":
        if g is None:
            if rng is None:
                raise ValidationError("alice needs g or a RandomSource")
            g = uniform_below(rng, p.masses[x])
        elif isinstance(g, Fraction) and not 0 <= g < p.masses[x]:
            raise ValidationError(f"g = {g} outside [0, p(x) = {p.masses[x]})")
    elif w is None or w < 1:
        raise ValidationError("bob needs the announced round index w >= 1")

    def g_at_least(threshold: Fraction) -> bool:
        if isinstance(g, Fraction):
            return g >= threshold
        return g.at_least(threshold)

    residual = list(p.masses)
    for w_cur in range(1, _MAX_ROUNDS + 1):
        q = Fraction(1, 1 << w_cur)
        k = ZERO
        for i in sorted_support(residual):
            alpha = max(ceil_neg_log2(residual[i]), w_cur)
            chunk = Fraction(1, 1 << alpha)
            if chunk > q:
                break
            q -= chunk
            residual[i] -= chunk
            length = alpha - w_cur
            if role == "alice" and i == x and g_at_least(residual[i]):
                return _digits(k, length), w_cur
            if role == "bob" and w_cur == w and i == x:
                return _digits(k, length), w_cur
            k += Fraction(1, 1 << length)
        if q != 0:
            raise InvariantError(f"round {w_cur} left budget {q} unassigned")
        if role == "bob" and w_cur >= w:
            raise ProtocolError(
                f"symbol {x} has no codeword in round {w}; "
                "(y, w) is unreachable, the parties' values must differ"
            )
    raise ProtocolError(f"no round selected within {_MAX_ROUNDS} rounds")
