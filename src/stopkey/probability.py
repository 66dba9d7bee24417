"""Exact finite probability: pmfs, joint pmfs, entropy, and dyadic tests.

Everything protocol-critical in this package runs on ``fractions.Fraction``;
floats appear only in reported entropies and bound lines. Entropies are
available in two modes: a double-precision float (accurate to a few ulp,
at least 15 significant digits for the supported alphabet sizes) and a
certified exact-rational interval computed with directed integer rounding,
for tests that must compare an exact quantity against an entropy bound
without trusting floating point.

Symbols are identified by their stable integer index into the alphabet
tuple; labels are a display and serialization map. Zero-mass symbols are
legal and retained, so conditionals over a parent alphabet keep their
indexing; every mass-sensitive operation skips them explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .errors import ValidationError

__all__ = [
    "Pmf",
    "JointPmf",
    "AgreementStats",
    "entropy",
    "entropy_interval",
    "mutual_information",
    "agreement_stats",
    "ceil_neg_log2",
    "floor_log2",
    "dyadic_exponent",
    "log2_interval",
    "as_fraction",
]

ZERO = Fraction(0)
ONE = Fraction(1)
FRAC_BITS = 40  # certified log2 brackets are about 2**-FRAC_BITS wide


def as_fraction(value) -> Fraction:
    """Coerce an exact value to Fraction, rejecting floats as inexact."""
    if isinstance(value, float):
        raise ValidationError(
            f"refusing to coerce float {value!r}; pass a Fraction or an exact string"
        )
    try:
        return Fraction(value)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise ValidationError(f"not an exact rational: {value!r}") from exc


def _default_labels(n: int) -> tuple[str, ...]:
    return tuple(str(i) for i in range(n))


def _check_labels(labels: Sequence[str], n: int) -> tuple[str, ...]:
    labels = tuple(str(x) for x in labels)
    if len(labels) != n:
        raise ValidationError(f"{n} masses but {len(labels)} labels")
    if len(set(labels)) != n:
        raise ValidationError("alphabet labels must be distinct")
    return labels


def _state_without_hash(obj) -> dict:
    """Pickle state of a content-hashed dataclass, minus the cached hash:
    str hashes differ between processes, so the receiver recomputes it."""
    return {k: v for k, v in vars(obj).items() if k != "_hash"}


@dataclass(frozen=True)
class Pmf:
    """A probability mass function over an ordered finite alphabet.

    Masses are exact rationals, each in [0, 1], summing to exactly 1.
    Zero masses are allowed and retained (the symbol stays addressable).
    Pmfs key the engine and stage caches, so the content hash is computed
    once, on first use, and kept in ``_hash``; equality, ``repr`` and
    pickling leave that slot out.
    """

    labels: tuple[str, ...]
    masses: tuple[Fraction, ...]
    _hash: int | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.masses:
            raise ValidationError("alphabet must be nonempty")
        total = ZERO
        for m in self.masses:
            if not isinstance(m, Fraction):
                raise ValidationError("Pmf masses must be Fractions")
            if m < 0 or m > 1:
                raise ValidationError(f"mass {m} outside [0, 1]")
            total += m
        if total != 1:
            raise ValidationError(
                f"pmf masses sum to {total}, not 1 (deficit {1 - total})"
            )
        _check_labels(self.labels, len(self.masses))

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.labels, self.masses))
            object.__setattr__(self, "_hash", h)
        return h

    __getstate__ = _state_without_hash

    @classmethod
    def from_masses(cls, masses: Iterable, labels: Sequence[str] | None = None) -> "Pmf":
        ms = tuple(as_fraction(m) for m in masses)
        return cls(_default_labels(len(ms)) if labels is None else tuple(labels), ms)

    def __len__(self) -> int:
        return len(self.masses)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValidationError(f"label {label!r} not in alphabet") from None

    def support(self) -> tuple[int, ...]:
        """Indices with positive mass, in alphabet order."""
        return tuple(i for i, m in enumerate(self.masses) if m > 0)


@dataclass(frozen=True)
class JointPmf:
    """A joint pmf over a pair of ordered finite alphabets.

    ``masses[ix][iy]`` is P(X = x_labels[ix], Y = y_labels[iy]). The two
    alphabets may differ; equality of realizations is equality of labels.
    As for ``Pmf``, the content hash is computed once and kept in ``_hash``.
    """

    x_labels: tuple[str, ...]
    y_labels: tuple[str, ...]
    masses: tuple[tuple[Fraction, ...], ...]
    _hash: int | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        nx, ny = len(self.x_labels), len(self.y_labels)
        if nx == 0 or ny == 0:
            raise ValidationError("joint alphabets must be nonempty")
        if len(self.masses) != nx or any(len(row) != ny for row in self.masses):
            raise ValidationError("joint mass matrix shape does not match alphabets")
        total = ZERO
        for row in self.masses:
            for m in row:
                if not isinstance(m, Fraction):
                    raise ValidationError("JointPmf masses must be Fractions")
                if m < 0:
                    raise ValidationError(f"negative mass {m}")
                total += m
        if total != 1:
            raise ValidationError(
                f"joint masses sum to {total}, not 1 (deficit {1 - total})"
            )
        _check_labels(self.x_labels, nx)
        _check_labels(self.y_labels, ny)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.x_labels, self.y_labels, self.masses))
            object.__setattr__(self, "_hash", h)
        return h

    __getstate__ = _state_without_hash

    @classmethod
    def from_rows(
        cls,
        rows: Iterable[Iterable],
        x_labels: Sequence[str] | None = None,
        y_labels: Sequence[str] | None = None,
    ) -> "JointPmf":
        matrix = tuple(tuple(as_fraction(m) for m in row) for row in rows)
        nx = len(matrix)
        ny = len(matrix[0]) if matrix else 0
        return cls(
            _default_labels(nx) if x_labels is None else tuple(x_labels),
            _default_labels(ny) if y_labels is None else tuple(y_labels),
            matrix,
        )

    @classmethod
    def from_atoms(
        cls,
        atoms: Iterable[tuple[str, str, Fraction]],
        x_labels: Sequence[str],
        y_labels: Sequence[str],
    ) -> "JointPmf":
        xl, yl = tuple(x_labels), tuple(y_labels)
        grid = [[ZERO] * len(yl) for _ in xl]
        for x, y, m in atoms:
            grid[xl.index(x)][yl.index(y)] += as_fraction(m)
        return cls(xl, yl, tuple(tuple(row) for row in grid))

    def mass_by_label(self, x: str, y: str) -> Fraction:
        if x not in self.x_labels or y not in self.y_labels:
            return ZERO
        return self.masses[self.x_labels.index(x)][self.y_labels.index(y)]

    def marginal_x(self) -> Pmf:
        return Pmf(self.x_labels, tuple(sum(row, ZERO) for row in self.masses))

    def marginal_y(self) -> Pmf:
        ny = len(self.y_labels)
        cols = tuple(
            sum((row[iy] for row in self.masses), ZERO) for iy in range(ny)
        )
        return Pmf(self.y_labels, cols)

    def atoms(self) -> Iterator[tuple[int, int, Fraction]]:
        """Yield (ix, iy, mass) over positive-mass cells in row-major order."""
        for ix, row in enumerate(self.masses):
            for iy, m in enumerate(row):
                if m > 0:
                    yield ix, iy, m

    def flat_masses(self) -> tuple[Fraction, ...]:
        return tuple(m for row in self.masses for m in row)


# ---------------------------------------------------------------------------
# Exact log2 brackets.


def ceil_neg_log2(r) -> int:
    """Smallest integer a >= 0 with 2**-a <= r, for rational r in (0, 1].

    Evaluated by exact integer comparison (never via floating-point log):
    a is the least integer with den <= num << a.
    """
    r = r if isinstance(r, Fraction) else as_fraction(r)
    if r <= 0 or r > 1:
        raise ValidationError(f"ceil_neg_log2 requires r in (0, 1], got {r}")
    num, den = r.numerator, r.denominator
    # smallest a with num * 2**a >= den, i.e. 2**a >= ceil(den / num)
    c = -(-den // num)
    return (c - 1).bit_length()


def floor_log2(r) -> int:
    """Largest integer e with 2**e <= r, for rational r > 0."""
    r = r if isinstance(r, Fraction) else as_fraction(r)
    if r <= 0:
        raise ValidationError(f"floor_log2 requires r > 0, got {r}")
    if r <= 1:
        return -ceil_neg_log2(r)
    return (r.numerator // r.denominator).bit_length() - 1


def dyadic_exponent(m) -> int | None:
    """Return j >= 0 with m == 2**-j, or None if m is not of that form."""
    m = m if isinstance(m, Fraction) else as_fraction(m)
    if m <= 0 or m > 1:
        return None
    if m.numerator != 1:
        return None
    d = m.denominator
    return d.bit_length() - 1 if d & (d - 1) == 0 else None


def log2_interval(r) -> tuple[Fraction, Fraction]:
    """Certified bracket lo <= log2(r) <= hi with dyadic rational endpoints.

    Uses the classic squaring recurrence with directed integer rounding at
    2 * FRAC_BITS + 16 guard bits, so the bracket width is about
    2**-FRAC_BITS. Exact powers of two get a zero-width bracket.
    """
    r = r if isinstance(r, Fraction) else as_fraction(r)
    if r <= 0:
        raise ValidationError(f"log2 requires r > 0, got {r}")
    num, den = r.numerator, r.denominator
    if num & (num - 1) == 0 and den & (den - 1) == 0:
        e = num.bit_length() - den.bit_length()
        return Fraction(e), Fraction(e)
    e = floor_log2(r)
    # scale r into [1, 2) exactly
    if e >= 0:
        den <<= e
    else:
        num <<= -e
    prec = 2 * FRAC_BITS + 16
    one = 1 << prec
    two = 2 << prec
    scaled = num << prec
    z_lo = scaled // den
    z_hi = -((-scaled) // den)
    bits_lo = 0
    bits_hi = 0
    for _ in range(FRAC_BITS):
        z_lo = (z_lo * z_lo) >> prec
        bits_lo <<= 1
        if z_lo >= two:
            bits_lo |= 1
            z_lo >>= 1
        if z_lo < one:
            z_lo = one
        z_hi = (z_hi * z_hi + one - 1) >> prec
        bits_hi <<= 1
        if z_hi >= two:
            bits_hi |= 1
            z_hi = (z_hi + 1) >> 1
    scale = 1 << FRAC_BITS
    lo = e + Fraction(bits_lo, scale)
    hi = e + Fraction(bits_hi + 1, scale)
    return lo, hi


# ---------------------------------------------------------------------------
# Entropy and mutual information.


def _mass_list(p) -> tuple[Fraction, ...]:
    if isinstance(p, Pmf):
        return p.masses
    if isinstance(p, JointPmf):
        return p.flat_masses()
    return tuple(as_fraction(m) for m in p)


def entropy(p) -> float:
    """Shannon entropy in bits, double precision.

    Accepts a Pmf, a JointPmf (entropy of the flattened joint), or an
    iterable of rational masses. Terms are summed with math.fsum; the
    result is accurate to a few ulp (at least 15 significant digits).
    """
    terms = []
    for m in _mass_list(p):
        if m > 0:
            fm = float(m)
            terms.append(-fm * math.log2(fm))
    return math.fsum(terms)


def entropy_interval(p) -> tuple[Fraction, Fraction]:
    """Certified rational bracket for the entropy in bits.

    Dyadic pmfs get a zero-width (exact) bracket. The float from
    :func:`entropy` always lies inside the bracket.
    """
    lo = ZERO
    hi = ZERO
    for m in _mass_list(p):
        if m > 0:
            llo, lhi = log2_interval(m)
            lo += -m * lhi
            hi += -m * llo
    return lo, hi


def mutual_information(j: JointPmf | Pmf) -> float:
    """I(X;Y) in bits, double precision; a Pmf stands for the source Y = X.

    Each term takes one log of the exact rational ratio
    p(x,y) / (p(x) p(y)), so a factorizing joint returns exactly 0.0
    instead of the float residue an H(X) + H(Y) - H(X,Y) rearrangement
    would leave.
    """
    if isinstance(j, Pmf):  # the atoms of Y = X lie on the diagonal
        px = py = j.masses
        atoms = ((i, i, m) for i, m in enumerate(px) if m > 0)
    else:
        px, py = j.marginal_x().masses, j.marginal_y().masses
        atoms = j.atoms()
    total = 0.0
    for ix, iy, m in atoms:
        total += float(m) * math.log2(m / (px[ix] * py[iy]))
    return total


@dataclass(frozen=True)
class AgreementStats:
    """Agreement probability p = P(X = Y) and the conditional pmf of X given X = Y.

    ``conditional`` is over the X alphabet and is None when p = 0 (the
    conditional is undefined; callers must branch on that).
    """

    p: Fraction
    conditional: Pmf | None


def agreement_stats(j: JointPmf | Pmf) -> AgreementStats:
    """Exact P(X = Y) and p_{X|X=Y}, equality by label; a Pmf is Y = X (p = 1)."""
    if isinstance(j, Pmf):
        return AgreementStats(ONE, j)
    diag = []
    p = ZERO
    for ix, x in enumerate(j.x_labels):
        m = j.mass_by_label(x, x)
        diag.append(m)
        p += m
    if p == 0:
        return AgreementStats(ZERO, None)
    return AgreementStats(p, Pmf(j.x_labels, tuple(m / p for m in diag)))
