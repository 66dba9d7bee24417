"""Exact finite probability: pmfs, joint pmfs, entropy and mutual information.

Everything protocol-critical in this package is exact: a pmf stores its
masses as integer numerators over one denominator, and hands out
``fractions.Fraction`` views at the API edge; floats appear only in
reported entropies and bound lines. Entropies are double-precision
floats, accurate to a few ulp (at least 15 significant digits for the
supported alphabet sizes).

Symbols are identified by their stable integer index into the alphabet
tuple; labels are a display and serialization map. A ``Pmf`` keeps its
zero-mass symbols, so conditionals over a parent alphabet keep their
indexing; every mass-sensitive operation skips them explicitly. A
``JointPmf`` stores only its positive cells: its cost is O(cells).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import ValidationError

__all__ = [
    "Pmf",
    "JointPmf",
    "AgreementStats",
    "entropy",
    "mutual_information",
    "agreement_stats",
    "as_fraction",
]

ZERO = Fraction(0)
ONE = Fraction(1)


def as_fraction(value) -> Fraction:
    """Coerce an exact value to Fraction, rejecting floats as inexact."""
    if type(value) is Fraction:  # immutable: no copy needed
        return value
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


def _over_one_denominator(nums: list[int], dens: list[int]) -> tuple[list[int], int]:
    """The rationals nums[i] / dens[i], ints with dens positive, as
    numerators over their least common denominator."""
    if not set(map(type, nums)) | set(map(type, dens)) <= {int} or min(dens, default=1) < 1:
        raise ValidationError("ratios must be int pairs with positive denominators")
    den = math.lcm(*dens)
    return [n if d == den else n * (den // d) for n, d in zip(nums, dens)], den


def _public_state(obj) -> dict:
    """Pickle state of a content-hashed dataclass: its public attributes.
    The private ones are derived (the cached hash, label lookups) and the
    receiver rebuilds them; str hashes differ between processes anyway."""
    return {k: v for k, v in vars(obj).items() if not k.startswith("_")}


def _check_denominator(den) -> None:
    if type(den) is not int or den < 1:
        raise ValidationError(f"denominator {den!r} not a positive int")


def _check_total(total: int, den: int, what: str) -> None:
    if total != den:
        total = Fraction(total, den)
        raise ValidationError(f"{what} masses sum to {total}, not 1 (deficit {1 - total})")


@dataclass(frozen=True)
class Pmf:
    """A probability mass function over an ordered finite alphabet.

    The mass of ``labels[i]`` is ``numerators[i]`` over ``denominator``:
    ints, each numerator in [0, denominator], summing to exactly the
    denominator. Zero masses are allowed and retained (the symbol stays
    addressable). The constructor stores them in lowest terms, so equal
    pmfs store equal integers; validation, equality and the content hash
    run on them, and ``masses`` is a ``Fraction`` view built on each read,
    for the API edge and for reports. Pmfs key the engine and stage
    caches, so the content hash is computed once, on first use, and kept
    in ``_hash``; ``index`` reads a label -> index dict built with the
    pmf. Equality, ``repr`` and pickling leave both out.
    """

    labels: tuple[str, ...]
    numerators: tuple[int, ...]
    denominator: int
    _hash: int | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        nums, den = tuple(self.numerators), self.denominator
        _check_denominator(den)
        if set(map(type, nums)) - {int}:
            raise ValidationError("Pmf numerators must be ints")
        if not nums:
            raise ValidationError("alphabet must be nonempty")
        if min(nums) < 0 or max(nums) > den:
            bad = next(n for n in nums if n < 0 or n > den)
            raise ValidationError(f"mass {Fraction(bad, den)} outside [0, 1]")
        _check_total(sum(nums), den, "pmf")
        labels = tuple(self.labels)
        if len(labels) != len(nums):
            raise ValidationError(f"{len(nums)} masses but {len(labels)} labels")
        g = math.gcd(*nums)  # divides den, the numerators' sum
        if g > 1:
            nums, den = tuple(n // g for n in nums), den // g
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "numerators", nums)
        object.__setattr__(self, "denominator", den)
        self._build_index()
        if len(self._index) != len(labels):  # a repeated label keeps one entry
            raise ValidationError("alphabet labels must be distinct")

    def _build_index(self) -> None:
        index = dict(zip(self.labels, range(len(self.labels))))
        object.__setattr__(self, "_index", index)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.labels, self.denominator, self.numerators))
            object.__setattr__(self, "_hash", h)
        return h

    __getstate__ = _public_state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._build_index()

    @classmethod
    def from_masses(cls, masses: Iterable, labels: Sequence[str] | None = None) -> "Pmf":
        ms = [as_fraction(m) for m in masses]
        return cls.from_ratios([m.numerator for m in ms], [m.denominator for m in ms], labels)

    @classmethod
    def from_ratios(
        cls, numerators: list[int], denominators: list[int], labels: Sequence[str] | None = None
    ) -> "Pmf":
        """From the masses numerators[i] / denominators[i], ints with the
        denominators positive, not necessarily in lowest terms."""
        nums, den = _over_one_denominator(numerators, denominators)
        return cls(_default_labels(len(nums)) if labels is None else tuple(labels), nums, den)

    @property
    def masses(self) -> tuple[Fraction, ...]:
        """The masses as ``Fraction``s, built on each read."""
        den = self.denominator
        return tuple(Fraction(n, den) for n in self.numerators)

    def __len__(self) -> int:
        return len(self.numerators)

    def mass(self, i: int) -> Fraction:
        """P(X = labels[i])."""
        return Fraction(self.numerators[i], self.denominator)

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except (KeyError, TypeError):
            raise ValidationError(f"label {label!r} not in alphabet") from None


@dataclass(frozen=True)
class JointPmf:
    """A joint pmf over a pair of ordered finite alphabets, stored sparse.

    ``numerator_cells`` lists each positive-mass cell once, in row-major
    order, as (ix, iy, n): P(X = x_labels[ix], Y = y_labels[iy]) is n over
    ``denominator``. The two alphabets may differ; equality of
    realizations is equality of labels. As for ``Pmf``, the constructor
    stores the integers in lowest terms, and ``atoms()`` is the
    ``Fraction`` view. The content hash is computed once and kept in
    ``_hash``.
    """

    x_labels: tuple[str, ...]
    y_labels: tuple[str, ...]
    numerator_cells: tuple[tuple[int, int, int], ...]
    denominator: int
    _hash: int | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        cells, den = tuple(self.numerator_cells), self.denominator
        _check_denominator(den)
        x_labels, y_labels = tuple(self.x_labels), tuple(self.y_labels)
        nx, ny = len(x_labels), len(y_labels)
        if nx == 0 or ny == 0:
            raise ValidationError("joint alphabets must be nonempty")
        if len(set(x_labels)) != nx or len(set(y_labels)) != ny:
            raise ValidationError("alphabet labels must be distinct")
        nums = []
        last = -1  # row-major position of the previous cell
        for ix, iy, n in cells:
            if not (type(ix) is type(iy) is int and 0 <= ix < nx and 0 <= iy < ny):
                raise ValidationError(f"joint cell ({ix!r}, {iy!r}) outside the alphabets")
            if ix * ny + iy <= last:
                raise ValidationError(f"joint cell ({ix}, {iy}) repeated or out of row-major order")
            last = ix * ny + iy
            if type(n) is not int:
                raise ValidationError(f"joint cell ({ix}, {iy}) numerator {n!r} not an int")
            if n <= 0:
                m = Fraction(n, den)
                raise ValidationError(f"joint cell ({ix}, {iy}) mass {m!r} not a positive Fraction")
            nums.append(n)
        _check_total(sum(nums), den, "joint")
        g = math.gcd(*nums)  # divides den, the numerators' sum
        if g > 1:
            cells, den = tuple((ix, iy, n // g) for ix, iy, n in cells), den // g
        object.__setattr__(self, "x_labels", x_labels)
        object.__setattr__(self, "y_labels", y_labels)
        object.__setattr__(self, "numerator_cells", cells)
        object.__setattr__(self, "denominator", den)
        self._build_index()

    def _build_index(self) -> None:
        xl, yl = self.x_labels, self.y_labels
        by_label = {(xl[ix], yl[iy]): n for ix, iy, n in self.numerator_cells}
        object.__setattr__(self, "_by_label", by_label)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.x_labels, self.y_labels, self.denominator, self.numerator_cells))
            object.__setattr__(self, "_hash", h)
        return h

    __getstate__ = _public_state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._build_index()

    @classmethod
    def from_ratios(
        cls,
        cells: Iterable[tuple[int, int, int, int]],
        x_labels: Sequence[str],
        y_labels: Sequence[str],
    ) -> "JointPmf":
        """From positive-mass cells (ix, iy, numerator, denominator) in
        row-major order, with int parts and positive denominators, not
        necessarily in lowest terms."""
        cells = tuple(cells)
        nums, den = _over_one_denominator([c[2] for c in cells], [c[3] for c in cells])
        scaled = tuple((c[0], c[1], n) for c, n in zip(cells, nums))
        return cls(tuple(x_labels), tuple(y_labels), scaled, den)

    @classmethod
    def from_rows(
        cls,
        rows: Iterable[Iterable],
        x_labels: Sequence[str] | None = None,
        y_labels: Sequence[str] | None = None,
    ) -> "JointPmf":
        """Build from a dense |X| x |Y| matrix of exact masses, dropping zeros."""
        matrix = [tuple(map(as_fraction, row)) for row in rows]
        xl = _default_labels(len(matrix)) if x_labels is None else tuple(x_labels)
        ny = len(matrix[0]) if matrix else 0
        yl = _default_labels(ny) if y_labels is None else tuple(y_labels)
        if len(matrix) != len(xl) or any(len(row) != len(yl) for row in matrix):
            raise ValidationError("joint mass matrix shape does not match alphabets")
        cells = (
            (ix, iy, m.numerator, m.denominator)
            for ix, row in enumerate(matrix)
            for iy, m in enumerate(row)
            if m
        )
        return cls.from_ratios(cells, xl, yl)

    @classmethod
    def from_atoms(
        cls,
        atoms: Iterable[tuple[str, str, Fraction]],
        x_labels: Sequence[str],
        y_labels: Sequence[str],
    ) -> "JointPmf":
        """Build from (x label, y label, mass) atoms, adding up repeated cells."""
        xl, yl = tuple(x_labels), tuple(y_labels)
        x_index = {label: i for i, label in enumerate(xl)}
        y_index = {label: i for i, label in enumerate(yl)}
        acc: dict[tuple[int, int], Fraction] = {}
        for x, y, m in atoms:
            if x not in x_index or y not in y_index:
                bad = y if x in x_index else x
                raise ValidationError(f"atom label {bad!r} outside the joint's alphabets")
            key, m = (x_index[x], y_index[y]), as_fraction(m)
            prev = acc.get(key)
            acc[key] = m if prev is None else prev + m
        cells = ((ix, iy, m.numerator, m.denominator) for (ix, iy), m in sorted(acc.items()) if m)
        return cls.from_ratios(cells, xl, yl)

    def mass_by_label(self, x: str, y: str) -> Fraction:
        """P(X = x, Y = y); zero for a zero cell or a label outside the alphabets."""
        n = self._by_label.get((x, y))
        return ZERO if n is None else Fraction(n, self.denominator)

    def numerator_by_label(self, x: str, y: str) -> int:
        """P(X = x, Y = y) times ``denominator``, an int; zero off the cells."""
        return self._by_label.get((x, y), 0)

    def _marginal(self, labels: tuple[str, ...], side: int) -> Pmf:
        nums = [0] * len(labels)
        for cell in self.numerator_cells:
            nums[cell[side]] += cell[2]
        return Pmf(labels, nums, self.denominator)

    def marginal_x(self) -> Pmf:
        return self._marginal(self.x_labels, 0)

    def marginal_y(self) -> Pmf:
        return self._marginal(self.y_labels, 1)

    def atoms(self) -> tuple[tuple[int, int, Fraction], ...]:
        """(ix, iy, mass) over the positive-mass cells, in row-major order,
        with the masses as ``Fraction``s built on each read."""
        den = self.denominator
        return tuple((ix, iy, Fraction(n, den)) for ix, iy, n in self.numerator_cells)


# ---------------------------------------------------------------------------
# Entropy and mutual information.


def entropy(p: Pmf) -> float:
    """Shannon entropy in bits of a Pmf, double precision.

    The masses are read from the pmf's integers: ``n / d`` rounds as
    ``float(Fraction(n, d))`` does, and a mass that rounds to 0.0 adds
    nothing. Terms are summed with math.fsum; the result is accurate to a
    few ulp (at least 15 significant digits).
    """
    masses = [n / p.denominator for n in p.numerators if n]
    return math.fsum(-m * math.log2(m) for m in masses if m)


def mutual_information(j: JointPmf | Pmf) -> float:
    """I(X;Y) in bits, double precision; a Pmf stands for the source Y = X.

    Each term takes one log of the exact rational ratio
    p(x,y) / (p(x) p(y)) = n d / (a b), read from the integers: n the
    cell's numerator, a and b its row's and column's numerator sums, d the
    denominator. An int true division rounds correctly, so the ratio's
    float is the one its ``Fraction`` gives, and a factorizing joint
    returns exactly 0.0 instead of the float residue an
    H(X) + H(Y) - H(X,Y) rearrangement would leave. A mass that rounds to
    0.0 adds nothing, and a ratio past the float range is logged from its
    numerator and denominator in lowest terms.
    """
    d = j.denominator
    if isinstance(j, Pmf):  # the atoms of Y = X lie on the diagonal
        rows = cols = j.numerators
        cells = ((i, i, n) for i, n in enumerate(rows) if n)
    else:
        rows, cols = [0] * len(j.x_labels), [0] * len(j.y_labels)
        for ix, iy, n in j.numerator_cells:
            rows[ix] += n
            cols[iy] += n
        cells = j.numerator_cells
    total = 0.0
    for ix, iy, n in cells:
        if mass := n / d:
            num, den = n * d, rows[ix] * cols[iy]
            try:
                total += mass * math.log2(num / den)
            except OverflowError:  # num / den >= n / d: only past the top of the range
                g = math.gcd(num, den)
                total += mass * (math.log2(num // g) - math.log2(den // g))
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
    diag = [j.numerator_by_label(x, x) for x in j.x_labels]
    total = sum(diag)
    if total == 0:
        return AgreementStats(ZERO, None)
    p = Fraction(total, j.denominator)
    return AgreementStats(p, Pmf(j.x_labels, diag, total))
