"""Laws of variable-length binary keys and the randomly-stopped test.

A key is a finite bitstring, represented as a plain ``str`` over '0'/'1'
with "" as the empty key. A ``KeyLaw`` assigns exact rational mass to
finitely many keys plus an explicit tail (mass of keys outside the
enumerated support, e.g. beyond a truncation depth).

The defining property checked here: a key law is *randomly stopped* when,
conditioned on the key continuing past any reachable prefix, the next bit
is exactly fair. Equivalently the key can be produced by cutting an
i.i.d. fair bit stream with a randomized stopping rule; both directions
are implemented (``verify_rsbs``, ``stopping_rule_of``,
``law_from_stopping_rule``) and are exact-rational throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import ValidationError
from .probability import (
    JointPmf,
    Pmf,
    ZERO,
    as_fraction,
    mutual_information,
)

__all__ = [
    "check_bitstring",
    "KeyLaw",
    "PrefixCodebook",
    "StoppingRule",
    "ErrorLengthPair",
    "RsbsViolation",
    "RsbsVerdict",
    "PointwiseVerdict",
    "verify_rsbs",
    "law_from_codebook",
    "concat_laws",
    "stopping_rule_of",
    "law_from_stopping_rule",
    "simulate_stopped_key",
    "pointwise_mass_bound",
    "compose_error_length",
    "converse_bound",
]

_LOG2_3 = 1.584962500721156  # log2(3), double precision
_SIMULATION_DEPTH = 4096  # deepest key simulate_stopped_key draws


def check_bitstring(s: str) -> str:
    """Validate a key string: only '0'/'1' characters ('' is the empty key)."""
    if not isinstance(s, str) or any(c not in "01" for c in s):
        raise ValidationError(f"not a bitstring: {s!r}")
    return s


def _canonical_atoms(masses: Mapping[str, Fraction]) -> tuple[tuple[str, Fraction], ...]:
    return tuple(sorted(masses.items(), key=lambda kv: (len(kv[0]), kv[0])))


@dataclass(frozen=True)
class KeyLaw:
    """Exact law of a variable-length key: finite atoms plus explicit tail.

    Atoms are stored canonically (sorted by length then value) so equal
    laws compare and serialize identically. Atom masses are positive and
    atom masses + tail == 1 exactly.
    """

    atoms: tuple[tuple[str, Fraction], ...]
    tail: Fraction = ZERO

    def __post_init__(self) -> None:
        total = ZERO
        seen = set()
        for k, m in self.atoms:
            check_bitstring(k)
            if k in seen:
                raise ValidationError(f"duplicate key {k!r} in law")
            seen.add(k)
            if not isinstance(m, Fraction) or m <= 0:
                raise ValidationError(f"atom mass for {k!r} must be a positive Fraction")
            total += m
        if self.tail < 0:
            raise ValidationError("tail must be nonnegative")
        if total + self.tail != 1:
            raise ValidationError(
                f"law masses ({total}) plus tail ({self.tail}) must equal 1"
            )
        if self.atoms != _canonical_atoms(dict(self.atoms)):
            raise ValidationError("atoms must be in canonical order; use from_dict")

    @classmethod
    def from_dict(cls, masses: Mapping[str, object], tail=ZERO) -> "KeyLaw":
        cleaned = {}
        for k, m in masses.items():
            fm = as_fraction(m)
            if fm < 0:
                raise ValidationError(f"negative mass for key {k!r}")
            if fm > 0:
                cleaned[check_bitstring(k)] = fm
        return cls(_canonical_atoms(cleaned), as_fraction(tail))

    def max_length(self) -> int:
        return max((len(k) for k, _ in self.atoms), default=0)


@dataclass(frozen=True)
class PrefixCodebook:
    """A finite prefix-free set of codewords; full iff the Kraft sum is 1."""

    codewords: tuple[str, ...]

    def __post_init__(self) -> None:
        words = sorted(check_bitstring(w) for w in self.codewords)
        if len(set(words)) != len(words):
            raise ValidationError("codebook has duplicate codewords")
        for prev, cur in zip(words, words[1:]):
            if cur.startswith(prev):
                raise ValidationError(
                    f"not prefix-free: {prev!r} is a prefix of {cur!r}"
                )
        object.__setattr__(self, "codewords", tuple(words))

    @property
    def kraft_sum(self) -> Fraction:
        return sum((Fraction(1, 1 << len(w)) for w in self.codewords), ZERO)

    @property
    def is_full(self) -> bool:
        return self.kraft_sum == 1

    @property
    def kraft_deficit(self) -> Fraction:
        return 1 - self.kraft_sum


@dataclass(frozen=True)
class StoppingRule:
    """Continuation probabilities rho(u) on the reachable prefixes of a key law.

    rho(u) = P(the key continues past u | it reached u); defined only on
    reachable prefixes, which is exactly the domain of ``table``.
    """

    table: tuple[tuple[str, Fraction], ...]

    def __post_init__(self) -> None:
        for u, r in self.table:
            check_bitstring(u)
            if not isinstance(r, Fraction) or not 0 <= r <= 1:
                raise ValidationError(f"rho({u!r}) = {r} outside [0, 1]")
        if self.table != _canonical_atoms(dict(self.table)):
            raise ValidationError("table must be in canonical order; use from_dict")
        object.__setattr__(self, "_lookup", dict(self.table))

    @classmethod
    def from_dict(cls, table: Mapping[str, object]) -> "StoppingRule":
        return cls(_canonical_atoms({check_bitstring(u): as_fraction(r) for u, r in table.items()}))

    def rho(self, prefix: str) -> Fraction:
        try:
            return self._lookup[prefix]  # type: ignore[attr-defined]
        except KeyError:
            raise ValidationError(
                f"stopping rule undefined on prefix {prefix!r} (not reachable)"
            ) from None


# ---------------------------------------------------------------------------
# Subtree mass accounting shared by the verifier and the rule extractor.


def _subtree_masses(law: KeyLaw, max_depth: int) -> dict[str, Fraction]:
    """C(u) = P(key reaches prefix u) for every prefix u of a support atom."""
    deepest = law.max_length()
    if deepest > max_depth:
        raise ValidationError(
            f"law has an atom of length {deepest}, beyond max depth {max_depth}"
        )
    c: dict[str, Fraction] = {}
    for k, m in law.atoms:
        for i in range(len(k) + 1):
            u = k[:i]
            c[u] = c.get(u, ZERO) + m
    return c


@dataclass(frozen=True)
class RsbsViolation:
    """One failed fairness check: at position n, after ``prefix``, the next
    bit is not conditionally fair. ``p_zero``/``p_one`` are the exact
    conditional next-bit probabilities."""

    position: int
    prefix: str
    p_zero: Fraction
    p_one: Fraction


@dataclass(frozen=True)
class RsbsVerdict:
    valid: bool
    violations: tuple[RsbsViolation, ...]
    checked_prefixes: int
    tail: Fraction
    tail_slack: Fraction | None = None


def verify_rsbs(
    law: KeyLaw,
    max_depth: int = 64,
    tail_slack: Fraction | None = None,
) -> RsbsVerdict:
    """Decide exactly whether a key law is randomly stopped.

    For every reachable prefix u with positive continuation mass D(u),
    checks P(next bit = 0) == P(next bit = 1) == D(u)/2 as exact
    rationals. Zero tolerance by default, which requires tail == 0; a law
    truncated at some depth can instead pass ``tail_slack`` (usually its
    own tail) to accept per-prefix imbalance up to that slack, since the
    unenumerated mass could sit on either side. A negative slack is refused.
    """
    if tail_slack is not None and tail_slack < 0:
        raise ValidationError(f"tail_slack must be >= 0, got {tail_slack}")
    if law.tail > 0 and tail_slack is None:
        raise ValidationError(
            "law has positive tail; exact verification needs tail == 0 "
            "(pass tail_slack to accept bounded imbalance)"
        )
    c = _subtree_masses(law, max_depth)
    violations = []
    checked = 0
    for u in c:
        c0 = c.get(u + "0", ZERO)
        c1 = c.get(u + "1", ZERO)
        cont = c0 + c1
        if cont == 0:
            continue
        checked += 1
        gap = abs(c0 - c1)
        ok = gap == 0 if tail_slack is None else gap <= tail_slack
        if not ok:
            violations.append(
                RsbsViolation(len(u) + 1, u, c0 / cont, c1 / cont)
            )
    violations.sort(key=lambda v: (v.position, v.prefix))
    return RsbsVerdict(
        valid=not violations,
        violations=tuple(violations),
        checked_prefixes=checked,
        tail=law.tail,
        tail_slack=tail_slack,
    )


def law_from_codebook(codebook: PrefixCodebook | Iterable[str]) -> KeyLaw:
    """The law assigning 2**-|k| to each codeword of a full codebook.

    Rejects non-full codebooks, reporting the exact Kraft deficit; a
    prefix-free violation is rejected by the codebook constructor with
    the offending pair.
    """
    if not isinstance(codebook, PrefixCodebook):
        codebook = PrefixCodebook(tuple(codebook))
    if not codebook.is_full:
        raise ValidationError(
            f"codebook is not full: Kraft sum {codebook.kraft_sum}, "
            f"deficit {codebook.kraft_deficit}"
        )
    return KeyLaw.from_dict({w: Fraction(1, 1 << len(w)) for w in codebook.codewords})


def concat_laws(a: KeyLaw, b: KeyLaw) -> KeyLaw:
    """Law of the concatenation of two independent keys.

    mass(s) = sum over splits s = u + v of a(u) * b(v); any tail mass in
    either input propagates to the output tail.
    """
    out: dict[str, Fraction] = {}
    for u, mu in a.atoms:
        for v, mv in b.atoms:
            s = u + v
            out[s] = out.get(s, ZERO) + mu * mv
    tail = 1 - (1 - a.tail) * (1 - b.tail)
    return KeyLaw.from_dict(out, tail)


def stopping_rule_of(law: KeyLaw) -> StoppingRule:
    """Extract rho(u) = P(continue past u | reached u) on reachable prefixes.

    Requires an exact law (tail == 0): a truncated law cannot determine
    continuation probabilities at its frontier.
    """
    if law.tail != 0:
        raise ValidationError("stopping rule extraction requires an exact law (tail 0)")
    c = _subtree_masses(law, max_depth=10**9)
    rho = {}
    for u, cu in c.items():
        cont = c.get(u + "0", ZERO) + c.get(u + "1", ZERO)
        rho[u] = cont / cu
    return StoppingRule.from_dict(rho)


def law_from_stopping_rule(rule: StoppingRule, max_depth: int = 64) -> KeyLaw:
    """Exact law induced by stopping a fair bit stream with ``rule``.

    Walks the prefix tree: reaching u with probability c, the key stops
    at u with mass c * (1 - rho(u)) and continues to each child with
    c * rho(u) / 2. Mass still alive at max_depth goes to the tail.
    """
    masses: dict[str, Fraction] = {}
    tail = ZERO
    stack = [("", Fraction(1))]
    while stack:
        u, reach = stack.pop()
        r = rule.rho(u)
        stop = reach * (1 - r)
        if stop > 0:
            masses[u] = masses.get(u, ZERO) + stop
        cont = reach * r
        if cont > 0:
            if len(u) >= max_depth:
                tail += cont
            else:
                half = cont / 2
                stack.append((u + "0", half))
                stack.append((u + "1", half))
    return KeyLaw.from_dict(masses, tail)


def simulate_stopped_key(rule: StoppingRule, rng) -> str:
    """Sample one key by the stopping dynamics with exact comparisons.

    At each prefix u an independent uniform G is compared exactly against
    rho(u): the walk stops when G >= rho(u), otherwise appends a fair bit.
    """
    u = ""
    while True:
        r = rule.rho(u)
        if rng.lazy_uniform().at_least(r):
            return u
        if len(u) >= _SIMULATION_DEPTH:
            raise ValidationError(
                f"stopping simulation exceeded depth {_SIMULATION_DEPTH}"
            )
        u += "1" if rng.fair_bit() else "0"


@dataclass(frozen=True)
class PointwiseVerdict:
    valid: bool
    violations: tuple[tuple[str, Fraction, Fraction], ...]  # (key, mass, bound)


def pointwise_mass_bound(law: KeyLaw) -> PointwiseVerdict:
    """Check P(K = k) <= 2**-|k| for every enumerated atom.

    Every randomly stopped law satisfies this pointwise bound; it is the
    workhorse inequality behind the key-length converse. Kept as paper
    surface, not as a second verifier: a valid ``verify_rsbs`` on a law
    with no tail implies it. With C(u) the mass reaching prefix u and D(u)
    the mass continuing past it, each split C(ub) = D(u)/2 <= C(u)/2
    gives P(K = k) <= C(k) <= 2**-|k|.
    """
    bad = []
    for k, m in law.atoms:
        bound = Fraction(1, 1 << len(k))
        if m > bound:
            bad.append((k, m, bound))
    return PointwiseVerdict(valid=not bad, violations=tuple(bad))


# ---------------------------------------------------------------------------
# Error-length pairs.

Number = Fraction | float


@dataclass(frozen=True)
class ErrorLengthPair:
    """An (epsilon, ell) guarantee: the protocol errs with probability at
    most epsilon, and the expected length of the agreed ideal key,
    counting errors as length zero, is at least ell bits.

    ell is specifically E[|K| on the event that both parties output the
    ideal key]; it is not E[|K|] alone. Fields are exact Fractions, or
    plain floats where a bound is only known in double precision (the
    ell of ``almost_common_bounds``).
    """

    epsilon: Number
    ell: Number


def compose_error_length(first: ErrorLengthPair, second: ErrorLengthPair) -> ErrorLengthPair:
    """Guarantee achieved by concatenating two independent protocol runs.

    epsilon = min(eps1 + eps2, 1) and
    ell = (1 - eps2) * ell1 + (1 - eps1) * ell2,
    computed as plain arithmetic on the two points, so exact inputs give
    exact outputs.
    """
    e1, l1, e2, l2 = first.epsilon, first.ell, second.epsilon, second.ell
    return ErrorLengthPair(min(e1 + e2, Fraction(1)), (1 - e2) * l1 + (1 - e1) * l2)


def converse_bound(j: JointPmf | Pmf) -> float:
    """Upper bound on any achievable ell: I(X;Y) + log2(3) + 1 bits; a Pmf is Y = X."""
    return mutual_information(j) + _LOG2_3 + 1
