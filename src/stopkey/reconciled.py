"""Key agreement from imperfectly correlated sources.

Two protocols build on the common-randomness scheme. The hash-check
protocol covers sources that agree with probability p: Alice announces a
bucket index for her symbol, Bob confirms or aborts, and on confirmation
the pair runs the common scheme on the conditional law of the shared
symbol given the bucket (with the sender and receiver roles swapped, so
the confirming side draws the round index). The two-stage pipeline
covers general sources: a pluggable reconciliation stage first drives
the parties to highly correlated values, then the hash-check protocol
finishes on the exact conditional law given the reconciliation
transcript.
"""

from __future__ import annotations

import itertools
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Any, Iterator, Mapping, Sequence

from .common import KeyAgreeEngine, engine_for
from .dyadic import KnuthYaoSampler
from .errors import InvariantError, ReconcilerContractError, ValidationError
from .keylaws import ErrorLengthPair, KeyLaw
from .probability import (
    ONE,
    ZERO,
    JointPmf,
    Pmf,
    _state_without_hash,
    agreement_stats,
    entropy,
    entropy_interval,
    log2_interval,
)
from .randomsource import RandomSource

ERROR_SYMBOL = "e"

# A transcript is an ordered tuple of (sender, kind, value) records.
Record = tuple[str, str, Any]
Transcript = tuple[Record, ...]
# the (M_A, M_B, mass) atoms of one stage-one transcript
Atoms = tuple[tuple[Any, Any, Fraction], ...]


def union_alphabet(j: JointPmf) -> tuple[str, ...]:
    """X labels followed by the Y labels not already present."""
    extra = tuple(y for y in j.y_labels if y not in j.x_labels)
    return j.x_labels + extra


@dataclass(frozen=True)
class HashFunction:
    """Total map from an alphabet into buckets {1..m}.

    ``values[i]`` is the bucket of ``labels[i]``. Provenance records how
    the table was produced: derandomized tables are "fixed", uniformly
    drawn ones "random-seeded". Tables key the stage-two caches, so the
    content hash is computed once and kept in ``_hash``.
    """

    labels: tuple[str, ...]
    values: tuple[int, ...]
    m: int
    provenance: str = "fixed"
    _hash: int | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "values", tuple(self.values))
        if self.m < 1:
            raise ValidationError("bucket count m must be >= 1")
        if len(set(self.labels)) != len(self.labels):
            raise ValidationError("hash domain has duplicate labels")
        if len(self.values) != len(self.labels):
            raise ValidationError("one bucket value per label required")
        for v in self.values:
            if not isinstance(v, int) or not 1 <= v <= self.m:
                raise ValidationError(f"bucket value {v!r} outside 1..{self.m}")

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.labels, self.values, self.m, self.provenance))
            object.__setattr__(self, "_hash", h)
        return h

    __getstate__ = _state_without_hash

    def __call__(self, label: str) -> int:
        try:
            return self.values[self.labels.index(label)]
        except ValueError:
            raise ValidationError(
                f"label {label!r} outside the hash domain"
            ) from None

    @classmethod
    def random(
        cls, labels: Sequence[str], m: int, rng: RandomSource
    ) -> "HashFunction":
        if m < 1:
            raise ValidationError("bucket count m must be >= 1")
        values = tuple(rng.randrange(m) + 1 for _ in labels)
        return cls(tuple(labels), values, m, provenance="random-seeded")


def all_hash_tables(labels: Sequence[str], m: int) -> Iterator[HashFunction]:
    """Every table from the labels into {1..m}: m ** len(labels) of them."""
    labels = tuple(labels)
    for values in itertools.product(range(1, m + 1), repeat=len(labels)):
        yield HashFunction(labels, values, m)


def collision_error(j: JointPmf, h: HashFunction) -> Fraction:
    """Exact P(h(X) = h(Y), X != Y): the mass the proof charges as error."""
    total = ZERO
    for ix, iy, mass in j.atoms():
        xl, yl = j.x_labels[ix], j.y_labels[iy]
        if xl != yl and h(xl) == h(yl):
            total += mass
    return total


@lru_cache(maxsize=1024)
def stage_conditional(j: JointPmf, h: HashFunction, w1: int) -> Pmf | None:
    """p_{X | X = Y, h(X) = w1}, or None when the bucket has no agreement mass.

    Kept over the full union alphabet (zero mass off the bucket) so both
    parties index the same round structure whatever symbol they hold.
    Costs O(|X| + |Y|) given the joint.
    """
    labels = union_alphabet(j)
    masses = [
        j.mass_by_label(u, u) if h(u) == w1 else ZERO for u in labels
    ]
    total = sum(masses, ZERO)
    if total == 0:
        return None
    return Pmf(labels, tuple(mv / total for mv in masses))


def _stage2_records(w1: int, w2: int | None) -> Transcript:
    second: Record = (
        ("bob", "error", ERROR_SYMBOL) if w2 is None else ("bob", "round", w2)
    )
    return (("alice", "hash", w1), second)


@dataclass(frozen=True)
class AlmostCommonRun:
    """One hash-check execution: announcement, confirm-or-abort, keys.

    ``w2`` is None on the abort path (Bob's error symbol). The ideal key
    equals the common key when the parties held the same symbol and is
    empty otherwise; an abort emits empty keys on all three slots, which
    counts as agreement.
    """

    x: Any
    y: Any
    w1: int
    w2: int | None
    key_a: str
    key_b: str
    ideal_key: str

    def __post_init__(self) -> None:
        if self.w2 is None and (self.key_a or self.key_b or self.ideal_key):
            raise InvariantError("abort path must emit empty keys")
        if self.w2 is not None and self.w2 < 1:
            raise InvariantError(f"round index {self.w2} out of range")

    @property
    def erred(self) -> bool:
        return self.w2 is None

    @property
    def agreed(self) -> bool:
        return self.key_a == self.key_b == self.ideal_key

    @property
    def transcript(self) -> Transcript:
        """Both message slots, logged even when the second is the error symbol."""
        return _stage2_records(self.w1, self.w2)


def _bucket_check(
    j: JointPmf, h: HashFunction, x: str, y: str
) -> tuple[int, tuple[KeyAgreeEngine, int, int] | None]:
    """Alice's announcement w1 = h(x) and Bob's confirm-or-abort.

    Bob aborts, giving (w1, None), when h(y) != w1 or when the bucket has
    no agreement mass (only reachable with x != y). On confirmation it
    gives (w1, (engine, xi, yi)): the bucket conditional's engine and
    both symbols' indices in it.
    """
    w1 = h(x)
    if h(y) != w1:
        return w1, None
    p_star = stage_conditional(j, h, w1)
    if p_star is None:
        return w1, None
    return w1, (engine_for(p_star), p_star.index(x), p_star.index(y))


def _stage2_keys(eng: KeyAgreeEngine, xi: int, yi: int, w2: int) -> tuple[str, str]:
    """(key_a, key_b) once Bob announces round w2 on the bucket conditional.

    Each party emits its symbol's round-w2 codeword; a party whose symbol
    has no chunk there (zero bucket mass included) falls back to the
    round's first codeword.
    """

    def key(i: int) -> str:
        code = eng.codeword(w2, i)
        return eng.first_codeword(w2) if code is None else code

    return key(xi), key(yi)


def almost_common_keygen(
    j: JointPmf, x: str, y: str, m: int, h: HashFunction, rng: RandomSource
) -> AlmostCommonRun:
    """Run the hash-check protocol on one source outcome (x, y).

    Alice announces w1 = h(x). On h(y) != w1 Bob aborts and both emit
    empty keys. Otherwise the pair runs the common scheme on the bucket
    conditional, roles swapped: Bob draws the round index from his
    symbol's stopping law and Alice replays that round. A party whose
    symbol has no chunk there falls back to the round's first codeword
    (Bob additionally pins the round to 1 when his symbol has no bucket
    mass at all); fallbacks only arise on outcomes already charged as
    collision errors, never when x = y.
    """
    if m < 1:
        raise ValidationError("bucket count m must be >= 1")
    if h.m != m:
        raise ValidationError(f"hash has {h.m} buckets, expected {m}")
    w1, stage = _bucket_check(j, h, x, y)
    if stage is None:
        return AlmostCommonRun(x, y, w1, None, "", "", "")
    eng, xi, yi = stage
    # W is the only draw; everything after it is _stage2_keys
    w2 = eng.alice(yi, rng)[1] if eng.pmf.masses[yi] > 0 else 1
    key_a, key_b = _stage2_keys(eng, xi, yi, w2)
    ideal = key_a if x == y else ""
    return AlmostCommonRun(x, y, w1, w2, key_a, key_b, ideal)


def almost_common_bounds(j: JointPmf, m: int) -> ErrorLengthPair:
    """Guaranteed (error, length) pair for the hash-check protocol.

    epsilon = (1 - p)/m exactly, with p = P(X = Y); ell is
    p (H(X | X = Y) - log2 m - 2), returned raw. A negative ell means
    the length guarantee is vacuous; reporting layers floor it at zero.
    """
    if m < 1:
        raise ValidationError("bucket count m must be >= 1")
    stats = agreement_stats(j)
    if stats.conditional is None:
        raise ValidationError("P(X = Y) = 0: the protocol guarantees nothing")
    eps = (1 - stats.p) / m
    ell = float(stats.p) * (entropy(stats.conditional) - math.log2(m) - 2.0)
    return ErrorLengthPair(eps, ell)


@dataclass(frozen=True)
class AlmostCommonAnalysis:
    """Exact accounting of one hash table against the joint.

    ``collision_error`` is the mass the proof argument charges: outcomes
    with distinct symbols in a shared bucket. ``error_enumerated`` is
    the disagreement mass actually resolved within w_max rounds, and
    ``unresolved`` is collision mass whose round index exceeded w_max,
    counted against the protocol in ``error_upper``. ``agreed_length``
    is the resolved part of E[|K| ; all three keys equal], a lower
    bound (truncation only discards agreement mass of same-symbol
    outcomes). ``transcript_laws`` maps (w1, w2) transcripts, w2 = None
    for the abort path, to the exact conditional law of the ideal key.

    An average over ``tables`` = m^|X| uniform tables carries no laws. It
    is formed over bucket contents: each set S of two or more labels is
    weighted by the probability that a uniform table puts exactly S in
    x's bucket, and contributes the analysis of the table holding S in
    one bucket and every other label alone. Its ``collision_error``
    equals (1 - p)/m exactly, since distinct symbols share a bucket with
    probability exactly 1/m under a uniform table.
    """

    m: int
    p: Fraction
    epsilon_bound: Fraction
    collision_error: Fraction
    error_enumerated: Fraction
    unresolved: Fraction
    agreed_length: Fraction
    w_max: int
    transcript_laws: Mapping[tuple[int, int | None], KeyLaw] | None = None
    tables: int = 1

    @property
    def error_upper(self) -> Fraction:
        return self.error_enumerated + self.unresolved


def analyze_almost_common(
    j: JointPmf, h: HashFunction, w_max: int = 30, collect_laws: bool = True
) -> AlmostCommonAnalysis:
    """Enumerate every (outcome, bucket, round) path of the protocol exactly."""
    stats = agreement_stats(j)
    bound = (1 - stats.p) / h.m
    col = collision_error(j, h)
    err = ZERO
    unresolved = ZERO
    length = ZERO
    acc: dict[tuple[int, int | None], dict[str, Fraction]] = {}

    def law_add(transcript, key, mass):
        bucket = acc.setdefault(transcript, {})
        bucket[key] = bucket.get(key, ZERO) + mass

    for ix, iy, mass in j.atoms():
        xl, yl = j.x_labels[ix], j.y_labels[iy]
        same = xl == yl
        w1, stage = _bucket_check(j, h, xl, yl)
        if stage is None:
            if collect_laws:
                law_add((w1, None), "", mass)
            continue
        eng, xi, yi = stage
        # Bob's round law; with no bucket mass he pins the round to 1
        if eng.pmf.masses[yi] > 0:
            rounds = eng.round_distribution(yi, w_max)
        else:
            rounds = [(1, ONE)]
        seen = ZERO
        for w2, q in rounds:
            seen += q
            key_a, key_b = _stage2_keys(eng, xi, yi, w2)
            ideal = key_a if same else ""
            if collect_laws:
                law_add((w1, w2), ideal, mass * q)
            if key_a == key_b == ideal:
                length += mass * q * len(ideal)
            else:
                err += mass * q
        if not same:
            # Same-symbol outcomes agree in every round, so only the
            # collision tail stays unresolved by the truncation.
            unresolved += mass * (1 - seen)

    laws = None
    if collect_laws:
        laws = {}
        order = sorted(acc, key=lambda t: (t[0], t[1] is not None, t[1] or 0))
        for t in order:
            bucket = acc[t]
            total = sum(bucket.values(), ZERO)
            laws[t] = KeyLaw.from_dict({k: v / total for k, v in bucket.items()})
    return AlmostCommonAnalysis(
        h.m, stats.p, bound, col, err, unresolved, length, w_max, laws
    )


# bucket contents averaged over, at most; 16 labels fit at any m
SUBSET_LIMIT = 65536


def average_almost_common(j: JointPmf, m: int, w_max: int = 30) -> AlmostCommonAnalysis:
    """Exact analysis averaged over every hash table (a uniform pick).

    An outcome's contribution depends only on the set S of labels sharing
    x's bucket, which a uniform table makes exactly S with probability
    m^-(|S| - 1) (1 - 1/m)^(|X| - |S|). So the average sums, over each S
    with |S| >= 2, that weight times the analysis of the table putting S
    in one bucket and every other label in a bucket of its own; a
    singleton bucket has a point-mass conditional and adds nothing. That
    is 2^|X| - |X| - 1 analyses whatever m is, standing for m^|X| tables.
    """
    if m < 1:
        raise ValidationError("bucket count m must be >= 1")
    labels = union_alphabet(j)
    n = len(labels)
    # every S with |S| >= 2 at m >= 2; only S = X at m = 1, the one table
    count = 1 if m == 1 else (1 << n) - n - 1
    if count > SUBSET_LIMIT:
        raise ValidationError(
            f"{count} bucket contents exceed the enumeration limit {SUBSET_LIMIT}"
        )
    col = ZERO
    err = ZERO
    unresolved = ZERO
    length = ZERO
    p = agreement_stats(j).p
    bound = (1 - p) / m
    miss = 1 - Fraction(1, m)
    for size in range(2 if m > 1 else n, n + 1):
        weight = miss ** (n - size) / m ** (size - 1)
        for members in itertools.combinations(range(n), size):
            values = [1] * n
            rest = (i for i in range(n) if i not in members)
            for bucket, i in enumerate(rest, start=2):
                values[i] = bucket
            h = HashFunction(labels, tuple(values), n - size + 1)
            a = analyze_almost_common(j, h, w_max=w_max, collect_laws=False)
            col += weight * a.collision_error
            err += weight * a.error_enumerated
            unresolved += weight * a.unresolved
            length += weight * a.agreed_length
    if col != bound:
        raise InvariantError(f"averaged collision error {col} is not (1 - p)/m = {bound}")
    return AlmostCommonAnalysis(
        m, p, bound, col, err, unresolved, length, w_max, tables=m**n
    )


def derandomize_hash(j: JointPmf, m: int) -> tuple[HashFunction, Fraction]:
    """Pick a fixed hash table meeting the (1 - p)/m collision bound.

    Exhaustive search when the table space is small, otherwise a greedy
    pass assigning one label at a time to the bucket minimizing the
    collision mass against the labels already placed. The average over
    uniform tables is exactly (1 - p)/m, so both the minimum and the
    greedy table (average over uniform completions, label by label) meet
    the bound unconditionally.
    """
    if m < 1:
        raise ValidationError("bucket count m must be >= 1")
    bound = (1 - agreement_stats(j).p) / m

    labels = union_alphabet(j)
    if m ** len(labels) <= 4096:
        best = None
        best_err = None
        for h in all_hash_tables(labels, m):
            e = collision_error(j, h)
            if best_err is None or e < best_err:
                best, best_err = h, e
        assert best is not None and best_err is not None
        if best_err > bound:
            raise InvariantError(
                f"exhaustive minimum {best_err} exceeds the average {bound}"
            )
        return best, best_err

    # label -> row and column, built once, so each pair lookup is O(1)
    rows = {label: j.masses[i] for i, label in enumerate(j.x_labels)}
    cols = {label: i for i, label in enumerate(j.y_labels)}

    def mass(x: str, y: str) -> Fraction:
        row, col = rows.get(x), cols.get(y)
        return ZERO if row is None or col is None else row[col]

    def pair_mass(u: str, t: str) -> Fraction:
        return mass(u, t) + mass(t, u)

    placed: dict[str, int] = {}
    for u in labels:
        # the placed labels fill at most len(placed) buckets, so a zero-cost
        # bucket is among the first len(placed) + 1 and no later one can win
        cost = [ZERO] * min(m, len(placed) + 1)
        for t, v in placed.items():
            w = pair_mass(u, t)
            if w:
                cost[v - 1] += w
        placed[u] = min(range(len(cost)), key=lambda b: (cost[b], b)) + 1
    h = HashFunction(labels, tuple(placed[u] for u in labels), m)
    err = collision_error(j, h)
    if err > bound:
        raise InvariantError(f"greedy table error {err} exceeds {bound}")
    return h, err


# ---------------------------------------------------------------------------
# Two-stage pipeline for general sources.


@dataclass(frozen=True)
class ReconcilerResult:
    """Stage-one output: each party's value and each party's transcript view."""

    m_a: Any
    m_b: Any
    transcript_a: Transcript
    transcript_b: Transcript


class Reconciler(ABC):
    """Stage-one interface: drive (x, y) to a highly correlated pair.

    Stage one is public discussion: ``run`` is a deterministic map of the
    outcome, and any public randomness it uses is fixed when the
    reconciler is built, as the sketch seed is. So its exact law is the
    source law pushed through ``run``, and stage two conditions on the
    transcripts the sampler realizes. Implementations must be stateless
    across runs.
    """

    name = "reconciler"

    def __init__(self) -> None:
        self._laws: dict[JointPmf, dict[Transcript, Atoms]] = {}

    @abstractmethod
    def run(self, j: JointPmf, x: str, y: str) -> ReconcilerResult:
        """Produce (M_A, M_B) and both transcript views for one outcome."""

    @abstractmethod
    def conditional_joint(self, j: JointPmf, transcript: Transcript) -> JointPmf:
        """Exact law of (M_A, M_B) given the transcript."""

    def pushforward(self, j: JointPmf) -> dict[Transcript, Atoms]:
        """(M_A, M_B, mass) atoms of each realizable transcript, in sorted order.

        Every positive-mass cell of the source goes through ``run`` once;
        the result is memoized per source.
        """
        law = self._laws.get(j)
        if law is None:
            groups: dict[Transcript, list[tuple[Any, Any, Fraction]]] = {}
            for ix, iy, mass in j.atoms():
                res = _stage_one(self, j, j.x_labels[ix], j.y_labels[iy])
                groups.setdefault(res.transcript_a, []).append((res.m_a, res.m_b, mass))
            law = self._laws.setdefault(j, {t: tuple(groups[t]) for t in sorted(groups)})
        return law

    def transcript_weights(
        self, j: JointPmf
    ) -> tuple[tuple[Transcript, Fraction], ...]:
        """Every realizable transcript with its exact probability."""
        return tuple(
            (t, sum((mass for _, _, mass in atoms), ZERO))
            for t, atoms in self.pushforward(j).items()
        )


def _stage_one(r: Reconciler, j: JointPmf, x: str, y: str) -> ReconcilerResult:
    """Run stage one on (x, y); diverging transcript views are fatal.

    The sampler and the pushforward both call it, so the exact law is
    never derived from a reconciler the sampler would refuse.
    """
    res = r.run(j, x, y)
    if res.transcript_a != res.transcript_b:
        raise ReconcilerContractError(
            f"reconciler {r.name!r} produced diverging transcripts: "
            f"{res.transcript_a!r} for Alice, {res.transcript_b!r} for Bob"
        )
    return res


class IdentityReconciler(Reconciler):
    """No communication; the parties keep their raw symbols."""

    name = "identity"

    def run(self, j, x, y):
        return ReconcilerResult(x, y, (), ())

    def conditional_joint(self, j, transcript):
        if transcript != ():
            raise ValidationError("identity reconciler has an empty transcript")
        return j


class ConstantReconciler(Reconciler):
    """Both parties output a fixed symbol; nothing of the source survives."""

    name = "constant"

    value = "0"

    def __init__(self):
        super().__init__()
        self._joint = JointPmf.from_rows(((ONE,),), (self.value,), (self.value,))

    def run(self, j, x, y):
        return ReconcilerResult(self.value, self.value, (), ())

    def conditional_joint(self, j, transcript):
        if transcript != ():
            raise ValidationError("constant reconciler has an empty transcript")
        return self._joint


class OneWayHashReconciler(Reconciler):
    """Alice sends a short seeded sketch of x; Bob decodes by posterior.

    The sketch is a b-bit table value drawn per label from a seeded
    stream. Bob outputs the sketch-consistent symbol with the highest
    posterior given his y (ties to the smallest alphabet index); M_A is
    x itself.

    The conditional joint depends only on the source and the transcript,
    so it is built once per (source, transcript) and memoized: every
    later trial on that transcript gets the same ``JointPmf`` object, and
    the stage-two caches keyed by it hit on identity.
    """

    name = "one-way-hash"

    def __init__(self, bits: int, seed: int | str = 0):
        if bits < 1:
            raise ValidationError("sketch width must be at least 1 bit")
        super().__init__()
        self.bits = int(bits)
        self.seed = seed
        self._tables: dict[tuple[str, ...], dict[str, int]] = {}
        self._joints: dict[tuple[JointPmf, Transcript], JointPmf] = {}

    def sketch_table(self, j: JointPmf) -> dict[str, int]:
        table = self._tables.get(j.x_labels)
        if table is None:
            src = RandomSource(self.seed)
            table = {
                xl: src.substream("sketch", xl).randrange(1 << self.bits)
                for xl in j.x_labels
            }
            self._tables[j.x_labels] = table
        return table

    def _decode(self, j: JointPmf, yl: str, sketch: int, table) -> str:
        try:
            iy = j.y_labels.index(yl)
        except ValueError:
            raise ValidationError(f"label {yl!r} outside the joint's y alphabet") from None
        best = None
        best_mass = ZERO
        for xl, row in zip(j.x_labels, j.masses):
            if table[xl] == sketch and row[iy] > best_mass:
                best, best_mass = xl, row[iy]
        if best is None:
            raise InvariantError("no sketch-consistent symbol has posterior mass")
        return best

    def run(self, j, x, y):
        table = self.sketch_table(j)
        if x not in table:
            raise ValidationError(f"label {x!r} outside the joint's x alphabet")
        s = table[x]
        t: Transcript = (("alice", "sketch", s),)
        return ReconcilerResult(x, self._decode(j, y, s, table), t, t)

    def conditional_joint(self, j, transcript):
        key = (j, transcript)
        cj = self._joints.get(key)
        if cj is None:
            # only a successful build is stored; racing builders all
            # return the first one stored
            cj = self._joints.setdefault(key, self._build_conditional(j, transcript))
        return cj

    def _build_conditional(self, j: JointPmf, transcript: Transcript) -> JointPmf:
        atoms = self.pushforward(j).get(transcript)
        if atoms is None:
            raise ValidationError(f"transcript {transcript!r} has zero probability")
        total = sum((mass for _, _, mass in atoms), ZERO)
        scaled = [(a, b, mass / total) for a, b, mass in atoms]
        return JointPmf.from_atoms(scaled, j.x_labels, j.x_labels)


@lru_cache(maxsize=64)
def _atom_sampler(j: JointPmf) -> tuple[KnuthYaoSampler, tuple[tuple[str, str], ...]]:
    """A sampler over the positive-mass cells, and the (x, y) label pair of each."""
    atoms = tuple(j.atoms())
    cells = tuple((j.x_labels[ix], j.y_labels[iy]) for ix, iy, _ in atoms)
    return KnuthYaoSampler(Pmf.from_masses(mass for _, _, mass in atoms)), cells


def sample_joint(j: JointPmf, rng: RandomSource) -> tuple[str, str]:
    """Draw one source outcome exactly, at near-entropy fair-bit cost."""
    sampler, cells = _atom_sampler(j)
    return cells[sampler.sample(rng)[0]]


@lru_cache(maxsize=512)
def _stage2_hash(cj: JointPmf, m: int) -> HashFunction:
    return derandomize_hash(cj, m)[0]


@dataclass(frozen=True)
class CorrelatedRun:
    """One two-stage execution: reconciliation then hash-check keygen.

    The final keys are the stage-two keys; the ideal key is empty
    whenever the reconciled values differ.
    """

    x: Any
    y: Any
    m_a: Any
    m_b: Any
    stage1_transcript: Transcript
    stage2: AlmostCommonRun

    @property
    def key_a(self) -> str:
        return self.stage2.key_a

    @property
    def key_b(self) -> str:
        return self.stage2.key_b

    @property
    def ideal_key(self) -> str:
        return self.stage2.ideal_key

    @property
    def agreed(self) -> bool:
        return self.stage2.agreed

    @property
    def transcript(self) -> Transcript:
        return self.stage1_transcript + self.stage2.transcript


def correlated_keygen(
    j: JointPmf, r: Reconciler, m: int, rng: RandomSource
) -> CorrelatedRun:
    """Sample a source outcome and run the full two-stage pipeline.

    Stage one runs the reconciler; diverging transcript views between
    the parties are a contract violation and fatal. Stage two runs the
    hash-check protocol on the exact conditional law of (M_A, M_B)
    given the realized transcript, under a derandomized hash table
    fixed per conditional law.
    """
    if m < 1:
        raise ValidationError("bucket count m must be >= 1")
    x, y = sample_joint(j, rng.substream("source"))
    res = _stage_one(r, j, x, y)
    cj = r.conditional_joint(j, res.transcript_a)
    h = _stage2_hash(cj, m)
    run2 = almost_common_keygen(cj, res.m_a, res.m_b, m, h, rng.substream("stage2"))
    return CorrelatedRun(x, y, res.m_a, res.m_b, res.transcript_a, run2)


@dataclass(frozen=True)
class ReconcilerStats:
    """Exact agreement statistics of a reconciler against a joint.

    ``p_agree`` is P(M_A = M_B). The entropy fields describe M_A given
    both the transcript and the agreement event, averaged over
    transcripts given agreement: exactly the quantities the composition
    floor is stated in.
    """

    p_agree: Fraction
    conditional_entropy: float
    conditional_entropy_interval: tuple[Fraction, Fraction]

    def floor(self, m: int) -> float:
        """p_agree * H(M_A | transcript, agree) - log2 m - 2."""
        return float(self.p_agree) * self.conditional_entropy - math.log2(m) - 2.0

    def floor_interval(self, m: int) -> tuple[Fraction, Fraction]:
        h_lo, h_hi = self.conditional_entropy_interval
        l2_lo, l2_hi = log2_interval(Fraction(m))
        return (
            self.p_agree * h_lo - l2_hi - 2,
            self.p_agree * h_hi - l2_lo - 2,
        )


def reconciler_stats(j: JointPmf, r: Reconciler) -> ReconcilerStats:
    """Enumerate the reconciler's transcripts and average exactly."""
    terms = []
    p_agree = ZERO
    for t, wt in r.transcript_weights(j):
        stats = agreement_stats(r.conditional_joint(j, t))
        if stats.p == 0:
            continue
        mass = wt * stats.p
        p_agree += mass
        terms.append((mass, stats.conditional))
    if p_agree == 0:
        return ReconcilerStats(ZERO, 0.0, (ZERO, ZERO))
    h = 0.0
    lo = ZERO
    hi = ZERO
    for mass, cond in terms:
        weight = mass / p_agree
        h += float(weight) * entropy(cond)
        c_lo, c_hi = entropy_interval(cond)
        lo += weight * c_lo
        hi += weight * c_hi
    return ReconcilerStats(p_agree, h, (lo, hi))


def correlated_transcript_laws(
    j: JointPmf, r: Reconciler, m: int, w_max: int = 30
) -> dict[Transcript, KeyLaw]:
    """Conditional ideal-key law for every full transcript of the pipeline.

    Keys are the stage-one transcript extended by the two stage-two
    records; each law is exact for round indices up to w_max.
    """
    out: dict[Transcript, KeyLaw] = {}
    for t in r.pushforward(j):
        cj = r.conditional_joint(j, t)
        h = _stage2_hash(cj, m)
        analysis = analyze_almost_common(cj, h, w_max=w_max, collect_laws=True)
        assert analysis.transcript_laws is not None
        for (w1, w2), law in analysis.transcript_laws.items():
            out[t + _stage2_records(w1, w2)] = law
    return out


def correlated_reference_bound(i, m: int) -> float:
    """Reference line I - 2 log2(I + 1) - log2 m - 9.04 for reports.

    The reconciliation stage that would achieve it lives in cited prior
    work and is not shipped; reports print this as a reference line,
    never as an asserted achievement.
    """
    i = float(i)
    if i < 0:
        raise ValidationError("mutual information must be nonnegative")
    if m < 1:
        raise ValidationError("bucket count m must be >= 1")
    return i - 2.0 * math.log2(i + 1.0) - math.log2(m) - 9.04
