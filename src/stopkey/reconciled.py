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
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Any, Iterator, Mapping, NamedTuple, Sequence

from .common import KeyAgreeEngine, _unpack_code, engine_for
from .dyadic import KnuthYaoSampler
from .errors import InvariantError, ReconcilerContractError, ValidationError
from .keylaws import ErrorLengthPair, KeyLaw
from .probability import (
    ONE,
    ZERO,
    JointPmf,
    Pmf,
    _public_state,
    agreement_stats,
    entropy,
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
    xs = set(j.x_labels)
    return j.x_labels + tuple(y for y in j.y_labels if y not in xs)


@dataclass(frozen=True)
class HashFunction:
    """Total map from an alphabet into buckets {1..m}.

    ``values[i]`` is the bucket of ``labels[i]``. Provenance records how
    the table was produced: derandomized tables are "fixed", uniformly
    drawn ones "random-seeded". Tables key the stage-two caches, so the
    content hash is computed once and kept in ``_hash``. A call is one
    lookup in the label -> bucket dict ``_buckets``, built with the table;
    neither is compared, hashed or pickled.
    """

    labels: tuple[str, ...]
    values: tuple[int, ...]
    m: int
    provenance: str = "fixed"
    _hash: int | None = field(default=None, init=False, repr=False, compare=False)
    _buckets: dict | None = field(default=None, init=False, repr=False, compare=False)

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
        object.__setattr__(self, "_buckets", dict(zip(self.labels, self.values)))

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.labels, self.values, self.m, self.provenance))
            object.__setattr__(self, "_hash", h)
        return h

    __getstate__ = _public_state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        object.__setattr__(self, "_buckets", dict(zip(self.labels, self.values)))

    def __call__(self, label: str) -> int:
        try:
            return self._buckets[label]
        except KeyError:
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
    total = 0
    for ix, iy, n in j.numerator_cells:
        xl, yl = j.x_labels[ix], j.y_labels[iy]
        if xl != yl and h(xl) == h(yl):
            total += n
    return Fraction(total, j.denominator)


@lru_cache(maxsize=1024)
def stage_conditional(j: JointPmf, h: HashFunction, w1: int) -> Pmf | None:
    """p_{X | X = Y, h(X) = w1}, or None when the bucket has no agreement mass.

    Kept over the full union alphabet (zero mass off the bucket) so both
    parties index the same round structure whatever symbol they hold.
    Costs O(|X| + |Y|) given the joint.
    """
    labels = union_alphabet(j)
    weights = [j.numerator_by_label(u, u) if h(u) == w1 else 0 for u in labels]
    total = sum(weights)
    if total == 0:
        return None
    return Pmf(labels, weights, total)


def _bob_record(w2: int | None) -> Record:
    """Bob's stage-two message: the round he drew, or the error symbol."""
    return ("bob", "error", ERROR_SYMBOL) if w2 is None else ("bob", "round", w2)


class KeygenRun(NamedTuple):
    """One key agreement. The first four fields are the (transcript, key_a,
    key_b, ideal) record a plan's trial yields (``ProtocolPlan.runs``);
    ``m_a`` and ``m_b`` are the values stage two ran on. The ideal key
    equals the common key when those values are equal and is empty
    otherwise; an abort emits empty keys on all three slots."""

    transcript: Transcript
    key_a: str
    key_b: str
    ideal_key: str
    m_a: Any
    m_b: Any


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


# A hash check decided up to Bob's draw: on confirmation the bucket
# conditional's engine and both symbols' indices in it, None on abort.
Stage = tuple[KeyAgreeEngine, int, int] | None
# The fixed part of a stage-two run on one outcome: the transcript through
# Alice's hash announcement, the hash check, and whether the parties'
# values are equal (so the ideal key is the common one).
Decision = tuple[Transcript, Stage, bool]


def decide(j: JointPmf, h: HashFunction, x: str, y: str, before: Transcript = ()) -> Decision:
    """Everything of the hash-check run on (x, y) but Bob's draw; ``before``
    is the transcript that precedes Alice's announcement."""
    w1, stage = _bucket_check(j, h, x, y)
    return before + (("alice", "hash", w1),), stage, x == y


# A stage-two run with its keys as packed codeword entries: (transcript
# before Bob's message, w2, key_a, key_b, ideal), 0 packing the empty key.
# A run's record and its packed form determine each other.
PackedRun = tuple[Transcript, int | None, int, int, int]


def play(decision: Decision, rng: RandomSource) -> PackedRun:
    """A decided run played to its end, in packed form. On confirmation
    Bob draws his round on ``rng`` with the common scheme's draw,
    ``KeyAgreeEngine.alice``, pinned to round 1 when his symbol has no
    bucket mass, and both keys are read with ``_Round.keys``, a party
    whose symbol the round does not select taking its first codeword;
    an abort draws nothing."""
    before, stage, same = decision
    if stage is None:
        return before, None, 0, 0, 0
    eng, xi, yi = stage
    w2 = eng.alice(yi, rng) if eng.pmf.numerators[yi] else 1
    code_a, code_b = eng.round(w2).keys((xi, yi))
    return before, w2, code_a, code_b, code_a if same else 0


def unpack_run(
    before: Transcript, w2: int | None, code_a: int, code_b: int, ideal: int
) -> tuple[Transcript, str, str, str]:
    """The (transcript, key_a, key_b, ideal) record of a packed run; key_b
    is formatted only when it differs from key_a. An abort with a
    nonempty key, or a round below 1, is an ``InvariantError``."""
    if w2 is None:
        if code_a or code_b or ideal:
            raise InvariantError("abort path must emit empty keys")
    elif w2 < 1:
        raise InvariantError(f"round index {w2} out of range")
    key_a = _unpack_code(code_a)
    key_b = key_a if code_b == code_a else _unpack_code(code_b)
    return before + (_bob_record(w2),), key_a, key_b, key_a if ideal else ""


def almost_common_keygen(
    j: JointPmf, x: str, y: str, m: int, h: HashFunction, rng: RandomSource
) -> KeygenRun:
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
    return KeygenRun(*unpack_run(*play(decide(j, h, x, y), rng)), x, y)


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
    is formed per set D of the labels with agreement mass, L, that share
    x's bucket: an outcome with r symbols off L weighs
    m^-(|D| + r - 1) (1 - 1/m)^(|L| - |D|). Its ``collision_error``
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


def _bucket_sums(
    eng: KeyAgreeEngine | None, cells: Sequence[tuple[int, int, int]], d: int, w_max: int,
    laws: defaultdict | None = None, w1: int = 1,
) -> tuple[int, int, int, int, int]:
    """(collision, error, unresolved, agreed length) of the outcomes in one
    bucket, as integer numerators, followed by their one denominator. Each
    (n, x index, y index) of ``cells`` has mass n / d. ``eng`` is the
    bucket conditional's engine, None when it has no agreement mass and
    Bob aborts; ``laws`` collects each (w1, w2) transcript's ideal-key
    mass, as integer numerators over that same denominator (over d for an
    abort).

    Bob stops in round w with probability 2^-(w + n_w) / p*(y), n_w his
    codeword length there, and the engine's rounds are read once, for
    every symbol (``KeyAgreeEngine.symbol_lengths``). No sum walks a key:
    a same-symbol outcome agrees in every round with Bob's codeword as
    key, and an outcome with x != y agrees, on empty keys, exactly in the
    rounds that select Bob's symbol alone, the rounds where his codeword
    is empty (a round selecting two symbols gives every symbol a nonempty
    codeword). So its error is Bob's stopping weight over the rounds where
    his codeword is not empty, its unresolved mass his weight past w_max,
    and every sum is a per-Bob-symbol integer over d * lcm(p*(y)) * 2^top,
    top the largest w + n_w. The laws take the same integer weights: a
    step adds the x = y mass to Bob's codeword in that round and the
    x != y mass to the empty key, so only they format a codeword, once
    per Bob's symbol and round.
    """
    col = sum(n for n, xi, yi in cells if xi != yi)
    if eng is None:
        if laws is not None:
            laws[w1, None][""] += sum(n for n, _, _ in cells)
        return col, 0, 0, 0, d
    # Bob's index -> the numerators of his outcomes with x = y and x != y
    bob: dict[int, list[int]] = {}
    for n, xi, yi in cells:
        bob.setdefault(yi, [0, 0])[xi != yi] += n
    lengths = eng.symbol_lengths(w_max)
    nums = eng.pmf.numerators
    held = [yi for yi in bob if nums[yi]]
    top = max((w + k for yi in held for w, k in lengths[yi]), default=0)
    lcm = math.lcm(*(nums[yi] for yi in held))
    one = lcm << top  # a certain event
    err = length = unresolved = 0
    for yi, (same, other) in bob.items():
        if not nums[yi]:
            # Bob pins round 1 and reads its first codeword, empty only
            # when the round selects one symbol; x != y here
            err += other * one * (len(eng.round(1).order) > 1)
            if laws is not None:
                laws[w1, 1][""] += other * one
            continue
        seen = erred = bits = 0
        for w, k in lengths[yi]:
            q = 1 << (top - w - k)
            seen += q
            if k:
                erred += q
                bits += q * k
        f = lcm // nums[yi] * eng.pmf.denominator
        err += other * erred * f
        length += same * bits * f
        unresolved += other * (one - seen * f)
        if laws is not None:
            for w, k in lengths[yi]:
                q = f << (top - w - k)
                law = laws[w1, w]
                if same:
                    law[eng.round(w).codeword(yi)] += same * q
                if other:
                    law[""] += other * q
    return col * one, err, unresolved, length, d * one


def _gather(total: list[int], den: int, nums: Sequence[int], over: int) -> int:
    """Add nums[i] / over to total[i] / den in place, over the least common
    denominator, which is returned."""
    common = math.lcm(den, over)
    if common != den:
        total[:] = [t * (common // den) for t in total]
    f = common // over
    for i, v in enumerate(nums):
        total[i] += v * f
    return common


def analyze_almost_common(
    j: JointPmf, h: HashFunction, w_max: int = 30, collect_laws: bool = True
) -> AlmostCommonAnalysis:
    """Enumerate every (outcome, bucket, round) path of the protocol
    exactly: outcomes whose symbols share a bucket go through
    ``_bucket_sums``, once per bucket, and the others abort."""
    stats = agreement_stats(j)
    d = j.denominator
    index = {u: i for i, u in enumerate(union_alphabet(j))}
    acc = defaultdict(lambda: defaultdict(int)) if collect_laws else None
    buckets: dict[int, list[tuple[int, int, int]]] = {}
    for ix, iy, n in j.numerator_cells:
        xl, yl = j.x_labels[ix], j.y_labels[iy]
        w1 = h(xl)
        if h(yl) == w1:
            buckets.setdefault(w1, []).append((n, index[xl], index[yl]))
        elif acc is not None:
            acc[w1, None][""] += n
    sums, den = [0] * 4, 1
    for w1, cells in buckets.items():
        p_star = stage_conditional(j, h, w1)
        eng = None if p_star is None else engine_for(p_star)
        *nums, over = _bucket_sums(eng, cells, d, w_max, acc, w1)
        den = _gather(sums, den, nums, over)
    laws = None
    if acc is not None:
        laws = {}
        for t in sorted(acc, key=lambda t: (t[0], t[1] is not None, t[1] or 0)):
            # a transcript's mass comes from one bucket, over one denominator
            total = sum(acc[t].values())
            laws[t] = KeyLaw.from_dict({k: Fraction(v, total) for k, v in acc[t].items()})
    fields = (Fraction(v, den) for v in sums)
    return AlmostCommonAnalysis(h.m, stats.p, (1 - stats.p) / h.m, *fields, w_max, laws)


# bucket sets averaged over, at most: every subset of 16 labels
SUBSET_LIMIT = 65536


def _set_engine(labels: tuple[str, ...], nums: list[int], full: bool) -> KeyAgreeEngine | None:
    """The engine of a bucket set's agreement conditional, None when the
    set is empty. Each set's conditional is read once, so its engine is
    built here, kept out of ``engine_for`` and freed when the set's sums
    are done; only the full support's comes from ``engine_for``, which the
    one-bucket table's analysis has filled with that same conditional."""
    total = sum(nums)
    if not total:
        return None
    p = Pmf(labels, nums, total)
    return engine_for(p) if full else KeyAgreeEngine(p)


def average_almost_common(j: JointPmf, m: int, w_max: int = 30) -> AlmostCommonAnalysis:
    """Exact analysis averaged over every hash table (a uniform pick).

    Let L be the labels u with P(X = Y = u) > 0. An outcome (x, y) counts
    only when y shares x's bucket S, and then depends only on D = S ∩ L,
    whose agreement mass is the bucket conditional, and on r, its number
    of symbols off L: a uniform table gives it the weight
    m^-(|D| + r - 1) (1 - 1/m)^(|L| - |D|). So ``_bucket_sums`` runs once
    per D on the outcomes inside D and off L, skipping one-label buckets:
    at most 2^|L| bucket sets, whatever m is, for m^|X| tables. At m = 1
    the one table is the one-bucket table, and its analysis is the answer.
    """
    if m < 1:
        raise ValidationError("bucket count m must be >= 1")
    labels = union_alphabet(j)
    n = len(labels)
    diag = [j.numerator_by_label(u, u) for u in labels]
    support = [i for i in range(n) if diag[i]]
    off = tuple(i for i in range(n) if not diag[i])
    sets = 1 << len(support)
    if m > 1 and sets > SUBSET_LIMIT:
        raise ValidationError(f"{sets} bucket sets exceed the enumeration limit {SUBSET_LIMIT}")
    # unused at m >= 2 but for the span perfbench/selftest.py expects on exact-report
    avg = analyze_almost_common(j, HashFunction(labels, (1,) * n, 1), w_max, False)
    if m > 1:
        index = {u: i for i, u in enumerate(labels)}
        # x -> (y, numerator times m per symbol on L), so that every
        # outcome in the bucket of D weighs m^-(|D| + 1) (1 - 1/m)^(|L| - |D|)
        rows: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for ix, iy, c in j.numerator_cells:
            x, y = index[j.x_labels[ix]], index[j.y_labels[iy]]
            rows[x].append((y, c * m ** ((diag[x] > 0) + (diag[y] > 0))))
        # bucket set D weighs (m - 1)^(|L| - |D|) over the m^(|L| + 1) that
        # divides the total once
        total, den = [0] * 4, 1
        for size in range(max(0, 2 - len(off)), len(support) + 1):
            weight = (m - 1) ** (len(support) - size)
            for members in itertools.combinations(support, size):
                inside = members + off
                within = set(inside)
                cells = [(c, x, y) for x in inside for y, c in rows[x] if y in within]
                nums = [diag[i] if i in within else 0 for i in range(n)]
                # the set's engine lives only for its own sums
                eng = _set_engine(labels, nums, size == len(support))
                *sums, over = _bucket_sums(eng, cells, j.denominator, w_max)
                del eng
                den = _gather(total, den, [weight * v for v in sums], over)
        den *= m ** (len(support) + 1)
        p = Fraction(sum(diag), j.denominator)
        fields = (Fraction(v, den) for v in total)
        avg = AlmostCommonAnalysis(m, p, (1 - p) / m, *fields, w_max, tables=m**n)
    if avg.collision_error != avg.epsilon_bound:
        raise InvariantError(
            f"averaged collision error {avg.collision_error} is not (1 - p)/m = {avg.epsilon_bound}"
        )
    return avg


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

    # each label's positive off-diagonal neighbours, with both cells' mass
    # as numerators over the joint's one denominator
    near: dict[str, dict[str, int]] = {u: {} for u in labels}
    for ix, iy, n in j.numerator_cells:
        xl, yl = j.x_labels[ix], j.y_labels[iy]
        if xl != yl:
            near[xl][yl] = near[xl].get(yl, 0) + n
            near[yl][xl] = near[yl].get(xl, 0) + n
    placed: dict[str, int] = {}
    for u in labels:
        # the placed labels fill at most len(placed) buckets, so a zero-cost
        # bucket is among the first len(placed) + 1 and no later one can win
        cost = [0] * min(m, len(placed) + 1)
        for t, w in near[u].items():
            v = placed.get(t)
            if v is not None:
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
        self._outcomes: dict[JointPmf, dict[tuple[str, str], ReconcilerResult]] = {}
        self._laws: dict[JointPmf, dict[Transcript, Atoms]] = {}

    @abstractmethod
    def run(self, j: JointPmf, x: str, y: str) -> ReconcilerResult:
        """Produce (M_A, M_B) and both transcript views for one outcome."""

    @abstractmethod
    def conditional_joint(self, j: JointPmf, transcript: Transcript) -> JointPmf:
        """Exact law of (M_A, M_B) given the transcript."""

    def outcome(self, j: JointPmf, x: str, y: str) -> ReconcilerResult:
        """Stage one on the cell (x, y) of the source: each cell goes
        through ``run`` once, on first use, and is memoized per source."""
        memo = self._outcomes.get(j)
        if memo is None:
            memo = self._outcomes.setdefault(j, {})
        res = memo.get((x, y))
        if res is None:
            res = memo.setdefault((x, y), _stage_one(self, j, x, y))
        return res

    def pushforward(self, j: JointPmf) -> dict[Transcript, Atoms]:
        """(M_A, M_B, mass) atoms of each realizable transcript, in sorted order,
        memoized per source."""
        law = self._laws.get(j)
        if law is None:
            groups: dict[Transcript, list[tuple[Any, Any, Fraction]]] = {}
            for ix, iy, mass in j.atoms():
                res = self.outcome(j, j.x_labels[ix], j.y_labels[iy])
                groups.setdefault(res.transcript_a, []).append((res.m_a, res.m_b, mass))
            law = self._laws.setdefault(j, {t: tuple(groups[t]) for t in sorted(groups)})
        return law

    def stage_two_source(self, j: JointPmf, transcript: Transcript, m: int) -> tuple[JointPmf, HashFunction]:
        """The conditional joint stage two runs on after ``transcript``, and
        its derandomized m-bucket table."""
        cj = self.conditional_joint(j, transcript)
        return cj, _stage2_hash(cj, m)

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

    ``Reconciler.outcome`` is its one caller, and both the sampler and
    the exact law read that, so the exact law is never derived from a
    reconciler the sampler would refuse.
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


_MAX_SKETCH_BITS = 64  # a sketch value prints under any int-to-str digit limit


class OneWayHashReconciler(Reconciler):
    """Alice sends a short seeded sketch of x; Bob decodes by posterior.

    The sketch is a b-bit table value, 1 <= b <= 64, drawn per label
    from a seeded stream. Bob outputs the sketch-consistent symbol with
    the highest posterior given his y (ties to the smallest alphabet
    index); M_A is x itself.

    The conditional joint depends only on the source and the transcript,
    so it is built once per (source, transcript) and memoized: every
    later trial on that transcript gets the same ``JointPmf`` object, and
    the stage-two caches keyed by it hit on identity.
    """

    name = "one-way-hash"

    def __init__(self, bits: int, seed: int | str = 0):
        if not 1 <= bits <= _MAX_SKETCH_BITS:
            raise ValidationError(f"sketch width {bits} is not 1 to {_MAX_SKETCH_BITS} bits")
        super().__init__()
        self.bits = int(bits)
        self.seed = seed
        self._tables: dict[tuple[str, ...], dict[str, int]] = {}
        self._decoders: dict[JointPmf, tuple[dict[str, int], dict[tuple[int, str], str]]] = {}
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

    def _decoder(self, j: JointPmf) -> tuple[dict[str, int], dict[tuple[int, str], str]]:
        """The sketch table, and Bob's decoder: (sketch, y) -> the
        sketch-consistent x of highest posterior mass. Built in one pass
        over the cells per source; row-major order keeps ties on the
        smallest x index."""
        dec = self._decoders.get(j)
        if dec is None:
            table = self.sketch_table(j)
            best: dict[tuple[int, str], tuple[str, int]] = {}
            for ix, iy, n in j.numerator_cells:
                xl = j.x_labels[ix]
                key = (table[xl], j.y_labels[iy])
                held = best.get(key)
                if held is None or n > held[1]:
                    best[key] = (xl, n)
            dec = self._decoders.setdefault(j, (table, {k: v[0] for k, v in best.items()}))
        return dec

    def run(self, j, x, y):
        table, decoder = self._decoder(j)
        s = table.get(x)
        if s is None:
            raise ValidationError(f"label {x!r} outside the joint's x alphabet")
        m_b = decoder.get((s, y))
        if m_b is None:
            if y not in j.y_labels:
                raise ValidationError(f"label {y!r} outside the joint's y alphabet")
            raise InvariantError("no sketch-consistent symbol has posterior mass")
        t: Transcript = (("alice", "sketch", s),)
        return ReconcilerResult(x, m_b, t, t)

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
    atoms = j.numerator_cells
    cells = tuple((j.x_labels[ix], j.y_labels[iy]) for ix, iy, _ in atoms)
    p = Pmf(tuple(map(str, range(len(atoms)))), [n for _, _, n in atoms], j.denominator)
    return KnuthYaoSampler(p), cells


def sample_joint(j: JointPmf, rng: RandomSource) -> tuple[str, str]:
    """Draw one source outcome exactly, at near-entropy fair-bit cost."""
    sampler, cells = _atom_sampler(j)
    return cells[sampler.sample(rng)[0]]


@lru_cache(maxsize=512)
def _stage2_hash(cj: JointPmf, m: int) -> HashFunction:
    return derandomize_hash(cj, m)[0]


def correlated_keygen(
    j: JointPmf, r: Reconciler, m: int, rng: RandomSource
) -> KeygenRun:
    """Sample a source outcome and run the full two-stage pipeline.

    Stage one runs the reconciler; diverging transcript views between
    the parties are a contract violation and fatal. Stage two runs the
    hash-check protocol on the exact conditional law of (M_A, M_B)
    given the realized transcript, under a derandomized hash table
    fixed per conditional law. The run's transcript is stage one's
    followed by stage two's.
    """
    if m < 1:
        raise ValidationError("bucket count m must be >= 1")
    x, y = sample_joint(j, rng.substream("source"))
    res = r.outcome(j, x, y)
    cj, h = r.stage_two_source(j, res.transcript_a, m)
    run = almost_common_keygen(cj, res.m_a, res.m_b, m, h, rng.substream("stage2"))
    return KeygenRun(res.transcript_a + run.transcript, *run[1:])


@dataclass(frozen=True)
class ReconcilerStats:
    """Exact agreement statistics of a reconciler against a joint.

    ``p_agree`` is P(M_A = M_B). ``conditional_entropy`` is the entropy of
    M_A given both the transcript and the agreement event, averaged over
    transcripts given agreement: exactly the quantities the composition
    floor is stated in.
    """

    p_agree: Fraction
    conditional_entropy: float

    def floor(self, m: int) -> float:
        """p_agree * H(M_A | transcript, agree) - log2 m - 2."""
        return float(self.p_agree) * self.conditional_entropy - math.log2(m) - 2.0


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
        return ReconcilerStats(ZERO, 0.0)
    h = 0.0
    for mass, cond in terms:
        h += float(mass / p_agree) * entropy(cond)
    return ReconcilerStats(p_agree, h)


def correlated_transcript_laws(
    j: JointPmf, r: Reconciler, m: int, w_max: int = 30
) -> dict[Transcript, KeyLaw]:
    """Conditional ideal-key law for every full transcript of the pipeline.

    Keys are the stage-one transcript extended by the two stage-two
    records; each law is exact for round indices up to w_max.
    """
    out: dict[Transcript, KeyLaw] = {}
    for t in r.pushforward(j):
        cj, h = r.stage_two_source(j, t, m)
        analysis = analyze_almost_common(cj, h, w_max=w_max, collect_laws=True)
        assert analysis.transcript_laws is not None
        for (w1, w2), law in analysis.transcript_laws.items():
            out[t + (("alice", "hash", w1), _bob_record(w2))] = law
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
