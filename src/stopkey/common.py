"""Zero-error key agreement when both parties hold the same value.

The scheme: both parties know the pmf p. The decomposition of p into
dyadic rounds is public structure; a party holding x draws the round
index W from the exact conditional P(W = w | X = x) (equivalently, draws
g uniform on [0, p(x)) and stops in the round whose removed chunk of x's
mass covers g), announces w, and both parties emit x's codeword in round
w. The key is exactly the agreed codeword, the announced w leaks nothing
about it (given w the key law is the round codebook's law, a randomly
stopped sequence), and the expected key length is the conditional entropy
H(X | W) >= H(X) - 2 bits.

``KeyAgreeEngine`` is the package's one dyadic decomposition. Round w
splits off exactly half of the remaining mass, 2**-w, with the greedy
construction: sort the residual by descending mass (ties by index), give
each symbol the largest chunk 2**-alpha within its residual, and keep
taking symbols while the running sum stays within 2**-w. The sum then
lands on 2**-w exactly; this is a theorem, not a tolerance, and the
engine asserts it. Each round's conditional is dyadic, so its symbols
take the codewords of a full prefix-free codebook, read off the binary
digits of the cumulative chunk mass in selection order. Residual masses
are integers over a shared power-of-two-scaled denominator, so the sort
is an integer sort and chunk arithmetic is shifts.

A round depends on the residual only up to scale: if the residual after
round w is the one after round w - T halved T times, round w + 1 repeats
round w - T + 1 with every chunk halved T times, the same order and the
same codewords, and so on forever. For a rational pmf the normalized
residual 2**w r_w is eventually periodic, like a rational's binary
expansion (Knuth & Yao 1976), and its period is a multiple of T, the
order of 2 modulo the odd part of the pmf's denominator. So at every
T-th round the engine tests exactly whether the residual repeats with
period T and, once it does, shares the period's rounds instead of
building more. The test suite holds the engine bit for bit to a
plain-Fraction transliteration of the published per-round loop.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .errors import InvariantError, ProtocolError, ValidationError
from .keylaws import KeyLaw
from .probability import Pmf, ZERO
from .randomsource import RandomSource

__all__ = [
    "KeyAgreeEngine",
    "engine_for",
    "alice_keygen",
    "bob_keygen",
    "CommonLaw",
    "exact_common_law",
]

_MAX_ROUNDS = 20000


# packed per-selection entry: (codeword value << _LEN_BITS) | codeword length
_LEN_BITS = 20
_LEN_MASK = (1 << _LEN_BITS) - 1


def _unpack_code(p: int) -> str:
    length = p & _LEN_MASK
    return format(p >> _LEN_BITS, "0%db" % length) if length else ""


class _Round:
    """Round w storage. ``order`` lists selected symbols in selection
    order; ``packed`` maps symbol index to its packed codeword entry.

    Codeword strings are built on demand: a wide alphabet selects tens of
    thousands of symbols per round, and the protocol path only ever looks
    up one of them.
    """

    __slots__ = ("w", "order", "packed")

    def __init__(self, w: int, order: tuple[int, ...], packed: dict[int, int]):
        self.w = w
        self.order = order
        self.packed = packed

    def length_of(self, index: int) -> int | None:
        p = self.packed.get(index)
        return None if p is None else p & _LEN_MASK

    def codeword(self, index: int) -> str | None:
        p = self.packed.get(index)
        return None if p is None else _unpack_code(p)


class KeyAgreeEngine:
    """Materialized protocol state for one pmf: rounds, codewords, and the
    per-symbol stopping thresholds for drawing W exactly.

    Residuals are integers num[i] over a common denominator Q = D << s,
    starting from the pmf's own numerators over its denominator D and
    rescaled (Q and all numerators shifted together) whenever a chunk
    2**-alpha needs more dyadic headroom. A built round costs the integer
    sort, O(|X| log |X|); once the residual is seen to repeat, a round
    past it shares the tuples of the round one period earlier and costs
    O(1).

    One engine is shared per pmf across threads (``engine_for``). Rounds
    and stopping thresholds are built under one reentrant lock and
    published by appending to their lists last, so a reader that finds
    an entry already built takes no lock.
    """

    def __init__(self, p: Pmf):
        self.pmf = p
        self._q = p.denominator
        self._tz = _trailing_zeros(p.denominator)
        self._nums = list(p.numerators)
        # one int object per symbol index, shared by every round's order
        self._indices = list(range(len(p)))
        self._rounds: list[_Round] = []
        # 2**w - 1 mod the odd part of D after w built rounds: the residual
        # can repeat, halved, only where it is 0 (see _repeats)
        self._odd = p.denominator >> self._tz
        self._ones = 0
        self._order = 0  # the order of 2 mod the odd part, once reached
        # the period T once the residual after round _built repeats; the
        # residual is held as it stood after round _built
        self._period = 0
        self._built = 0
        self._thresholds: dict[int, _ThresholdWalk] = {}
        # reentrant: a threshold walk builds rounds while holding it
        self._lock = threading.RLock()

    # -- round materialization ------------------------------------------------

    def _rescale(self, upto: int) -> None:
        if self._tz >= upto:
            return
        shift = upto - self._tz
        self._q <<= shift
        self._nums = [v << shift for v in self._nums]
        self._tz = upto

    def _advance(self) -> None:
        w = len(self._rounds) + 1
        nums = self._nums
        q = self._q
        live = [i for i, v in zip(self._indices, nums) if v > 0]
        # stable reverse sort keeps equal masses in ascending-index order
        live.sort(key=nums.__getitem__, reverse=True)
        acc = 0
        amax = w
        alpha = w
        # pass 1, arithmetic only: with masses sorted, the per-symbol
        # alpha = max(ceil(log2(q / num)), w) is nondecreasing, so each
        # exponent owns a contiguous run found by one ceil division and
        # one bisect; runs are (start, take, alpha, acc_at_start)
        neg = [-nums[i] for i in live]
        runs: list[tuple[int, int, int, int]] = []
        pos = 0
        n_live = len(live)
        while pos < n_live:
            c = -(-q // nums[live[pos]])
            a = (c - 1).bit_length()
            if a > alpha:
                alpha = a
            if alpha > amax:
                acc <<= alpha - amax
                amax = alpha
            capacity = (1 << (alpha - w)) - acc
            if capacity <= 0:
                break
            threshold = (q + (1 << alpha) - 1) >> alpha
            end = bisect_right(neg, -threshold, pos)
            take = min(end - pos, capacity)
            runs.append((pos, take, alpha, acc))
            acc += take
            pos += take
        if acc != 1 << (amax - w):
            raise InvariantError(
                f"round {w} greedy removed {acc}/2**{amax}, not exactly 2**-{w}"
            )
        # pass 2, per run, with the final scale known; packed entries for a
        # run form an arithmetic progression, so the dict fills from a range
        self._rescale(amax)
        nums = self._nums
        q = self._q
        order: list[int] = []
        packed: dict[int, int] = {}
        for start, take, alpha, acc0 in runs:
            length = alpha - w
            if length > _LEN_MASK:
                raise InvariantError(f"round {w} codeword length {length} overflows")
            chunk = q >> alpha
            seg = live[start : start + take]
            order.extend(seg)
            base = (acc0 << _LEN_BITS) | length
            step = 1 << _LEN_BITS
            packed.update(zip(seg, range(base, base + take * step, step)))
            for i in seg:
                nums[i] -= chunk
        self._rounds.append(_Round(w, tuple(order), packed))
        self._built = w
        self._ones = (2 * self._ones + 1) % self._odd
        if not self._ones:
            if not self._order:
                self._order = w
            if self._repeats(w, self._order):
                self._period = self._order

    def _repeats(self, w: int, t: int) -> bool:
        """Whether the residual after round w is the one after round w - t
        halved t times: (2**t - 1) r_w(i) is then exactly the mass rounds
        w - t + 1 .. w took from i, for every i. Run only where 2**w = 1
        modulo the odd part of D, every order-th round."""
        q = self._q
        taken = [0] * len(self._nums)
        for rnd in self._rounds[w - t : w]:
            for i, p in rnd.packed.items():
                taken[i] += q >> (rnd.w + (p & _LEN_MASK))
        f = (1 << t) - 1
        return all(v * f == c for v, c in zip(self._nums, taken))

    def ensure(self, w: int) -> None:
        if w > _MAX_ROUNDS:
            raise ValidationError(f"round depth {w} exceeds limit {_MAX_ROUNDS}")
        if len(self._rounds) < w:
            with self._lock:
                rounds = self._rounds
                while len(rounds) < w and not self._period:
                    self._advance()
                # past a repeat, round v is round v - T with its chunks
                # halved T times: the same order and codewords
                t = self._period
                for v in range(len(rounds) + 1, w + 1):
                    src = rounds[v - 1 - t]
                    rounds.append(_Round(v, src.order, src.packed))

    def round(self, w: int) -> _Round:
        if w < 1:
            raise ValidationError("rounds are numbered from 1")
        self.ensure(w)
        return self._rounds[w - 1]

    def residual(self) -> tuple[Fraction, ...]:
        """Exact residual masses after the rounds built so far; after w
        rounds they total 2**-w."""
        with self._lock:
            nums, q = self._nums, self._q
            shared = len(self._rounds) - self._built
            if shared:
                # after round _built + a T + b the residual is the one after
                # round _built + b halved a T times, and rounds _built + 1 ..
                # _built + b take half T times what rounds _built - T + 1 ..
                # _built - T + b took
                t = self._period
                a, b = divmod(shared, t)
                nums = [v << t for v in nums]
                for rnd in self._rounds[self._built - t : self._built - t + b]:
                    for i, p in rnd.packed.items():
                        nums[i] -= q >> (rnd.w + (p & _LEN_MASK))
                q <<= t * (a + 1)
            return tuple(Fraction(v, q) for v in nums)

    # -- protocol -------------------------------------------------------------

    def bob(self, y: int, w: int) -> str:
        """Replay to round w and emit y's codeword there."""
        rounds = self._rounds
        rnd = rounds[w - 1] if 0 < w <= len(rounds) else self.round(w)
        code = rnd.codeword(y)
        if code is None:
            raise ProtocolError(
                f"symbol {y} has no codeword in round {w}; "
                "(y, w) is unreachable, the parties' values must differ"
            )
        return code

    def _walk(self, x: int) -> "_ThresholdWalk":
        walk = self._thresholds.get(x)
        if walk is None:
            if not self.pmf.numerators[x]:
                raise ValidationError(f"cannot key on zero-mass symbol {x}")
            # setdefault: racing first callers all get the stored walk
            walk = self._thresholds.setdefault(x, _ThresholdWalk(self.pmf.mass(x)))
        return walk

    def alice(self, x: int, rng: RandomSource) -> int:
        """Draw the stopping round W from P(W | X = x) exactly, with one
        uniform U on [0, 1) read lazily from ``rng``, and return it.

        Thresholds are fractions of p(x): U >= t_w is the per-round loop's
        stopping test g >= residual_w(x) for the draw g = p(x) U on
        [0, p(x)). This is the draw alone: it builds every round up to W
        and formats no codeword.
        """
        u = rng.lazy_uniform()
        walk = self._thresholds.get(x) or self._walk(x)
        thresholds = walk.thresholds
        pos = 0
        while True:
            # built thresholds are read as they stand; entry builds the next
            t = thresholds[pos] if pos < len(thresholds) else walk.entry(pos, self, x)
            if u.at_least(t):
                return walk.rounds[pos]
            pos += 1

    def rounds(self, w_max: int) -> list[_Round]:
        """Rounds 1..w_max, built once here so readers index them directly."""
        self.ensure(w_max)
        return self._rounds[: max(w_max, 0)]

    def round_lengths(self, x: int, w_max: int) -> list[tuple[int, int]]:
        """x's stopping law in dyadic form: (w, codeword length) for the
        rounds 1..w_max that give x a chunk, where
        P(W = w | X = x) = 2**-(w + length) / p(x)."""
        if not self.pmf.numerators[x]:
            raise ValidationError(f"symbol {x} has zero mass")
        return [
            (rnd.w, length)
            for rnd in self.rounds(w_max)
            if (length := rnd.length_of(x)) is not None
        ]

    def round_conditional(self, w: int) -> Pmf:
        """Conditional pmf of X given W = w, over the full source alphabet."""
        packed = self.round(w).packed
        top = max(p & _LEN_MASK for p in packed.values())
        nums = [0] * len(self.pmf)
        for i, p in packed.items():
            nums[i] = 1 << (top - (p & _LEN_MASK))
        return Pmf(self.pmf.labels, nums, 1 << top)


class _Ratio(NamedTuple):
    """A stopping threshold in lowest terms. ``LazyUniform.at_least`` reads
    its two fields as a rational's, and as tuple fields they cost no
    Python call, where ``Fraction.numerator`` and ``denominator`` do."""

    numerator: int
    denominator: int


class _ThresholdWalk:
    """Per-symbol stopping thresholds t_w = 1 - c_w / p(x), where c_w is the
    mass removed from x through round w. Materialized lazily; only rounds
    that actually remove mass from x appear."""

    __slots__ = ("px", "cum", "scanned", "rounds", "thresholds")

    def __init__(self, px: Fraction):
        self.px = px
        self.cum = ZERO
        self.scanned = 0
        self.rounds: list[int] = []
        self.thresholds: list[_Ratio] = []

    def entry(self, pos: int, engine: KeyAgreeEngine, x: int) -> _Ratio:
        if pos >= len(self.thresholds):
            with engine._lock:
                while pos >= len(self.thresholds):
                    self.scanned += 1
                    rnd = engine.round(self.scanned)
                    length = rnd.length_of(x)
                    if length is not None:
                        self.cum += Fraction(1, 1 << (rnd.w + length))
                        # rounds first: readers index it by a threshold position
                        self.rounds.append(rnd.w)
                        t = 1 - self.cum / self.px
                        self.thresholds.append(_Ratio(t.numerator, t.denominator))
        return self.thresholds[pos]


def _trailing_zeros(n: int) -> int:
    return (n & -n).bit_length() - 1


@lru_cache(maxsize=256)
def engine_for(p: Pmf) -> KeyAgreeEngine:
    """Shared engine per pmf; Pmf is immutable so caching is safe."""
    return KeyAgreeEngine(p)


def alice_keygen(p: Pmf, x: int, rng: RandomSource) -> tuple[str, int]:
    """Key and announced round for the W-drawing party holding x."""
    engine = engine_for(p)
    w = engine.alice(x, rng)
    # the draw built every round up to w
    code = engine._rounds[w - 1].codeword(x)
    if code is None:
        raise InvariantError(f"stopping round {w} has no codeword for {x}")
    return code, w


def bob_keygen(p: Pmf, y: int, w: int) -> str:
    """Key for the replaying party holding y after receiving round w."""
    return engine_for(p).bob(y, w)


@dataclass(frozen=True)
class CommonLaw:
    """Exact enumerated law of (X, W, K) for the zero-error scheme.

    ``atoms`` lists (x index, w, key, probability) with probability
    removed_w(x) = 2**-(w + |key|); rounds beyond w_max carry exactly
    2**-w_max total mass, reported as ``tail``. ``expected_length`` is
    the enumerated E[|K|], which equals the enumerated conditional
    entropy H(X | W) identically (per-round codeword lengths are the
    negative log masses of the dyadic conditionals, so the two sums are
    the same rational).
    """

    source: Pmf
    w_max: int
    atoms: tuple[tuple[int, int, str, Fraction], ...]
    tail: Fraction
    expected_length: Fraction

    def conditional_key_law(self, w: int) -> KeyLaw:
        masses: dict[str, Fraction] = {}
        for _, aw, key, _prob in self.atoms:
            if aw == w:
                masses[key] = masses.get(key, ZERO) + Fraction(1, 1 << len(key))
        if not masses:
            raise ValidationError(f"no enumerated atoms at round {w}")
        return KeyLaw.from_dict(masses)

    def key_law(self) -> KeyLaw:
        """Unconditional enumerated key law, tail mass explicit."""
        masses: dict[str, Fraction] = {}
        for _, _, key, prob in self.atoms:
            masses[key] = masses.get(key, ZERO) + prob
        return KeyLaw.from_dict(masses, self.tail)


def exact_common_law(p: Pmf, w_max: int) -> CommonLaw:
    """Enumerate the joint law of (X, W, K) through round w_max."""
    if w_max < 1:
        raise ValidationError("w_max must be at least 1")
    if w_max > _MAX_ROUNDS:  # refused before the loop builds any round
        raise ValidationError(f"round depth {w_max} exceeds limit {_MAX_ROUNDS}")
    engine = engine_for(p)
    atoms = []
    expected = ZERO
    for w in range(1, w_max + 1):
        rnd = engine.round(w)
        for i in rnd.order:
            length = rnd.length_of(i)
            prob = Fraction(1, 1 << (w + length))
            atoms.append((i, w, rnd.codeword(i), prob))
            expected += prob * length
    return CommonLaw(
        source=p,
        w_max=w_max,
        atoms=tuple(atoms),
        tail=Fraction(1, 1 << w_max),
        expected_length=expected,
    )
