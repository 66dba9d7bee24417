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
is an integer sort and chunk arithmetic is shifts. Symbols with one chunk
size form a contiguous run of the selection order, and within a run the
codewords count up by one, so a round is stored as its order, its runs
and a position index, and a codeword is computed from its position.

A round depends on the residual only up to scale: if the residual after
round w is the one after round w - T halved T times, round w + 1 repeats
round w - T + 1 with every chunk halved T times, the same order and the
same codewords, and so on forever. For a rational pmf the normalized
residual 2**w r_w is eventually periodic, like a rational's binary
expansion (Knuth & Yao 1976), and its period is a multiple of T, the
order of 2 modulo the odd part of the pmf's denominator. So at every
T-th round the engine tests exactly whether the residual repeats with
period T and, once it does, lists each later round as the round one
period earlier, the same object, instead of building more. The test
suite holds the engine bit for bit to a plain-Fraction transliteration
of the published per-round loop.
"""

from __future__ import annotations

import threading
from array import array
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
# one zero position entry; a round's position index is this times |X|
_NO_POS = array("i", [0])


# packed per-selection entry: (codeword value << _LEN_BITS) | codeword length
_LEN_BITS = 20
_LEN_MASK = (1 << _LEN_BITS) - 1


def _unpack_code(p: int) -> str:
    length = p & _LEN_MASK
    return format(p >> _LEN_BITS, "0%db" % length) if length else ""


class _Round:
    """One round of the decomposition, stored as its selection and its runs.

    ``order`` lists the selected symbols in selection order. The order
    splits into runs of one codeword length, and within a run the
    codewords count up by one (Knuth & Yao 1976): the packed entries,
    (codeword value << _LEN_BITS) | codeword length, of a run form an
    arithmetic progression with step 1 << _LEN_BITS. So a run is its
    start in ``starts`` and its base in ``bases``, the entry the
    progression would give position 0, and the symbol at position k of a
    run has entry base + (k << _LEN_BITS). ``pos`` holds one entry per
    source symbol: 0 when the round does not select it, k + 1 when it
    sits at position k. The round keeps no per-symbol codeword.

    A round does not hold its own index: past the period the engine lists
    the round one period earlier again, the same object. Codeword strings
    are built on demand: a wide alphabet selects tens of thousands of
    symbols per round, and the protocol path only ever looks up one of
    them.
    """

    __slots__ = ("order", "starts", "bases", "pos")

    def __init__(self, order: array, starts: tuple[int, ...], bases: tuple[int, ...], pos: array):
        self.order = order
        self.starts = starts
        self.bases = bases
        self.pos = pos

    def at(self, k: int) -> int:
        """The packed entry of the symbol at position k of ``order``."""
        return self.bases[bisect_right(self.starts, k) - 1] + (k << _LEN_BITS)

    def packed(self, index: int) -> int | None:
        k = self.pos[index]
        return self.at(k - 1) if k else None

    def length_of(self, index: int) -> int | None:
        k = self.pos[index]
        return self.bases[bisect_right(self.starts, k - 1) - 1] & _LEN_MASK if k else None

    def codeword(self, index: int) -> str | None:
        k = self.pos[index]
        return _unpack_code(self.at(k - 1)) if k else None

    def keys(self, symbols) -> list[int]:
        """The stage-two keys of parties holding ``symbols`` once this
        round is announced, as packed entries: each party emits its
        symbol's codeword, and a party whose symbol the round does not
        select falls back to the codeword at position 0."""
        # at() inlined: every confirmed two-stage trial reads two keys
        pos, starts, bases = self.pos, self.starts, self.bases
        keys = []
        for i in symbols:
            k = pos[i]
            k = k - 1 if k else 0
            keys.append(bases[bisect_right(starts, k) - 1] + (k << _LEN_BITS))
        return keys

    def segments(self) -> list[tuple[array, int]]:
        """(symbols, codeword length) per run, last run first."""
        order, starts, bases = self.order, self.starts, self.bases
        out = []
        end = len(order)
        for j in range(len(starts) - 1, -1, -1):
            out.append((order[starts[j] : end], bases[j] & _LEN_MASK))
            end = starts[j]
        return out


class KeyAgreeEngine:
    """Materialized protocol state for one pmf: rounds, codewords, and the
    per-symbol stopping thresholds for drawing W exactly.

    Residuals are integers num[i] over a common denominator Q = D << s,
    starting from the pmf's own numerators over its denominator D and
    rescaled (Q and all numerators shifted together) whenever a chunk
    2**-alpha needs more dyadic headroom. A built round costs the integer
    sort, O(|X| log |X|), and holds two int arrays: its order and a
    position index over the alphabet. Once the residual is seen to
    repeat, a round past it is the round one period earlier, the same
    object, and costs one list slot.

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
        # the residual at the last period test, (numerators, trailing zeros
        # of their denominator): before the first test, the pmf's own
        self._kept = (p.numerators, self._tz)
        self._thresholds: dict[int, _ThresholdWalk] = {}
        # reentrant: a threshold walk builds rounds while holding it
        self._lock = threading.RLock()

    # -- round materialization ------------------------------------------------

    def _advance(self) -> None:
        w = len(self._rounds) + 1
        nums = self._nums
        q = self._q
        live = [i for i, v in enumerate(nums) if v > 0]
        # stable reverse sort keeps equal masses in ascending-index order
        live.sort(key=nums.__getitem__, reverse=True)
        acc = 0
        amax = w
        alpha = w
        # pass 1, arithmetic only: with masses sorted, the per-symbol
        # alpha = max(ceil(log2(q / num)), w) is nondecreasing, so each
        # exponent owns a contiguous run found by one division and one
        # bisect over the descending masses; runs are (start, take, alpha,
        # acc_at_start)
        def descending(i: int) -> int:
            return -nums[i]

        runs: list[tuple[int, int, int, int]] = []
        pos = 0
        n_live = len(live)
        while pos < n_live:
            # ceil(log2(q / v)) is the bit length of ceil(q / v) - 1
            a = ((q - 1) // nums[live[pos]]).bit_length()
            if a > alpha:
                alpha = a
            if alpha > amax:
                acc <<= alpha - amax
                amax = alpha
            capacity = (1 << (alpha - w)) - acc
            if capacity <= 0:
                break
            # the run ends at the first mass under ceil(q / 2**alpha),
            # which is -((-q) >> alpha)
            take = bisect_right(live, (-q) >> alpha, pos, key=descending) - pos
            if take > capacity:
                take = capacity
            runs.append((pos, take, alpha, acc))
            acc += take
            pos += take
        # the greedy sum lands on 2**-w exactly (the dyadic decomposition
        # theorem, module docstring); a broken residual fails here
        if acc != 1 << (amax - w):
            raise InvariantError(
                f"round {w} greedy removed {acc}/2**{amax}, not exactly 2**-{w}"
            )
        # pass 2, with the final scale known: rescale so 2**amax divides q
        # and every chunk q >> alpha is exact, remove each run's chunk and
        # record where its symbols sit; a run's codewords count up from
        # acc0, so the round stores the run and not the codewords
        if self._tz < amax:
            shift = amax - self._tz
            q <<= shift
            nums = [v << shift for v in nums]
            self._q, self._nums, self._tz = q, nums, amax
        where = _NO_POS * len(nums)
        starts = []
        bases = []
        for start, take, alpha, acc0 in runs:
            length = alpha - w
            # a packed entry keeps the length in _LEN_BITS bits
            if length > _LEN_MASK:
                raise InvariantError(f"round {w} codeword length {length} overflows")
            # position start has codeword value acc0; each earlier symbol
            # took at least one unit, so acc0 >= start: no base is negative
            starts.append(start)
            bases.append(((acc0 - start) << _LEN_BITS) | length)
            chunk = q >> alpha
            for k in range(start, start + take):
                i = live[k]
                where[i] = k + 1
                nums[i] -= chunk
        # _built first: a reader that finds more rounds than _built finds
        # the period too (symbol_lengths)
        self._built = w
        self._rounds.append(_Round(array("i", live[:pos]), tuple(starts), tuple(bases), where))
        self._ones = (2 * self._ones + 1) % self._odd
        if not self._ones:
            if not self._order:
                self._order = w
            if self._repeats(self._order):
                self._period = self._order

    def _repeats(self, t: int) -> bool:
        """Whether the residual after the round just built, w, is the one
        after round w - t halved t times. Run only where 2**w = 1 modulo
        the odd part of D, every t-th round, so round w - t is the previous
        test, or round 0, and its residual is the one kept then, or the
        pmf's own. Both are over the odd part shifted by their trailing
        zeros; a failed test keeps a copy of the residual for the next."""
        kept, tz = self._kept
        same = all(v << (tz + t) == c << self._tz for v, c in zip(self._nums, kept))
        if not same:
            self._kept = (self._nums[:], self._tz)
        return same

    def ensure(self, w: int) -> None:
        if w > _MAX_ROUNDS:
            raise ValidationError(f"round depth {w} exceeds limit {_MAX_ROUNDS}")
        if len(self._rounds) < w:
            with self._lock:
                rounds = self._rounds
                while len(rounds) < w and not self._period:
                    self._advance()
                # past a repeat, round v is round v - T with its chunks
                # halved T times: the same order and codewords, so the
                # same object
                t = self._period
                for v in range(len(rounds) + 1, w + 1):
                    rounds.append(rounds[v - 1 - t])

    def round(self, w: int) -> _Round:
        if w < 1:
            raise ValidationError("rounds are numbered from 1")
        self.ensure(w)
        return self._rounds[w - 1]

    def residual(self) -> tuple[Fraction, ...]:
        """Exact residual masses after the rounds listed so far: the pmf's
        masses less every listed round's chunks, shared rounds included;
        after w rounds they total 2**-w."""
        with self._lock:
            rounds = self._rounds
            # codeword lengths grow along a round's order: bases[-1] is its longest
            top = max((w + (rnd.bases[-1] & _LEN_MASK) for w, rnd in enumerate(rounds, 1)), default=0)
            d = self.pmf.denominator
            nums = [v << top for v in self.pmf.numerators]
            for w, rnd in enumerate(rounds, 1):
                for symbols, length in rnd.segments():
                    chunk = d << (top - w - length)
                    for i in symbols:
                        nums[i] -= chunk
            return tuple(Fraction(v, d << top) for v in nums)

    # -- protocol -------------------------------------------------------------

    def bob(self, y: int, w: int) -> str:
        """Replay to round w and emit y's codeword there."""
        rounds = self._rounds
        rnd = rounds[w - 1] if 0 < w <= len(rounds) else self.round(w)
        # a symbol outside the alphabet has no codeword either
        code = rnd.codeword(y) if 0 <= y < len(rnd.pos) else None
        if code is None:
            raise ProtocolError(
                f"symbol {y} has no codeword in round {w}; "
                "(y, w) is unreachable, the parties' values must differ"
            )
        return code

    def _walk(self, x: int) -> "_ThresholdWalk":
        walk = self._thresholds.get(x)
        if walk is None:
            # a negative index would read another symbol's position
            if not 0 <= x < len(self.pmf):
                raise ValidationError(f"symbol {x} outside the alphabet")
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

    def round_lengths(self, x: int, w_max: int) -> list[tuple[int, int]]:
        """x's stopping law in dyadic form: (w, codeword length) for the
        rounds 1..w_max that give x a chunk, where
        P(W = w | X = x) = 2**-(w + length) / p(x)."""
        if not 0 <= x < len(self.pmf):
            raise ValidationError(f"symbol {x} outside the alphabet")
        if not self.pmf.numerators[x]:
            raise ValidationError(f"symbol {x} has zero mass")
        return self.symbol_lengths(w_max)[x]

    def symbol_lengths(self, w_max: int) -> list[list[tuple[int, int]]]:
        """``round_lengths`` of every symbol, a zero-mass one's empty, read
        in one pass over each built round's runs: past the period, round w
        is round w - T, so the built rounds' entries are extended by T."""
        self.ensure(w_max)
        built = max(min(self._built, w_max), 0)
        t = self._period
        lengths: list[list[tuple[int, int]]] = [[] for _ in range(len(self.pmf))]
        for w, rnd in enumerate(self._rounds[:built], 1):
            for symbols, length in rnd.segments():
                for i in symbols:
                    lengths[i].append((w, length))
        if built < w_max:
            for steps in lengths:
                # the loop also reads the entries it appends
                for w, length in steps:
                    if w + t > w_max:
                        break
                    if w + t > built:
                        steps.append((w + t, length))
        return lengths

    def round_conditional(self, w: int) -> Pmf:
        """Conditional pmf of X given W = w, over the full source alphabet."""
        rnd = self.round(w)
        top = rnd.bases[-1] & _LEN_MASK  # codeword lengths grow along the order
        nums = [0] * len(self.pmf)
        for symbols, length in rnd.segments():
            for i in symbols:
                nums[i] = 1 << (top - length)
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
                        self.cum += Fraction(1, 1 << (self.scanned + length))
                        # rounds first: readers index it by a threshold position
                        self.rounds.append(self.scanned)
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
    # the draw built every round up to w, and stops only in a round that
    # gives x a chunk (its thresholds come from those rounds alone)
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
            code = rnd.packed(i)
            length = code & _LEN_MASK
            prob = Fraction(1, 1 << (w + length))
            atoms.append((i, w, _unpack_code(code), prob))
            expected += prob * length
    return CommonLaw(
        source=p,
        w_max=w_max,
        atoms=tuple(atoms),
        tail=Fraction(1, 1 << w_max),
        expected_length=expected,
    )
