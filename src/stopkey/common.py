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
is an integer sort and chunk arithmetic is shifts. The test suite holds
the engine bit for bit to a plain-Fraction transliteration of the
published per-round loop.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, NamedTuple

from .errors import InvariantError, ProtocolError, ValidationError
from .keylaws import KeyLaw
from .probability import Pmf, ZERO
from .randomsource import LazyUniform, RandomSource

__all__ = [
    "KeyAgreeEngine",
    "engine_for",
    "alice_keygen",
    "bob_keygen",
    "CommonLaw",
    "exact_common_law",
]

_MAX_ROUNDS = 20000


class _Selected(NamedTuple):
    """One removed chunk: symbol ``index`` loses 2**-(w + length) mass and
    earns ``code`` as its round-w codeword."""

    index: int
    length: int
    code: str


# packed per-selection entry: (codeword value << _LEN_BITS) | codeword length
_LEN_BITS = 20
_LEN_MASK = (1 << _LEN_BITS) - 1


def _unpack_code(p: int) -> str:
    length = p & _LEN_MASK
    return format(p >> _LEN_BITS, "0%db" % length) if length else ""


class _Round:
    """Round w storage. ``order`` lists selected symbols in selection
    order; ``packed`` maps symbol index to its packed codeword entry.

    Codeword strings and _Selected views are built on demand: a wide
    alphabet selects tens of thousands of symbols per round, and the
    protocol path only ever looks up one of them.
    """

    __slots__ = ("w", "order", "packed", "_selected")

    def __init__(self, w: int, order: tuple[int, ...], packed: dict[int, int]):
        self.w = w
        self.order = order
        self.packed = packed
        self._selected: tuple[_Selected, ...] | None = None

    @property
    def selected(self) -> tuple[_Selected, ...]:
        if self._selected is None:
            self._selected = tuple(
                _Selected(i, self.packed[i] & _LEN_MASK, _unpack_code(self.packed[i]))
                for i in self.order
            )
        return self._selected

    def length_of(self, index: int) -> int | None:
        p = self.packed.get(index)
        return None if p is None else p & _LEN_MASK

    def codeword(self, index: int) -> str | None:
        p = self.packed.get(index)
        return None if p is None else _unpack_code(p)

    @property
    def first_codeword(self) -> str:
        return _unpack_code(self.packed[self.order[0]])


class KeyAgreeEngine:
    """Materialized protocol state for one pmf: rounds, codewords, and the
    per-symbol stopping thresholds for drawing W exactly.

    Residuals are integers num[i] over a common denominator Q = D << s,
    rescaled (Q and all numerators shifted together) whenever a chunk
    2**-alpha needs more dyadic headroom. Per-round cost is the integer
    sort: O(|X| log |X|).

    One engine is shared per pmf across threads (``engine_for``). Rounds
    and stopping thresholds are built under one reentrant lock and
    published by appending to their lists last, so a reader that finds
    an entry already built takes no lock.
    """

    def __init__(self, p: Pmf):
        self.pmf = p
        # zero masses carry denominator 1; no need to filter them out
        d = math.lcm(*(m.denominator for m in p.masses))
        self._q = d
        self._tz = _trailing_zeros(d)
        self._nums = [m.numerator * (d // m.denominator) for m in p.masses]
        self._rounds: list[_Round] = []
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
        live = [i for i, v in enumerate(nums) if v > 0]
        if len(live) == 1:
            i = live[0]
            self._rescale(w)
            self._nums[i] -= self._q >> w
            self._rounds.append(_Round(w, (i,), {i: 0}))
            return
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

    def ensure(self, w: int) -> None:
        if w > _MAX_ROUNDS:
            raise ValidationError(f"round depth {w} exceeds limit {_MAX_ROUNDS}")
        if len(self._rounds) < w:
            with self._lock:
                while len(self._rounds) < w:
                    self._advance()

    def round(self, w: int) -> _Round:
        if w < 1:
            raise ValidationError("rounds are numbered from 1")
        self.ensure(w)
        return self._rounds[w - 1]

    def residual(self) -> tuple[Fraction, ...]:
        """Exact residual masses after the rounds built so far; after w
        rounds they total 2**-w."""
        with self._lock:
            return tuple(Fraction(v, self._q) for v in self._nums)

    # -- protocol -------------------------------------------------------------

    def codeword(self, w: int, x: int) -> str | None:
        return self.round(w).codeword(x)

    def first_codeword(self, w: int) -> str:
        return self.round(w).first_codeword

    def bob(self, y: int, w: int) -> str:
        """Replay to round w and emit y's codeword there."""
        code = self.codeword(w, y)
        if code is None:
            raise ProtocolError(
                f"symbol {y} has no codeword in round {w}; "
                "(y, w) is unreachable, the parties' values must differ"
            )
        return code

    def _walk(self, x: int) -> "_ThresholdWalk":
        walk = self._thresholds.get(x)
        if walk is None:
            if self.pmf.masses[x] == 0:
                raise ValidationError(f"cannot key on zero-mass symbol {x}")
            # setdefault: racing first callers all get the stored walk
            walk = self._thresholds.setdefault(x, _ThresholdWalk(self.pmf.masses[x]))
        return walk

    def round_from_uniform(self, x: int, u: LazyUniform) -> int:
        """The round in which a uniform draw U on [0, 1) stops symbol x.

        Thresholds are fractions of p(x): U >= t_w is the per-round loop's
        stopping test g >= residual_w(x) for the draw g = p(x) U on
        [0, p(x)).
        """
        walk = self._walk(x)
        pos = 0
        while True:
            entry = walk.entry(pos, self, x)
            if u.at_least(entry):
                return walk.rounds[pos]
            pos += 1

    def alice(self, x: int, rng: RandomSource) -> tuple[str, int]:
        """Draw W from P(W | X = x) exactly and emit x's round-W codeword."""
        w = self.round_from_uniform(x, rng.lazy_uniform())
        code = self.codeword(w, x)
        if code is None:
            raise InvariantError(f"stopping round {w} has no codeword for {x}")
        return code, w

    def round_distribution(self, x: int, w_max: int) -> list[tuple[int, Fraction]]:
        """(w, P(W = w | X = x)) for rounds 1..w_max with positive weight."""
        px = self.pmf.masses[x]
        if px == 0:
            raise ValidationError(f"symbol {x} has zero mass")
        out = []
        for w in range(1, w_max + 1):
            length = self.round(w).length_of(x)
            if length is not None:
                out.append((w, Fraction(1, 1 << (w + length)) / px))
        return out

    def round_conditional(self, w: int) -> Pmf:
        """Conditional pmf of X given W = w, over the full source alphabet."""
        rnd = self.round(w)
        masses = [ZERO] * len(self.pmf)
        for s in rnd.selected:
            masses[s.index] = Fraction(1, 1 << s.length)
        return Pmf(self.pmf.labels, tuple(masses))


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
        self.thresholds: list[Fraction] = []

    def entry(self, pos: int, engine: KeyAgreeEngine, x: int) -> Fraction:
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
                        self.thresholds.append(1 - self.cum / self.px)
        return self.thresholds[pos]


def _trailing_zeros(n: int) -> int:
    return (n & -n).bit_length() - 1


@lru_cache(maxsize=256)
def engine_for(p: Pmf) -> KeyAgreeEngine:
    """Shared engine per pmf; Pmf is immutable so caching is safe."""
    return KeyAgreeEngine(p)


def alice_keygen(p: Pmf, x: int, rng: RandomSource) -> tuple[str, int]:
    """Key and announced round for the W-drawing party holding x."""
    return engine_for(p).alice(x, rng)


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

    def joint_w_x(self) -> Iterator[tuple[int, int, Fraction]]:
        for x, w, _key, prob in self.atoms:
            yield x, w, prob


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
        for s in rnd.selected:
            prob = Fraction(1, 1 << (w + s.length))
            atoms.append((s.index, w, s.code, prob))
            expected += prob * s.length
    return CommonLaw(
        source=p,
        w_max=w_max,
        atoms=tuple(atoms),
        tail=Fraction(1, 1 << w_max),
        expected_length=expected,
    )
