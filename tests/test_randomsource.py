import hashlib
import random
import threading
from fractions import Fraction

import pytest

from stopkey.errors import StopkeyError, ValidationError
from stopkey.randomsource import _MAX_BITS, LazyUniform, RandomSource, StreamTemplate

from conftest import count_seeding, run_threads
from literal_oracle import uniform_below


def test_same_seed_same_stream():
    a = RandomSource(123).generator()
    b = RandomSource(123).generator()
    assert [a.getrandbits(16) for _ in range(20)] == [b.getrandbits(16) for _ in range(20)]


def test_string_seeds_supported():
    a = RandomSource("trial-seed")
    b = RandomSource("trial-seed")
    assert a.generator().getrandbits(32) == b.generator().getrandbits(32)


def test_different_seeds_differ():
    xs = [RandomSource(s).generator().getrandbits(64) for s in range(50)]
    assert len(set(xs)) == 50


def test_substreams_are_deterministic_and_order_free():
    master = RandomSource(9)
    first = master.substream("trial", 3).generator().getrandbits(64)
    # Consuming from the master or from sibling substreams must not
    # perturb an addressed substream.
    master.generator().getrandbits(64)
    master.substream("trial", 4).generator().getrandbits(64)
    again = RandomSource(9).substream("trial", 3).generator().getrandbits(64)
    assert first == again


def test_substreams_with_distinct_labels_differ():
    m = RandomSource(0)
    vals = {m.substream("a", i).generator().getrandbits(64) for i in range(100)}
    vals |= {m.substream("b", i).generator().getrandbits(64) for i in range(100)}
    assert len(vals) == 200


def test_nested_substreams():
    r = RandomSource(1).substream("x").substream("y", 2)
    r2 = RandomSource(1).substream("x").substream("y", 2)
    assert r.generator().getrandbits(64) == r2.generator().getrandbits(64)


def test_fair_bit_is_binary_and_roughly_fair():
    rng = RandomSource(77)
    draws = [rng.fair_bit() for _ in range(4000)]
    assert set(draws) <= {0, 1}
    assert 1800 < sum(draws) < 2200


@pytest.mark.parametrize("seed", [1.5, None, b"seed", ("seed",)])
def test_a_seed_is_an_int_or_str(seed):
    with pytest.raises(ValidationError, match="seed must be an int or str"):
        RandomSource(seed)


def test_randrange_bounds():
    rng = RandomSource(5)
    seen = {rng.randrange(7) for _ in range(500)}
    assert seen == set(range(7))


class TestLazyUniform:
    def test_comparisons_consistent_with_bracket(self):
        """Once a comparison resolves, the value bracket must agree with it."""
        rng = RandomSource("lazy")
        for _ in range(300):
            u = rng.lazy_uniform()
            t = Fraction(1 + rng.randrange(99), 100)
            ge = u.at_least(t)
            lo = Fraction(u.value_bits, 1 << u.nbits)
            hi = Fraction(u.value_bits + 1, 1 << u.nbits)
            if ge:
                assert lo >= t
            else:
                assert hi <= t

    def test_trivial_thresholds_consume_no_bits(self):
        u = RandomSource(0).lazy_uniform()
        assert u.at_least(Fraction(0))
        assert not u.at_least(Fraction(2))
        assert u.nbits == 0

    def test_dyadic_threshold_exact(self):
        # u >= 1/2 is decided by the very first bit.
        rng = RandomSource(31)
        for _ in range(50):
            u = rng.lazy_uniform()
            got = u.at_least(Fraction(1, 2))
            assert got == (u.value_bits >> (u.nbits - 1) == 1)

    def test_empirical_rate_matches_threshold(self):
        rng = RandomSource("rate")
        t = Fraction(1, 3)
        hits = sum(not rng.lazy_uniform().at_least(t) for _ in range(3000))
        assert 850 < hits < 1150

    def test_an_unresolvable_comparison_stops_at_the_bit_cap(self):
        class Thirds:
            """A generator whose bits spell 1/3 = 0.010101... forever."""

            calls = 0

            def getrandbits(self, k):
                assert k == 8
                self.calls += 1
                return 0b01010101

        rng = Thirds()
        u = LazyUniform(rng)
        # every prefix of 1/3's expansion brackets 1/3 itself
        with pytest.raises(StopkeyError, match="failed to resolve in 4096 bits"):
            u.at_least(Fraction(1, 3))
        assert u.nbits == _MAX_BITS == 4096 and rng.calls == _MAX_BITS // 8
        assert u.value_bits == ((1 << _MAX_BITS) - 1) // 3

    def test_uniform_below_scales(self):
        rng = RandomSource("scaled")
        bound = Fraction(2, 5)
        hits = 0
        for _ in range(2000):
            g = uniform_below(rng, bound)
            hits += not g.at_least(Fraction(1, 5))
        # P(g < 1/5 | g < 2/5) = 1/2
        assert 850 < hits < 1150

    def test_uniform_below_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            uniform_below(RandomSource(1), Fraction(0))


def _old_at_least(u, threshold) -> bool:
    """LazyUniform.at_least as first written: Fraction bounds, then the loop."""
    if threshold <= 0:
        return True
    if threshold >= 1:
        return False
    tn, td = threshold.numerator, threshold.denominator
    while True:
        scaled = tn << u.nbits
        if u.value_bits * td >= scaled:
            return True
        if (u.value_bits + 1) * td <= scaled:
            return False
        u._extend()


class TestIntegerBounds:
    def test_matches_the_fraction_bounds_on_seeded_thresholds(self):
        rng = RandomSource("at-least-bounds")
        thresholds = [0, 1, 2, -1, Fraction(0), Fraction(1), Fraction(-3, 7), Fraction(9, 4)]
        for _ in range(200):
            den = 1 + rng.randrange(60)
            thresholds.append(Fraction(rng.randrange(3 * den) - den, den))
            n = rng.randrange(20)
            thresholds.append(Fraction(rng.randrange((1 << n) + 1), 1 << n))  # dyadic
        seen = set()
        for k, t in enumerate(thresholds):
            new = RandomSource("twin").substream(k).lazy_uniform()
            old = RandomSource("twin").substream(k).lazy_uniform()
            got = new.at_least(t)
            assert got == _old_at_least(old, t)
            assert (new.nbits, new.value_bits) == (old.nbits, old.value_bits)
            seen.add("low" if t <= 0 else "high" if t >= 1 else got)
        # both trivial branches and both loop outcomes were exercised
        assert seen == {"low", "high", True, False}


class TestSeedOnFirstDraw:
    def test_deriving_substreams_seeds_nothing(self, monkeypatch):
        built = count_seeding(monkeypatch)
        root = RandomSource(4)
        subs = [root.substream("trial", i).substream("source") for i in range(50)]
        assert built == []
        subs[7].fair_bit()
        assert len(built) == 1
        subs[7].generator().getrandbits(8)
        subs[7].lazy_uniform().at_least(Fraction(1, 3))
        assert len(built) == 1

    def test_streams_are_those_of_eager_seeding(self):
        for seed, path in ((5, ()), ("s", ("trial", "3", "source"))):
            material = repr((seed, path)).encode()
            eager = random.Random(int.from_bytes(hashlib.sha256(material).digest(), "big"))
            lazy = RandomSource(seed).substream(*path)
            assert [lazy.generator().getrandbits(32) for _ in range(4)] == [
                eager.getrandbits(32) for _ in range(4)
            ]
            assert lazy.randrange(1000) == eager.randrange(1000)

    def test_the_generator_is_random_random_of_the_sha256_seed(self):
        pick = random.Random(20)
        labels = ("trial", "source", "alice", "stage2", "keys", "table", "", "é'\\")
        for k in range(200):
            if k % 2:
                seed = "".join(pick.choice("ab0 -'\"é") for _ in range(pick.randrange(8)))
            else:
                seed = pick.randrange(-(1 << 80), 1 << 80) >> pick.randrange(80)
            path = tuple(
                str(pick.randrange(10**6)) if pick.random() < 0.4 else pick.choice(labels)
                for _ in range(pick.randrange(5))
            )
            material = repr((seed, path)).encode()
            want = random.Random(int.from_bytes(hashlib.sha256(material).digest(), "big"))
            got = RandomSource(seed).substream(*path).generator()
            assert got.getstate() == want.getstate()
            assert [got.getrandbits(32) for _ in range(64)] == [want.getrandbits(32) for _ in range(64)]
            assert got.randrange(1000) == want.randrange(1000)

    def test_threads_racing_on_a_fresh_source_share_one_stream(self):
        for round_ in range(5):
            src = RandomSource("race").substream(round_)
            barrier = threading.Barrier(8)
            got = []

            def draw():
                barrier.wait(timeout=4)
                got.append(src.generator().getrandbits(64))

            assert run_threads(draw, n_threads=8) == []
            fresh = RandomSource("race").substream(round_)
            assert sorted(got) == sorted(fresh.generator().getrandbits(64) for _ in range(8))


def _template_seed(pick: random.Random, kind: int) -> int | str:
    """A seed of one of the kinds repr spells differently: 0, an int of
    either sign; 1, an int above 2**64; 2, the empty string; 3, a string
    that may hold quotes, a backslash, a percent sign or a non-ASCII
    letter."""
    if kind == 0:
        return pick.randrange(-(1 << 80), 1 << 80)
    if kind == 1:
        return pick.randrange(1 << 64, 1 << 200)
    if kind == 2:
        return ""
    return "".join(pick.choice("ab0 -'\"\\%é") for _ in range(pick.randrange(1, 9)))


class TestStreamTemplate:
    LEAVES = ("source", "alice", "keys", "stage2")

    def test_streams_are_the_substreams_of_the_trial(self):
        pick = random.Random(35)
        for k in range(300):
            seed, leaf = _template_seed(pick, k % 4), pick.choice(self.LEAVES)
            i = pick.choice((0, 1, 9, 10, pick.randrange(10**9)))
            # every third root is itself a substream, with a path of its own
            root = RandomSource(seed) if k % 3 else RandomSource(seed).substream("block", k)
            got = StreamTemplate(root, "trial", leaf).stream(i)
            want = root.substream("trial", i).substream(leaf)
            assert got._material() == want._material()
            assert got.generator().getstate() == want.generator().getstate()
            # a random table's stream: no leaf past the index
            got = StreamTemplate(root, "table").stream(i)
            want = root.substream("table", i)
            assert got.generator().getstate() == want.generator().getstate()

    def test_a_leaf_that_spells_the_index_mark_is_refused(self):
        for leaf in ("0", "x'0'y"):
            with pytest.raises(ValidationError, match="index mark"):
                StreamTemplate(RandomSource(1), "trial", leaf)

    def test_a_stream_is_seeded_on_its_first_draw_only(self, monkeypatch):
        built = count_seeding(monkeypatch)
        source = StreamTemplate(RandomSource(4), "trial", "source").stream
        subs = [source(i) for i in range(50)]
        assert built == []
        subs[7].fair_bit()
        subs[7].generator().getrandbits(8)
        subs[7].lazy_uniform().at_least(Fraction(1, 3))
        assert built == [(RandomSource(4).substream("trial", 7, "source")._material(),)]

    def test_threads_racing_on_a_fresh_stream_share_one_generator(self):
        source = StreamTemplate(RandomSource("race"), "trial", "source").stream
        for i in range(5):
            src = source(i)
            barrier = threading.Barrier(8)
            got = []

            def draw():
                barrier.wait(timeout=4)
                got.append(src.generator().getrandbits(64))

            assert run_threads(draw, n_threads=8) == []
            fresh = source(i)
            assert sorted(got) == sorted(fresh.generator().getrandbits(64) for _ in range(8))
