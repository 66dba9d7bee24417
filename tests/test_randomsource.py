import hashlib
import random
import threading
from fractions import Fraction

import pytest

from stopkey.errors import ValidationError
from stopkey.randomsource import RandomSource

from conftest import count_seeding, run_threads
from literal_oracle import uniform_below


def test_same_seed_same_stream():
    a = RandomSource(123)
    b = RandomSource(123)
    assert [a.bits(16) for _ in range(20)] == [b.bits(16) for _ in range(20)]


def test_string_seeds_supported():
    a = RandomSource("trial-seed")
    b = RandomSource("trial-seed")
    assert a.bits(32) == b.bits(32)


def test_different_seeds_differ():
    xs = [RandomSource(s).bits(64) for s in range(50)]
    assert len(set(xs)) == 50


def test_substreams_are_deterministic_and_order_free():
    master = RandomSource(9)
    first = master.substream("trial", 3).bits(64)
    # Consuming from the master or from sibling substreams must not
    # perturb an addressed substream.
    master.bits(64)
    master.substream("trial", 4).bits(64)
    again = RandomSource(9).substream("trial", 3).bits(64)
    assert first == again


def test_substreams_with_distinct_labels_differ():
    m = RandomSource(0)
    vals = {m.substream("a", i).bits(64) for i in range(100)}
    vals |= {m.substream("b", i).bits(64) for i in range(100)}
    assert len(vals) == 200


def test_nested_substreams():
    r = RandomSource(1).substream("x").substream("y", 2)
    r2 = RandomSource(1).substream("x").substream("y", 2)
    assert r.bits(64) == r2.bits(64)


def test_fair_bit_is_binary_and_roughly_fair():
    rng = RandomSource(77)
    draws = [rng.fair_bit() for _ in range(4000)]
    assert set(draws) <= {0, 1}
    assert 1800 < sum(draws) < 2200


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
            lo, hi = u.as_bracket()
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
        hits = sum(rng.lazy_uniform().less_than(t) for _ in range(3000))
        assert 850 < hits < 1150

    def test_uniform_below_scales(self):
        rng = RandomSource("scaled")
        bound = Fraction(2, 5)
        hits = 0
        for _ in range(2000):
            g = uniform_below(rng, bound)
            hits += g.less_than(Fraction(1, 5))
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
            new = RandomSource("twin", (str(k),)).lazy_uniform()
            old = RandomSource("twin", (str(k),)).lazy_uniform()
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
        subs[7].bits(8)
        subs[7].lazy_uniform().at_least(Fraction(1, 3))
        assert len(built) == 1

    def test_streams_are_those_of_eager_seeding(self):
        for seed, path in ((5, ()), ("s", ("trial", "3", "source"))):
            material = repr((seed, path)).encode()
            eager = random.Random(int.from_bytes(hashlib.sha256(material).digest(), "big"))
            lazy = RandomSource(seed, path)
            assert [lazy.bits(32) for _ in range(4)] == [eager.getrandbits(32) for _ in range(4)]
            assert lazy.randrange(1000) == eager.randrange(1000)

    def test_threads_racing_on_a_fresh_source_share_one_stream(self):
        for round_ in range(5):
            src = RandomSource("race", (str(round_),))
            barrier = threading.Barrier(8)
            got = []

            def draw():
                barrier.wait(timeout=4)
                got.append(src.bits(64))

            assert run_threads(draw, n_threads=8) == []
            fresh = RandomSource("race", (str(round_),))
            assert sorted(got) == sorted(fresh.bits(64) for _ in range(8))
