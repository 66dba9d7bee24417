import itertools
from fractions import Fraction

import pytest

from stopkey import dyadic
from stopkey.common import KeyAgreeEngine
from stopkey.dyadic import ROUND_WEIGHT_ENTROPY, KnuthYaoSampler
from stopkey.errors import ValidationError
from stopkey.formats import decomposition_document
from stopkey.keylaws import PrefixCodebook
from stopkey.probability import entropy
from stopkey.randomsource import RandomSource

from conftest import (
    CORPUS,
    dyadic_exponent,
    pmf,
    random_rational_pmf,
    round_weight_partial_entropy,
)


def is_dyadic(p) -> bool:
    """Every nonzero mass is a nonnegative power of 1/2."""
    return all(m == 0 or dyadic_exponent(m) is not None for m in p.masses)


def removed(e: KeyAgreeEngine, w: int, i: int) -> Fraction:
    """Mass round w takes from symbol i: 2**-(w + |codeword|), or 0."""
    length = e.round(w).length_of(i)
    return Fraction(0) if length is None else Fraction(1, 1 << (w + length))


def codewords(e: KeyAgreeEngine, w: int) -> dict[int, str]:
    """Round w's codebook, in selection order."""
    rnd = e.round(w)
    return {i: rnd.codeword(i) for i in rnd.order}


def residual_after(p, w: int) -> tuple[Fraction, ...]:
    """Residual masses after exactly w rounds, from a fresh engine."""
    e = KeyAgreeEngine(p)
    e.ensure(w)
    return e.residual()


class TestHalfSplit:
    """Each round splits off exactly half of the remaining mass."""

    def test_removes_exactly_half(self, corpus_pmf):
        e = KeyAgreeEngine(corpus_pmf)
        for w in range(1, 9):
            before = sum(residual_after(corpus_pmf, w - 1), Fraction(0))
            taken = sum((removed(e, w, i) for i in range(len(corpus_pmf))), Fraction(0))
            assert taken == before / 2 == Fraction(1, 1 << w)
            assert is_dyadic(e.round_conditional(w))
            assert all(m >= 0 for m in residual_after(corpus_pmf, w))

    def test_randomized_pmfs(self):
        rng = RandomSource("half-split")
        for _ in range(80):
            p = random_rational_pmf(rng)
            e = KeyAgreeEngine(p)
            taken = [removed(e, 1, i) for i in range(len(p))]
            assert sum(taken, Fraction(0)) == Fraction(1, 2)
            assert is_dyadic(e.round_conditional(1))
            # conditional is the removed mass renormalized by the half
            for r, c in zip(taken, e.round_conditional(1).masses):
                assert c == 2 * r

    def test_single_symbol_residual_split_by_fiat(self):
        e = KeyAgreeEngine(CORPUS["point"])
        assert removed(e, 1, 0) == Fraction(1, 2)
        assert e.round_conditional(1).masses == (Fraction(1),)


class TestDecomposition:
    def test_reconstruction_identity_per_symbol(self, corpus_pmf):
        """Round masses plus the residual rebuild the source exactly."""
        e = KeyAgreeEngine(corpus_pmf)
        for w in (1, 5, 17, 40):
            rebuilt = [
                r + sum((removed(e, v, i) for v in range(1, w + 1)), Fraction(0))
                for i, r in enumerate(residual_after(corpus_pmf, w))
            ]
            assert tuple(rebuilt) == corpus_pmf.masses

    def test_reconstruction_identity_randomized(self):
        rng = RandomSource("reconstruct")
        for _ in range(25):
            p = random_rational_pmf(rng)
            e = KeyAgreeEngine(p)
            w = 1 + rng.randrange(40)
            e.ensure(w)
            for i, r in enumerate(e.residual()):
                taken = sum((removed(e, v, i) for v in range(1, w + 1)), Fraction(0))
                assert r + taken == p.masses[i]

    def test_round_weights_and_residual_mass(self, corpus_pmf):
        e = KeyAgreeEngine(corpus_pmf)
        for w in range(1, 13):
            assert is_dyadic(e.round_conditional(w))
            taken = sum((removed(e, w, i) for i in range(len(corpus_pmf))), Fraction(0))
            assert taken == Fraction(1, 1 << w)
        assert sum(e.residual(), Fraction(0)) == Fraction(1, 1 << 12)

    def test_codewords_full_prefix_free_on_support(self, corpus_pmf):
        """Each round's codeword set is a full prefix-free codebook, with
        codeword lengths the negative logs of the conditional masses."""
        e = KeyAgreeEngine(corpus_pmf)
        for w in range(1, 11):
            codes = codewords(e, w)
            book = PrefixCodebook(tuple(codes.values()))
            assert book.is_full
            conditional = e.round_conditional(w)
            for i, code in codes.items():
                assert len(code) == dyadic_exponent(conditional.masses[i])

    def test_geometric_weight_entropy_is_two(self):
        assert ROUND_WEIGHT_ENTROPY == 2
        assert round_weight_partial_entropy(10) == 2 - Fraction(12, 1 << 10)
        # partial sums converge monotonically from below
        prev = Fraction(0)
        for n in range(1, 20):
            cur = round_weight_partial_entropy(n)
            assert prev < cur < 2
            prev = cur

    def test_two_symbol_uniform_rounds_are_alternating_points(self):
        # a dyadic uniform pair never splits both symbols in one round:
        # round 1 takes all of symbol 0, round 2 all of symbol 1
        e = KeyAgreeEngine(CORPUS["uniform2"])
        assert codewords(e, 1) == {0: ""}
        assert codewords(e, 2) == {1: ""}

    def test_uniform_pair_conditional_gets_single_bit_codewords(self):
        # round 1 of uniform3 has the conditional (1/2, 1/2, 0)
        e = KeyAgreeEngine(CORPUS["uniform3"])
        assert e.round_conditional(1).masses == (Fraction(1, 2), Fraction(1, 2), 0)
        assert codewords(e, 1) == {0: "0", 1: "1"}

    def test_cycle_detected_for_uniform3(self):
        p = CORPUS["uniform3"]
        # after two rounds the residual is the source scaled by 2**-2, so
        # the rounds repeat with period 2 from the start
        assert residual_after(p, 2) == tuple(m / 4 for m in p.masses)
        # rounds alternate: split a,b then close out c
        e = KeyAgreeEngine(p)
        assert codewords(e, 1) == {0: "0", 1: "1"}
        assert codewords(e, 2) == {2: ""}
        for w in range(3, 9):
            assert codewords(e, w) == codewords(e, w - 2)

    def test_dyadic_source_terminates_in_point_rounds(self):
        # (1/2, 1/4, 1/4): every round removes one whole symbol
        e = KeyAgreeEngine(CORPUS["dyadic3"])
        for w in range(1, 7):
            assert list(codewords(e, w).values()) == [""]


class TestAlgorithmTrace:
    """Frozen hand-execution of the greedy on (2/5, 3/10, 1/5, 1/10).

    Round 1 budget 1/2: sorted masses (2/5, 3/10, 1/5, 1/10) admit
    chunks 1/4 (symbol 0) and 1/4 (symbol 1). Round 2 budget 1/4 on
    residual (3/20, 1/20, 1/5, 1/10): sorted order puts symbol 2 first
    (chunk 1/8), then symbol 0 (chunk 1/8)."""

    def test_round_one(self):
        e = KeyAgreeEngine(CORPUS["tenths"])
        assert removed(e, 1, 0) == Fraction(1, 4)
        assert removed(e, 1, 1) == Fraction(1, 4)
        assert removed(e, 1, 2) == 0 and removed(e, 1, 3) == 0
        assert codewords(e, 1) == {0: "0", 1: "1"}

    def test_round_two(self):
        e = KeyAgreeEngine(CORPUS["tenths"])
        assert removed(e, 2, 2) == Fraction(1, 8)
        assert removed(e, 2, 0) == Fraction(1, 8)
        assert codewords(e, 2) == {2: "0", 0: "1"}
        assert residual_after(CORPUS["tenths"], 1) == (
            Fraction(3, 20), Fraction(1, 20), Fraction(1, 5), Fraction(1, 10)
        )

    def test_rounds_are_cached_values(self):
        e = KeyAgreeEngine(CORPUS["tenths"])
        assert e.round(3) is e.round(3)


class TestKnuthYao:
    def test_point_mass_costs_zero_bits(self):
        sym, bits = KnuthYaoSampler(CORPUS["point"]).sample(RandomSource(0))
        assert (sym, bits) == (0, 0)

    def test_uniform2_costs_one_bit_always(self):
        rng = RandomSource(3)
        sampler = KnuthYaoSampler(CORPUS["uniform2"])
        for _ in range(64):
            _, bits = sampler.sample(rng)
            assert bits == 1

    def test_samples_match_distribution(self):
        p = CORPUS["tenths"]
        sampler = KnuthYaoSampler(p)
        rng = RandomSource("ky-dist")
        counts = [0] * len(p)
        n = 8000
        for _ in range(n):
            sym, _ = sampler.sample(rng)
            counts[sym] += 1
        for i, m in enumerate(p.masses):
            assert abs(counts[i] / n - float(m)) < 0.03

    def test_mean_bits_at_most_entropy_plus_two(self, corpus_pmf):
        sampler = KnuthYaoSampler(corpus_pmf)
        rng = RandomSource("ky-mean")
        n = 3000
        used = sum(sampler.sample(rng)[1] for _ in range(n))
        # modest trial count; slack covers sampling noise at 5 sigma
        assert used / n <= entropy(corpus_pmf) + 2 + 0.2

    def test_zero_mass_symbols_never_drawn(self):
        p = pmf("1/2", "0", "1/2")
        sampler = KnuthYaoSampler(p)
        rng = RandomSource(8)
        assert all(sampler.sample(rng)[0] != 1 for _ in range(200))

    def test_a_walk_past_the_depth_cap_is_refused(self, monkeypatch):
        # every level of thirds holds one terminal, and a 1 bit walks past
        # it, so a stream of ones never stops; a 0 bit stops the walk
        monkeypatch.setattr(dyadic, "_MAX_DEPTH", 12)

        class Forced:
            def __init__(self, bits):
                self.bits = iter(bits)
                self.read = 0

            def fair_bit(self):
                self.read += 1
                return next(self.bits)

        assert KnuthYaoSampler(CORPUS["thirds"]).sample(Forced([1] * 11 + [0])) == (0, 12)
        ones = Forced(itertools.repeat(1))
        with pytest.raises(ValidationError, match="exceeded depth 12"):
            KnuthYaoSampler(CORPUS["thirds"]).sample(ones)
        assert ones.read <= 13


def test_decompose_rejects_bad_depth():
    e = KeyAgreeEngine(CORPUS["thirds"])
    with pytest.raises(ValidationError):
        e.round(0)
    with pytest.raises(ValidationError):
        decomposition_document(e, -1)


def test_lazy_extension_is_idempotent():
    # one round at a time, or six at once, from independent engines
    stepwise = KeyAgreeEngine(CORPUS["sevenths"])
    first = [codewords(stepwise, w) for w in range(1, 7)]
    at_once = KeyAgreeEngine(CORPUS["sevenths"])
    at_once.ensure(6)
    assert [codewords(at_once, w) for w in range(1, 7)] == first
    assert stepwise.residual() == at_once.residual()
