from fractions import Fraction

import pytest

from stopkey.common import (
    CommonLaw,
    KeyAgreeEngine,
    alice_keygen,
    bob_keygen,
    engine_for,
    exact_common_law,
)
from stopkey.dyadic import round_weight_partial_entropy
from stopkey.errors import ProtocolError, ValidationError
from stopkey.keylaws import verify_rsbs
from stopkey.probability import dyadic_exponent
from stopkey.randomsource import RandomSource

from conftest import CORPUS, pmf, random_rational_pmf, run_threads
from literal_oracle import keyagree_literal, uniform_below


class TestFrozenRounds:
    """Hand-worked round tables the optimized engine must reproduce."""

    def test_tenths_round_one_codewords(self):
        e = KeyAgreeEngine(CORPUS["tenths"])
        r = e.round(1)
        assert [(s.index, s.code) for s in r.selected] == [(0, "0"), (1, "1")]

    def test_tenths_round_two_resolves_tie_by_residual_mass(self):
        # residuals after round 1: 3/20, 1/20, 1/5, 1/10. Symbol 2 (1/5)
        # outweighs symbol 0 (3/20), so it is selected first and gets "0"
        # even though both end up with conditional mass 1/2.
        e = KeyAgreeEngine(CORPUS["tenths"])
        r = e.round(2)
        assert [(s.index, s.code) for s in r.selected] == [(2, "0"), (0, "1")]

    def test_bob_replays_the_tie_round(self):
        p = CORPUS["tenths"]
        assert bob_keygen(p, 2, 2) == "0"
        assert bob_keygen(p, 0, 2) == "1"

    def test_dyadic_source_stops_each_symbol_in_its_own_round(self):
        # (1/2, 1/4, 1/4): every round removes one whole symbol, so W is
        # a function of X and every key is empty
        e = KeyAgreeEngine(CORPUS["dyadic3"])
        for w, x in ((1, 0), (2, 1), (3, 2)):
            r = e.round(w)
            assert [(s.index, s.code) for s in r.selected] == [(x, "")]

    def test_point_mass_key_is_always_empty_with_geometric_round(self):
        e = KeyAgreeEngine(CORPUS["point"])
        assert e.round_distribution(0, 10) == [
            (w, Fraction(1, 1 << w)) for w in range(1, 11)
        ]
        rng = RandomSource("point-run")
        for _ in range(50):
            key, w = e.alice(0, rng)
            assert key == ""
            assert w >= 1


class TestZeroError:
    def test_alice_and_bob_always_agree(self, corpus_pmf):
        e = engine_for(corpus_pmf)
        rng = RandomSource("agree")
        for x in corpus_pmf.support():
            for _ in range(200):
                key, w = e.alice(x, rng)
                assert e.bob(x, w) == key

    def test_agreement_on_random_rational_sources(self):
        rng = RandomSource("agree-random")
        for trial in range(20):
            p = random_rational_pmf(rng.substream("pmf", trial))
            e = engine_for(p)
            run = rng.substream("run", trial)
            for _ in range(100):
                x = 0
                key, w = e.alice(x, run)
                assert e.bob(x, w) == key

    def test_helper_functions_match_engine(self):
        p = CORPUS["sevenths"]
        key, w = alice_keygen(p, 2, RandomSource("helpers"))
        assert bob_keygen(p, 2, w) == key


class TestLiteralDifferential:
    """The naive per-round loop and the integer engine must emit identical
    keys and round indexes when fed the same bit stream."""

    def test_alice_matches_literal_bit_for_bit(self, corpus_pmf):
        for x in corpus_pmf.support():
            for trial in range(40):
                r1 = RandomSource("diff").substream(x, trial)
                r2 = RandomSource("diff").substream(x, trial)
                got = alice_keygen(corpus_pmf, x, r1)
                want = keyagree_literal(
                    "alice",
                    corpus_pmf,
                    x,
                    g=uniform_below(r2, corpus_pmf.masses[x]),
                )
                assert got == want

    def test_alice_matches_literal_on_random_sources(self):
        rng = RandomSource("diff-random")
        for trial in range(15):
            p = random_rational_pmf(rng.substream("pmf", trial))
            for x in p.support()[:3]:
                r1 = rng.substream("a", trial, x)
                r2 = RandomSource("diff-random").substream("a", trial, x)
                assert alice_keygen(p, x, r1) == keyagree_literal(
                    "alice", p, x, g=uniform_below(r2, p.masses[x])
                )

    def test_bob_matches_literal_on_enumerated_rounds(self, corpus_pmf):
        law = exact_common_law(corpus_pmf, 8)
        for x, w, key, _prob in law.atoms:
            assert keyagree_literal("bob", corpus_pmf, x, w=w) == (key, w)
            assert bob_keygen(corpus_pmf, x, w) == key

    def test_bob_matches_literal_on_every_symbol_and_round(self, corpus_pmf):
        """Every round codebook, reachable pairs and unreachable ones alike."""
        e = KeyAgreeEngine(corpus_pmf)
        for x in range(len(corpus_pmf)):
            for w in range(1, 13):
                try:
                    want = keyagree_literal("bob", corpus_pmf, x, w=w)
                except ProtocolError:
                    with pytest.raises(ProtocolError):
                        e.bob(x, w)
                else:
                    assert (e.bob(x, w), w) == want

    def test_literal_alice_accepts_exact_fraction_draw(self):
        p = CORPUS["tenths"]
        # g just under p(0) stops in the first round that touches symbol 0
        key, w = keyagree_literal("alice", p, 0, g=Fraction(39, 100))
        assert (key, w) == ("0", 1)


class TestEnumeratedLaw:
    def test_round_marginal_is_exactly_two_to_minus_w(self, corpus_pmf):
        law = exact_common_law(corpus_pmf, 12)
        by_round: dict[int, Fraction] = {}
        for _x, w, prob in law.joint_w_x():
            by_round[w] = by_round.get(w, Fraction(0)) + prob
        for w in range(1, 13):
            assert by_round[w] == Fraction(1, 1 << w)

    def test_total_mass_and_tail_are_complementary(self, corpus_pmf):
        law = exact_common_law(corpus_pmf, 10)
        total = sum(prob for _, _, _, prob in law.atoms)
        assert total + law.tail == 1
        assert law.tail == Fraction(1, 1 << 10)

    def test_expected_length_equals_conditional_entropy(self, corpus_pmf):
        # E|K| and the enumerated H(X | W) are the same rational: round-w
        # codeword lengths are the dyadic exponents of the conditional
        w_max = 14
        law = exact_common_law(corpus_pmf, w_max)
        e = engine_for(corpus_pmf)
        h_cond = Fraction(0)
        for w in range(1, w_max + 1):
            cond = e.round_conditional(w)
            h_w = sum(
                (m * dyadic_exponent(m) for m in cond.masses if m > 0),
                Fraction(0),
            )
            h_cond += Fraction(1, 1 << w) * h_w
        assert law.expected_length == h_cond

    def test_announcement_entropy_partial_sum(self, corpus_pmf):
        # E[W 1{W <= w_max}] = 2 - (w_max + 2) 2**-w_max
        w_max = 16
        law = exact_common_law(corpus_pmf, w_max)
        ew = sum((Fraction(w) * prob for _, w, prob in law.joint_w_x()), Fraction(0))
        assert ew == round_weight_partial_entropy(w_max)

    def test_uniform3_expected_length_closed_form(self):
        law = exact_common_law(CORPUS["uniform3"], 20)
        assert law.expected_length == Fraction(349525, 524288)

    def test_dyadic_source_has_zero_length_keys(self):
        law = exact_common_law(CORPUS["dyadic3"], 10)
        assert law.expected_length == 0
        assert all(key == "" for _, _, key, _ in law.atoms)

    def test_tenths_first_round_key_law_is_uniform_bit(self):
        law = exact_common_law(CORPUS["tenths"], 6)
        k1 = law.conditional_key_law(1)
        assert dict(k1.atoms) == {"0": Fraction(1, 2), "1": Fraction(1, 2)}

    def test_conditional_key_law_unknown_round_rejected(self):
        law = exact_common_law(CORPUS["tenths"], 4)
        with pytest.raises(ValidationError):
            law.conditional_key_law(5)

    def test_conditional_key_laws_are_randomly_stopped(self, corpus_pmf):
        law = exact_common_law(corpus_pmf, 10)
        for w in range(1, 11):
            verdict = verify_rsbs(law.conditional_key_law(w))
            assert verdict.valid, verdict.violations

    def test_unconditional_key_law_carries_the_tail(self):
        law = exact_common_law(CORPUS["tenths"], 8)
        k = law.key_law()
        assert k.tail == Fraction(1, 256)
        assert sum(m for _, m in k.atoms) == 1 - Fraction(1, 256)

    def test_atoms_replay_through_bob(self, corpus_pmf):
        law = exact_common_law(corpus_pmf, 8)
        for x, w, key, _ in law.atoms:
            assert bob_keygen(corpus_pmf, x, w) == key

    def test_per_symbol_round_weights_sum_to_mass(self):
        p = CORPUS["tenths"]
        e = engine_for(p)
        w_max = 30
        for x in p.support():
            dist = e.round_distribution(x, w_max)
            covered = sum((q for _, q in dist), Fraction(0)) * p.masses[x]
            assert p.masses[x] - covered <= Fraction(1, 1 << w_max)


class TestErrorPaths:
    def test_bad_role(self):
        with pytest.raises(ValidationError):
            keyagree_literal("carol", CORPUS["uniform2"], 0, w=1)

    def test_symbol_out_of_range(self):
        with pytest.raises(ValidationError):
            keyagree_literal("bob", CORPUS["uniform2"], 5, w=1)

    def test_zero_mass_symbol_rejected(self):
        p = pmf("1/2", "0", "1/2")
        with pytest.raises(ValidationError):
            keyagree_literal("bob", p, 1, w=1)
        with pytest.raises(ValidationError):
            engine_for(p).alice(1, RandomSource("zm"))

    def test_bob_requires_round_index(self):
        with pytest.raises(ValidationError):
            keyagree_literal("bob", CORPUS["uniform2"], 0)

    def test_alice_requires_a_randomness_source(self):
        with pytest.raises(ValidationError):
            keyagree_literal("alice", CORPUS["uniform2"], 0)

    def test_alice_draw_out_of_range(self):
        with pytest.raises(ValidationError):
            keyagree_literal(
                "alice", CORPUS["tenths"], 1, g=Fraction(1, 2)
            )

    def test_unreachable_round_symbol_pair(self):
        # round 1 of tenths selects symbols 0 and 1 only
        with pytest.raises(ProtocolError, match="unreachable"):
            bob_keygen(CORPUS["tenths"], 2, 1)
        with pytest.raises(ProtocolError, match="unreachable"):
            keyagree_literal("bob", CORPUS["tenths"], 2, w=1)

    def test_round_numbering_starts_at_one(self):
        e = engine_for(CORPUS["uniform2"])
        with pytest.raises(ValidationError):
            e.round(0)
        with pytest.raises(ValidationError):
            exact_common_law(CORPUS["uniform2"], 0)

    def test_round_depth_limit(self):
        e = engine_for(CORPUS["uniform2"])
        with pytest.raises(ValidationError):
            e.ensure(30000)


class TestEngineCache:
    def test_same_pmf_shares_an_engine(self):
        a = engine_for(CORPUS["sevenths"])
        b = engine_for(CORPUS["sevenths"])
        assert a is b


class TestThreadSafety:
    """engine_for shares one engine per pmf across the process."""

    def test_concurrent_round_building(self):
        p = pmf(*(Fraction(i, 300 * 301 // 2) for i in range(1, 301)))
        ref = KeyAgreeEngine(p)
        ref.ensure(40)
        for _ in range(3):
            e = KeyAgreeEngine(p)
            assert run_threads(lambda: e.ensure(40)) == []
            # exactly 40 rounds built, each equal to the serial build
            assert e.residual() == ref.residual()
            for w in range(1, 41):
                assert e.round(w).packed == ref.round(w).packed
                assert e.round(w).order == ref.round(w).order

    def test_concurrent_threshold_walk(self):
        p = CORPUS["tenths"]
        ref = KeyAgreeEngine(p)
        want = ref._walk(0)
        want.entry(30, ref, 0)
        for _ in range(5):
            e = KeyAgreeEngine(p)
            assert run_threads(lambda: e._walk(0).entry(30, e, 0)) == []
            walk = e._walk(0)
            assert walk.rounds[:31] == want.rounds[:31]
            assert walk.thresholds[:31] == want.thresholds[:31]
