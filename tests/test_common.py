import gc
import tracemalloc
from fractions import Fraction

import pytest

from stopkey import common
from stopkey.common import (
    _LEN_BITS,
    _MAX_ROUNDS,
    CommonLaw,
    KeyAgreeEngine,
    alice_keygen,
    bob_keygen,
    engine_for,
    exact_common_law,
)
from stopkey.errors import InvariantError, ProtocolError, ValidationError
from stopkey.keylaws import verify_rsbs
from stopkey.probability import Pmf
from stopkey.randomsource import RandomSource

from conftest import (
    CORPUS,
    dyadic_exponent,
    pmf,
    positive_indices,
    random_rational_pmf,
    round_weight_partial_entropy,
    run_threads,
)
from literal_oracle import keyagree_literal, literal_rounds, uniform_below


class TestFrozenRounds:
    """Hand-worked round tables the optimized engine must reproduce."""

    def test_tenths_round_one_codewords(self):
        e = KeyAgreeEngine(CORPUS["tenths"])
        r = e.round(1)
        assert [(i, r.codeword(i)) for i in r.order] == [(0, "0"), (1, "1")]

    def test_tenths_round_two_resolves_tie_by_residual_mass(self):
        # residuals after round 1: 3/20, 1/20, 1/5, 1/10. Symbol 2 (1/5)
        # outweighs symbol 0 (3/20), so it is selected first and gets "0"
        # even though both end up with conditional mass 1/2.
        e = KeyAgreeEngine(CORPUS["tenths"])
        r = e.round(2)
        assert [(i, r.codeword(i)) for i in r.order] == [(2, "0"), (0, "1")]

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
            assert [(i, r.codeword(i)) for i in r.order] == [(x, "")]

    def test_point_mass_key_is_always_empty_with_geometric_round(self):
        e = KeyAgreeEngine(CORPUS["point"])
        # P(W = w | x) = 2**-(w + length) / p(x), here with p(x) = 1
        weights = [(w, Fraction(1, 1 << (w + n))) for w, n in e.round_lengths(0, 10)]
        assert weights == [(w, Fraction(1, 1 << w)) for w in range(1, 11)]
        rng = RandomSource("point-run")
        for _ in range(50):
            key, w = alice_keygen(CORPUS["point"], 0, rng)
            assert key == ""
            assert w >= 1


class TestZeroError:
    def test_alice_and_bob_always_agree(self, corpus_pmf):
        e = engine_for(corpus_pmf)
        rng = RandomSource("agree")
        for x in positive_indices(corpus_pmf):
            for _ in range(200):
                key, w = alice_keygen(corpus_pmf, x, rng)
                assert e.bob(x, w) == key

    def test_agreement_on_random_rational_sources(self):
        rng = RandomSource("agree-random")
        for trial in range(20):
            p = random_rational_pmf(rng.substream("pmf", trial))
            e = engine_for(p)
            run = rng.substream("run", trial)
            for _ in range(100):
                x = 0
                key, w = alice_keygen(p, x, run)
                assert e.bob(x, w) == key

    def test_helper_functions_match_engine(self):
        p = CORPUS["sevenths"]
        key, w = alice_keygen(p, 2, RandomSource("helpers"))
        assert bob_keygen(p, 2, w) == key

    def test_the_draw_formats_no_codeword(self, monkeypatch):
        # alice returns the round alone; alice_keygen formats the one key
        calls = []
        unpack = common._unpack_code

        def counting(p):
            calls.append(p)
            return unpack(p)

        monkeypatch.setattr(common, "_unpack_code", counting)
        p = CORPUS["tenths"]
        rng = RandomSource("draw-count")
        rounds = [engine_for(p).alice(x, rng) for x in range(4) for _ in range(250)]
        assert all(type(w) is int and w >= 1 for w in rounds)
        assert calls == []
        keys = [alice_keygen(p, 2, rng) for _ in range(250)]
        assert len(calls) == len(keys)


class TestLiteralDifferential:
    """The naive per-round loop and the integer engine must emit identical
    keys and round indexes when fed the same bit stream."""

    def test_alice_matches_literal_bit_for_bit(self, corpus_pmf):
        for x in positive_indices(corpus_pmf):
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
            for x in positive_indices(p)[:3]:
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


def _literal_period(p) -> tuple[int, int]:
    """(s, T) from the literal loop: round s + T is the first whose residual
    is an earlier round's, round s's, halved T times."""
    seen = {tuple(p.masses): 0}
    for w, _, _, residual in literal_rounds(p, _MAX_ROUNDS):
        state = tuple(r * (1 << w) for r in residual)
        if state in seen:
            return seen[state], w - seen[state]
        seen[state] = w
    raise AssertionError("no repeat within the round cap")


def _packed(rnd) -> dict[int, int]:
    """Every symbol's packed codeword entry in ``rnd``, for the symbols it
    selects."""
    return {i: c for i in range(len(rnd.pos)) if (c := rnd.packed(i)) is not None}


def _matches_literal(p, depth: int) -> KeyAgreeEngine:
    """A fresh engine whose rounds 1..depth, (order, packed entries), and
    the residual after each equal the literal loop's."""
    e = KeyAgreeEngine(p)
    for w, order, codes, residual in literal_rounds(p, depth):
        e.ensure(w)
        rnd = e.round(w)
        packed = {i: (int(c, 2) if c else 0) << _LEN_BITS | len(c) for i, c in codes.items()}
        assert (len(e._rounds), tuple(rnd.order), _packed(rnd)) == (w, order, packed), (p, w)
        assert e.residual() == residual, (p, w)
    return e


def _counting(monkeypatch, name: str) -> list:
    """Record the arguments of every call of the engine method ``name``."""
    calls = []
    raw = getattr(KeyAgreeEngine, name)

    def counting(self, *args):
        calls.append(args)
        return raw(self, *args)

    monkeypatch.setattr(KeyAgreeEngine, name, counting)
    return calls


class TestPeriodicRounds:
    """Once the residual repeats, halved, the engine shares the period's
    rounds instead of building them; every round and residual stays the
    literal loop's."""

    @staticmethod
    def _check(p) -> tuple[int, int]:
        s, t = _literal_period(p)
        depth = max(3 * (s + t), 40)
        e = _matches_literal(p, depth)
        # the engine found the period and lists the same round again
        assert e._period == t
        assert e.round(depth).order is e.round(depth - t).order
        assert e.round(depth) is e.round(depth - t)
        return s, t

    def test_corpus_matches_the_literal_loop(self, corpus_pmf):
        self._check(corpus_pmf)

    def test_known_periods(self):
        assert self._check(CORPUS["tenths"]) == (0, 4)
        assert self._check(CORPUS["point"]) == (0, 1)
        # dyadic denominators repeat with period 1
        assert self._check(CORPUS["dyadic3"]) == (2, 1)
        assert self._check(pmf("1/2", "1/8", "3/8")) == (3, 1)

    def test_seeded_pmfs_match_the_literal_loop(self):
        rng = RandomSource("periodic-rounds")
        periods = set()
        for k in range(200):
            periods.add(self._check(random_rational_pmf(rng.substream("pmf", k))))
        assert len(periods) > 20

    def test_a_period_past_the_depth_clones_nothing(self):
        # 2 has order 82 modulo 83
        e = _matches_literal(pmf("1/83", "82/83"), 40)
        assert e._period == 0
        assert len({id(e.round(w).order) for w in range(1, 41)}) == 40

    def test_a_residual_is_copied_only_after_a_failed_period_test(self):
        # 2 has order 82 modulo 83: no test in 40 rounds, nothing copied
        e = KeyAgreeEngine(pmf("1/83", "82/83"))
        e.ensure(40)
        assert e._kept[0] is e.pmf.numerators
        # dyadic3, (2, 1, 1) / 4, is tested after every round: the tests
        # after rounds 1 and 2 fail and keep their residuals, and round
        # 3's residual, (0, 0, 1) / 8, is the kept (0, 0, 1) / 4 halved
        e = KeyAgreeEngine(CORPUS["dyadic3"])
        e.ensure(2)
        assert e._period == 0 and e._kept == ([0, 0, 1], 2)
        e.ensure(3)
        assert (e._period, e._built, e._kept) == (1, 3, ([0, 0, 1], 2))

    def test_tenths_builds_at_most_s_plus_two_periods(self, monkeypatch):
        s, t = _literal_period(CORPUS["tenths"])
        built = _counting(monkeypatch, "_advance")
        e = KeyAgreeEngine(CORPUS["tenths"])
        e.ensure(_MAX_ROUNDS)
        assert len(built) <= s + 2 * t
        assert e.residual() == tuple(m / (1 << _MAX_ROUNDS) for m in CORPUS["tenths"].masses)

    def test_wide_pmf_runs_no_period_check_in_thirty_rounds(self, monkeypatch):
        # wide-keygen's source: its denominator is 4 * 125125, and 2 has
        # order 300 modulo 125125, so no round before 300 can repeat
        n = 1000
        p = pmf(*(Fraction(i, n * (n + 1) // 2) for i in range(1, n + 1)))
        assert p.denominator == 4 * 125125
        assert min(t for t in range(1, 301) if pow(2, t, 125125) == 1) == 300
        checks = _counting(monkeypatch, "_repeats")
        built = _counting(monkeypatch, "_advance")
        KeyAgreeEngine(p).ensure(30)
        assert (len(built), len(checks)) == (30, 0)


class TestEnumeratedLaw:
    def test_round_marginal_is_exactly_two_to_minus_w(self, corpus_pmf):
        law = exact_common_law(corpus_pmf, 12)
        by_round: dict[int, Fraction] = {}
        for _x, w, _key, prob in law.atoms:
            by_round[w] = by_round.get(w, Fraction(0)) + prob
        for w in range(1, 13):
            assert by_round[w] == Fraction(1, 1 << w)

    def test_law_keeps_its_source_pmf(self, corpus_pmf):
        law = exact_common_law(corpus_pmf, 6)
        assert law.source is corpus_pmf
        assert law.w_max == 6

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
        ew = sum((Fraction(w) * prob for _, w, _, prob in law.atoms), Fraction(0))
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
        for x in positive_indices(p):
            # p(x) P(W = w | x) = 2**-(w + length): the chunk round w removes
            lengths = e.round_lengths(x, w_max)
            covered = sum((Fraction(1, 1 << (w + n)) for w, n in lengths), Fraction(0))
            assert 0 <= p.masses[x] - covered <= Fraction(1, 1 << w_max)


class TestErrorPaths:
    def test_round_lengths_refuse_a_zero_mass_symbol(self):
        with pytest.raises(ValidationError, match="zero mass"):
            KeyAgreeEngine(pmf("1/2", "0", "1/2")).round_lengths(1, 10)

    def test_symbols_outside_the_alphabet_are_refused(self):
        # a negative index must not read the last symbol's position
        e = KeyAgreeEngine(CORPUS["tenths"])
        for x in (-1, len(CORPUS["tenths"])):
            with pytest.raises(ValidationError, match="outside the alphabet"):
                e.alice(x, RandomSource("outside"))
            with pytest.raises(ValidationError, match="outside the alphabet"):
                e.round_lengths(x, 10)

    def test_bob_outside_the_alphabet_is_unreachable(self):
        e = KeyAgreeEngine(CORPUS["tenths"])
        for y in (-1, len(CORPUS["tenths"])):
            with pytest.raises(ProtocolError, match="unreachable"):
                e.bob(y, 1)

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

    def test_wide_rounds_hold_a_quarter_of_a_codeword_map(self):
        # ensure(30) on the linear pmf over 2 * 10^4 symbols held 22 351 480
        # traced bytes with one codeword dict per round (Python 3.11.7); a
        # round stored as its order, runs and positions holds under a quarter
        n = 20000
        p = Pmf(tuple(f"s{i}" for i in range(n)), tuple(range(1, n + 1)), n * (n + 1) // 2)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            e = KeyAgreeEngine(p)
            e.ensure(30)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(e._rounds) == 30
        assert held <= 22_351_480 // 4


class TestTheoremGuards:
    """Each engine guard fires on a mutant that breaks what it guards."""

    def test_greedy_sum_short_of_two_to_minus_w(self):
        # a residual that lost mass: 1/4 left where round 1 takes 1/2
        e = KeyAgreeEngine(pmf("1/4", "3/4"))
        e._nums = [1, 0]
        with pytest.raises(InvariantError, match="not exactly 2\\*\\*-1"):
            e.ensure(1)

    def test_codeword_length_past_the_packed_field(self, monkeypatch):
        # tenths' first round has one-bit codewords
        monkeypatch.setattr(common, "_LEN_MASK", 0)
        with pytest.raises(InvariantError, match="codeword length 1 overflows"):
            KeyAgreeEngine(CORPUS["tenths"]).ensure(1)

    def test_stopping_round_without_a_codeword(self, monkeypatch):
        # a draw that stops symbol 2 in round 1, which selects 0 and 1 only
        def alice(self, x, rng):
            self.ensure(1)
            return 1

        monkeypatch.setattr(KeyAgreeEngine, "alice", alice)
        with pytest.raises(InvariantError, match="stopping round 1 has no codeword for 2"):
            alice_keygen(CORPUS["tenths"], 2, RandomSource("guard"))


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
                assert _packed(e.round(w)) == _packed(ref.round(w))
                assert e.round(w).order == ref.round(w).order

    def test_concurrent_shared_rounds(self):
        # tenths repeats from round 4 on: threads race through built and
        # shared rounds alike
        p = CORPUS["tenths"]
        ref = KeyAgreeEngine(p)
        ref.ensure(200)
        for _ in range(3):
            e = KeyAgreeEngine(p)
            assert run_threads(lambda: e.ensure(200)) == []
            assert e.residual() == ref.residual()
            for w in range(1, 201):
                # past the built rounds, round w - T is the same object
                assert w <= e._built or e.round(w) is e.round(w - e._period)
                assert (e.round(w).order, _packed(e.round(w))) == (
                    ref.round(w).order, _packed(ref.round(w))
                )

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
