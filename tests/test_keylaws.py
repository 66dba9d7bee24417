from fractions import Fraction

import pytest

from stopkey.errors import ValidationError
from stopkey.keylaws import (
    _SIMULATION_DEPTH,
    ErrorLengthPair,
    KeyLaw,
    PrefixCodebook,
    StoppingRule,
    check_bitstring,
    compose_error_length,
    concat_laws,
    converse_bound,
    law_from_codebook,
    law_from_stopping_rule,
    pointwise_mass_bound,
    simulate_stopped_key,
    stopping_rule_of,
    verify_rsbs,
)
from stopkey.probability import mutual_information
from stopkey.randomsource import RandomSource

from conftest import WORKED_JOINT

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)


def random_full_codebook(rng: RandomSource, max_depth: int = 12) -> list[str]:
    """Random full binary coding tree: every node has zero or two children."""
    words = []
    stack = [""]
    while stack:
        u = stack.pop()
        if len(u) >= max_depth or (u and rng.randrange(3) == 0):
            words.append(u)
        else:
            stack.append(u + "0")
            stack.append(u + "1")
    return words


def random_dyadic_rule_law(rng: RandomSource, max_depth: int = 8) -> KeyLaw:
    """Law of a random dyadic stopping rule, exact (rho forced to 0 at the cap)."""
    rho = {}
    stack = [""]
    while stack:
        u = stack.pop()
        if len(u) >= max_depth:
            rho[u] = Fraction(0)
            continue
        r = Fraction(rng.randrange(9), 8)
        rho[u] = r
        if r > 0:
            stack.append(u + "0")
            stack.append(u + "1")
    return law_from_stopping_rule(StoppingRule.from_dict(rho), max_depth=max_depth)


class TestKeyLaw:
    def test_bitstring_validation(self):
        assert check_bitstring("") == ""
        assert check_bitstring("0101") == "0101"
        with pytest.raises(ValidationError):
            check_bitstring("012")

    def test_mass_accounting(self):
        with pytest.raises(ValidationError, match="must equal 1"):
            KeyLaw.from_dict({"0": HALF, "1": QUARTER})

    def test_tail_accounting(self):
        law = KeyLaw.from_dict({"0": HALF}, tail=HALF)
        assert law.tail == HALF
        assert sum(len(k) * m for k, m in law.atoms) == HALF

    def test_zero_masses_dropped(self):
        law = KeyLaw.from_dict({"": Fraction(1), "0": Fraction(0)})
        assert law.atoms == (("", Fraction(1)),)

    @pytest.mark.parametrize(
        "atoms, tail, message",
        [
            ((("0", HALF), ("0", HALF)), 0, "duplicate key '0' in law"),
            ((("0", Fraction(0)), ("1", Fraction(1))), 0, "atom mass for '0' must be a positive"),
            ((("0", HALF), ("1", -HALF)), 1, "atom mass for '1' must be a positive"),
            ((("0", 1),), 0, "atom mass for '0' must be a positive Fraction"),
            ((("", Fraction(3, 2)),), -HALF, "tail must be nonnegative"),
            ((("1", HALF), ("0", HALF)), 0, "canonical order"),
            ((("00", HALF), ("1", HALF)), 0, "canonical order"),
        ],
        ids=["duplicate", "zero-mass", "negative-mass", "int-mass", "negative-tail",
             "value-order", "length-order"],
    )
    def test_constructor_refusals(self, atoms, tail, message):
        with pytest.raises(ValidationError, match=message):
            KeyLaw(atoms, Fraction(tail))

    def test_from_dict_refuses_a_negative_mass(self):
        with pytest.raises(ValidationError, match="negative mass for key '1'"):
            KeyLaw.from_dict({"0": Fraction(3, 2), "1": -HALF})


class TestVerifyRsbs:
    def test_codeword_law_passes(self):
        law = KeyLaw.from_dict({"0": HALF, "10": QUARTER, "11": QUARTER})
        assert verify_rsbs(law).valid

    def test_empty_key_atom_allowed(self):
        law = KeyLaw.from_dict({"": HALF, "0": QUARTER, "1": QUARTER})
        assert verify_rsbs(law).valid

    def test_point_mass_on_nonempty_key_fails(self):
        v = verify_rsbs(KeyLaw.from_dict({"0": Fraction(1)}))
        assert not v.valid
        viol = v.violations[0]
        assert viol.position == 1 and viol.prefix == ""
        assert viol.p_zero == 1 and viol.p_one == 0

    def test_biased_split_fails_with_exact_probabilities(self):
        v = verify_rsbs(KeyLaw.from_dict({"0": Fraction(3, 4), "1": QUARTER}))
        assert not v.valid
        assert v.violations[0].p_zero == Fraction(3, 4)

    def test_tail_mass_tolerated_within_slack(self):
        law = KeyLaw.from_dict({"0": HALF, "10": QUARTER}, tail=QUARTER)
        assert verify_rsbs(law, tail_slack=QUARTER).valid

    def test_negative_slack_rejected(self):
        law = KeyLaw.from_dict({"0": HALF, "1": HALF})
        with pytest.raises(ValidationError, match="tail_slack"):
            verify_rsbs(law, tail_slack=-HALF)

    def test_depth_guard(self):
        law = KeyLaw.from_dict({"0" * 70: Fraction(1)})
        with pytest.raises(ValidationError, match="depth"):
            verify_rsbs(law, max_depth=64)


class TestCodebooks:
    def test_full_codebook_law(self):
        law = law_from_codebook(("0", "10", "11"))
        assert dict(law.atoms)["10"] == QUARTER

    def test_non_full_rejected_with_deficit(self):
        with pytest.raises(ValidationError, match="deficit 1/4"):
            law_from_codebook(("0", "10"))

    def test_duplicate_codewords_rejected(self):
        with pytest.raises(ValidationError, match="duplicate codewords"):
            PrefixCodebook(("0", "1", "0"))

    def test_prefix_violation_rejected(self):
        with pytest.raises(ValidationError, match="prefix"):
            PrefixCodebook(("0", "01"))

    def test_random_full_codebooks_are_rsbs(self):
        """Stopping at the leaves of any full coding tree is a fair stop."""
        rng = RandomSource("prop-one-unit")
        for _ in range(100):
            words = random_full_codebook(rng)
            law = law_from_codebook(words)
            assert verify_rsbs(law, max_depth=12).valid
            assert pointwise_mass_bound(law).valid


class TestConcat:
    def test_concat_preserves_rsbs_and_mass(self):
        rng = RandomSource("prop-two-unit")
        for _ in range(60):
            a = random_dyadic_rule_law(rng, max_depth=5)
            b = random_dyadic_rule_law(rng, max_depth=5)
            c = concat_laws(a, b)
            assert sum(m for _, m in c.atoms) + c.tail == 1
            assert verify_rsbs(c, max_depth=10).valid
            assert pointwise_mass_bound(c).valid

    def test_concat_with_point_empty_is_identity(self):
        a = law_from_codebook(("0", "10", "11"))
        empty = KeyLaw.from_dict({"": Fraction(1)})
        assert concat_laws(a, empty).atoms == a.atoms
        assert concat_laws(empty, a).atoms == a.atoms

    def test_expected_length_adds(self):
        a = law_from_codebook(("0", "10", "11"))
        c = concat_laws(a, a)
        assert sum(len(k) * m for k, m in c.atoms) == 2 * sum(len(k) * m for k, m in a.atoms)


class TestStoppingRules:
    def test_round_trip_rule_to_law(self):
        rng = RandomSource("rule-round-trip")
        for _ in range(40):
            law = random_dyadic_rule_law(rng, max_depth=6)
            rule = stopping_rule_of(law)
            again = law_from_stopping_rule(rule, max_depth=12)
            assert again.atoms == law.atoms and again.tail == 0

    def test_rule_undefined_off_reachable_prefixes(self):
        rule = stopping_rule_of(KeyLaw.from_dict({"": Fraction(1)}))
        assert rule.rho("") == 0
        with pytest.raises(ValidationError, match="reachable"):
            rule.rho("0")

    @pytest.mark.parametrize("rho", [Fraction(-1, 2), Fraction(3, 2), 1], ids=str)
    def test_rho_outside_the_unit_interval_refused(self, rho):
        with pytest.raises(ValidationError, match=r"rho\('0'\) = .* outside \[0, 1\]"):
            StoppingRule((("", HALF), ("0", rho)))

    def test_rule_table_order_enforced(self):
        with pytest.raises(ValidationError, match="canonical order"):
            StoppingRule((("0", HALF), ("", HALF)))
        rule = StoppingRule.from_dict({"0": HALF, "": HALF})
        assert rule.table == (("", HALF), ("0", HALF))

    def test_mass_alive_at_the_depth_cap_goes_to_the_tail(self):
        rule = StoppingRule.from_dict({"": HALF, "0": HALF, "1": HALF})
        law = law_from_stopping_rule(rule, max_depth=1)
        assert dict(law.atoms) == {"": HALF, "0": Fraction(1, 8), "1": Fraction(1, 8)}
        assert law.tail == QUARTER

    def test_a_walk_that_never_stops_is_refused_at_the_depth_cap(self):
        # rho = 1 along the all-zero path, the one a source of zero bits walks
        class ZeroBits:
            def __init__(self):
                self.uniforms = RandomSource("never-stops")

            def lazy_uniform(self):
                return self.uniforms.lazy_uniform()

            def fair_bit(self):
                return 0

        rule = StoppingRule.from_dict({"0" * k: Fraction(1) for k in range(_SIMULATION_DEPTH + 1)})
        with pytest.raises(ValidationError, match=f"exceeded depth {_SIMULATION_DEPTH}"):
            simulate_stopped_key(rule, ZeroBits())

    def test_truncation_requires_exact_law(self):
        law = KeyLaw.from_dict({"0": HALF}, tail=HALF)
        with pytest.raises(ValidationError, match="tail"):
            stopping_rule_of(law)

    def test_simulation_matches_law(self):
        """Empirical frequencies of the stopped walk track the exact law."""
        law = law_from_codebook(("0", "10", "110", "111"))
        rule = stopping_rule_of(law)
        rng = RandomSource("stop-sim")
        counts: dict[str, int] = {}
        n = 4000
        for _ in range(n):
            k = simulate_stopped_key(rule, rng)
            counts[k] = counts.get(k, 0) + 1
        for key, m in law.atoms:
            assert abs(counts.get(key, 0) / n - float(m)) < 0.04


class TestPointwiseBound:
    def test_violating_law_reported_with_coordinates(self):
        law = KeyLaw.from_dict({"0": Fraction(3, 4), "1": QUARTER})
        v = pointwise_mass_bound(law)
        assert not v.valid
        assert v.violations == (("0", Fraction(3, 4), HALF),)

    def test_rsbs_implies_pointwise(self):
        rng = RandomSource("pointwise-impl")
        for _ in range(60):
            law = random_dyadic_rule_law(rng, max_depth=6)
            if verify_rsbs(law, max_depth=6).valid:
                assert pointwise_mass_bound(law).valid


class TestErrorLengthPairs:
    def test_epsilon_of_composition_is_commutative(self):
        a = ErrorLengthPair(Fraction(1, 10), Fraction(3))
        b = ErrorLengthPair(Fraction(1, 5), Fraction(7))
        ab = compose_error_length(a, b)
        ba = compose_error_length(b, a)
        assert ab.epsilon == ba.epsilon
        assert ab.ell == ba.ell

    def test_zero_length_pairs_add_errors(self):
        e = Fraction(1, 8)
        pair = compose_error_length(ErrorLengthPair(e, Fraction(0)), ErrorLengthPair(e, Fraction(0)))
        assert pair.epsilon == 2 * e
        assert pair.ell == 0

    def test_error_saturates_at_one(self):
        big = ErrorLengthPair(Fraction(3, 4), Fraction(1))
        assert compose_error_length(big, big).epsilon == 1

    def test_exact_inputs_give_exact_outputs(self):
        pair = compose_error_length(
            ErrorLengthPair(Fraction(1, 10), Fraction(2)),
            ErrorLengthPair(Fraction(1, 10), Fraction(4)),
        )
        assert isinstance(pair.epsilon, Fraction)
        assert pair.ell == Fraction(9, 10) * 2 + Fraction(9, 10) * 4


def test_converse_bound_is_mutual_information_plus_constant():
    b = converse_bound(WORKED_JOINT)
    assert b == pytest.approx(mutual_information(WORKED_JOINT) + 1.584962500721156 + 1)
