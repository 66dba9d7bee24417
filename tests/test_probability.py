import dataclasses
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from conftest import CORPUS, diag_joint, joint, pmf, product_joint, random_rational_pmf
from stopkey.common import engine_for
from stopkey.errors import ValidationError
from stopkey.probability import (
    JointPmf,
    Pmf,
    agreement_stats,
    as_fraction,
    ceil_neg_log2,
    dyadic_exponent,
    entropy,
    entropy_interval,
    floor_log2,
    log2_interval,
    mutual_information,
)
from stopkey.randomsource import RandomSource
from stopkey.reconciled import HashFunction


class TestPmf:
    def test_masses_must_sum_to_one_exactly(self):
        with pytest.raises(ValidationError, match="sum"):
            pmf("1/2", "1/3")

    def test_negative_mass_rejected(self):
        with pytest.raises(ValidationError):
            pmf("3/2", "-1/2")

    def test_empty_alphabet_rejected(self):
        with pytest.raises(ValidationError):
            Pmf.from_masses(())

    def test_float_mass_rejected(self):
        with pytest.raises(ValidationError, match="float"):
            as_fraction(0.5)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValidationError):
            Pmf(("x", "x"), (Fraction(1, 2), Fraction(1, 2)))

    def test_zero_mass_symbols_kept_but_not_in_support(self):
        p = pmf("1/2", "0", "1/2")
        assert len(p) == 3
        assert p.support() == (0, 2)

    def test_label_index_lookup(self):
        p = Pmf(("a", "b"), (Fraction(1, 4), Fraction(3, 4)))
        assert p.index("b") == 1
        with pytest.raises(ValidationError):
            p.index("zz")


class TestContentHash:
    def test_pmf_hashes_its_masses_once(self, monkeypatch):
        n = 1000
        p = Pmf.from_masses(Fraction(2 * i, n * (n + 1)) for i in range(1, n + 1))
        calls = []
        raw = Fraction.__hash__

        def counting(self):
            calls.append(1)
            return raw(self)

        monkeypatch.setattr(Fraction, "__hash__", counting)
        assert hash(p) == hash(p)
        assert len(calls) == n

    @pytest.mark.parametrize(
        "make",
        [
            lambda: Pmf.from_masses(["1/3", "2/3"], ["a", "b"]),
            lambda: joint([["1/2", "0"], ["1/4", "1/4"]], "01", "01"),
            lambda: HashFunction(("a", "b", "c"), (1, 2, 1), 2),
        ],
        ids=["Pmf", "JointPmf", "HashFunction"],
    )
    def test_equal_content_hashes_equal_and_hides_the_cache(self, make):
        a, b = make(), make()
        assert a is not b
        assert hash(a) == hash(b)
        fresh = make()
        assert a == fresh and fresh == a  # one cached hash, one not yet
        assert "_hash" not in repr(a)
        assert repr(a) == repr(fresh)
        copy = dataclasses.replace(a)
        assert copy == a and hash(copy) == hash(a)

    def test_replace_does_not_carry_a_stale_hash(self):
        p = Pmf.from_masses(["1/3", "2/3"], ["a", "b"])
        hash(p)
        q = dataclasses.replace(p, labels=("c", "d"))
        assert hash(q) == hash(Pmf.from_masses(["1/3", "2/3"], ["c", "d"]))
        assert q != p

    def test_pickled_objects_rehash_in_another_process(self, tmp_path):
        # str hashes are seeded per process; a cached hash must not travel
        path = str(tmp_path / "objs.pkl")
        make = (
            "from stopkey.probability import Pmf, JointPmf\n"
            "from stopkey.reconciled import HashFunction\n"
            "objs = (Pmf.from_masses(['1/3', '2/3'], ['a', 'b']),\n"
            "        JointPmf.from_rows([['1/2', '0'], ['1/4', '1/4']], 'ab', 'ab'),\n"
            "        HashFunction(('a', 'b'), (1, 2), 2))\n"
        )
        dump = make + f"import pickle; [hash(o) for o in objs]; pickle.dump(objs, open({path!r}, 'wb'))"
        load = make + (
            f"import pickle; got = pickle.load(open({path!r}, 'rb'))\n"
            "assert got == objs and [hash(o) for o in got] == [hash(o) for o in objs]\n"
            "assert all(o in set(objs) for o in got)"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        for seed, code in (("1", dump), ("2", load)):
            env["PYTHONHASHSEED"] = seed
            subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)

    def test_equal_pmfs_share_one_engine(self):
        a = Pmf.from_masses(["1/6", "1/3", "1/2"], ["u", "v", "w"])
        b = Pmf.from_masses(["1/6", "1/3", "1/2"], ["u", "v", "w"])
        assert engine_for(a) is engine_for(b)


class TestJointPmf:
    def test_row_major_construction_and_marginals(self):
        j = joint([["1/2", "0"], ["1/4", "1/4"]], "01", "01")
        assert j.marginal_x().masses == (Fraction(1, 2), Fraction(1, 2))
        assert j.marginal_y().masses == (Fraction(3, 4), Fraction(1, 4))

    def test_sum_must_be_one(self):
        with pytest.raises(ValidationError, match="deficit"):
            joint([["1/2", "0"], ["1/4", "0"]], "01", "01")

    def test_atoms_skip_zero_cells(self):
        j = joint([["1/2", "0"], ["1/4", "1/4"]], "01", "01")
        assert all(m > 0 for _, _, m in j.atoms())
        assert len(list(j.atoms())) == 3

    def test_mass_by_label_unknown_is_zero(self):
        j = joint([["1"]], "a", "a")
        assert j.mass_by_label("a", "nope") == 0

    def test_from_atoms_round_trip(self):
        j = joint([["1/2", "0"], ["1/4", "1/4"]], "01", "01")
        labeled = [
            (j.x_labels[ix], j.y_labels[iy], m) for ix, iy, m in j.atoms()
        ]
        j2 = JointPmf.from_atoms(labeled, j.x_labels, j.y_labels)
        assert list(j2.atoms()) == list(j.atoms())


class TestAgreement:
    def test_always_equal_gives_p_one_and_marginal(self):
        p = CORPUS["tenths"]
        stats = agreement_stats(diag_joint(p))
        assert stats.p == 1
        assert stats.conditional.masses == p.masses

    def test_worked_joint_values(self):
        j = joint([["1/2", "0"], ["1/4", "1/4"]], "01", "01")
        stats = agreement_stats(j)
        assert stats.p == Fraction(3, 4)
        assert stats.conditional.masses == (Fraction(2, 3), Fraction(1, 3))

    def test_never_equal(self):
        j = joint([["0", "1/2"], ["1/2", "0"]], "01", "01")
        stats = agreement_stats(j)
        assert stats.p == 0 and stats.conditional is None


class TestLogArithmetic:
    def test_ceil_neg_log2_bracketing_randomized(self):
        """2^-a <= r < 2^-(a-1) for random rationals in (0, 1)."""
        rng = RandomSource("ceil-neg-log2")
        for _ in range(500):
            den = 2 + rng.randrange(10**6)
            num = 1 + rng.randrange(den - 1)
            r = Fraction(num, den)
            a = ceil_neg_log2(r)
            assert Fraction(1, 2**a) <= r < Fraction(1, 2 ** (a - 1))

    def test_ceil_neg_log2_dyadic_boundary(self):
        assert ceil_neg_log2(Fraction(1, 8)) == 3
        assert ceil_neg_log2(Fraction(1)) == 0

    def test_floor_log2(self):
        assert floor_log2(Fraction(5)) == 2
        assert floor_log2(Fraction(1, 3)) == -2

    def test_dyadic_predicates(self):
        assert dyadic_exponent(Fraction(1, 16)) == 4
        assert dyadic_exponent(Fraction(1, 3)) is None

    def test_log2_interval_brackets(self):
        rng = RandomSource("log2-iv")
        for _ in range(200):
            den = 2 + rng.randrange(999)
            num = 1 + rng.randrange(3 * den)
            r = Fraction(num, den)
            lo, hi = log2_interval(r)
            import math

            assert float(lo) <= math.log2(float(r)) <= float(hi)
            assert hi - lo <= Fraction(1, 2**38)


class TestEntropy:
    def test_interval_brackets_float(self, corpus_pmf):
        lo, hi = entropy_interval(corpus_pmf)
        assert float(lo) <= entropy(corpus_pmf) <= float(hi)

    def test_interval_brackets_float_randomized(self):
        rng = RandomSource("entropy-iv")
        for _ in range(50):
            p = random_rational_pmf(rng)
            lo, hi = entropy_interval(p)
            assert float(lo) <= entropy(p) <= float(hi)

    def test_dyadic_entropy_exact(self):
        lo, hi = entropy_interval(CORPUS["dyadic3"])
        assert lo == hi == Fraction(3, 2)

    def test_point_mass_entropy_zero(self):
        assert entropy(CORPUS["point"]) == 0.0

    def test_mutual_information_zero_on_products(self):
        rng = RandomSource("mi-products")
        for _ in range(20):
            j = product_joint(random_rational_pmf(rng, 4), random_rational_pmf(rng, 4))
            assert mutual_information(j) == 0.0

    def test_mutual_information_positive_when_correlated(self):
        p = CORPUS["uniform2"]
        assert mutual_information(diag_joint(p)) == pytest.approx(1.0)
