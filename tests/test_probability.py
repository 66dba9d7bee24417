import dataclasses
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from conftest import (
    CORPUS,
    CORRELATED_3,
    FOUR_SYMBOL,
    WORKED_JOINT,
    diag_joint,
    dyadic_exponent,
    joint,
    pmf,
    product_joint,
    random_rational_pmf,
)
from documents import joint_document
from entropy_oracle import (
    ceil_neg_log2,
    entropy_interval,
    floor_log2,
    log2_interval,
    mutual_information_fractions,
)
from stopkey.common import engine_for
from stopkey.errors import ValidationError
from stopkey.formats import parse_joint
from stopkey.probability import (
    JointPmf,
    Pmf,
    agreement_stats,
    as_fraction,
    entropy,
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

    @pytest.mark.parametrize("value", ["abc", "1/0", None, object()])
    def test_an_inexact_value_is_refused(self, value):
        with pytest.raises(ValidationError, match="not an exact rational"):
            as_fraction(value)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValidationError):
            Pmf(("x", "x"), (1, 1), 2)

    def test_zero_mass_symbols_kept_but_not_in_support(self):
        p = pmf("1/2", "0", "1/2")
        assert len(p) == 3
        assert p.numerators == (1, 0, 1) and p.denominator == 2

    def test_label_index_lookup(self):
        p = Pmf(("a", "b"), (1, 3), 4)
        assert p.index("b") == 1
        with pytest.raises(ValidationError):
            p.index("zz")

    def test_label_index_is_one_lookup(self):
        compared = []

        class Label(str):
            __hash__ = str.__hash__

            def __eq__(self, other):
                compared.append(1)
                return str.__eq__(self, other)

        n = 1000
        p = Pmf.from_masses([Fraction(1, n)] * n, [Label(f"s{i}") for i in range(n)])
        assert p.index(Label("s999")) == n - 1
        assert len(compared) <= 2  # a tuple scan would compare 1000 labels
        with pytest.raises(ValidationError, match="label 'zz' not in alphabet"):
            p.index("zz")
        assert "_index" not in repr(p)
        assert p == dataclasses.replace(p)

    def test_masses_are_a_fraction_view_of_the_integers(self):
        p = pmf("1/6", "0", "5/6")
        assert (p.numerators, p.denominator) == ((1, 0, 5), 6)
        assert p.masses == (Fraction(1, 6), Fraction(0), Fraction(5, 6))
        assert p.mass(2) == Fraction(5, 6)
        assert "masses" not in vars(p)  # built on each read, not stored
        assert repr(p) == "Pmf(labels=('0', '1', '2'), numerators=(1, 0, 5), denominator=6)"

    @pytest.mark.parametrize(
        "build, match",
        [
            (lambda: Pmf(("a", "b"), (1, 1), 0), "denominator"),
            (lambda: Pmf(("a", "b"), (1, 1), 2.0), "denominator"),
            (lambda: Pmf(("a", "b"), (0.5, 1.5), 2), "ints"),
            (lambda: Pmf(("a", "b"), (3, -1), 2), "mass 3/2 outside"),
            (lambda: Pmf(("a", "b"), (1, 2), 4), "sum to 3/4"),
            (lambda: Pmf(("a",), (1, 1), 2), "2 masses but 1 labels"),
            (lambda: Pmf.from_ratios([1, 1], [2, 0]), "positive denominators"),
            (lambda: Pmf.from_ratios([], []), "nonempty"),
        ],
    )
    def test_integer_builders_refuse_what_the_fraction_one_does(self, build, match):
        with pytest.raises(ValidationError, match=match):
            build()


class TestContentHash:
    def test_pmf_hashes_its_integers_once(self, monkeypatch):
        n = 1000
        p = Pmf.from_masses(Fraction(2 * i, n * (n + 1)) for i in range(1, n + 1))
        calls = []
        raw = Fraction.__hash__

        def counting(self):
            calls.append(1)
            return raw(self)

        monkeypatch.setattr(Fraction, "__hash__", counting)
        first = hash(p)
        assert calls == []  # the hash runs on the numerators, not on Fractions
        object.__setattr__(p, "_hash", first + 1)
        assert hash(p) == first + 1  # later calls read the cached value

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

    def test_labels_are_stored_as_tuples(self):
        p = Pmf(["a", "b"], (1, 1), 2)
        assert p.labels == ("a", "b")
        assert hash(p) == hash(Pmf(("a", "b"), (1, 1), 2))
        j = JointPmf("ab", "ab", ((0, 0, 1),), 1)
        twin = JointPmf(("a", "b"), ("a", "b"), ((0, 0, 1),), 1)
        assert j == twin and hash(j) == hash(twin)
        assert j.x_labels == j.y_labels == ("a", "b")

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
            "objs = (Pmf(('a', 'b'), (1, 2), 3),\n"
            "        JointPmf(('a', 'b'), ('a', 'b'), ((0, 0, 2), (1, 0, 1), (1, 1, 1)), 4),\n"
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

    def test_pickling_leaves_out_the_hash_and_the_label_lookups(self):
        p = Pmf.from_masses(["1/3", "2/3"], ["a", "b"])
        j = joint([["1/2", "0"], ["1/4", "1/4"]], "01", "01")
        hash(p), hash(j)
        assert set(p.__getstate__()) == {"labels", "numerators", "denominator"}
        assert set(j.__getstate__()) == {"x_labels", "y_labels", "numerator_cells", "denominator"}
        p2, j2 = pickle.loads(pickle.dumps(p)), pickle.loads(pickle.dumps(j))
        assert p2 == p and p2.index("b") == 1
        assert j2 == j and j2.mass_by_label("1", "0") == Fraction(1, 4)

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

    @pytest.mark.parametrize("x_labels, y_labels", [((), ("a",)), (("a",), ())])
    def test_empty_alphabets_rejected(self, x_labels, y_labels):
        with pytest.raises(ValidationError, match="joint alphabets must be nonempty"):
            JointPmf(x_labels, y_labels, (), 1)

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


def _seeded_dense_rows(rng: RandomSource):
    """A 1- to 5-label-a-side grid of integer weights, about half of them zero."""
    nx, ny = 1 + rng.randrange(5), 1 + rng.randrange(5)
    rows = [[rng.randrange(4) * rng.randrange(2) for _ in range(ny)] for _ in range(nx)]
    rows[rng.randrange(nx)][rng.randrange(ny)] += 1  # at least one positive cell
    total = sum(map(sum, rows))
    x_labels = [f"x{i}" for i in range(nx)]
    y_labels = [f"x{i}" if rng.randrange(2) else f"y{i}" for i in range(ny)]
    return [[Fraction(c, total) for c in row] for row in rows], x_labels, y_labels


class TestJointCells:
    """The dense and the atom builders store the same positive cells."""

    def test_dense_and_atom_builders_agree_on_every_method(self):
        rng = RandomSource("joint-cells")
        for _ in range(60):
            rows, x_labels, y_labels = _seeded_dense_rows(rng)
            dense = JointPmf.from_rows(rows, x_labels, y_labels)
            atoms = [
                (x, y, rows[ix][iy])
                for ix, x in enumerate(x_labels)
                for iy, y in enumerate(y_labels)
                if rows[ix][iy]
            ]
            random.Random(len(atoms)).shuffle(atoms)  # the atom builder sorts them
            sparse = JointPmf.from_atoms(atoms, x_labels, y_labels)
            assert sparse == dense and hash(sparse) == hash(dense)
            assert sparse.atoms() == dense.atoms()
            assert all(m > 0 for _, _, m in dense.atoms())
            assert sparse.marginal_x() == dense.marginal_x()
            assert sparse.marginal_y() == dense.marginal_y()
            for ix, x in enumerate(x_labels):
                assert sparse.marginal_x().masses[ix] == sum(rows[ix], Fraction(0))
                for iy, y in enumerate(y_labels):
                    assert sparse.mass_by_label(x, y) == dense.mass_by_label(x, y) == rows[ix][iy]
            for x, y in (("zz", y_labels[0]), (x_labels[0], "zz"), ("zz", "zz")):
                assert sparse.mass_by_label(x, y) == 0
            assert agreement_stats(sparse) == agreement_stats(dense)
            assert mutual_information(sparse) == mutual_information(dense)
            doc = joint_document(sparse)
            assert doc == joint_document(dense)
            assert doc["joint"] == [[str(m) for m in row] for row in rows]
            assert parse_joint(doc) == dense

    def test_repeated_labels_are_refused_on_either_side(self):
        for x_labels, y_labels in (("aa", "ab"), ("ab", "bb")):
            with pytest.raises(ValidationError, match="alphabet labels must be distinct"):
                JointPmf(x_labels, y_labels, ((0, 0, 1),), 1)

    def test_the_label_check_formats_no_label(self):
        # the check runs on the labels themselves, with no str copy of them
        formatted = []

        class Label(str):
            def __str__(self):
                formatted.append(self)
                return str.__str__(self)

        labels = tuple(Label(f"s{i}") for i in range(1000))
        j = JointPmf(labels, labels, ((0, 0, 1),), 1)
        assert formatted == [] and j.x_labels == labels

    def test_zero_masses_are_not_stored(self):
        j = JointPmf.from_atoms([("a", "a", 1), ("a", "b", 0)], "ab", "ab")
        assert (j.numerator_cells, j.denominator) == (((0, 0, 1),), 1)
        assert j.mass_by_label("a", "b") == 0
        assert joint_document(j)["joint"] == [["1", "0"], ["0", "0"]]

    @pytest.mark.parametrize(
        "cells, den, match",
        [
            (((0, 2, 1),), 1, "outside"),
            (((-1, 0, 1),), 1, "outside"),
            ((("0", 0, 1),), 1, "outside"),
            (((0, 0, 1), (0, 0, 1)), 2, "repeated"),
            (((1, 0, 1), (0, 1, 1)), 2, "order"),
            (((0, 0, 1), (0, 1, 0)), 1, r"mass Fraction\(0, 1\) not a positive"),
            (((0, 0, 3), (0, 1, -1)), 2, r"mass Fraction\(-1, 2\) not a positive"),
            (((0, 0, Fraction(1)),), 1, "numerator Fraction.* not an int"),
            (((0, 0, 1),), 2, "deficit"),
            (((0, 0, 1),), 0, "denominator"),
            (((0, 0, 1),), 1.0, "denominator"),
        ],
        ids=["column", "row", "str-index", "repeated", "order", "zero", "negative",
             "int-mass", "deficit", "zero-denominator", "float-denominator"],
    )
    def test_bad_cells_are_refused(self, cells, den, match):
        with pytest.raises(ValidationError, match=match):
            JointPmf(("a", "b"), ("a", "b"), cells, den)

    def test_dense_builder_refuses_bad_rows(self):
        with pytest.raises(ValidationError, match="shape"):
            JointPmf.from_rows([["1/2", "1/2"], ["0"]], "ab", "ab")
        with pytest.raises(ValidationError, match="shape"):
            JointPmf.from_rows([["1"]], "ab", "a")
        with pytest.raises(ValidationError, match="positive"):
            JointPmf.from_rows([["3/2", "-1/2"]], "a", "ab")
        with pytest.raises(ValidationError, match="float"):
            JointPmf.from_rows([[1.0]], "a", "a")

    @pytest.mark.parametrize("atom", [("z", "a", 1), ("a", "z", 1)])
    def test_atom_builder_names_a_foreign_label(self, atom):
        with pytest.raises(ValidationError, match="'z' outside the joint's alphabets"):
            JointPmf.from_atoms([atom], ("a",), ("a",))

    def test_atom_builder_adds_repeated_cells(self):
        atoms = [("a", "b", "1/4"), ("b", "a", "1/2"), ("a", "b", "1/4")]
        j = JointPmf.from_atoms(atoms, "ab", "ab")
        assert j.atoms() == ((0, 1, Fraction(1, 2)), (1, 0, Fraction(1, 2)))

    def test_construction_and_hash_read_each_cell_once(self, monkeypatch):
        # a diagonal plus one neighbour on 1000 x 1000: 1999 positive cells
        n = 1000
        labels = tuple(f"s{i}" for i in range(n))
        weights = [(i, i, 2) for i in range(n)] + [(i, i + 1, 1) for i in range(n - 1)]
        total = sum(w for _, _, w in weights)
        cells = tuple(sorted((ix, iy, Fraction(w, total)) for ix, iy, w in weights))
        atoms = [(labels[ix], labels[iy], m) for ix, iy, m in cells]
        counts = {"add": 0, "hash": 0, "read": 0}
        raw_add, raw_radd, raw_hash = Fraction.__add__, Fraction.__radd__, Fraction.__hash__
        raw_num, raw_den = Fraction.numerator, Fraction.denominator

        def counting(key, raw):
            def wrapper(*args):
                counts[key] += 1
                return raw(*args)
            return wrapper

        monkeypatch.setattr(Fraction, "__add__", counting("add", raw_add))
        monkeypatch.setattr(Fraction, "__radd__", counting("add", raw_radd))
        monkeypatch.setattr(Fraction, "__hash__", counting("hash", raw_hash))
        monkeypatch.setattr(Fraction, "numerator", property(counting("read", raw_num.fget)))
        monkeypatch.setattr(Fraction, "denominator", property(counting("read", raw_den.fget)))
        for build in (
            lambda: JointPmf.from_ratios(
                ((ix, iy, m.numerator, m.denominator) for ix, iy, m in cells), labels, labels
            ),
            lambda: JointPmf.from_atoms(atoms, labels, labels),
        ):
            counts.update(add=0, hash=0, read=0)
            j = build()
            assert hash(j) == hash(j)
            # validation, sum and hash run on integers: each mass is read
            # as (numerator, denominator) once, and no Fraction is added
            # or hashed
            assert counts == {"add": 0, "hash": 0, "read": 2 * len(cells)}
            assert j.mass_by_label("s5", "s6") == Fraction(1, total)
            assert j.mass_by_label("s6", "s5") == 0


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

    def test_a_mass_that_rounds_to_zero_adds_nothing(self):
        # 1/10^400 and 2^-1080 round to 0.0, whose log2 raises
        for d in (10**400, 2**1080):
            p = Pmf(("a", "b"), (1, d - 1), d)
            assert entropy(p) == mutual_information(p) == 0.0
        d = 2 * 10**400
        j = JointPmf.from_rows(((Fraction(d // 2 - 1, d), Fraction(1, d)), (0, Fraction(1, 2))))
        assert mutual_information(j) == 1.0

    def test_a_ratio_past_the_float_range_is_logged_from_its_integers(self):
        # 2^-1050 is a subnormal float, and its ratio 2^1050 overflows one
        d = 2**1050
        p = Pmf(("a", "b"), (1, d - 1), d)
        assert entropy(p) == mutual_information(p) == 1050 * 2.0**-1050 > 0

    def test_mutual_information_from_integers_matches_the_fraction_form_bit_for_bit(self):
        # every corpus source, as a pmf and as its X = Y joint, the corpus
        # joints, 200 seeded joints, and the tiny-mass and 2^1050-ratio cases
        sources = [*CORPUS.values(), *map(diag_joint, CORPUS.values())]
        sources += [WORKED_JOINT, CORRELATED_3, FOUR_SYMBOL]
        rng = RandomSource("mi-integers")
        for _ in range(200):
            sources.append(joint(*_seeded_dense_rows(rng)))
        for d in (10**400, 2**1080, 2**1050):
            sources.append(Pmf(("a", "b"), (1, d - 1), d))
        d = 2 * 10**400
        sources.append(JointPmf.from_rows(((Fraction(d // 2 - 1, d), Fraction(1, d)), (0, Fraction(1, 2)))))
        d = 2**1050
        sources.append(diag_joint(Pmf(("a", "b"), (1, d - 1), d)))
        for source in sources:
            got, want = mutual_information(source), mutual_information_fractions(source)
            assert got.hex() == want.hex(), source

    def test_mutual_information_positive_when_correlated(self):
        p = CORPUS["uniform2"]
        assert mutual_information(diag_joint(p)) == pytest.approx(1.0)
