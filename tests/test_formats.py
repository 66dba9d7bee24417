import json
import random
import sys
from fractions import Fraction

import pytest

from stopkey import formats
from stopkey.common import engine_for
from stopkey.errors import FormatError
from stopkey.formats import (
    decomposition_document,
    dumps,
    format_rational,
    hash_function_document,
    load_distribution,
    load_hash_function,
    load_source,
    parse_hash_function,
    parse_joint,
    parse_key_law,
    parse_pmf,
    parse_rational,
    parse_source,
    read_document,
    rsbs_verdict_document,
)
from stopkey.keylaws import KeyLaw, verify_rsbs
from stopkey.probability import JointPmf, Pmf
from stopkey.reconciled import HashFunction

from conftest import CORPUS, WORKED_JOINT, pmf
from documents import joint_document, pmf_document, write_document


@pytest.fixture()
def digit_limit():
    """The interpreter's int-to-str digit limit, pinned at its default 4300."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(limit)


class TestRational:
    def test_accepted_spellings(self):
        assert parse_rational(3) == 3
        assert parse_rational("1/3") == Fraction(1, 3)
        assert parse_rational("0.25") == Fraction(1, 4)
        assert parse_rational("-2") == -2

    def test_floats_are_rejected(self):
        with pytest.raises(FormatError, match="float"):
            parse_rational(0.25)

    def test_bools_are_rejected(self):
        with pytest.raises(FormatError):
            parse_rational(True)

    def test_garbage_rejected(self):
        for bad in ("abc", "1/0", None, [1]):
            with pytest.raises(FormatError):
                parse_rational(bad)

    def test_round_trip(self):
        for v in (Fraction(3, 7), Fraction(0), Fraction(-5, 2), Fraction(4)):
            assert parse_rational(format_rational(v)) == v

    @pytest.mark.parametrize(
        "text",
        ["1e-99999999", "1E+99999999", "1e4301", "2.5e-0004301", "0." + "0" * 4300 + "1",
         "1" * 4301 + ".5", "1e" + "9" * 5000, "1e1_000_000"],
    )
    def test_huge_decimal_refused_before_any_fraction(self, text, digit_limit, monkeypatch):
        built = []
        monkeypatch.setattr(formats, "Fraction", lambda *a: built.append(a) or Fraction(*a))
        with pytest.raises(FormatError, match="4300"):
            parse_rational(text)
        assert built == []

    @pytest.mark.parametrize("no_limit", ["switched-off", "missing"])
    def test_huge_decimal_refused_with_no_interpreter_limit(self, no_limit, digit_limit, monkeypatch):
        # an interpreter limit of 0 (PYTHONINTMAXSTRDIGITS=0), or a Python
        # before 3.10.7 without the call, falls back to the default 4300
        if no_limit == "missing":
            monkeypatch.delattr(sys, "get_int_max_str_digits")
        else:
            sys.set_int_max_str_digits(0)  # digit_limit restores it
        built = []
        monkeypatch.setattr(formats, "Fraction", lambda *a: built.append(a) or Fraction(*a))
        for text in ("1e-99999999", "1e4301", "0." + "0" * 4300 + "1"):
            with pytest.raises(FormatError, match="4300"):
                parse_rational(text)
        assert built == []
        assert parse_rational("1e-4300") == Fraction(1, 10**4300)

    def test_decimals_at_the_limit_still_parse(self, digit_limit):
        assert parse_rational("1e-4300") == Fraction(1, 10**4300)
        assert parse_rational("3E+0004300") == 3 * 10**4300
        assert parse_rational("0." + "0" * 4298 + "1") == Fraction(1, 10**4299)
        assert parse_rational("1" * 3000 + "/" + "7" * 3000) == Fraction(int("1" * 3000), int("7" * 3000))


class TestPmfDocuments:
    def test_round_trip(self, corpus_pmf):
        assert parse_pmf(pmf_document(corpus_pmf)) == corpus_pmf

    def test_length_mismatch(self):
        with pytest.raises(FormatError, match="masses"):
            parse_pmf({"alphabet": ["a", "b"], "pmf": ["1"]})

    def test_label_type_enforced(self):
        with pytest.raises(FormatError, match="string"):
            parse_pmf({"alphabet": [1, 2], "pmf": ["1/2", "1/2"]})

    def test_normalization_errors_become_format_errors(self):
        with pytest.raises(FormatError):
            parse_pmf({"alphabet": ["a", "b"], "pmf": ["1/2", "1/4"]})

    def test_missing_fields(self):
        with pytest.raises(FormatError, match="missing"):
            parse_pmf({"pmf": ["1"]})
        with pytest.raises(FormatError, match="missing"):
            parse_pmf({"alphabet": ["a"]})

    def test_field_types_enforced(self):
        with pytest.raises(FormatError, match="field 'alphabet' must be list"):
            parse_pmf({"alphabet": "a", "pmf": ["1"]})
        with pytest.raises(FormatError, match="field 'pmf' must be list"):
            parse_pmf({"alphabet": ["a"], "pmf": "1"})


class TestJointDocuments:
    def test_round_trip(self):
        assert parse_joint(joint_document(WORKED_JOINT)) == WORKED_JOINT

    def test_row_shape_enforced(self):
        doc = joint_document(WORKED_JOINT)
        doc["joint"][0] = doc["joint"][0][:1]
        with pytest.raises(FormatError, match="y_labels"):
            parse_joint(doc)

    def test_row_count_enforced(self):
        doc = joint_document(WORKED_JOINT)
        doc["joint"] = doc["joint"][:1]
        with pytest.raises(FormatError, match="rows"):
            parse_joint(doc)

    def test_zeros_are_skipped_and_each_distinct_entry_parsed_once(self, monkeypatch):
        # 1000 x 1000 with 2000 positive cells; the zeros are mostly "0",
        # with bare 0s and "0.0" mixed in
        n = 1000
        rows = [[("0", "0", 0, "0.0")[(ix * n + iy) % 4] for iy in range(n)] for ix in range(n)]
        for i in range(n):
            rows[i][i] = "2/3000"
            rows[i][(i + 1) % n] = "1/3000"
        labels = [f"s{i}" for i in range(n)]
        doc = {"x_labels": labels, "y_labels": labels, "joint": rows}
        ratios: dict = {}
        rationals: dict = {}
        ratio, rational = formats._ratio, formats.parse_rational

        def counted_ratio(value):
            ratios[value] = ratios.get(value, 0) + 1
            return ratio(value)

        def counted_rational(value):
            rationals[value] = rationals.get(value, 0) + 1
            return rational(value)

        monkeypatch.setattr(formats, "_ratio", counted_ratio)
        monkeypatch.setattr(formats, "parse_rational", counted_rational)
        j = parse_joint(doc)
        assert len(j.numerator_cells) == 2 * n
        assert j.mass_by_label("s0", "s0") == Fraction(1, 1500)
        assert j.mass_by_label("s999", "s0") == Fraction(1, 3000)
        strings = {k: v for k, v in ratios.items() if isinstance(k, str)}
        assert strings == {"0.0": 1, "2/3000": 1, "1/3000": 1}
        assert rationals == {"0.0": 1}  # plain "n/d" and bare ints skip it

    def test_a_refused_entry_is_refused_wherever_it_repeats(self):
        doc = joint_document(WORKED_JOINT)
        doc["joint"] = [["1/2", "1e99999"], ["1e99999", "1/2"]]
        with pytest.raises(FormatError, match="exponent past"):
            parse_joint(doc)
        doc["joint"] = [["1/2", 0.0], ["0", "1/2"]]
        with pytest.raises(FormatError, match="float"):
            parse_joint(doc)

    def test_source_sniffing(self):
        assert isinstance(parse_source(pmf_document(CORPUS["uniform3"])), Pmf)
        assert isinstance(parse_source(joint_document(WORKED_JOINT)), JointPmf)
        with pytest.raises(FormatError, match="neither"):
            parse_source({"alphabet": ["a"]})


def _fraction_parse_pmf(doc):
    """parse_pmf as it was before the integer path: one Fraction per entry."""
    masses = tuple(parse_rational(v) for v in doc["pmf"])
    try:
        return Pmf.from_masses(masses, doc["alphabet"])
    except Exception as exc:
        raise FormatError(str(exc)) from None


def _fraction_parse_joint(doc):
    """parse_joint as it was before the integer path."""
    rows = [list(map(parse_rational, row)) for row in doc["joint"]]
    try:
        return JointPmf.from_rows(rows, doc["x_labels"], doc["y_labels"])
    except Exception as exc:
        raise FormatError(str(exc)) from None


def _outcome(parse, doc):
    try:
        return parse(doc)
    except FormatError as exc:
        return f"FormatError: {exc}"


ARABIC_HALF = "\u0661/\u0662"  # 1/2 in Arabic-Indic digits
ENTRY_CORPUS = [
    "2/4", "0", "1", "0.25", "1e-3", " 1/2", "+1/2", "-1/2", "1/-2", "1_0/20",
    ARABIC_HALF, "1/0", "/2", "1/", "1/2 ", "1 / 2", "01/02", "3/2", "0/7",
    "1" * 5000 + "/2", "1/" + "7" * 5000,
]


class TestIntegerParsePath:
    """Plain "n/d" entries are read as two ints; everything else, refusals
    included, behaves exactly as the one-Fraction-per-entry parser did."""

    @pytest.mark.parametrize("entry", ENTRY_CORPUS, ids=range(len(ENTRY_CORPUS)))
    def test_same_pmf_or_same_refusal(self, entry, digit_limit):
        try:
            value = parse_rational(entry)
        except FormatError:
            value = None
        rest = 1 - value if value is not None and 0 <= value <= 1 else Fraction(1, 2)
        for doc in (
            {"alphabet": ["a", "b"], "pmf": [entry, str(rest)]},
            {"alphabet": ["a", "b"], "pmf": [str(rest), entry]},
            {"alphabet": ["a"], "pmf": [entry]},
        ):
            new, old = _outcome(parse_pmf, doc), _outcome(_fraction_parse_pmf, doc)
            assert new == old
            if isinstance(new, Pmf):
                assert hash(new) == hash(old) and new.masses == old.masses
        joint = {"x_labels": ["a", "b"], "y_labels": ["a"], "joint": [[entry], [str(rest)]]}
        new, old = _outcome(parse_joint, joint), _outcome(_fraction_parse_joint, joint)
        assert new == old
        if isinstance(new, JointPmf):
            assert hash(new) == hash(old) and new.atoms() == old.atoms()

    def test_a_part_past_the_digit_limit_exits_3_with_the_same_message(
        self, tmp_path, capsys, digit_limit
    ):
        from stopkey.cli import main

        entry = "1" * 5000 + "/2"
        with pytest.raises(FormatError) as refused:
            parse_rational(entry)
        path = str(tmp_path / "huge.json")
        write_document({"alphabet": ["a", "b"], "pmf": [entry, "1/2"]}, path)
        argv = ["keygen-common", "--dist", path, "--x", "a", "--role", "alice"]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err == f"error: {refused.value}\n"
        assert "Exceeds the limit" in err and "Traceback" not in err

    def test_equal_values_store_equal_integers_and_share_an_engine(self):
        sources = [
            parse_pmf({"alphabet": ["a", "b"], "pmf": [s, s]}) for s in ("1/2", "2/4", "0.5")
        ] + [Pmf(("a", "b"), (3, 3), 6)]
        for p in sources:
            assert (p.numerators, p.denominator) == ((1, 1), 2)
            assert p == sources[0] and hash(p) == hash(sources[0])
            assert engine_for(p) is engine_for(sources[0])
        joints = [
            parse_joint({"x_labels": ["a"], "y_labels": ["a", "b"], "joint": [[s, s]]})
            for s in ("1/2", "2/4", "0.5")
        ] + [JointPmf(("a",), ("a", "b"), ((0, 0, 3), (0, 1, 3)), 6)]
        for j in joints:
            assert (j.numerator_cells, j.denominator) == (((0, 0, 1), (0, 1, 1)), 2)
            assert j == joints[0] and hash(j) == hash(joints[0])

    def test_plain_entries_make_no_parse_rational_call(self, monkeypatch):
        n = 1000
        total = n * (n + 1) // 2
        doc = {"alphabet": [f"s{i}" for i in range(n)],
               "pmf": [f"{w}/{total}" for w in range(1, n + 1)]}
        calls = []
        rational = formats.parse_rational
        monkeypatch.setattr(formats, "parse_rational", lambda v: calls.append(v) or rational(v))
        p = parse_pmf(doc)
        assert calls == []
        assert p.masses == tuple(Fraction(w, total) for w in range(1, n + 1))
        assert p.denominator == total


def _two_pass_parse_pmf(doc):
    """parse_pmf as it was before the one-pass read: every entry through
    _ratio, then Pmf.from_ratios over all of them."""
    alphabet = formats._labels(formats._require(doc, "alphabet", list))
    raw = formats._require(doc, "pmf", list)
    if len(raw) != len(alphabet):
        raise FormatError(f"{len(alphabet)} labels but {len(raw)} masses")
    ratios = [formats._ratio(value) for value in raw]
    try:
        return Pmf.from_ratios([n for n, _ in ratios], [d for _, d in ratios], alphabet)
    except Exception as exc:
        raise FormatError(str(exc)) from None


def _lowest_terms(p):
    return p if isinstance(p, str) else (p.labels, p.numerators, p.denominator)


HUGE = "1" * 5000
# pmf entries -> the stored (numerators, denominator), or the refusal
PMF_TABLE = {
    "zero denominator": (["1/0", "1/2"], "not a rational: '1/0' (Fraction(1, 0))"),
    "negative": (["-1/2", "3/2"], "mass -1/2 outside [0, 1]"),
    "decimal string": (["0.5", "1/2"], ((1, 1), 2)),
    "JSON float": (
        [0.5, "1/2"], "float 0.5 rejected: write rationals as strings ('1/3', '0.25')"
    ),
    "true": ([True, 0], "not a rational: True"),
    "null": ([None, "1"], "not a rational: None"),
    "Arabic-Indic digits": ([ARABIC_HALF, "1/2"], ((1, 1), 2)),
    "superscript digit": (
        ["\u00b2/4", "1/2"], "not a rational: '\u00b2/4' (Invalid literal for Fraction: '\u00b2/4')"
    ),
    "two slashes": (
        ["1/2/3", "1/2"], "not a rational: '1/2/3' (Invalid literal for Fraction: '1/2/3')"
    ),
    "empty": (["", "1"], "not a rational: '' (Invalid literal for Fraction: '')"),
    "leading space": ([" 1/2", "1/2"], ((1, 1), 2)),
    "plus sign": (["+1/2", "1/2"], ((1, 1), 2)),
    "hex": (["0x1/2", "1/2"], "not a rational: '0x1/2' (Invalid literal for Fraction: '0x1/2')"),
    "underscore": (["1_0/20", "1/2"], ((1, 1), 2)),
    "decimal exponent": (
        ["1e-99999999", "1"], "a decimal has more than 4300 digits or an exponent past 4300"
    ),
    "shared denominator": (["2/8", "0", "2/8", "4/8"], ((1, 0, 1, 2), 4)),
    "mixed denominators": (["1/2", "1/3", "0/7", "1/6"], ((3, 2, 0, 1), 6)),
    "mixed after zeros": (["0", "0/5", "1/4", "3/4", "0/9"], ((0, 0, 1, 3, 0), 4)),
    "ints": ([0, 1, "0"], ((0, 1, 0), 1)),
    "deficit": (["1/4", "1/4"], "pmf masses sum to 1/2, not 1 (deficit 1/2)"),
    "mixed deficit": (["1/4", "1/3"], "pmf masses sum to 7/12, not 1 (deficit 5/12)"),
    "all zero": (["0", "0/5"], "pmf masses sum to 0, not 1 (deficit 1)"),
    "above one": (["3/2", "-1/2"], "mass 3/2 outside [0, 1]"),
}
# whole documents, for the label and length checks
DOC_TABLE = {
    "duplicate labels": (
        {"alphabet": ["a", "b", "a"], "pmf": ["1/4", "1/4", "1/2"]},
        "alphabet labels must be distinct",
    ),
    "non-str label": ({"alphabet": ["a", 1], "pmf": ["1/2", "1/2"]}, "label 1 must be a string"),
    "length mismatch": (
        {"alphabet": ["a", "b", "c"], "pmf": ["1/2", "1/2"]}, "3 labels but 2 masses"
    ),
}


class TestOnePassPmfParse:
    """parse_pmf reads its masses in one pass and returns what the two-pass
    read did, refusals and their messages included."""

    @pytest.mark.parametrize("name", PMF_TABLE)
    def test_entry_table(self, name, digit_limit):
        entries, expected = PMF_TABLE[name]
        doc = {"alphabet": [f"s{i}" for i in range(len(entries))], "pmf": entries}
        got = _outcome(parse_pmf, doc)
        assert _lowest_terms(got) == _lowest_terms(_outcome(_two_pass_parse_pmf, doc))
        if isinstance(expected, str):
            assert got == f"FormatError: {expected}"
        else:
            assert (got.numerators, got.denominator) == expected

    @pytest.mark.parametrize("name", DOC_TABLE)
    def test_document_table(self, name):
        doc, message = DOC_TABLE[name]
        assert _outcome(parse_pmf, doc) == _outcome(_two_pass_parse_pmf, doc)
        assert _outcome(parse_pmf, doc) == f"FormatError: {message}"

    @pytest.mark.parametrize("where", ["numerator", "denominator"])
    def test_a_part_past_the_digit_limit(self, where, digit_limit):
        entry = HUGE + "/2" if where == "numerator" else "1/" + HUGE
        for entries in ([entry, "1/2"], ["1/2", entry]):
            doc = {"alphabet": ["a", "b"], "pmf": entries}
            got = _outcome(parse_pmf, doc)
            assert got == _outcome(_two_pass_parse_pmf, doc)
            assert got.startswith(f"FormatError: not a rational: '{entry}' (Exceeds the limit")

    def test_seeded_documents_match_the_two_pass_read(self, digit_limit):
        rng = random.Random("one-pass-pmf")
        spellings = [
            lambda w, t: f"{w}/{t}",
            lambda w, t: str(Fraction(w, t)),
            lambda w, t: f"{w * 3}/{t * 3}",
            lambda w, t: f"{w / t:.6f}" if t in (1, 2, 4, 5, 8, 10) else f"{w}/{t}",
            lambda w, t: w if t == 1 else f"{w}/{t}",
        ]
        refused = 0
        for _ in range(200):
            n = rng.randrange(1, 12)
            weights = [rng.choice([0, 0, 1, 2, 3, 5, 8]) for _ in range(n)]
            total = sum(weights) + rng.choice([0, 0, 0, 0, 1])  # sometimes a deficit
            if total == 0:
                weights[0] = total = 1
            shared = rng.random() < 0.5
            pmf = []
            for w in weights:
                if w == 0 and rng.random() < 0.5:
                    pmf.append("0")
                    continue
                spell = spellings[0] if shared else rng.choice(spellings)
                pmf.append(spell(w, total))
            if rng.random() < 0.1:
                pmf[rng.randrange(n)] = rng.choice(["1/0", "-1/3", "x", "\u00b2/3", None])
            doc = {"alphabet": [f"s{i}" for i in range(n)], "pmf": pmf}
            got, want = _outcome(parse_pmf, doc), _outcome(_two_pass_parse_pmf, doc)
            assert _lowest_terms(got) == _lowest_terms(want), doc
            if isinstance(got, str):
                refused += 1
            else:
                assert hash(got) == hash(want) and got.masses == want.masses
        assert 0 < refused < 100

    def test_a_shared_denominator_skips_the_ratio_merge(self, monkeypatch):
        calls = []
        merge = Pmf.from_ratios.__func__
        monkeypatch.setattr(
            Pmf, "from_ratios", classmethod(lambda cls, *a: calls.append(a) or merge(cls, *a))
        )
        p = parse_pmf({"alphabet": ["a", "b", "c"], "pmf": ["1/6", "0", "5/6"]})
        assert (p.numerators, p.denominator) == ((1, 0, 5), 6) and calls == []
        parse_pmf({"alphabet": ["a", "b"], "pmf": ["1/2", "2/4"]})
        assert len(calls) == 1


class TestFileIO:
    def test_write_read_round_trip(self, tmp_path):
        path = str(tmp_path / "dist.json")
        write_document(pmf_document(CORPUS["tenths"]), path)
        assert load_distribution(path) == CORPUS["tenths"]
        assert load_source(path) == CORPUS["tenths"]

    def test_joint_file_round_trip(self, tmp_path):
        path = str(tmp_path / "joint.json")
        write_document(joint_document(WORKED_JOINT), path)
        assert load_source(path) == WORKED_JOINT

    def test_invalid_json_reports_the_path(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(FormatError, match="broken.json"):
            read_document(str(path))

    @pytest.mark.parametrize(
        "text",
        ["[" * 100000 + "]" * 100000, "[" + "1" * 5000 + "]"],
        ids=["deep-nesting", "huge-integer"],
    )
    def test_undecodable_documents_are_format_errors(self, text, tmp_path):
        path = tmp_path / "hostile.json"
        path.write_text(text)
        with pytest.raises(FormatError, match="hostile.json"):
            read_document(str(path))

    def test_invalid_utf8_is_a_format_error(self, tmp_path):
        path = tmp_path / "latin.json"
        path.write_bytes(b'{"alphabet": ["\xe9"]}')
        with pytest.raises(FormatError, match="latin.json"):
            read_document(str(path))

    def test_non_object_documents_rejected(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        for loader in (load_distribution, load_source, load_hash_function):
            with pytest.raises(FormatError, match="object"):
                loader(str(path))

    def test_dumps_is_deterministic(self):
        a = dumps({"b": 1, "a": [2, 3]})
        b = dumps({"a": [2, 3], "b": 1})
        assert a == b
        assert a.endswith("\n")
        assert json.loads(a) == {"a": [2, 3], "b": 1}


class TestKeyLawDocuments:
    def test_round_trip_with_tail(self):
        law = KeyLaw.from_dict(
            {"": Fraction(1, 2), "0": Fraction(1, 8), "1": Fraction(1, 4)},
            Fraction(1, 8),
        )
        again = parse_key_law({"atoms": [["", "1/2"], ["0", "1/8"], ["1", "1/4"]], "tail": "1/8"})
        assert again == law
        assert again.tail == Fraction(1, 8)

    def test_tail_defaults_to_zero(self):
        law = parse_key_law({"atoms": [["0", "1/2"], ["1", "1/2"]]})
        assert law.tail == 0

    def test_duplicate_keys_rejected(self):
        with pytest.raises(FormatError, match="duplicate"):
            parse_key_law({"atoms": [["0", "1/4"], ["0", "3/4"]]})

    def test_malformed_atoms_rejected(self):
        with pytest.raises(FormatError, match="pair"):
            parse_key_law({"atoms": [["0"]]})
        with pytest.raises(FormatError, match="string"):
            parse_key_law({"atoms": [[0, "1"]]})

    def test_overweight_law_rejected(self):
        with pytest.raises(FormatError):
            parse_key_law({"atoms": [["0", "1"], ["1", "1/2"]]})


class TestVerdictDocuments:
    def test_valid_rsbs_verdict(self):
        law = KeyLaw.from_dict({"0": Fraction(1, 2), "1": Fraction(1, 2)})
        doc = rsbs_verdict_document(verify_rsbs(law))
        assert doc["valid"] is True
        assert doc["violations"] == []
        assert doc["tail"] == "0"
        assert doc["tail_slack"] is None

    def test_violating_rsbs_verdict(self):
        law = KeyLaw.from_dict({"0": Fraction(3, 4), "1": Fraction(1, 4)})
        doc = rsbs_verdict_document(verify_rsbs(law))
        assert doc["valid"] is False
        assert doc["violations"]
        first = doc["violations"][0]
        assert first["prefix"] == ""
        assert {first["p_zero"], first["p_one"]} == {"3/4", "1/4"}


class TestDecompositionDocuments:
    def test_uniform3_dump(self):
        doc = decomposition_document(engine_for(CORPUS["uniform3"]), 4)
        assert doc["alphabet"] == ["0", "1", "2"]
        assert doc["tail"] == "1/16"
        assert [r["w"] for r in doc["rounds"]] == [1, 2, 3, 4]
        assert doc["rounds"][0]["codewords"] == {"0": "0", "1": "1"}
        assert doc["rounds"][1]["codewords"] == {"2": ""}
        assert doc["rounds"][0]["weight"] == "1/2"
        assert doc["rounds"][0]["conditional"] == ["1/2", "1/2", "0"]

    def test_codewords_keyed_by_label(self):
        doc = decomposition_document(engine_for(CORPUS["tenths"]), 2)
        assert doc["rounds"][1]["codewords"] == {"2": "0", "0": "1"}


class TestHashDocuments:
    def test_round_trip(self):
        h = HashFunction(("a", "b", "c"), (1, 2, 1), 2, "random-seeded")
        again = parse_hash_function(hash_function_document(h))
        assert again == h
        assert again.provenance == "random-seeded"

    def test_provenance_defaults_to_fixed(self):
        h = parse_hash_function({"labels": ["a"], "values": [1], "m": 1})
        assert h.provenance == "fixed"

    def test_bool_values_rejected(self):
        with pytest.raises(FormatError, match="integer"):
            parse_hash_function({"labels": ["a"], "values": [True], "m": 2})

    def test_range_errors_become_format_errors(self):
        with pytest.raises(FormatError):
            parse_hash_function({"labels": ["a"], "values": [5], "m": 2})

    def test_file_round_trip(self, tmp_path):
        path = str(tmp_path / "hash.json")
        h = HashFunction(("x", "y"), (2, 1), 2)
        write_document(hash_function_document(h), path)
        assert load_hash_function(path) == h
