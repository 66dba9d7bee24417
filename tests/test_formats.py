import json
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
    joint_document,
    load_distribution,
    load_hash_function,
    load_source,
    parse_hash_function,
    parse_joint,
    parse_key_law,
    parse_pmf,
    parse_rational,
    parse_source,
    pmf_document,
    read_document,
    rsbs_verdict_document,
    write_document,
)
from stopkey.keylaws import KeyLaw, verify_rsbs
from stopkey.probability import JointPmf, Pmf
from stopkey.reconciled import HashFunction

from conftest import CORPUS, WORKED_JOINT, pmf


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

    def test_source_sniffing(self):
        assert isinstance(parse_source(pmf_document(CORPUS["uniform3"])), Pmf)
        assert isinstance(parse_source(joint_document(WORKED_JOINT)), JointPmf)
        with pytest.raises(FormatError, match="neither"):
            parse_source({"alphabet": ["a"]})


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
