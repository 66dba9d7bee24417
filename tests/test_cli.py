import argparse
import gc
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stopkey
from stopkey import cli
from stopkey.cli import main
from stopkey.common import KeyAgreeEngine, alice_keygen
from stopkey.randomsource import RandomSource

import pins
from conftest import CORPUS, CORRELATED_3, WORKED_JOINT, joint, run_threads
from documents import joint_document, pmf_document, write_document
from pins import (
    PARSER_CASES,
    PARSER_TAILS,
    TOP_LEVEL_ARGVS,
    exits,
    main_namespace,
    parsed,
    verb_argvs,
    well_formed,
)


@pytest.fixture()
def dist_file(tmp_path):
    path = str(tmp_path / "tenths.json")
    write_document(pmf_document(CORPUS["tenths"]), path)
    return path


@pytest.fixture()
def joint_file(tmp_path):
    path = str(tmp_path / "worked.json")
    write_document(joint_document(WORKED_JOINT), path)
    return path


@pytest.fixture()
def corr_file(tmp_path):
    path = str(tmp_path / "corr3.json")
    write_document(joint_document(CORRELATED_3), path)
    return path


def _output(argv, capsys) -> str:
    main(argv)
    captured = capsys.readouterr()
    assert captured.err == ""
    return captured.out


@pytest.fixture()
def law_files(tmp_path):
    good = str(tmp_path / "good.json")
    write_document(
        {"atoms": [["0", "1/2"], ["1", "1/2"]], "tail": "0"}, good
    )
    bad = str(tmp_path / "bad.json")
    write_document(
        {"atoms": [["0", "3/4"], ["1", "1/4"]], "tail": "0"}, bad
    )
    return good, bad


class TestDecompose:
    def test_text_dump_shows_the_tie_round(self, dist_file, capsys):
        assert main(["decompose", "--dist", dist_file, "--w-max", "2"]) == 0
        out = capsys.readouterr().out
        assert 'w=1 weight=1/2 codewords: 0="0" 1="1"' in out
        assert 'w=2 weight=1/4 codewords: 2="0" 0="1"' in out
        assert "tail: 1/4" in out

    def test_structured_dump(self, dist_file, capsys):
        assert main(
            ["decompose", "--dist", dist_file, "--format", "structured"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["rounds"]) == 8
        assert doc["rounds"][0]["conditional"] == ["1/2", "1/2", "0", "0"]

    def test_out_file(self, dist_file, tmp_path, capsys):
        dest = str(tmp_path / "dump.txt")
        assert main(["decompose", "--dist", dist_file, "--out", dest]) == 0
        assert capsys.readouterr().out == ""
        assert "tail:" in Path(dest).read_text()

    def test_dump_bytes_are_pinned(self, tmp_path, monkeypatch, capsys):
        """Both dump forms, to depth 24, for the corpus and 300 random
        pmfs, hash to digests frozen from the original implementation."""
        monkeypatch.chdir(tmp_path)

        def run(argv):
            assert main(argv) == 0
            return capsys.readouterr().out

        assert pins.dump_digests(run) == pins.DUMP_PIN

    def test_unprintable_depth_fails_before_building(self, dist_file, monkeypatch, capsys):
        # 2**15000 has 4516 digits, past the default 4300-digit limit
        built = []
        raw = KeyAgreeEngine._advance

        def counting(self):
            built.append(1)
            return raw(self)

        monkeypatch.setattr(KeyAgreeEngine, "_advance", counting)
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300)
        assert main(["decompose", "--dist", dist_file, "--w-max", "15000"]) == 3
        assert "exceeds 14284" in capsys.readouterr().err
        assert built == []

    def test_deepest_printable_depth_still_dumps(self, tmp_path, capsys):
        # at a 640-digit limit the deepest printable weight is 2**-2126
        path = str(tmp_path / "thirds.json")
        write_document(pmf_document(CORPUS["thirds"]), path)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            assert main(["decompose", "--dist", path, "--w-max", "2127"]) == 3
            capsys.readouterr()
            assert main(["decompose", "--dist", path, "--w-max", "2126"]) == 0
        finally:
            sys.set_int_max_str_digits(limit)
        assert capsys.readouterr().out.endswith(f"tail: 1/{1 << 2126}\n")


class TestKeygenCommon:
    def test_bob_replays_a_round(self, dist_file, capsys):
        assert main(
            ["keygen-common", "--dist", dist_file, "--role", "bob", "--x", "2", "--w", "2"]
        ) == 0
        assert capsys.readouterr().out == "key=0 w=2\n"

    def test_bob_requires_w(self, dist_file, capsys):
        assert main(
            ["keygen-common", "--dist", dist_file, "--role", "bob", "--x", "2"]
        ) == 3
        assert "error:" in capsys.readouterr().err

    def test_alice_refuses_w(self, dist_file, capsys):
        assert main(
            ["keygen-common", "--dist", dist_file, "--role", "alice", "--x", "2", "--w", "5"]
        ) == 3
        assert "--w is for --role bob only" in capsys.readouterr().err

    def test_alice_is_seed_deterministic(self, dist_file, capsys):
        args = [
            "keygen-common", "--dist", dist_file, "--role", "alice",
            "--x", "0", "--seed", "7", "--format", "structured",
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first
        doc = json.loads(first)
        assert set(doc) == {"key", "w"}

    def test_a_non_decimal_seed_is_a_string_seed(self, dist_file, capsys):
        # "²" is a digit but no decimal, and int() refuses it; decimal digits
        # of any script still seed as the int they spell
        assert cli._seed_value("²") == "²"
        assert cli._seed_value("٣") == 3 and cli._seed_value("-12") == -12
        assert cli._seed_value("-") == "-" and cli._seed_value("7a") == "7a"
        # int() takes one sign: a second makes a string seed, not an error
        assert cli._seed_value("--5") == "--5" and cli._seed_value("--") == "--"
        base = ["keygen-common", "--dist", dist_file, "--role", "alice", "--x", "0"]
        outputs = {}
        for seed in ("²", "٣", "3"):
            assert main([*base, "--seed", seed]) == 0
            outputs[seed] = capsys.readouterr().out
        assert outputs["٣"] == outputs["3"]
        key, w = alice_keygen(CORPUS["tenths"], 0, RandomSource("²").substream("keygen-common"))
        assert outputs["²"] == f"key={key} w={w}\n"
        assert main([*base, "--seed=--5"]) == 0
        key, w = alice_keygen(CORPUS["tenths"], 0, RandomSource("--5").substream("keygen-common"))
        assert capsys.readouterr() == (f"key={key} w={w}\n", "")

    def test_unknown_label(self, dist_file, capsys):
        assert main(
            ["keygen-common", "--dist", dist_file, "--role", "bob", "--x", "z", "--w", "1"]
        ) == 3
        assert "error:" in capsys.readouterr().err

    def test_unreachable_round_is_an_input_error(self, dist_file, capsys):
        assert main(
            ["keygen-common", "--dist", dist_file, "--role", "bob", "--x", "2", "--w", "1"]
        ) == 3
        assert "unreachable" in capsys.readouterr().err


class TestKeygenAlmost:
    def test_derandomized_run_log(self, joint_file, capsys):
        assert main(
            [
                "keygen-almost", "--joint", joint_file, "--m", "2",
                "--trials", "5", "--format", "structured",
            ]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["protocol"] == "almost"
        assert doc["hash_mode"] == "derandomized"
        assert doc["hash_table"]["m"] == 2
        assert len(doc["runs"]) == 5
        assert doc["errors"] == 0

    def test_random_hash_mode(self, joint_file, capsys):
        assert main(
            [
                "keygen-almost", "--joint", joint_file, "--m", "2",
                "--hash", "random:5", "--trials", "3", "--format", "structured",
            ]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["hash_mode"] == "random"
        assert "hash_table" not in doc

    def test_text_run_log_summary_line(self, joint_file, capsys):
        assert main(
            ["keygen-almost", "--joint", joint_file, "--m", "2", "--trials", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "trial=0" in out and "trial=1" in out
        assert "trials=2 errors=0" in out


class TestKeygenCorrelated:
    def test_pipeline_run_log(self, joint_file, capsys):
        assert main(
            [
                "keygen-correlated", "--joint", joint_file, "--m", "2",
                "--reconciler", "hashmap:1", "--trials", "4",
                "--format", "structured",
            ]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["protocol"] == "correlated"
        assert doc["reconciler"] == "hashmap:1"
        assert len(doc["runs"]) == 4
        assert doc["runs"][0]["transcript"][0]["kind"] == "sketch"

    @pytest.mark.parametrize(
        "verb, options, message",
        [
            ("keygen-almost", ["--m", "0", "--hash", "random:S"], "bucket count m"),
            ("keygen-correlated", ["--m", "0", "--trials", "0"], "bucket count m"),
            ("keygen-almost", ["--m", "2", "--trials", "-1"], "trials must be >= 0"),
            ("keygen-correlated", ["--m", "2", "--trials", "-1"], "trials must be >= 0"),
        ],
    )
    def test_bad_counts_are_input_errors(self, verb, options, message, joint_file, capsys):
        assert main([verb, "--joint", joint_file, *options]) == 3
        assert message in capsys.readouterr().err

    def test_bad_reconciler_spec(self, joint_file, capsys):
        assert main(
            [
                "keygen-correlated", "--joint", joint_file, "--m", "2",
                "--reconciler", "osmosis",
            ]
        ) == 3
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["keygen-correlated", "simulate"])
    def test_oversized_sketch_width_is_an_input_error(self, verb, joint_file, capsys):
        # a 15000-bit sketch value would pass the int-to-str digit limit
        argv = [verb, "--joint", joint_file, "--m", "2", "--reconciler", "hashmap:15000"]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: sketch width 15000 is not 1 to 64 bits\n"

    @pytest.mark.parametrize("verb", ["keygen-almost", "keygen-correlated"])
    def test_single_distribution_is_an_input_error(self, verb, dist_file, capsys):
        assert main([verb, "--joint", dist_file, "--m", "2"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        protocol = verb[len("keygen-"):]
        assert captured.err == f"error: {protocol} protocol takes a joint distribution\n"


class TestTrialOutputPins:
    """Run logs and reports of every protocol, frozen byte for byte."""

    def test_outputs_are_pinned(self, tmp_path, monkeypatch, capsys):
        # reports echo the source path, so it must not depend on tmp_path
        monkeypatch.chdir(tmp_path)
        assert pins.trial_digests(lambda argv: _output(argv, capsys)) == pins.TRIAL_PINS

    def test_text_run_logs_are_pinned(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        got = pins.run_log_digests(lambda argv: _output(argv, capsys))
        assert got == pins.RUN_LOG_TEXT_PINS

    @pytest.mark.parametrize(
        "verb, options, protocol",
        [
            ("keygen-almost", [], "almost"),
            ("keygen-almost", ["--hash", "random:S"], "almost"),
            ("keygen-correlated", ["--reconciler", "identity"], "correlated"),
            ("keygen-correlated", ["--reconciler", "hashmap:1"], "correlated"),
            ("keygen-correlated", ["--reconciler", "constant"], "correlated"),
        ],
    )
    def test_keygen_errors_match_simulate(self, verb, options, protocol, corr_file, capsys):
        """A keygen verb plays exactly the trials simulate plays."""
        common = ["--joint", corr_file, "--m", "1", "--trials", "300", "--seed", "5",
                  "--format", "structured", *options]
        log = json.loads(_output([verb, *common], capsys))
        report = json.loads(_output(["simulate", "--protocol", protocol, *common], capsys))
        assert log["errors"] == report["estimates"]["errors"]
        if options in ([], ["--reconciler", "identity"]):
            assert log["errors"] > 0


class TestDistSourcePins:
    """Outputs computed from a single distribution, frozen byte for byte."""

    def test_outputs_are_pinned(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert pins.dist_digests(lambda argv: _output(argv, capsys)) == pins.DIST_PINS


class TestVerifyRsbs:
    def test_valid_law_exits_zero(self, law_files, capsys):
        good, _ = law_files
        assert main(["verify-rsbs", "--law", good]) == 0
        assert "valid: True" in capsys.readouterr().out

    def test_violating_law_exits_two(self, law_files, capsys):
        _, bad = law_files
        assert main(["verify-rsbs", "--law", bad]) == 2
        out = capsys.readouterr().out
        assert "valid: False" in out
        assert "P(0)=3/4 P(1)=1/4" in out

    def test_structured_verdict(self, law_files, capsys):
        good, _ = law_files
        assert main(
            ["verify-rsbs", "--law", good, "--format", "structured"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["valid"] is True

    def test_tail_slack_accepts_truncated_laws(self, tmp_path, capsys):
        path = str(tmp_path / "tailed.json")
        write_document(
            {"atoms": [["0", "1/4"], ["1", "1/4"]], "tail": "1/2"}, path
        )
        assert main(["verify-rsbs", "--law", path]) == 3
        assert "tail" in capsys.readouterr().err
        assert main(["verify-rsbs", "--law", path, "--tail-slack", "1/2"]) == 0

    def test_negative_tail_slack_is_an_input_error(self, law_files, capsys):
        good, _ = law_files
        assert main(["verify-rsbs", "--law", good, "--tail-slack=-1/2"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "tail_slack must be >= 0" in captured.err

    def test_missing_file(self, capsys):
        assert main(["verify-rsbs", "--law", "/nonexistent.json"]) == 3
        assert "error:" in capsys.readouterr().err

    def test_non_object_law_is_an_input_error(self, tmp_path, capsys):
        path = tmp_path / "law.json"
        path.write_text("[]")
        assert main(["verify-rsbs", "--law", str(path)]) == 3
        assert capsys.readouterr().err == f"error: {path}: expected an object document\n"


class TestBounds:
    def test_dist_dashboard(self, dist_file, capsys):
        assert main(["bounds", "--dist", dist_file, "--m", "2"]) == 0
        out = capsys.readouterr().out
        assert "(converse) length converse: I(X;Y) + log2 3 + 1" in out
        assert "p = 1" in out

    def test_joint_dashboard_structured(self, joint_file, capsys):
        assert main(
            ["bounds", "--joint", joint_file, "--format", "structured"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["p_agree"] == "3/4"

    def test_exactly_one_source_required(self, dist_file, joint_file, capsys):
        assert main(["bounds"]) == 3
        capsys.readouterr()
        assert main(
            ["bounds", "--dist", dist_file, "--joint", joint_file]
        ) == 3
        assert "exactly one" in capsys.readouterr().err


    def test_a_probability_past_the_digit_limit_is_an_input_error(self, tmp_path, capsys):
        # each cell lies over two of four pairwise coprime ~5000-bit
        # factors, and the last numerator is solved so the cells sum to 1:
        # no number in the document passes 4300 digits, but P(X = Y) =
        # a/pq + d/rs lies over pqrs, about 6000 digits
        n = 2**5000 + 3
        p, q, r, s = n, n + 1, n + 2, n + 4
        assert all(math.gcd(u, v) == 1 for u, v in itertools.combinations((p, q, r, s), 2))
        a = p * q // 3
        b = -a * r * s * pow(q * s, -1, p) % p + r // 4 * p
        c = -a * r * s * pow(p * r, -1, q) % q + s // 4 * q
        d, rest = divmod(p * q * r * s - a * r * s - b * q * s - c * p * r, p * q)
        assert rest == 0 and d > 0
        doc = {
            "x_labels": ["0", "1"],
            "y_labels": ["0", "1"],
            "joint": [[f"{a}/{p * q}", f"{b}/{p * r}"], [f"{c}/{q * s}", f"{d}/{r * s}"]],
        }
        path = str(tmp_path / "wide.json")
        write_document(doc, path)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            assert main(["bounds", "--joint", path]) == 3
        finally:
            sys.set_int_max_str_digits(limit)
        assert capsys.readouterr().err == (
            "error: a rational has more than 4300 digits, the int-to-str limit\n"
        )


def _tiny_mass(d: int) -> dict:
    return {"alphabet": ["a", "b"], "pmf": [f"1/{d}", f"{d - 1}/{d}"]}


# masses below the float range: 1/10^400 and 2^-1080 round to 0.0, and
# 2^-1050 is subnormal with a ratio 2^1050 past the float range
TINY_SOURCES = {
    "pmf-10^-400": ("--dist", _tiny_mass(10**400)),
    "pmf-2^-1080": ("--dist", _tiny_mass(2**1080)),
    "pmf-2^-1050": ("--dist", _tiny_mass(2**1050)),
    "joint-10^-400": ("--joint", {
        "x_labels": ["0", "1"],
        "y_labels": ["0", "1"],
        "joint": [[f"{10**400 - 1}/{2 * 10**400}", f"1/{2 * 10**400}"], ["0", "1/2"]],
    }),
}


@pytest.mark.parametrize("verb", ["bounds", "report"])
@pytest.mark.parametrize("name", TINY_SOURCES)
def test_a_mass_below_the_float_range_is_reported(name, verb, tmp_path, capsys):
    flag, doc = TINY_SOURCES[name]
    path = str(tmp_path / "tiny.json")
    write_document(doc, path)
    assert main([verb, flag, path]) == 0
    out, err = capsys.readouterr()
    assert err == "" and "(converse) length converse" in out


class TestSimulateAndReport:
    def test_simulate_common(self, dist_file, capsys):
        assert main(
            ["simulate", "--dist", dist_file, "--trials", "50", "--seed", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert out.startswith("== stopkey report ==")
        assert "status: ok" in out

    def test_zero_error_run_passes_its_error_check(self, dist_file, capsys):
        # at 13 trials the Wilson lower end used to round to about 2e-19
        assert main(["simulate", "--dist", dist_file, "--trials", "13"]) == 0
        out = capsys.readouterr().out
        assert "[pass] measured error = 0: observed [0, " in out
        assert "status: ok" in out

    def test_protocol_inference(self, joint_file, capsys):
        assert main(
            [
                "simulate", "--joint", joint_file, "--m", "2",
                "--trials", "10", "--format", "structured",
            ]
        ) == 0
        assert json.loads(capsys.readouterr().out)["config"]["protocol"] == "almost"
        assert main(
            [
                "simulate", "--joint", joint_file, "--m", "2",
                "--trials", "10", "--reconciler", "identity",
                "--format", "structured",
            ]
        ) == 0
        assert (
            json.loads(capsys.readouterr().out)["config"]["protocol"] == "correlated"
        )

    def test_protocol_override(self, joint_file, capsys):
        assert main(
            [
                "simulate", "--joint", joint_file, "--protocol", "almost",
                "--m", "2", "--trials", "5", "--format", "structured",
            ]
        ) == 0
        assert json.loads(capsys.readouterr().out)["config"]["protocol"] == "almost"

    @pytest.mark.parametrize(
        "source, options",
        [
            ("joint", ["--protocol", "correlated", "--reconciler", "identity",
                       "--hash", "fixed:nope.json"]),
            ("dist", ["--reconciler", "hashmap:3", "--hash", "random:1"]),
            ("dist", ["--hash", "random:1"]),
            ("joint", ["--protocol", "almost", "--reconciler", "identity"]),
        ],
    )
    @pytest.mark.parametrize("verb", ["simulate", "report"])
    def test_unused_options_are_input_errors(
        self, verb, source, options, dist_file, joint_file, capsys
    ):
        path = dist_file if source == "dist" else joint_file
        argv = [verb, f"--{source}", path, "--m", "2", "--trials", "10", *options]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "applies only" in captured.err

    def test_a_joint_that_never_agrees_prints_no_conditional_entropy(self, tmp_path, capsys):
        # P(X = Y) = 0 leaves H(X | X = Y) undefined
        path = str(tmp_path / "disjoint.json")
        write_document(joint_document(joint([["0", "1/2"], ["1/2", "0"]], "ab", "ab")), path)
        out = _output(["report", "--joint", path, "--protocol", "correlated", "--format", "text"], capsys)
        assert "  p = 0   I(X;Y) = 1   H(X|X=Y) = n/a\n" in out
        assert out.endswith("status: ok\n")

    def test_report_defaults_to_bounds_only(self, dist_file, capsys):
        assert main(
            ["report", "--dist", dist_file, "--format", "structured"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["config"]["trials"] == 0
        assert "estimates" not in doc

    def test_report_bytes_ignore_destination(self, dist_file, tmp_path):
        a = str(tmp_path / "a.json")
        b = str(tmp_path / "b.json")
        base = [
            "report", "--dist", dist_file, "--trials", "20",
            "--seed", "9", "--format", "structured",
        ]
        assert main(base + ["--out", a]) == 0
        assert main(base + ["--out", b]) == 0
        assert Path(a).read_text() == Path(b).read_text()

    def test_missing_source_file(self, capsys):
        assert main(["simulate", "--dist", "/nope.json", "--trials", "1"]) == 3
        assert "error:" in capsys.readouterr().err

    def test_usage_errors_are_input_errors(self, dist_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--dist", dist_file, "--m", "abc"])
        assert exc.value.code == 3
        err = capsys.readouterr().err
        assert err.startswith("usage: stopkey simulate")
        assert "stopkey simulate: error: argument --m: invalid int value: 'abc'" in err
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0

    def test_unprintable_report_value_is_an_input_error(self, dist_file, capsys):
        # at a 640-digit limit the tail 2**-2127 of a 2127-round law is unprintable
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            assert main(["report", "--dist", dist_file, "--w-max", "2127"]) == 3
            assert "more than 640 digits" in capsys.readouterr().err
            assert main(["report", "--dist", dist_file, "--w-max", "2126"]) == 0
        finally:
            sys.set_int_max_str_digits(limit)


class TestHostileDocuments:
    """Documents that once escaped as tracebacks (exit 1) are input errors."""

    @pytest.mark.parametrize(
        "body",
        [
            '{"alphabet": ["a", "b"], "pmf": ' + "[" * 100000 + "]" * 100000 + "}",
            '{"alphabet": ["a", "b"], "pmf": ["1e-99999999", "1"]}',
            '{"alphabet": ["a", "b"], "pmf": [' + "1" * 5000 + ", 1]}",
        ],
        ids=["deep-nesting", "decimal-exponent", "huge-integer"],
    )
    def test_exit_3_without_a_traceback(self, body, tmp_path):
        self.assert_refused(body, tmp_path, None)

    def test_decimal_exponent_refused_with_the_digit_limit_off(self, tmp_path):
        body = '{"alphabet": ["a", "b"], "pmf": ["1e-99999999", "1"]}'
        self.assert_refused(body, tmp_path, "0")

    @staticmethod
    def assert_refused(body, tmp_path, digit_limit):
        path = tmp_path / "hostile.json"
        path.write_text(body)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        env.pop("PYTHONINTMAXSTRDIGITS", None)
        if digit_limit is not None:
            env["PYTHONINTMAXSTRDIGITS"] = digit_limit
        proc = subprocess.run(
            [sys.executable, "-m", "stopkey.cli", "keygen-common", "--dist", str(path),
             "--x", "a", "--role", "alice", "--seed", "1"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 3
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr


@pytest.fixture()
def builds(monkeypatch) -> list:
    """Every parser cli._build_parser returns from now on."""
    built = []
    raw = cli._build_parser

    def spy():
        built.append(raw())
        return built[-1]

    monkeypatch.setattr(cli, "_build_parser", spy)
    return built


class TestPerVerbParser:
    """main reads a verb's argv with the verb's own parser and prints what
    the full parser prints."""

    def test_cases_cover_every_verb(self):
        assert list(PARSER_CASES) == list(cli._VERBS)
        # every verb is also read with each tail: 64 argvs
        assert len(PARSER_CASES) * len(PARSER_TAILS) == 64

    @pytest.mark.parametrize("verb", PARSER_CASES)
    def test_verb_help_and_errors_match_the_full_parser(self, verb, builds):
        for argv, code in verb_argvs(verb):
            full = parsed(argv)
            assert full[0] == code, argv
            builds.clear()
            assert exits(main, argv) == full, argv
            # only a tail the verb's parser leaves unrecognized builds the
            # full parser, whose usage line names every verb
            assert len(builds) == ("{decompose," in full[2]), argv
        bad_int, unknown = PARSER_CASES[verb]
        assert "invalid int value: 'x'" in exits(main, [verb, *bad_int])[2]
        assert "unrecognized arguments: --bogus" in exits(main, [verb, *unknown])[2]

    @pytest.mark.parametrize("verb", PARSER_CASES)
    def test_a_well_formed_call_reads_the_full_parsers_namespace(self, verb, builds):
        argv = well_formed(verb)
        args = main_namespace(argv)
        assert builds == []
        full = cli._build_parser().parse_args(argv)
        assert args == full and repr(args) == repr(full)

    @pytest.mark.parametrize("name", TOP_LEVEL_ARGVS)
    def test_main_answers_top_level_argv_with_the_full_parser(self, name, builds):
        """An argv that names no verb gets the full parser, so its help,
        usage and choice errors list every verb; a one-verb parser's would not."""
        argv, code = TOP_LEVEL_ARGVS[name]
        full = parsed(argv)
        builds.clear()
        assert exits(main, argv) == full
        assert len(builds) == 1
        assert full[0] == code
        assert "{decompose,keygen-common,keygen-almost," in full[1] + full[2]

    @staticmethod
    def constructed(monkeypatch) -> list:
        """Every ArgumentParser constructed from now on, after emptying the
        verb parser cache."""
        cli._verb_parser.cache_clear()
        made = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            made.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        return made

    def test_a_verb_parser_is_built_once_per_process(self, dist_file, monkeypatch, capsys):
        made = self.constructed(monkeypatch)
        argv = ["keygen-common", "--dist", dist_file, "--role", "bob", "--x", "0", "--w", "1"]
        # the first call builds the verb's own parser: not the top-level
        # one, nor one per verb
        assert main(argv) == 0
        assert [p.prog for p in made] == ["stopkey keygen-common"]
        first = capsys.readouterr()
        # a repeated call, and one with other options, construct none
        assert main(argv) == 0
        assert capsys.readouterr() == first
        assert main([*argv, "--format", "structured"]) == 0
        assert len(made) == 1

    @pytest.mark.parametrize("verb", ["keygen-common", "report", "simulate"])
    def test_a_repeated_call_leaves_no_argparse_garbage(self, verb, dist_file, capsys):
        argv = {
            "keygen-common": ["--role", "bob", "--x", "0", "--w", "1"],
            "report": [],
            "simulate": ["--trials", "20"],
        }[verb]
        argv = [verb, "--dist", dist_file, *argv]
        assert main(argv) == 0
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)  # the collector keeps what it finds
        try:
            assert main(argv) == 0
            gc.collect()
            left = [o for o in gc.garbage if type(o).__module__ == "argparse"
                    or isinstance(o, argparse.ArgumentParser)]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        # building a parser leaves cycles (each add_argument makes a
        # HelpFormatter and its root section), which only the collector frees
        assert left == []

    def test_racing_first_calls_build_one_parser(self, dist_file, tmp_path, monkeypatch):
        made = self.constructed(monkeypatch)
        seeds = itertools.count()
        codes = []

        def call():
            seed = next(seeds)
            out = str(tmp_path / f"key{seed}.txt")
            codes.append(main(["keygen-common", "--dist", dist_file, "--role", "alice",
                               "--x", "0", "--seed", str(seed), "--out", out]))

        assert run_threads(call) == []
        assert codes == [0] * 8
        assert [p.prog for p in made] == ["stopkey keygen-common"]
        for seed in range(8):
            rng = RandomSource(seed).substream("keygen-common")
            key, w = alice_keygen(CORPUS["tenths"], 0, rng)
            assert (tmp_path / f"key{seed}.txt").read_text() == f"key={key} w={w}\n"

    def test_main_builds_the_full_parser_only_for_top_level_argv(
        self, dist_file, builds, capsys
    ):
        assert main(["keygen-common", "--dist", dist_file, "--role", "bob",
                     "--x", "0", "--w", "1"]) == 0
        assert builds == []
        with pytest.raises(SystemExit):
            main(["--help"])
        assert len(builds) == 1 and builds[0].prog == "stopkey"


# run in a fresh interpreter: the stopkey modules an import leaves loaded
_LOADED = """
import json, sys
exec(sys.argv[1])
print(json.dumps(sorted(m for m in sys.modules if m.startswith("stopkey"))))
"""


class TestImports:
    @staticmethod
    def loaded(statement: str) -> list[str]:
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run(
            [sys.executable, "-c", _LOADED, statement],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    def test_the_package_imports_no_submodule(self):
        assert self.loaded("import stopkey") == ["stopkey"]
        assert self.loaded("from stopkey.probability import Pmf") == [
            "stopkey", "stopkey.errors", "stopkey.probability"
        ]

    def test_formats_loads_no_protocol_module(self):
        modules = self.loaded("import stopkey.formats")
        assert "stopkey.formats" in modules
        for heavy in ("stopkey.harness", "stopkey.reconciled", "stopkey.dyadic"):
            assert heavy not in modules

    def test_an_in_process_call_loads_no_further_module(self, dist_file, tmp_path):
        # so a caller timing or tracing a call after ``import stopkey.cli``
        # sees the call alone, no import inside it
        out = str(tmp_path / "out.txt")
        calls = [
            ["report", "--dist", dist_file, "--out", out],
            ["simulate", "--dist", dist_file, "--trials", "20", "--out", out],
            ["keygen-common", "--dist", dist_file, "--role", "alice", "--x", "0",
             "--out", out],
        ]
        imported = self.loaded("import stopkey.cli")
        assert "stopkey.harness" in imported
        for argv in calls:
            assert self.loaded(
                f"import stopkey.cli\nassert stopkey.cli.main({argv!r}) == 0"
            ) == imported, argv[0]

    def test_lazy_package_names(self):
        assert set(stopkey.__all__) <= set(dir(stopkey))
        assert stopkey.run_simulation is __import__("stopkey.harness").harness.run_simulation
        with pytest.raises(AttributeError, match="no_such_name"):
            stopkey.no_such_name
