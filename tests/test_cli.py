import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import stopkey
from stopkey import cli
from stopkey.cli import main
from stopkey.common import KeyAgreeEngine
from stopkey.probability import Pmf
from stopkey.randomsource import RandomSource

from conftest import CORPUS, CORRELATED_3, WORKED_JOINT, random_rational_pmf
from documents import joint_document, pmf_document, write_document

# sha256 of the concatenated decompose dumps in TestDecompose.test_dump_bytes_are_pinned
DUMP_PIN = {
    "text": "af63daf6a417addb2e4d015f69789801f105b69bd5cd711133f24acd0c8bac46",
    "structured": "7ffc81a3587932c00ea8fee2427159d9eba7ea0e8d59a51829e1b158288bb43c",
}

# sha256 of each output in TestTrialOutputPins, at 300 trials on CORRELATED_3
# (m = 2) or tenths and seed 5; every 0-error interval there already reads 0.0
TRIAL_PINS = {
    "keygen-almost derandomized": "3f4c0edc6c77f4e0d37ca7cf825b9b3b0df22a0a1858c1472f086ff665af75a5",
    "keygen-almost random": "8e295d2a1041a116585a664be28f34fc78b5d8ef601e286f34c4ffc66abe1c63",
    "keygen-correlated hashmap": "3b0f3633e2b3400992c6a9c3c24bc52e2c66f98784232d8875c3354228ddb11b",
    "keygen-correlated constant": "b53d2f2a45d3ae62f0011855282e813bbf12defbf8b0da6fa9306db9bdd90acd",
    "simulate common structured": "3dc3caf3cfed185666e03983dfbf3418f5eed5b2621b668b680329c46f330e27",
    "simulate common text": "fc920328d93fd35c618bc3082f1bde5bd452a3c0ab37263896ba44f06c836d80",
    "simulate almost structured": "f9c54dd2eafefd38c39179035b7c92f73f87497e3d37532aa9497be059f962fe",
    "simulate almost text": "9c850378ea528489d3e417a55ec0b44e5d38d1362769ddfc5ccd5977115bd08a",
    "simulate correlated structured": "15a3adf477030690b3a75273126ab6167ccc9280d57113b87e54953a277695cb",
    "simulate correlated text": "2dbf57ebeafd90081f18c3172087c473da5940a6dc328458189e85b24b854503",
}

# sha256 of each text run log in TestTrialOutputPins.test_text_run_logs_are_pinned,
# same runs as the structured keygen pins above
RUN_LOG_TEXT_PINS = {
    "keygen-almost derandomized": "9fcb3397d27587273f89da08dc66eef2aa2be791a971b4e480d60f8009e959d0",
    "keygen-almost random": "4dd26cb6c38ee05440f94c0385a416dfadaa68cff5bda103e38331541b9b9c40",
    "keygen-correlated hashmap": "068824df327d07995d620a1a68fca1806df579082883f30ad20880addcaf123a",
    "keygen-correlated constant": "8b4c0e94a14d9fb1dd49fe7e8960c77ce1e1a72cb89d0aa2c5976fcc4df3afe9",
}

# sha256 of each output in TestDistSourcePins: bound lines of tenths and of a
# seeded 12-symbol pmf, and a 300-trial report on the 12-symbol pmf (seed 5),
# where the dashboard is the only section a single distribution feeds
DIST_PINS = {
    "bounds tenths structured": "21bc356ecdb0725ffbd87a8e775664faf9cc9f0d9d26a9eaf9b5870c4d000fd0",
    "bounds p12 structured": "add8ea400bab3d38efe14f7a947f9ec212db1a12bad9eea2de05acdc783b58c6",
    "simulate p12 structured": "884139f2bcec6106d79f84769bd4e9fe9ca58ea715c0911594102f0670846196",
    "bounds tenths text": "55ebf56f3e82c24c4b99b4b86f6ba67e5b4b54df1e53de7cfcd4d27fe6427669",
    "bounds p12 text": "4b2772e28e129241cbbb1c98c00f34ba849bf199ce8815fe717589f5bb64b62c",
    "simulate p12 text": "7bfe7b4884955bbdcd82f601ad4ae73177736ccc0e6ded735bfece062d5839aa",
}


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

    def test_dump_bytes_are_pinned(self, tmp_path, capsys):
        """Both dump forms, to depth 24, for the corpus and 300 random
        pmfs, hash to digests frozen from the original implementation."""
        rng = RandomSource("decompose-pin")
        sources = [CORPUS[name] for name in sorted(CORPUS)]
        sources += [random_rational_pmf(rng.substream(i)) for i in range(300)]
        digests = {"text": hashlib.sha256(), "structured": hashlib.sha256()}
        path = str(tmp_path / "source.json")
        for p in sources:
            write_document(pmf_document(p), path)
            for form, digest in digests.items():
                argv = ["decompose", "--dist", path, "--w-max", "24", "--format", form]
                assert main(argv) == 0
                digest.update(capsys.readouterr().out.encode())
        assert {form: d.hexdigest() for form, d in digests.items()} == DUMP_PIN

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
        write_document(pmf_document(CORPUS["tenths"]), "tenths.json")
        write_document(joint_document(CORRELATED_3), "corr3.json")
        dist_file = "tenths.json"
        base = ["--trials", "300", "--seed", "5"]
        structured = ["--format", "structured"]
        joint = ["--joint", "corr3.json", "--m", "2"]
        argvs = {
            "keygen-almost derandomized": ["keygen-almost", *joint, *base, *structured],
            "keygen-almost random": [
                "keygen-almost", *joint, "--hash", "random:S", *base, *structured
            ],
            "keygen-correlated hashmap": [
                "keygen-correlated", *joint, "--reconciler", "hashmap:1", *base, *structured
            ],
            "keygen-correlated constant": [
                "keygen-correlated", *joint, "--reconciler", "constant", *base, *structured
            ],
        }
        for form in ("structured", "text"):
            tail = [*base, "--format", form]
            argvs[f"simulate common {form}"] = ["simulate", "--dist", dist_file, *tail]
            argvs[f"simulate almost {form}"] = [
                "simulate", *joint, "--protocol", "almost", "--hash", "random:S", *tail
            ]
            argvs[f"simulate correlated {form}"] = [
                "simulate", *joint, "--reconciler", "hashmap:1", *tail
            ]
        got = {
            name: hashlib.sha256(_output(argv, capsys).encode()).hexdigest()
            for name, argv in argvs.items()
        }
        assert got == TRIAL_PINS

    def test_text_run_logs_are_pinned(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        write_document(joint_document(CORRELATED_3), "corr3.json")
        common = ["--joint", "corr3.json", "--m", "2", "--trials", "300", "--seed", "5"]
        argvs = {
            "keygen-almost derandomized": ["keygen-almost", *common],
            "keygen-almost random": ["keygen-almost", *common, "--hash", "random:S"],
            "keygen-correlated hashmap": [
                "keygen-correlated", *common, "--reconciler", "hashmap:1"
            ],
            "keygen-correlated constant": [
                "keygen-correlated", *common, "--reconciler", "constant"
            ],
        }
        got = {
            name: hashlib.sha256(_output(argv, capsys).encode()).hexdigest()
            for name, argv in argvs.items()
        }
        assert got == RUN_LOG_TEXT_PINS

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


def _seeded_pmf(n: int, seed: str) -> Pmf:
    rng = RandomSource(seed)
    weights = [1 + rng.randrange(12) for _ in range(n)]
    return Pmf.from_masses(Fraction(w, sum(weights)) for w in weights)


class TestDistSourcePins:
    """Outputs computed from a single distribution, frozen byte for byte."""

    def test_outputs_are_pinned(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        write_document(pmf_document(CORPUS["tenths"]), "tenths.json")
        write_document(pmf_document(_seeded_pmf(12, "dist-pin")), "p12.json")
        argvs = {}
        for form in ("structured", "text"):
            argvs[f"bounds tenths {form}"] = [
                "bounds", "--dist", "tenths.json", "--m", "2", "--format", form
            ]
            argvs[f"bounds p12 {form}"] = [
                "bounds", "--dist", "p12.json", "--m", "3", "--format", form
            ]
            argvs[f"simulate p12 {form}"] = [
                "simulate", "--dist", "p12.json", "--trials", "300", "--seed", "5",
                "--format", form,
            ]
        got = {
            name: hashlib.sha256(_output(argv, capsys).encode()).hexdigest()
            for name, argv in argvs.items()
        }
        assert got == DIST_PINS


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


# per verb: a bad int value and an unknown option after its required ones
PARSER_CASES = {
    "decompose": (["--w-max", "x"], ["--dist", "d.json", "--bogus"]),
    "keygen-common": (["--w", "x"], ["--dist", "d.json", "--role", "bob", "--x", "a", "--bogus"]),
    "keygen-almost": (["--m", "x"], ["--joint", "j.json", "--m", "2", "--bogus"]),
    "keygen-correlated": (["--m", "x"], ["--joint", "j.json", "--m", "2", "--bogus"]),
    "verify-rsbs": (["--max-depth", "x"], ["--law", "l.json", "--bogus"]),
    "bounds": (["--m", "x"], ["--bogus"]),
    "simulate": (["--m", "x"], ["--bogus"]),
    "report": (["--trials", "x"], ["--bogus"]),
}


def _parse(only, argv) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of parsing argv with _build_parser(only)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            cli._build_parser(only).parse_args(argv)
    return exc.value.code, out.getvalue(), err.getvalue()


class TestPerVerbParser:
    """A parser built for one verb prints what the full parser prints."""

    def test_cases_cover_every_verb(self):
        assert list(PARSER_CASES) == list(cli._VERBS)

    @pytest.mark.parametrize("verb", PARSER_CASES)
    def test_verb_help_and_errors_match_the_full_parser(self, verb):
        bad_int, unknown = PARSER_CASES[verb]
        for argv, code in (
            ([verb, "--help"], 0),
            ([verb, *bad_int], 3),
            ([verb, *unknown], 3),
        ):
            full = _parse(None, argv)
            assert full[0] == code, argv
            assert _parse(verb, argv) == full, argv
        assert "invalid int value: 'x'" in _parse(verb, [verb, *bad_int])[2]
        assert "unrecognized arguments: --bogus" in _parse(verb, [verb, *unknown])[2]

    @pytest.mark.parametrize(
        "argv, code", [(["--help"], 0), ([], 3), (["bogus"], 3)], ids=["help", "empty", "bogus"]
    )
    def test_top_level_output_is_the_same_for_every_build(self, argv, code):
        full = _parse(None, argv)
        assert full[0] == code
        for verb in cli._VERBS:
            assert _parse(verb, argv) == full, verb
        assert "{decompose,keygen-common,keygen-almost," in full[1] + full[2]

    def test_main_builds_only_the_leading_verb(self, dist_file, monkeypatch, capsys):
        built = []
        raw = cli._build_parser

        def spy(only=None):
            built.append(only)
            return raw(only)

        monkeypatch.setattr(cli, "_build_parser", spy)
        assert main(["keygen-common", "--dist", dist_file, "--role", "bob",
                     "--x", "0", "--w", "1"]) == 0
        with pytest.raises(SystemExit):
            main(["--help"])
        assert built == ["keygen-common", None]


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

    def test_lazy_package_names(self):
        assert set(stopkey.__all__) <= set(dir(stopkey))
        assert stopkey.run_simulation is __import__("stopkey.harness").harness.run_simulation
        with pytest.raises(AttributeError, match="no_such_name"):
            stopkey.no_such_name
