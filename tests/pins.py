"""The CLI's byte pins, the runs they pin, and the parser parity cases.

``tests/test_cli.py`` asserts them under pytest, and
``tools/replay_pins.py`` replays them under any interpreter, so nothing
here imports pytest. Each ``*_digests(run)`` function writes its source
documents into the working directory, calls ``run(argv)`` for the stdout
of one ``stopkey`` call per pinned output, and returns the sha256 digests
keyed as its pin table is.
"""

import argparse
import contextlib
import hashlib
import io
from fractions import Fraction

from stopkey import cli
from stopkey.probability import Pmf
from stopkey.randomsource import RandomSource

from corpus import CORPUS, CORRELATED_3, random_rational_pmf
from documents import joint_document, pmf_document, write_document

# sha256 of the concatenated decompose dumps of dump_digests
DUMP_PIN = {
    "text": "af63daf6a417addb2e4d015f69789801f105b69bd5cd711133f24acd0c8bac46",
    "structured": "7ffc81a3587932c00ea8fee2427159d9eba7ea0e8d59a51829e1b158288bb43c",
}

# sha256 of each output of trial_digests, at 300 trials on CORRELATED_3
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

# sha256 of each text run log of run_log_digests, the same runs as the
# structured keygen pins above
RUN_LOG_TEXT_PINS = {
    "keygen-almost derandomized": "9fcb3397d27587273f89da08dc66eef2aa2be791a971b4e480d60f8009e959d0",
    "keygen-almost random": "4dd26cb6c38ee05440f94c0385a416dfadaa68cff5bda103e38331541b9b9c40",
    "keygen-correlated hashmap": "068824df327d07995d620a1a68fca1806df579082883f30ad20880addcaf123a",
    "keygen-correlated constant": "8b4c0e94a14d9fb1dd49fe7e8960c77ce1e1a72cb89d0aa2c5976fcc4df3afe9",
}

# sha256 of each output of dist_digests: bound lines of tenths and of a
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

# per verb: a bad int value and an unknown option after its required ones,
# so the unknown option less its last item is a well-formed call
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

# tails every verb is also read with, and the exit code each gives: help
# wins over an unknown option, and a tail the verb's parser leaves
# unrecognized is answered by the full parser
PARSER_TAILS = {
    ("--bogus",): 3,
    ("--", "x"): 3,
    ("--help", "--bogus"): 0,
    ("--format=text", "--bogus"): 3,
    ("--form", "text", "--bogus"): 3,
    ("stray",): 3,
    ("--out",): 3,
    ("-h",): 0,
}

# argvs that name no verb, with the exit code the full parser gives them
TOP_LEVEL_ARGVS = {"help": (["--help"], 0), "empty": ([], 3), "bogus": (["bogus"], 3)}


def verb_argvs(verb: str) -> list[tuple[list[str], int]]:
    """(argv, exit code) of every parser parity case of one verb."""
    bad_int, unknown = PARSER_CASES[verb]
    cases = [([verb, "--help"], 0), ([verb, *bad_int], 3), ([verb, *unknown], 3)]
    cases += [([verb, *tail], code) for tail, code in PARSER_TAILS.items()]
    return cases


def well_formed(verb: str) -> list[str]:
    """An argv that calls the verb with every option it requires."""
    return [verb, *PARSER_CASES[verb][1][:-1], "--format", "structured", "--out", "o.txt"]


def exits(call, argv) -> tuple:
    """(exit code, stdout, stderr) of ``call(argv)``, which returns its exit
    code or raises SystemExit with it."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = call(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def parsed(argv) -> tuple:
    """exits() of parsing argv with the full parser, ``cli._build_parser()``."""
    return exits(lambda a: cli._build_parser().parse_args(a), argv)


def main_namespace(argv) -> argparse.Namespace:
    """The Namespace ``cli.main`` hands the handler of the verb argv calls;
    the handler itself does not run."""
    verb = argv[0]
    saved = cli._VERBS[verb]
    seen = []
    cli._VERBS[verb] = (*saved[:2], lambda args: seen.append(args) or 0)
    try:
        code = cli.main(argv)
    finally:
        cli._VERBS[verb] = saved
    if code != 0 or len(seen) != 1:
        raise RuntimeError(f"stopkey {' '.join(argv)} did not call its handler once")
    return seen[0]


def _digests(run, argvs: dict) -> dict:
    return {name: hashlib.sha256(run(argv).encode()).hexdigest() for name, argv in argvs.items()}


def dump_digests(run) -> dict:
    """Both decompose dump forms, to depth 24, for the corpus and 300
    random pmfs, each form hashed as one concatenation."""
    rng = RandomSource("decompose-pin")
    sources = [CORPUS[name] for name in sorted(CORPUS)]
    sources += [random_rational_pmf(rng.substream(i)) for i in range(300)]
    digests = {"text": hashlib.sha256(), "structured": hashlib.sha256()}
    for p in sources:
        write_document(pmf_document(p), "source.json")
        for form, digest in digests.items():
            argv = ["decompose", "--dist", "source.json", "--w-max", "24", "--format", form]
            digest.update(run(argv).encode())
    return {form: d.hexdigest() for form, d in digests.items()}


def trial_digests(run) -> dict:
    """Run logs and reports of every protocol."""
    write_document(pmf_document(CORPUS["tenths"]), "tenths.json")
    write_document(joint_document(CORRELATED_3), "corr3.json")
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
        argvs[f"simulate common {form}"] = ["simulate", "--dist", "tenths.json", *tail]
        argvs[f"simulate almost {form}"] = [
            "simulate", *joint, "--protocol", "almost", "--hash", "random:S", *tail
        ]
        argvs[f"simulate correlated {form}"] = [
            "simulate", *joint, "--reconciler", "hashmap:1", *tail
        ]
    return _digests(run, argvs)


def run_log_digests(run) -> dict:
    """The text run logs of the keygen runs trial_digests pins structured."""
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
    return _digests(run, argvs)


def seeded_pmf(n: int, seed: str) -> Pmf:
    rng = RandomSource(seed)
    weights = [1 + rng.randrange(12) for _ in range(n)]
    return Pmf.from_masses(Fraction(w, sum(weights)) for w in weights)


def dist_digests(run) -> dict:
    """Outputs computed from a single distribution."""
    write_document(pmf_document(CORPUS["tenths"]), "tenths.json")
    write_document(pmf_document(seeded_pmf(12, "dist-pin")), "p12.json")
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
    return _digests(run, argvs)
