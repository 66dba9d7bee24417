"""Replay the byte pins and the CLI's parser parity under this interpreter.

    python3 tools/replay_pins.py

pytest is not needed, so this runs on every interpreter ``pyproject.toml``
allows, including those with no pytest installed. It checks:

- parser parity: for every verb, ``main`` prints for ``--help``, a bad
  int value, an unknown option and each tail of ``PARSER_TAILS`` exactly
  what the full parser prints, hands a well-formed call's handler the
  full parser's Namespace, and answers an argv that names no verb with
  the full parser's output. The pass runs twice: the first builds each
  verb's parser, the second reuses it and must answer every argv byte for
  byte as the first did;
- the CLI pins of ``tests/pins.py``: ``DUMP_PIN``, ``TRIAL_PINS``,
  ``RUN_LOG_TEXT_PINS`` and ``DIST_PINS``;
- the benchmark's ``PINS``: each workload's rep-0 report at full size.

It prints one line per check and exits 1 if any check fails. Documents are
written in a temporary directory, removed on exit. Stdlib only.
"""

from __future__ import annotations

import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for sub in ("src", "tests", "perfbench"):
    sys.path.insert(0, os.path.join(ROOT, sub))

import pins  # noqa: E402
import workloads  # noqa: E402
from stopkey import cli  # noqa: E402


def _run(argv: list[str]) -> str:
    """stdout of one CLI call, which must exit 0 and write no stderr."""
    code, out, err = pins.exits(cli.main, argv)
    if code != 0 or err:
        raise RuntimeError(f"stopkey {' '.join(argv)} exited {code}: {err.strip()[-300:]}")
    return out


def parser_parity(answers: dict) -> list[str]:
    """The argvs ``main`` answers otherwise than the full parser, or than
    it did in an earlier pass: ``answers`` maps each argv to its first
    (exit code, stdout, stderr), and takes this pass's where it has none."""
    bad = []
    cases = [case for verb in pins.PARSER_CASES for case in pins.verb_argvs(verb)]
    for argv, code in [*cases, *pins.TOP_LEVEL_ARGVS.values()]:
        full = pins.parsed(argv)
        got = pins.exits(cli.main, argv)
        if full[0] != code or got != full or answers.setdefault(tuple(argv), got) != got:
            bad.append(" ".join(argv) or "(no arguments)")
    for verb in pins.PARSER_CASES:
        argv = pins.well_formed(verb)
        if pins.main_namespace(argv) != cli._build_parser().parse_args(argv):
            bad.append(" ".join(argv))
    return bad


def bench_digests() -> dict:
    got = {}
    for name in sorted(workloads.WORKLOADS):
        workload = workloads.WORKLOADS[name](workloads.DEFAULT_SEED, "full", os.getcwd())
        workload.prepare(0)
        text = workload.report(0, workloads.run_inprocess)
        workload.check_report(0, text)
        got[name] = workloads.sha256(text)
    return got


CHECKS = {
    "decompose dumps": (lambda: pins.dump_digests(_run), pins.DUMP_PIN),
    "trial outputs": (lambda: pins.trial_digests(_run), pins.TRIAL_PINS),
    "text run logs": (lambda: pins.run_log_digests(_run), pins.RUN_LOG_TEXT_PINS),
    "single-distribution outputs": (lambda: pins.dist_digests(_run), pins.DIST_PINS),
    "benchmark reports": (bench_digests, workloads.PINS),
}


def _replay() -> int:
    failed = 0
    for name, (digests, pinned) in CHECKS.items():
        try:
            got = digests()
        except Exception as exc:  # a refused or crashed run is a failed check
            failed += 1
            print(f"{name}: FAIL {type(exc).__name__}: {exc}")
            continue
        moved = sorted(key for key in pinned if got.get(key) != pinned[key])
        failed += bool(moved)
        print(f"{name}: {'FAIL ' + ', '.join(moved) if moved else 'ok'} ({len(pinned)} pins)")
    return failed


def main() -> int:
    print(f"python {sys.version.split()[0]}")
    failed = 0
    answers = {}
    for name in ("parser parity", "parser parity, reused parsers"):
        differ = parser_parity(answers)
        failed += bool(differ)
        print(f"{name}: {'FAIL ' + '; '.join(differ) if differ else 'ok'}")
    here = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="replay-pins-") as tmp:
        os.chdir(tmp)  # reports echo source paths, so they must be relative
        try:
            failed += _replay()
        finally:
            os.chdir(here)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
