"""The four benchmark workloads: their inputs, operations and checks.

Every workload has two operations, both run closed-loop from one thread:

- a *report* op: the workload's CLI invocation, run in process through
  ``stopkey.cli.main`` with stdout captured (``report_s``), and the same
  argv in a fresh interpreter (``cli_s``). Each rep gets its own input
  (a new seed, or a new source document), so no whole-report cache can
  answer a later rep from an earlier one;
- a *keygen* op: one library key agreement of the workload's protocol on
  the workload's source (``keygen_p50_us``).

Inputs come only from the workload seed. The reasons each workload exists
are in README.md next to this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import stopkey.cli
from stopkey import common, reconciled
from stopkey.probability import JointPmf, Pmf
from stopkey.randomsource import RandomSource

DEFAULT_SEED = 0

# sha256 of the rep-0 report op's output at full size and DEFAULT_SEED.
# A change that alters report bytes on purpose re-pins these and says so.
PINS = {
    "common-mc": "cca38b2d5e5f72890c4add155645a4666fef3ce8b439c03b468abcefd8a372f2",
    "sketch-mc": "f3b1b0932717d102a679482723d600f5397b8792df7b425d71434a7532ea60c7",
    "wide-keygen": "a53ea6729cc6c711bd8e0038fc733abb2560a4aca008e0452e9b95c98ca62d97",
    "exact-report": "bbdcc1db4c2bee00e7c0d53ae9605a032f053569a910ac5edd608f3c5d603d67",
}


class BenchFailure(Exception):
    """An operation whose output is wrong."""


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_inprocess(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = stopkey.cli.main(argv)
    if rc != 0:
        raise BenchFailure(f"stopkey {argv[0]} exited {rc}")
    return buf.getvalue()


def run_subprocess(root: str, argv: list[str]) -> str:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, "-m", "stopkey.cli", *argv],
        cwd=root,
        env=env,
        capture_output=True,
        text=True,
        timeout=150,
    )
    if proc.returncode != 0:
        raise BenchFailure(
            f"stopkey {argv[0]} exited {proc.returncode}: {proc.stderr.strip()[-300:]}"
        )
    return proc.stdout


def _frac_doc(weights, total: int) -> list[str]:
    return [f"{w}/{total}" if w else "0" for w in weights]


def _write(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)


class Workload:
    name = ""
    # which op the workload's headline metric and per-layer numbers use
    primary = "report"
    # trials per report op (0: the report runs no trials)
    trials = 0

    def __init__(self, seed: int, size: str, root: str):
        self.seed = seed
        self.size = size
        self.root = root
        self.dir = os.path.join(root, "perfbench", "out", f"{self.name}-{size}-s{seed}")
        os.makedirs(self.dir, exist_ok=True)
        self.keys = RandomSource(f"bench-keygen:{self.name}:{seed}")
        self.draws = random.Random(f"bench-draws:{self.name}:{seed}")
        self.build()

    def rel(self, filename: str) -> str:
        return os.path.relpath(os.path.join(self.dir, filename), self.root)

    def cli_seed(self, rep: int) -> str:
        return f"{self.seed}r{rep}"

    # subclasses: build(), prepare(rep), report(rep, run), check_report(rep, text),
    # keygen_input(i), keygen(inp), check_keygen(inp, out)

    def prepare(self, rep: int) -> None:
        """Write whatever input file rep needs (outside any timing)."""

    def check_report(self, rep: int, text: str) -> None:
        doc = json.loads(text)
        if doc.get("status") != "ok":
            raise BenchFailure(f"report status {doc.get('status')!r}")
        self.check_identity(rep, doc)

    def check_identity(self, rep: int, doc: dict) -> None:
        pass


# ---------------------------------------------------------------------------


class CommonMC(Workload):
    name = "common-mc"

    def build(self) -> None:
        self.trials = {"full": 20000, "tiny": 200}[self.size]
        self.p = Pmf.from_masses(tuple(Fraction(k, 36) for k in range(1, 9)))
        self.weights = list(range(1, 9))
        self.source = self.rel("source.json")
        _write(
            os.path.join(self.root, self.source),
            {"alphabet": list(self.p.labels), "pmf": _frac_doc(self.weights, 36)},
        )

    def argv(self, rep: int) -> list[str]:
        return [
            "simulate", "--dist", self.source, "--protocol", "common",
            "--trials", str(self.trials), "--w-max", "30",
            "--seed", self.cli_seed(rep), "--format", "structured",
        ]

    def report(self, rep: int, run) -> str:
        return run(self.argv(rep))

    def check_identity(self, rep: int, doc: dict) -> None:
        errors = doc["estimates"]["errors"]
        if errors != 0:
            raise BenchFailure(f"common protocol erred {errors} times")

    def keygen_input(self, i: int):
        return self.draws.choices(range(len(self.weights)), weights=self.weights)[0]

    def keygen(self, i: int, x: int):
        key, w = common.alice_keygen(self.p, x, self.keys.substream(i))
        return key, w, common.bob_keygen(self.p, x, w)

    def check_keygen(self, x, out) -> None:
        key_a, w, key_b = out
        if key_a != key_b:
            raise BenchFailure(f"bob {key_b!r} != alice {key_a!r} at w={w}")


CORRELATED_3 = (
    ("5/12", "1/12", "1/12"),
    ("1/12", "1/8", "1/24"),
    ("0", "1/24", "1/8"),
)


class SketchMC(Workload):
    name = "sketch-mc"

    def build(self) -> None:
        self.trials = {"full": 5000, "tiny": 100}[self.size]
        self.j = JointPmf.from_rows(CORRELATED_3, ("a", "b", "c"), ("a", "b", "c"))
        self.source = self.rel("source.json")
        _write(
            os.path.join(self.root, self.source),
            {"x_labels": ["a", "b", "c"], "y_labels": ["a", "b", "c"],
             "joint": [list(r) for r in CORRELATED_3]},
        )
        # key agreements cycle through 8 sketch tables, as report reps do
        # (each rep's --seed picks its table), so no seed's run hangs on
        # one table's cost
        self.recs = [
            reconciled.OneWayHashReconciler(1, seed=f"sketch:{self.seed}:{k}") for k in range(8)
        ]

    def argv(self, rep: int) -> list[str]:
        return [
            "simulate", "--joint", self.source, "--protocol", "correlated",
            "--reconciler", "hashmap:1", "--m", "2",
            "--trials", str(self.trials),
            "--seed", self.cli_seed(rep), "--format", "structured",
        ]

    def report(self, rep: int, run) -> str:
        return run(self.argv(rep))

    def keygen_input(self, i: int):
        return None

    def keygen(self, i: int, _):
        rec = self.recs[i % len(self.recs)]
        return reconciled.correlated_keygen(self.j, rec, 2, self.keys.substream(i))

    def check_keygen(self, _, run) -> None:
        # reconciled values that agree must give one key on both sides
        if run.m_a == run.m_b and not (run.key_a == run.key_b == run.ideal_key):
            raise BenchFailure(f"agreeing reconciliation gave keys {run.key_a!r}/{run.key_b!r}")


class WideKeygen(Workload):
    name = "wide-keygen"
    primary = "keygen"

    def build(self) -> None:
        self.n = {"full": 1000, "tiny": 60}[self.size]
        self.total = self.n * (self.n + 1) // 2
        self.weights = list(range(1, self.n + 1))
        self.p = Pmf.from_masses(tuple(Fraction(w, self.total) for w in self.weights))
        self.rep_symbol: dict[int, str] = {}

    def prepare(self, rep: int) -> None:
        # a fresh labelling of the same linear weights per rep, so every
        # in-process rep builds its engine cold, as a CLI call does
        rnd = random.Random(f"wide-keygen:{self.seed}:{rep}")
        perm = self.weights[:]
        rnd.shuffle(perm)
        labels = [f"s{i}" for i in range(self.n)]
        _write(
            os.path.join(self.dir, f"rep{rep}.json"),
            {"alphabet": labels, "pmf": _frac_doc(perm, self.total)},
        )
        self.rep_symbol[rep] = rnd.choices(labels, weights=perm)[0]

    def report(self, rep: int, run) -> str:
        base = ["keygen-common", "--dist", self.rel(f"rep{rep}.json"),
                "--x", self.rep_symbol[rep], "--format", "structured"]
        alice = run(base + ["--role", "alice", "--seed", self.cli_seed(rep)])
        w = json.loads(alice)["w"]
        bob = run(base + ["--role", "bob", "--w", str(w)])
        return alice + bob

    def check_report(self, rep: int, text: str) -> None:
        first, second = text.split("}\n", 1)
        alice, bob = json.loads(first + "}"), json.loads(second)
        if alice["key"] != bob["key"]:
            raise BenchFailure(f"bob {bob['key']!r} != alice {alice['key']!r}")

    # the same key agreement as common-mc, on the wide source
    keygen_input = CommonMC.keygen_input
    keygen = CommonMC.keygen
    check_keygen = CommonMC.check_keygen


class ExactReport(Workload):
    name = "exact-report"
    m = 3

    def build(self) -> None:
        # fixed multisets of integer weights, arranged by the seed: every
        # rep has the same total and agreement mass, so reps differ only
        # in where the weights sit
        if self.size == "full":
            self.labels = tuple("abcde")
            self.diag = [8, 9, 10, 11, 12]
            self.off = [1] * 14 + [2] * 6
        else:
            self.labels = tuple("abc")
            self.diag = [10, 11, 12]
            self.off = [1, 1, 1, 2, 2, 3]
        self.total = sum(self.diag) + sum(self.off)
        self.p_agree = Fraction(sum(self.diag), self.total)
        grid = self._grid(random.Random(f"exact-report:{self.seed}:keygen"))
        masses = [[Fraction(v, self.total) for v in row] for row in grid]
        self.j = JointPmf.from_rows(masses, self.labels, self.labels)
        self.atoms = [(ix, iy) for ix in range(len(self.labels)) for iy in range(len(self.labels))]
        self.atom_weights = [grid[ix][iy] for ix, iy in self.atoms]
        rnd = random.Random(f"exact-report:{self.seed}:tables")
        self.tables = [
            reconciled.HashFunction(
                self.labels, tuple(rnd.randrange(self.m) + 1 for _ in self.labels), self.m
            )
            for _ in range(64)
        ]

    def _grid(self, rnd: random.Random) -> list[list[int]]:
        diag, off = self.diag[:], self.off[:]
        rnd.shuffle(diag)
        rnd.shuffle(off)
        it = iter(off)
        n = len(self.labels)
        return [[diag[i] if i == k else next(it) for k in range(n)] for i in range(n)]

    def prepare(self, rep: int) -> None:
        # labels of its own per rep, so no rep finds a bucket conditional
        # an earlier rep left in a cache, as in a fresh CLI call
        grid = self._grid(random.Random(f"exact-report:{self.seed}:{rep}"))
        labels = [f"{label}{rep}" for label in self.labels]
        _write(
            os.path.join(self.dir, f"rep{rep}.json"),
            {"x_labels": labels, "y_labels": labels,
             "joint": [_frac_doc(row, self.total) for row in grid]},
        )

    def report(self, rep: int, run) -> str:
        return run([
            "report", "--joint", self.rel(f"rep{rep}.json"), "--protocol", "almost",
            "--hash", "random:S", "--m", str(self.m),
            "--seed", self.cli_seed(rep), "--format", "structured",
        ])

    def check_identity(self, rep: int, doc: dict) -> None:
        # averaged over every table, distinct symbols share a bucket with
        # probability exactly 1/m
        got = Fraction(doc["exact"]["mean_collision_error"])
        want = (1 - self.p_agree) / self.m
        if got != want:
            raise BenchFailure(f"mean collision error {got} != (1 - p)/m = {want}")
        if doc["exact"]["tables"] != self.m ** len(self.labels):
            raise BenchFailure(f"enumerated {doc['exact']['tables']} tables")

    def keygen_input(self, i: int):
        ix, iy = self.draws.choices(self.atoms, weights=self.atom_weights)[0]
        return self.labels[ix], self.labels[iy], self.tables[i % len(self.tables)]

    def keygen(self, i: int, inp):
        x, y, h = inp
        return reconciled.almost_common_keygen(self.j, x, y, self.m, h, self.keys.substream(i))

    def check_keygen(self, inp, run) -> None:
        if inp[0] == inp[1] and not (run.key_a == run.key_b == run.ideal_key):
            raise BenchFailure(f"equal symbols gave keys {run.key_a!r}/{run.key_b!r}")


WORKLOADS = {w.name: w for w in (CommonMC, SketchMC, WideKeygen, ExactReport)}
