"""Self-test of the benchmark itself, at tiny sizes. Run from the repo root:

    python3 perfbench/selftest.py

It checks the self-time arithmetic on a synthetic span tree, runs every
workload untraced and traced, checks that each run prints exactly the
metrics BENCHMARK.json names (with valid names and units) and that every
span wrapper fired where it is expected, so a refactor that bypasses a
wrapper fails here instead of reporting its layer as zero. It also checks
that the benchmark refuses to run without the stopkey sources. Exits 1 on
the first failed check.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import spans  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")

# spans each workload's traced run must record, over its report and keygen ops
EXPECTED = {
    "common-mc": {
        "randomsource.substream", "randomsource.fair_bit", "randomsource.at_least",
        "dyadic.sample", "common.alice", "common.bob", "common.engine_for",
        "common.exact_common_law", "probability.hash", "probability.mutual_information",
        "probability.entropy", "probability.agreement_stats", "keylaws.verify_rsbs",
        "keylaws.keylaw_build", "keylaws.converse_bound", "harness.loop",
        "harness.fairness_test", "harness.eavesdropper_view", "harness.bounds_dashboard",
        "formats.parse_source", "formats.read_document", "formats.dumps",
        "cli.render", "cli.main",
    },
    "sketch-mc": {
        "randomsource.substream", "randomsource.randrange", "dyadic.sample",
        "common.alice", "common.ensure", "reconciled.correlated_keygen",
        "reconciled.reconcile", "reconciled.conditional_joint",
        "reconciled.almost_common_keygen", "reconciled.stage_conditional",
        "reconciled.stage2_hash", "reconciled.sample_joint", "reconciled.transcript_laws",
        "reconciled.derandomize_hash", "reconciled.analyze_almost_common",
        "reconciled.reconciler_stats", "probability.joint_build", "probability.hash",
        "keylaws.verify_rsbs", "harness.loop", "harness.fairness_test",
    },
    "wide-keygen": {
        "randomsource.substream", "randomsource.at_least", "common.alice", "common.bob",
        "common.engine_for", "common.ensure", "probability.hash",
        "formats.parse_source", "formats.dumps", "cli.render", "cli.main",
    },
    "exact-report": {
        "reconciled.average_almost_common", "reconciled.analyze_almost_common",
        "reconciled.stage_conditional", "common.engine_for", "common.ensure",
        "probability.hash", "probability.agreement_stats", "harness.bounds_dashboard",
        "formats.parse_source", "cli.main",
    },
}

FAILURES = []


def check(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        FAILURES.append(what)


def synthetic_tree() -> None:
    """root[0,100] > a[10,60] > (b[20,30], a'[40,50]); root > d[70,90]."""
    tr = spans.Tracer()
    root = tr.begin_op("report")
    a = tr.open("x.a")
    b = tr.open("y.b")
    tr.close(b)
    a2 = tr.open("x.a")
    tr.close(a2)
    tr.close(a)
    d = tr.open("y.d")
    tr.close(d)
    tr.end_op(root)
    for idx, (s, e) in zip((root, a, b, a2, d), ((0, 100), (10, 60), (20, 30), (40, 50), (70, 90))):
        tr.start[idx], tr.end[idx] = s, e
    own = tr.self_times()
    check(list(own) == [30, 30, 10, 10, 20], f"self times on the synthetic tree: {list(own)}")
    summary = tr.summary([0])
    check(summary["x.a"] == {"calls": 2, "self_ns": 40, "incl_ns": 50},
          f"nested same-name spans count once inclusive: {summary['x.a']}")
    check(sum(e["self_ns"] for e in summary.values()) == 100, "self times add up to the op's wall time")


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        check(False, f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr[-500:]}")
        return {}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def workloads_at_tiny_size(bench: dict) -> None:
    wanted = {0: bench["end_to_end"], 1: bench["per_layer"]}
    for name in EXPECTED:
        for trace in (0, 1):
            doc = run(name, trace)
            if not doc:
                continue
            check(doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1,
                  f"{name} trace={trace}: correct, {doc['failed']} of {doc['attempted']} failed")
            got = {k: v["unit"] for k, v in doc["metrics"].items()}
            want = {m["name"]: m["unit"] for m in wanted[trace]}
            check(got == want, f"{name} trace={trace}: prints exactly the BENCHMARK.json metrics and units")
            if trace:
                m = {k: v["value"] for k, v in doc["metrics"].items()}
                layers = sum(m[f"{layer}.self_ms"] for layer in spans.LAYERS)
                total = layers + m["bench.unattributed_ms"]
                check(abs(total - m["bench.op_ms"]) <= 1e-9 * max(1.0, m["bench.op_ms"]),
                      f"{name}: layer self times + unattributed = op time ({total:.6f} ms)")
                wrappers_fired(name)


def wrappers_fired(name: str) -> None:
    path = os.path.join(HERE, "out", f"trace-{name}-tiny-s7.summary.json")
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    fired = {k for part in doc.values() for k, v in part.items() if v["calls"] > 0}
    missing = sorted(EXPECTED[name] - fired)
    check(not missing, f"{name}: every expected wrapper fired" + (f", missing {missing}" if missing else ""))


def names_and_units(bench: dict) -> None:
    metrics = bench["end_to_end"] + bench["per_layer"]
    names = [m["name"] for m in metrics]
    check(len(names) == len(set(names)), "metric names are unique")
    bad = [m["name"] for m in metrics if not NAME.match(m["name"]) or not UNIT.match(m.get("unit", ""))]
    check(not bad, "every metric name matches [A-Za-z0-9_.-]+ and has a unit" + (f": {bad}" if bad else ""))
    targets = {span for _, _, span in spans.TARGETS}
    expected = set().union(*EXPECTED.values())
    check(targets == expected, "every wrapper is expected to fire on some workload"
          + (f": {sorted(targets ^ expected)}" if targets != expected else ""))


def pins_set() -> None:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    unset = [k for k, v in workloads.PINS.items() if not v]
    check(not unset and set(workloads.PINS) == set(EXPECTED), f"report pins set for every workload {unset}")


def refuses_without_sources() -> None:
    bare = os.path.join(HERE, "out", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", "common-mc",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and not proc.stdout.strip(), "refuses to run without the sources")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    synthetic_tree()
    names_and_units(bench)
    pins_set()
    refuses_without_sources()
    workloads_at_tiny_size(bench)
    print(f"{len(FAILURES)} failed checks")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
