"""Run the benchmark in interleaved parent/change pairs; write one JSON file.

    python3 tools/bench_pairs.py --base REV --change REV --out BENCH_<n>.json

Each side is a git revision of this repository, exported with ``git
archive`` into a temporary directory, so a run sees the committed files
only. For every workload in BENCHMARK.json (or those given with --workloads) and each pair
k, it runs

    python3 perfbench/run.py --workload W --seed S --seconds 10 --trace 0

once in each tree at seed S = --first-seed + k, the base first in even
pairs and the change first in odd ones, so neither side always runs on a
warmer host. The file holds both sides' SHAs and the non-blank line
count of each exported tree's ``src/stopkey/*.py``, the platform and
Python version, ``os.cpu_count()`` and the usable CPUs
(``len(os.sched_getaffinity(0))``), whether the interpreter may write
bytecode caches (its ``sys.flags.dont_write_bytecode`` and
``PYTHONDONTWRITEBYTECODE``, which the runs inherit), every run's last
stdout line (its result object), and per workload and metric the medians
of both sides, the base's quartiles, the change/base ratio of the medians,
the number of pairs in which the change read lower, and a verdict:
``gain``, ``worse`` or ``unresolved`` (see ``verdict``). Stdlib only; run
it from anywhere inside the repository.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# the run length BENCHMARK.json sets, the same on both sides
SECONDS = 10


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def source_lines(tree: str) -> int:
    """Non-blank lines of ``src/stopkey/*.py`` under ``tree``: a change's
    size, counted in the same export its runs use."""
    total = 0
    for path in sorted(glob.glob(os.path.join(tree, "src", "stopkey", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for line in fh if line.strip())
    return total


def source_tree(spec: str, work: str, name: str) -> tuple[str, dict]:
    """(directory to run in, provenance) for a git revision."""
    sha = git("rev-parse", "--verify", spec + "^{commit}")
    path = os.path.join(work, name)
    os.makedirs(path)
    archive = os.path.join(work, name + ".tar")
    with open(archive, "wb") as fh:
        subprocess.run(["git", "archive", sha], cwd=ROOT, check=True, stdout=fh)
    with tarfile.open(archive) as tar:
        # the "data" filter where this Python has it: plain files only
        tar.extractall(path, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    os.remove(archive)
    tree = git("rev-parse", sha + "^{tree}")
    return path, {"spec": spec, "sha": sha, "tree": tree, "source_lines": source_lines(path)}


def run_once(tree: str, workload: str, seed: int, trace: int) -> dict:
    """One benchmark run; its result object, or the failure."""
    argv = [
        sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace),
    ]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True, timeout=1200)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except json.JSONDecodeError:
        result = None
    if result is None:
        return {"returncode": proc.returncode, "stderr": proc.stderr[-2000:], "wall_s": wall}
    return {"result": result, "wall_s": wall}


def value(run: dict, metric: str) -> float | None:
    entry = run.get("result", {}).get("metrics", {}).get(metric)
    return None if entry is None else entry["value"]


# a gain needs the change to read better in this share of the pairs
GAIN_SHARE = 0.9


def verdict(entry: dict, both: list[tuple[float, float]], spec: dict) -> str:
    """``worse``, ``gain`` or ``unresolved`` for one metric's summary entry
    and (base, change) pairs, given its BENCHMARK.json entry (``better``,
    and ``bound`` if it has one).

    ``worse``: the change/base ratio of the medians is past 1 + bound on
    the wrong side. ``gain``: the change reads better in at least
    GAIN_SHARE of the pairs (a tie counts for neither side), and its
    median is better than the base's by more than the base's
    interquartile range.
    """
    lower = spec.get("better", "lower") == "lower"
    bound, ratio = spec.get("bound"), entry["ratio"]
    if bound is not None and ratio is not None:
        if (ratio > 1 + bound) if lower else (ratio < 1 - bound):
            return "worse"
    wins = sum((c < b) if lower else (c > b) for b, c in both)
    margin = entry["base_median"] - entry["change_median"]
    if wins >= GAIN_SHARE * len(both) and (margin if lower else -margin) > entry["base_q3"] - entry["base_q1"]:
        return "gain"
    return "unresolved"


def summarize(pairs: list[dict], declared: dict[str, dict]) -> dict:
    """Per metric: medians, the base's quartiles, the ratio, the wins and
    the verdict. ``declared`` maps a metric's name to its BENCHMARK.json
    entry; a metric it lacks is judged lower-is-better, with no bound."""
    metrics = sorted({m for p in pairs for side in ("base", "change")
                      for m in p[side].get("result", {}).get("metrics", {})})
    out = {}
    for metric in metrics:
        both = [(value(p["base"], metric), value(p["change"], metric)) for p in pairs]
        both = [(b, c) for b, c in both if b is not None and c is not None]
        if not both:
            continue
        base = [b for b, _ in both]
        change = [c for _, c in both]
        q1, _, q3 = statistics.quantiles(base, n=4, method="inclusive") if len(base) > 1 else (base[0],) * 3
        b_med, c_med = statistics.median(base), statistics.median(change)
        entry = out[metric] = {
            "base_median": b_med,
            "change_median": c_med,
            "ratio": c_med / b_med if b_med else None,
            "base_q1": q1,
            "base_q3": q3,
            "change_lower_in": sum(c < b for b, c in both),
            "pairs": len(both),
        }
        entry["verdict"] = verdict(entry, both, declared.get(metric, {}))
    return out


def _exit_on_signal(signum, frame):
    raise SystemExit(128 + signum)


@contextlib.contextmanager
def sigterm_exits():
    """SIGTERM raises SystemExit while the block runs, so the ``with``
    blocks inside it clean up (the exported trees are removed) and a
    running ``subprocess.run`` kills its child; the old handler is back
    after."""
    previous = signal.signal(signal.SIGTERM, _exit_on_signal)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="git revision")
    parser.add_argument("--change", required=True, help="git revision")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workloads", help="comma-separated; default: every BENCHMARK.json workload")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    workloads = args.workloads.split(",") if args.workloads else declared
    unknown = sorted(set(workloads) - set(declared))
    if unknown:
        parser.error(f"unknown workloads {unknown}")

    with sigterm_exits(), tempfile.TemporaryDirectory(prefix="bench-pairs-") as work:
        base_dir, base = source_tree(args.base, work, "base")
        change_dir, change = source_tree(args.change, work, "change")
        doc = {
            "command": f"python3 perfbench/run.py --workload W --seed S --seconds {SECONDS} "
                       f"--trace {args.trace}",
            "base": base,
            "change": change,
            "platform": platform.platform(),
            "python": platform.python_version(),
            # report_s and cli_s gain from a second usable CPU: a report
            # plays its trials in one block per usable CPU
            "cpus": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
            # a run that may not write bytecode recompiles stopkey on every
            # fresh interpreter, about half of its import time: cli_s and
            # setup_s compare across hosts only with these equal
            "dont_write_bytecode": bool(sys.flags.dont_write_bytecode),
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
            "workloads": {},
        }
        for workload in workloads:
            pairs = []
            for k in range(args.pairs):
                seed = args.first_seed + k
                order = [("base", base_dir), ("change", change_dir)]
                if k % 2:
                    order.reverse()
                pair = {"seed": seed, "first": order[0][0]}
                for side, tree in order:
                    pair[side] = run_once(tree, workload, seed, args.trace)
                    print(f"{workload} seed {seed} {side}: "
                          f"{json.dumps(pair[side].get('result', pair[side]))[:300]}", flush=True)
                pairs.append(pair)
            doc["workloads"][workload] = {"pairs": pairs, "summary": summarize(pairs, metrics)}
            with open(args.out, "w", encoding="utf-8") as fh:  # partial results survive a stop
                json.dump(doc, fh, indent=1, sort_keys=True)
                fh.write("\n")
    failed = sum("result" not in p[side] for w in doc["workloads"].values()
                 for p in w["pairs"] for side in ("base", "change"))
    print(f"wrote {args.out}: {len(workloads)} workloads x {args.pairs} pairs, {failed} failed runs")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
