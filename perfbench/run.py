"""Benchmark for stopkey: one workload per run, closed loop, one thread.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` times the workload untraced and prints the end-to-end
metrics; ``--trace 1`` wraps each layer's public calls in spans and prints
the per-layer metrics. Either way the last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. Run it from the
repository root; it builds nothing and writes only under perfbench/out/.
README.md in this directory says what each workload and metric is for.
"""

from time import perf_counter

T0 = perf_counter()  # setup_s counts from here, before any import

import argparse  # noqa: E402
import functools  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402
from fractions import Fraction  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "perfbench", "out")

# The bounded metrics. Their times are host-normalized (HostClock): on a
# shared host Python's speed changes by up to half for stretches of seconds
# to minutes, which no choice of samples within one run can average out.
END_TO_END = {
    "setup_s": "s",
    "report_s": "s",
    "keygen_p50_us": "us",
    "cli_s": "s",
    "peak_mem_mb": "MB",
}
# the reference loop's time on the uncontended host the numbers come from
REF_SECONDS = 0.0037
FRESH_RUNS = 4  # set-up probes, and CLI runs, in fresh interpreters
KEYGEN_INPUTS = 1000  # so that at least ten samples lie beyond p99
KEYGEN_PASSES = 4
MIN_REPORTS = FRESH_RUNS - 1
MIN_REPORT_SHARE = 0.2
KEYGEN_CHUNK = 50
MEM_SECONDS = 1.0


class Tally:
    """Attempted and failed operations; a failure is logged to stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def run(self, what: str, fn):
        self.attempted += 1
        try:
            return fn()
        except Exception as exc:  # any raise is a failed operation
            self.fail(what, f"{type(exc).__name__}: {exc}")
            return None

    def fail(self, what: str, why: str) -> None:
        self.failed += 1
        print(f"FAILED {what}: {why}", file=sys.stderr)


def same(got, want, what: str) -> None:
    if got != want:
        raise AssertionError(f"{what} differs from the reference output")


def setup(name: str, seed: int, size: str, tracer=None):
    """Import stopkey, build the workload's inputs, run one untimed warm-up
    report op and one keygen op, traced as one "setup" op when a tracer is
    given. Returns (workload, rep-0 report text)."""
    import workloads

    wl = workloads.WORKLOADS[name](seed, size, ROOT)
    wl.prepare(0)
    idx = tracer.begin_op("setup") if tracer else None
    try:
        text = wl.report(0, workloads.run_inprocess)
        inp = wl.keygen_input(0)
        out = wl.keygen(0, inp)
    finally:
        if tracer:
            tracer.end_op(idx)
    wl.check_report(0, text)
    wl.check_keygen(inp, out)
    return wl, text


def timed(fn):
    start = perf_counter()
    out = fn()
    return perf_counter() - start, out


def reference_loop() -> int:
    """Fixed stdlib work that shares no code with stopkey: Fraction sums,
    tuple hashing and dict stores, the mix stopkey's hot paths run."""
    total = Fraction(0)
    table = {}
    for i in range(1, 1500):
        total += Fraction(i % 7 + 1, i % 13 + 2)
        table[i % 50, i % 5] = hash((total.numerator % 1000, i))
    return len(table)


class HostClock:
    """Turns wall times into host-normalized seconds.

    Contention from other tenants of a shared host slows all Python code
    alike, by up to half, for stretches longer than a run. The reference loop is
    timed between samples (fastest of 3, collector off so this process's
    heap cannot slow it); a sample's wall time times REF_SECONDS over the
    mean reference time on either side of it stays put when the host slows,
    and equals the wall time on an uncontended host. A change to stopkey
    does not touch the reference, so it shows in full.
    """

    def __init__(self) -> None:
        self.last = self.reference()
        self.refs = [self.last]

    @staticmethod
    def reference() -> float:
        gc.disable()
        try:
            return min(timed(reference_loop)[0] for _ in range(3))
        finally:
            gc.enable()

    def factor(self) -> float:
        """The scale for the samples taken since the last call."""
        now = self.reference()
        scale = 2 * REF_SECONDS / (self.last + now)
        self.last = now
        self.refs.append(now)
        return scale


def report_op(wl, tally, rep: int, tracer=None):
    """One report op on rep's fresh input, traced as one operation when a
    tracer is given. Returns (rep, seconds, text), or None if it failed."""
    import workloads

    wl.prepare(rep)
    gc.collect()

    def op():
        idx = tracer.begin_op("report") if tracer else None
        try:
            dt, text = timed(lambda: wl.report(rep, workloads.run_inprocess))
        finally:
            if tracer:
                tracer.end_op(idx)
        wl.check_report(rep, text)
        return rep, dt, text

    return tally.run(f"report rep {rep}", op)


def keygen_pass(wl, tally, inputs, best: dict, clock: HostClock, between) -> None:
    """One key agreement per input, in chunks of KEYGEN_CHUNK normalized by
    the clock, with between() after each chunk. best[i] keeps [fastest
    normalized seconds, output] (None once input i failed); a repeat must
    give the same output."""
    for c in range(0, len(inputs), KEYGEN_CHUNK):
        walls = {}
        for i, inp in inputs[c : c + KEYGEN_CHUNK]:
            if best.get(i, ()) is None:
                continue

            def op(i=i, inp=inp):
                t = perf_counter()
                out = wl.keygen(i, inp)
                walls[i] = perf_counter() - t
                wl.check_keygen(inp, out)
                if i in best:
                    same(out, best[i][1], "repeated key agreement")
                else:
                    best[i] = [float("inf"), out]
                return True

            if tally.run(f"keygen call {i}", op) is None:
                best[i] = None
                walls.pop(i, None)
        scale = clock.factor()
        for i, wall in walls.items():
            best[i][0] = min(best[i][0], wall * scale)
        between()


def timed_loop(wl, tally, clock: HostClock, seconds: float, n_inputs: int, side=()):
    """The closed loop the timings come from. KEYGEN_PASSES passes over one
    fixed list of key agreement inputs start at even intervals over
    `seconds`; after each pass run its share of the `side` operations (CLI
    runs, set-up probes: fresh interpreters, on a clock that is paused for
    them), then report ops on fresh reps until the interval ends. Report ops
    also run inside a pass whenever they fall below MIN_REPORT_SHARE of the
    time so far, and there are at least MIN_REPORTS. Every kind of sample is
    thus spread over the whole run, and an input's latency is its fastest
    pass. Report times are kept as wall and host-normalized seconds.
    Returns ([(rep, wall, normalized, text)], [(i, input, normalized, output)])."""
    inputs = [(i, wl.keygen_input(i)) for i in range(1, n_inputs + 1)]
    best: dict = {}
    reports = []
    state = {"rep": 1, "report_time": 0.0, "paused": 0.0}
    start = perf_counter()

    def timed_elapsed():
        return perf_counter() - start - state["paused"]

    def one_report():
        t = perf_counter()
        res = report_op(wl, tally, state["rep"])
        scale = clock.factor()
        state["report_time"] += perf_counter() - t
        state["rep"] += 1
        if res is not None:
            rep, wall, text = res
            reports.append((rep, wall, wall * scale, text))

    def catch_up():
        while state["report_time"] < MIN_REPORT_SHARE * timed_elapsed():
            one_report()

    for k in range(1, KEYGEN_PASSES + 1):
        keygen_pass(wl, tally, inputs, best, clock, catch_up)
        t = perf_counter()
        for op in side[(k - 1) * len(side) // KEYGEN_PASSES : k * len(side) // KEYGEN_PASSES]:
            op()
        state["paused"] += perf_counter() - t
        while timed_elapsed() < k * seconds / KEYGEN_PASSES:
            one_report()
    while state["rep"] <= MIN_REPORTS:
        one_report()
    return reports, [(i, inp, *best[i]) for i, inp in inputs if best.get(i) is not None]


def fresh_python(args: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=170
    )


def probe(args, mode: str, ref_sha: str) -> dict:
    """This script in --setup or --memory probe mode in a fresh interpreter;
    the rep-0 report it makes must match this run's."""
    proc = fresh_python([
        os.path.join("perfbench", "run.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--size", args.size, "--probe", mode,
    ])
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} probe exited {proc.returncode}: {proc.stderr[-300:]}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    same(doc["sha256"], ref_sha, f"{mode} probe's rep-0 report")
    return doc


def peak_mem(wl, rep: int) -> tuple[int, str]:
    """tracemalloc peak, in bytes, over one report op, and its output."""
    import workloads

    wl.prepare(rep)
    gc.collect()
    tracemalloc.start()
    try:
        text = wl.report(rep, workloads.run_inprocess)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    wl.check_report(rep, text)
    return peak, text


def memory_probe(args) -> dict:
    """Peak memory of report ops in this fresh interpreter, where no earlier
    op has filled a cache: rep 0, and further fresh reps while under
    MEM_SECONDS (a short op's peak depends on its input); the mean."""
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, args.size, ROOT)
    peaks = []
    start = perf_counter()
    while not peaks or perf_counter() - start < MEM_SECONDS:
        peak, text = peak_mem(wl, len(peaks))
        if not peaks:
            sha = workloads.sha256(text)
        peaks.append(peak)
    return {"peak_mb": statistics.fmean(peaks) / 1e6, "sha256": sha}


def percentile(samples: list[float], p: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


def lower_quartile(samples: list[float]) -> float:
    return statistics.quantiles(samples, n=4, method="inclusive")[0]


def run_untraced(args, wl, tally, ref_text: str) -> dict:
    import workloads

    ref_sha = workloads.sha256(ref_text)
    clock = HostClock()
    cli_times, cli_walls, setups = [], [], []

    # CLI run k takes rep k's input, so cli_s does not rest on one input;
    # reps 1..MIN_REPORTS also run in process, and the outputs must match
    cli_shas = {}

    def cli_run(rep):
        wl.prepare(rep)
        dt, text = timed(lambda: wl.report(rep, functools.partial(workloads.run_subprocess, ROOT)))
        cli_times.append(dt * clock.factor())
        cli_walls.append(dt)
        cli_shas[rep] = workloads.sha256(text)

    def setup_probe():
        setup_s = probe(args, "setup", ref_sha)["setup_s"]
        setups.append(setup_s * clock.factor())

    side = []
    for k in range(FRESH_RUNS):
        side.append(functools.partial(tally.run, f"setup probe {k}", setup_probe))
        side.append(functools.partial(tally.run, f"cli run {k}", functools.partial(cli_run, k)))
    reports, calls = timed_loop(wl, tally, clock, args.seconds, KEYGEN_INPUTS, side)
    in_process = {0: ref_sha, **{r[0]: workloads.sha256(r[3]) for r in reports}}
    for rep, sha in cli_shas.items():
        if rep in in_process and sha != in_process[rep]:
            tally.fail(f"cli run rep {rep}", "output differs from the in-process report")
    memory = tally.run("memory probe", lambda: probe(args, "memory", ref_sha))

    lat = [c[2] for c in calls]
    values = {
        "setup_s": statistics.median(setups) if setups else None,
        "report_s": lower_quartile([r[2] for r in reports]) if len(reports) > 1 else None,
        "keygen_p50_us": statistics.median(lat) * 1e6 if lat else None,
        "cli_s": lower_quartile(cli_times) if len(cli_times) > 1 else None,
        "peak_mem_mb": memory["peak_mb"] if memory else None,
    }
    print(
        f"# {wl.name}: {len(reports)} report ops, {len(lat)} key agreements, "
        f"{len(cli_times)} cli runs, {len(setups)} setup probes"
    )
    metrics = {k: (v, END_TO_END[k]) for k, v in values.items()}
    if len(reports) > 1 and len(lat) > 1 and cli_times:
        info = {
            "keygen_p99_us": (percentile(lat, 99) * 1e6, "us"),
            "report_wall_median_s": (statistics.median(r[1] for r in reports), "s"),
            "cli_wall_median_s": (statistics.median(cli_walls), "s"),
            "host_ref_ms": (statistics.median(clock.refs) * 1e3, "ms"),
        }
    else:
        info = {}
    return metrics, info


def run_traced(args, wl, tally, ref_text: str, tr) -> dict:
    import spans
    import workloads

    # Untraced, then traced with the same count: reports on fresh reps, as
    # in the untraced timing (a repeated rep would find its caches warm);
    # key agreements on the same inputs, whose traced outputs must match.
    # The warm-up report was traced; an untraced repeat must match it.
    tally.run(
        "untraced warm-up repeat",
        lambda: same(wl.report(0, workloads.run_inprocess), ref_text, "untraced warm-up report"),
    )
    clock = HostClock()
    reports, calls = timed_loop(wl, tally, clock, 0.25 * args.seconds, 200)

    tr.install()
    try:
        # fresh reps, normalized like the untraced ones
        traced_reports = []
        next_rep = reports[-1][0] + 1 if reports else 1
        for rep in range(next_rep, next_rep + len(reports)):
            res = report_op(wl, tally, rep, tr)
            scale = clock.factor()
            if res is not None:
                traced_reports.append((*res[:2], res[1] * scale))
        for k, inp, _, out in calls:
            def op(k=k, inp=inp, out=out):
                idx = tr.begin_op("keygen", trial=k)
                try:
                    got = wl.keygen(k, inp)
                finally:
                    tr.end_op(idx)
                same(got, out, "traced key agreement")

            tally.run(f"traced keygen call {k}", op)
    finally:
        tr.uninstall()

    report_ops = tr.ops_of("report")
    primary_ops = tr.ops_of(wl.primary)
    trials = wl.trials if wl.primary == "report" else 1
    metrics = spans.layer_metrics(tr, primary_ops, report_ops, tr.ops_of("setup"), trials)
    untraced = [r[2] for r in reports]
    traced = [r[2] for r in traced_reports]
    metrics["bench.trace_overhead"] = (
        statistics.median(traced) / statistics.median(untraced) if traced and untraced else 0.0,
        "ratio",
    )
    metrics["harness.mem_kb_per_1k_trials"] = (mem_growth(wl, tally, traced_reports or reports), "KB")
    metrics["cli.import_s"] = (import_time(tally), "s")

    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"trace-{wl.name}-{args.size}-s{args.seed}")
    nspans = tr.write(stem + ".spans.jsonl.gz")
    with open(stem + ".summary.json", "w", encoding="utf-8") as fh:
        json.dump({kind: tr.summary(tr.ops_of(kind)) for kind in ("setup", "report", "keygen")},
                  fh, indent=1, sort_keys=True)
    print(f"# {wl.name}: {len(primary_ops)} traced {wl.primary} ops, {nspans} spans -> {stem}.*")
    print("# largest self time per op (ms):")
    for name, ms in spans.ranking(tr, primary_ops):
        print(f"#   {name:40s} {ms:12.4f}")
    return metrics


def mem_growth(wl, tally, reports) -> float:
    """tracemalloc peak growth per 1000 trials, from N and 2N trials."""
    if not wl.trials:
        return 0.0
    rep = (reports[-1][0] if reports else 0) + 1
    n = wl.trials
    try:
        small = tally.run("memory at N trials", lambda: peak_mem(wl, rep)[0])
        wl.trials = 2 * n
        large = tally.run("memory at 2N trials", lambda: peak_mem(wl, rep)[0])
    finally:
        wl.trials = n
    if small is None or large is None:
        return 0.0
    return (large - small) / 1e3 / (n / 1000)


def import_time(tally) -> float:
    code = "import time; t = time.perf_counter(); import stopkey.cli; print(time.perf_counter() - t)"
    times = []
    for k in range(3):
        proc = tally.run(f"import probe {k}", lambda: fresh_python(["-c", code]))
        if proc is not None and proc.returncode == 0:
            times.append(float(proc.stdout))
    return statistics.median(times) if times else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the self-test's small inputs")
    parser.add_argument("--probe", choices=("setup", "memory"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "stopkey", "__init__.py")):
        print(f"error: no stopkey sources under {ROOT}/src; run from a checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))

    if args.probe == "setup":
        _, text = setup(args.workload, args.seed, args.size)
        import workloads

        print(json.dumps({"setup_s": perf_counter() - T0, "sha256": workloads.sha256(text)}))
        return 0
    if args.probe == "memory":
        print(json.dumps(memory_probe(args)))
        return 0

    tally = Tally()
    tally.attempted += 1  # the warm-up report op
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    try:
        wl, text = setup(args.workload, args.seed, args.size, tracer)
    finally:
        if tracer:
            tracer.uninstall()
    import workloads

    pin = workloads.PINS[wl.name]
    if args.size == "full" and args.seed == workloads.DEFAULT_SEED and workloads.sha256(text) != pin:
        tally.fail("warm-up report", "output differs from its pinned sha256")

    try:
        if tracer:
            metrics, info = run_traced(args, wl, tally, text, tracer), {}
        else:
            metrics, info = run_untraced(args, wl, tally, text)
    finally:
        shutil.rmtree(wl.dir, ignore_errors=True)  # the generated input documents
    missing = [k for k, (v, _) in metrics.items() if v is None]
    if missing:
        print(f"error: no samples for {', '.join(missing)}", file=sys.stderr)
        return 1

    print(f"# {'metric':40s} {'value':>16s} unit")
    for name, (value, unit) in {**metrics, **info}.items():
        print(f"# {name:40s} {value:16.6f} {unit}")
    print(f"# {'failed_ratio':40s} {tally.failed / tally.attempted:16.6f} fraction"
          f"  ({tally.failed} of {tally.attempted} operations)")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
