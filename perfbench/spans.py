"""Spans around the public calls of each stopkey layer, from outside.

``Tracer.install`` replaces each target function with a wrapper that
records one span per call: name, start, end, parent span, operation id
and trial index. A function imported by name into another module (for
example ``engine_for`` in ``harness`` and ``reconciled``) is replaced
there too, so no call path escapes its span. ``uninstall`` puts every
original back.

Spans live in flat integer arrays while the run lasts and are written
out once, at the end. Self time is a span's duration minus the time its
direct children cover; the operation's own root span (``bench.op``) keeps
only the time no layer span covers, reported as ``bench.unattributed_ms``.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import weakref
from array import array
from collections import defaultdict
from time import perf_counter_ns

ROOT = "bench.op"

# (module, attribute path, span name). A span name's first component is the
# layer it is charged to. Several targets may share a span name; a span
# nested inside one of the same name counts once for inclusive time.
TARGETS = (
    ("randomsource", "RandomSource.substream", "randomsource.substream"),
    ("randomsource", "RandomSource.fair_bit", "randomsource.fair_bit"),
    ("randomsource", "RandomSource.randrange", "randomsource.randrange"),
    ("randomsource", "LazyUniform.at_least", "randomsource.at_least"),
    ("dyadic", "KnuthYaoSampler.sample", "dyadic.sample"),
    ("common", "KeyAgreeEngine.alice", "common.alice"),
    ("common", "KeyAgreeEngine.bob", "common.bob"),
    # ensure() runs on every round lookup; _advance is the round building
    # it drives, so the span stays on the work and off the hot check
    ("common", "KeyAgreeEngine._advance", "common.ensure"),
    ("common", "engine_for", "common.engine_for"),
    ("common", "exact_common_law", "common.exact_common_law"),
    ("probability", "Pmf.__hash__", "probability.hash"),
    ("probability", "JointPmf.__hash__", "probability.hash"),
    ("probability", "JointPmf.from_atoms", "probability.joint_build"),
    ("probability", "JointPmf.from_rows", "probability.joint_build"),
    ("probability", "mutual_information", "probability.mutual_information"),
    ("probability", "agreement_stats", "probability.agreement_stats"),
    ("probability", "entropy", "probability.entropy"),
    ("keylaws", "verify_rsbs", "keylaws.verify_rsbs"),
    ("keylaws", "KeyLaw.from_dict", "keylaws.keylaw_build"),
    ("keylaws", "KeyLaw.__post_init__", "keylaws.keylaw_build"),
    ("keylaws", "converse_bound", "keylaws.converse_bound"),
    ("reconciled", "correlated_keygen", "reconciled.correlated_keygen"),
    ("reconciled", "OneWayHashReconciler.run", "reconciled.reconcile"),
    ("reconciled", "OneWayHashReconciler.conditional_joint", "reconciled.conditional_joint"),
    ("reconciled", "almost_common_keygen", "reconciled.almost_common_keygen"),
    ("reconciled", "stage_conditional", "reconciled.stage_conditional"),
    ("reconciled", "_stage2_hash", "reconciled.stage2_hash"),
    ("reconciled", "sample_joint", "reconciled.sample_joint"),
    ("reconciled", "correlated_transcript_laws", "reconciled.transcript_laws"),
    ("reconciled", "derandomize_hash", "reconciled.derandomize_hash"),
    ("reconciled", "analyze_almost_common", "reconciled.analyze_almost_common"),
    ("reconciled", "average_almost_common", "reconciled.average_almost_common"),
    ("reconciled", "reconciler_stats", "reconciled.reconciler_stats"),
    ("harness", "run_simulation", "harness.loop"),
    ("harness", "fairness_test", "harness.fairness_test"),
    ("harness", "eavesdropper_view", "harness.eavesdropper_view"),
    ("harness", "bounds_dashboard", "harness.bounds_dashboard"),
    ("formats", "parse_source", "formats.parse_source"),
    ("formats", "parse_pmf", "formats.parse_source"),
    ("formats", "parse_joint", "formats.parse_source"),
    ("formats", "read_document", "formats.read_document"),
    ("formats", "dumps", "formats.dumps"),
    # the CLI's output stage: rendering the report and writing it out
    ("harness", "Report.to_json", "cli.render"),
    ("harness", "Report.render_text", "cli.render"),
    ("cli", "_emit", "cli.render"),
    ("cli", "main", "cli.main"),
)

LAYERS = (
    "randomsource",
    "dyadic",
    "common",
    "probability",
    "keylaws",
    "reconciled",
    "harness",
    "formats",
    "cli",
)

# Cached lookups whose hit ratio is reported: a call is a hit when it
# returns an object this run has already seen returned, by identity.
CACHED = {"common.engine_for", "reconciled.stage_conditional", "reconciled.stage2_hash"}


class Tracer:
    """In-memory span store plus the per-operation counters spans cannot give."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # one entry per span, column-wise: name id, start ns, end ns,
        # parent index (-1 at the top), operation id, trial (-1 if none),
        # and 1 when no enclosing span has the same name
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.trial = array("q")
        self.outer = array("b")
        self._stack: list[int] = []
        self._open: dict[int, int] = defaultdict(int)
        self.op_id = -1
        self.op_kind: dict[int, str] = {}
        self.cur_trial = -1
        self.counters: dict[tuple[int, str], int] = defaultdict(int)
        self._seen: dict[str, dict[int, weakref.ref]] = defaultdict(dict)
        self._undo: list[tuple[object, str, object]] = []

    # -- span recording --------------------------------------------------

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        nid = self._id(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.start.append(perf_counter_ns())
        self.end.append(0)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.trial.append(self.cur_trial)
        self.outer.append(0 if self._open[nid] else 1)
        self._open[nid] += 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._stack.pop()
        self._open[self.name_id[idx]] -= 1

    def begin_op(self, kind: str, trial: int = -1) -> int:
        self.op_id += 1
        self.op_kind[self.op_id] = kind
        self.cur_trial = trial
        return self.open(ROOT)

    def end_op(self, idx: int) -> None:
        self.close(idx)
        self.cur_trial = -1

    def count(self, key: str, n: int = 1) -> None:
        self.counters[(self.op_id, key)] += n

    def _note_result(self, name: str, result) -> None:
        if result is None:
            return
        seen = self._seen[name]
        ref = seen.get(id(result))
        if ref is not None and ref() is result:
            self.count(name + ".hit")
        else:
            self.count(name + ".miss")
            seen[id(result)] = weakref.ref(result)

    # -- wrappers --------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        open_, close = self.open, self.close
        if name in CACHED:
            def wrapper(*args, **kwargs):
                idx = open_(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    close(idx)
                tracer._note_result(name, result)
                return result
        elif name == "randomsource.substream":
            def wrapper(self, *labels):
                if len(labels) == 2 and labels[0] == "trial":
                    tracer.cur_trial = int(labels[1])
                idx = open_(name)
                try:
                    return fn(self, *labels)
                finally:
                    close(idx)
        elif name == "randomsource.at_least":
            def wrapper(self, threshold):
                before = self.nbits
                idx = open_(name)
                try:
                    return fn(self, threshold)
                finally:
                    close(idx)
                    tracer.count("uniform.bits", self.nbits - before)
        elif name == "dyadic.sample":
            def wrapper(self, rng):
                idx = open_(name)
                try:
                    result = fn(self, rng)
                finally:
                    close(idx)
                tracer.count("sampler.bits", result[1])
                return result
        elif name == "keylaws.verify_rsbs":
            def wrapper(*args, **kwargs):
                idx = open_(name)
                try:
                    verdict = fn(*args, **kwargs)
                finally:
                    close(idx)
                tracer.count("rsbs.prefixes", verdict.checked_prefixes)
                return verdict
        else:
            def wrapper(*args, **kwargs):
                idx = open_(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(idx)
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, targets=TARGETS) -> None:
        """Wrap every target; raises if one no longer exists."""
        for mod_name in {t[0] for t in targets}:
            importlib.import_module("stopkey." + mod_name)
        modules = [m for k, m in sys.modules.items() if k == "stopkey" or k.startswith("stopkey.")]
        for mod_name, path, span in targets:
            owner = sys.modules["stopkey." + mod_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            if attr not in vars(owner):
                raise AttributeError(f"stopkey.{mod_name}.{path} not found")
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(span, raw.__func__))
                self._set(owner, attr, raw, wrapped)
                continue
            wrapped = self._wrap(span, raw)
            self._set(owner, attr, raw, wrapped)
            if not outer:
                # module-level function: replace it wherever it was imported
                for mod in modules:
                    if mod is not owner and vars(mod).get(attr) is raw:
                        self._set(mod, attr, raw, wrapped)

    def _set(self, owner, attr, raw, wrapped) -> None:
        self._undo.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    # -- analysis --------------------------------------------------------

    def self_times(self) -> array:
        """Per span: duration minus the duration of its direct children."""
        n = len(self.start)
        own = array("q", (self.end[i] - self.start[i] for i in range(n)))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own

    def summary(self, ops) -> dict[str, dict[str, float]]:
        """Per span name over the given operations: calls, self and
        inclusive nanoseconds (inclusive counts outermost spans only)."""
        ops = set(ops)
        own = self.self_times()
        out: dict[str, dict[str, float]] = {}
        for i in range(len(self.start)):
            if self.op[i] not in ops:
                continue
            entry = out.setdefault(
                self.names[self.name_id[i]], {"calls": 0, "self_ns": 0, "incl_ns": 0}
            )
            entry["calls"] += 1
            entry["self_ns"] += own[i]
            if self.outer[i]:
                entry["incl_ns"] += self.end[i] - self.start[i]
        return out

    def counter(self, ops, key: str) -> int:
        return sum(self.counters.get((op, key), 0) for op in ops)

    def ops_of(self, kind: str) -> list[int]:
        return [op for op, k in self.op_kind.items() if k == kind]

    def write(self, path: str) -> int:
        """Write every span as one JSON line; returns the span count."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"names": self.names, "kinds": self.op_kind}) + "\n")
            for i in range(len(self.start)):
                fh.write(
                    json.dumps(
                        [
                            self.names[self.name_id[i]],
                            self.start[i],
                            self.end[i],
                            self.parent[i],
                            self.op[i],
                            self.trial[i],
                        ]
                    )
                    + "\n"
                )
        return len(self.start)


# ---------------------------------------------------------------------------
# Per-layer metrics. Times are per primary operation (a report on the report
# workloads, one key agreement on wide-keygen); the CLI-path metrics and
# round building are per report op, the path cli_s and setup_s pay; hash
# table derandomization is per set-up, where its cache fills.

def layer_metrics(tr: Tracer, primary: list[int], report: list[int], setup: list[int],
                  trials_per_op: int) -> dict:
    S = tr.summary(primary)
    R = tr.summary(report)
    U = tr.summary(setup)
    n = max(len(primary), 1)
    nr = max(len(report), 1)
    trials = trials_per_op * len(primary)

    def get(summary, name, field):
        return summary.get(name, {}).get(field, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    def self_us(name):
        return get(S, name, "self_ns") / n / 1e3

    def incl_ms(name, summary=S, count=n):
        return get(summary, name, "incl_ns") / count / 1e6

    def calls(name):
        return get(S, name, "calls")

    def hit_ratio(name):
        hits = tr.counter(primary, name + ".hit")
        return ratio(hits, hits + tr.counter(primary, name + ".miss"))

    sampler_bits = tr.counter(primary, "sampler.bits")
    m = {
        "randomsource.substream.calls_per_trial": (ratio(calls("randomsource.substream"), trials), "count"),
        "randomsource.substream.self_us": (self_us("randomsource.substream"), "us"),
        "randomsource.bits_per_trial": (
            ratio(sampler_bits + tr.counter(primary, "uniform.bits"), trials), "bits"),
        "dyadic.sample.self_us": (self_us("dyadic.sample"), "us"),
        "dyadic.sample.bits_per_draw": (ratio(sampler_bits, calls("dyadic.sample")), "bits"),
        "common.alice.self_us": (self_us("common.alice"), "us"),
        "common.bob.self_us": (self_us("common.bob"), "us"),
        "common.engine_for.self_us": (self_us("common.engine_for"), "us"),
        "common.engine_for.hit_ratio": (hit_ratio("common.engine_for"), "ratio"),
        "common.ensure.self_ms": (get(R, "common.ensure", "self_ns") / nr / 1e6, "ms"),
        "common.exact_common_law.ms": (incl_ms("common.exact_common_law"), "ms"),
        "probability.hash.calls_per_op": (calls("probability.hash") / n, "count"),
        "probability.hash.self_us": (self_us("probability.hash"), "us"),
        "probability.joint_build.self_us": (self_us("probability.joint_build"), "us"),
        "probability.mutual_information.ms": (incl_ms("probability.mutual_information"), "ms"),
        "reconciled.correlated_keygen.self_us": (self_us("reconciled.correlated_keygen"), "us"),
        "reconciled.conditional_joint.self_us": (self_us("reconciled.conditional_joint"), "us"),
        "reconciled.almost_common_keygen.self_us": (self_us("reconciled.almost_common_keygen"), "us"),
        "reconciled.stage_conditional.hit_ratio": (hit_ratio("reconciled.stage_conditional"), "ratio"),
        "reconciled.transcript_laws.ms": (incl_ms("reconciled.transcript_laws"), "ms"),
        "reconciled.derandomize_hash.ms": (
            incl_ms("reconciled.derandomize_hash", U, max(len(setup), 1)), "ms"),
        "reconciled.analyze_almost_common.calls": (calls("reconciled.analyze_almost_common") / n, "count"),
        "reconciled.analyze_almost_common.self_ms": (
            get(S, "reconciled.analyze_almost_common", "self_ns") / n / 1e6, "ms"),
        "reconciled.average_almost_common.s": (incl_ms("reconciled.average_almost_common") / 1e3, "s"),
        "keylaws.verify_rsbs.ms": (incl_ms("keylaws.verify_rsbs"), "ms"),
        "keylaws.verify_rsbs.prefixes": (tr.counter(primary, "rsbs.prefixes") / n, "count"),
        "keylaws.keylaw_build.self_us": (self_us("keylaws.keylaw_build"), "us"),
        "harness.loop.self_us_per_trial": (
            ratio(get(S, "harness.loop", "self_ns") / 1e3, trials), "us"),
        "harness.fairness_test.calls": (calls("harness.fairness_test") / n, "count"),
        "harness.fairness_test.ms": (incl_ms("harness.fairness_test"), "ms"),
        "harness.eavesdropper_view.ms": (incl_ms("harness.eavesdropper_view"), "ms"),
        "harness.bounds_dashboard.ms": (incl_ms("harness.bounds_dashboard"), "ms"),
        "formats.parse_source.ms": (incl_ms("formats.parse_source", R, nr), "ms"),
        "formats.dumps.ms": (incl_ms("formats.dumps", R, nr), "ms"),
        "cli.render_ms": (incl_ms("cli.render", R, nr), "ms"),
    }
    layer_ns = dict.fromkeys(LAYERS, 0)
    for name, entry in S.items():
        layer = name.split(".", 1)[0]
        if layer in layer_ns:
            layer_ns[layer] += entry["self_ns"]
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = (layer_ns[layer] / n / 1e6, "ms")
    m["bench.unattributed_ms"] = (get(S, ROOT, "self_ns") / n / 1e6, "ms")
    m["bench.op_ms"] = (get(S, ROOT, "incl_ns") / n / 1e6, "ms")
    m["bench.spans_per_op"] = (sum(e["calls"] for e in S.values()) / n, "count")
    return m


def ranking(tr: Tracer, ops: list[int], top: int = 8) -> list[tuple[str, float]]:
    """Span names by self time per op, largest first, in ms."""
    n = max(len(ops), 1)
    rows = [(name, e["self_ns"] / n / 1e6) for name, e in tr.summary(ops).items()]
    return sorted(rows, key=lambda r: -r[1])[:top]
