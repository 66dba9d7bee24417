"""Batch experiment driver: Monte Carlo estimation, exact oracles, reports.

Statistical methodology, fixed and printed in every report: two-sided
99% intervals (z = 2.5758...), the Wilson score interval for the error
rate and the normal approximation with sample variance for the mean
agreed length. A bound counts as violated only when its entire interval
lies on the wrong side of the line. Exact sections enumerate in rational
arithmetic; truncation tails are reported and charged against the
protocol, never in its favor.

Trials draw their randomness from per-trial substreams derived from the
master seed by trial index, so reports are byte-identical for a given
config and seed under any execution order or worker count.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Iterable, Iterator, Mapping

from . import formats
from .common import engine_for, exact_common_law
from .dyadic import KnuthYaoSampler
from .errors import InvariantError, ValidationError
from .keylaws import KeyLaw, converse_bound, verify_rsbs
from .probability import (
    ZERO,
    JointPmf,
    Pmf,
    agreement_stats,
    entropy,
    mutual_information,
)
from .randomsource import RandomSource
from .reconciled import (
    SUBSET_LIMIT,
    ConstantReconciler,
    HashFunction,
    IdentityReconciler,
    OneWayHashReconciler,
    Reconciler,
    Transcript,
    almost_common_bounds,
    almost_common_keygen,
    analyze_almost_common,
    average_almost_common,
    correlated_keygen,
    correlated_reference_bound,
    correlated_transcript_laws,
    derandomize_hash,
    reconciler_stats,
    sample_joint,
    subset_count,
    union_alphabet,
)

Z99 = 2.5758293035489004  # two-sided 99% normal quantile
_ALPHA = 0.01  # family-wise level of the next-bit fairness tests

_RunRecord = tuple[Transcript, str, str, str]  # transcript, key_a, key_b, ideal


def wilson_interval(successes: int, n: int) -> tuple[float, float]:
    """99% Wilson score interval for a binomial proportion."""
    if n <= 0:
        raise ValidationError("interval needs at least one trial")
    if not 0 <= successes <= n:
        raise ValidationError(f"{successes} successes out of {n} trials")
    ph = successes / n
    z2 = Z99 * Z99
    denom = 1.0 + z2 / n
    center = (ph + z2 / (2 * n)) / denom
    half = Z99 * math.sqrt(ph * (1.0 - ph) / n + z2 / (4.0 * n * n)) / denom
    # the closed form puts the ends at exactly 0 and 1 when no trial (or
    # every trial) succeeds; center - half can round to just above 0
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == n else min(1.0, center + half)
    return lo, hi


def mean_interval(samples: Iterable[float]) -> tuple[float, float]:
    """99% normal-approximation interval for a mean, with sample variance;
    samples come as a list or a Counter (fsum rounds correctly: both agree)."""
    samples = Counter(samples)
    n = samples.total()
    if n == 0:
        raise ValidationError("interval needs at least one sample")
    mean = math.fsum(samples.elements()) / n
    if n == 1:
        return mean, mean
    var = math.fsum((v - mean) ** 2 for v in samples.elements()) / (n - 1)
    half = Z99 * math.sqrt(var / n)
    return mean - half, mean + half


def chi_square_pvalue(statistic: float) -> float:
    """Upper tail of chi-square with one degree of freedom."""
    if statistic < 0:
        raise ValidationError("chi-square statistic must be nonnegative")
    return math.erfc(math.sqrt(statistic / 2.0))


def huffman_expected_length(p: Pmf) -> Fraction:
    """Expected codeword length of a Huffman code for p (baseline only).

    The protocol path never special-cases compressible sources; this is
    the comparison line reports print next to the scheme's E[|K|].
    """
    heap = []
    for i, m in enumerate(p.masses):
        if m > 0:
            heap.append((m, i))
    if len(heap) <= 1:
        return ZERO
    heapq.heapify(heap)
    tiebreak = len(p.masses)
    total = ZERO
    while len(heap) > 1:
        a_mass, _ = heapq.heappop(heap)
        b_mass, _ = heapq.heappop(heap)
        merged = a_mass + b_mass
        total += merged
        heapq.heappush(heap, (merged, tiebreak))
        tiebreak += 1
    return total


# ---------------------------------------------------------------------------
# Fairness diagnostics.


def transcript_label(t: Transcript) -> str:
    if not t:
        return "(none)"
    return "|".join(f"{sender}:{kind}={value}" for sender, kind, value in t)


def fairness_test(samples: Iterable[tuple[Any, str]]) -> dict:
    """Chi-square next-bit tests against 1/2, per transcript and prefix.

    Purely diagnostic: the exact verifier is authoritative wherever
    enumeration is feasible. Bonferroni-adjusts alpha = 0.01 across all
    (transcript, prefix) cells; a sample set with only empty keys has no
    testable prefixes and reports vacuous. Samples come as a list or a
    Counter. Returns the report's fairness section: the levels, the number
    of tests, and one entry per flagged cell.
    """
    samples = Counter(samples)
    if not samples:
        raise ValidationError("at least one sample required")
    tallies: dict[str, dict[str, list[int]]] = {}
    for (transcript, key), n in samples.items():
        label = transcript if isinstance(transcript, str) else transcript_label(transcript)
        group = tallies.setdefault(label, {})
        for pos in range(len(key)):
            counts = group.setdefault(key[:pos], [0, 0])
            counts[int(key[pos])] += n
    tests = sum(len(group) for group in tallies.values())
    adjusted = _ALPHA / tests if tests else _ALPHA
    flags = []
    for label in sorted(tallies):
        group = sorted(tallies[label].items(), key=lambda c: (len(c[0]), c[0]))
        for prefix, (zeros, ones) in group:
            stat = (zeros - ones) ** 2 / (zeros + ones)
            p = chi_square_pvalue(stat)
            if p < adjusted:
                flags.append(
                    {
                        "transcript": label,
                        "prefix": prefix,
                        "zeros": zeros,
                        "ones": ones,
                        "statistic": stat,
                        "p_value": p,
                    }
                )
    return {
        "alpha": _ALPHA,
        "adjusted_alpha": adjusted,
        "tests": tests,
        "flags": flags,
        "vacuous": not tests,
    }


# ---------------------------------------------------------------------------
# Bound dashboard.


def _line(
    label: str,
    kind: str,
    value: float | None,
    *,
    vacuous: bool = False,
    note: str | None = None,
) -> dict:
    entry: dict[str, Any] = {"label": label, "kind": kind, "value": value}
    if vacuous:
        entry["vacuous"] = True
    if note:
        entry["note"] = note
    return entry


def bounds_dashboard(j: JointPmf | Pmf, m: int) -> dict:
    """Every bound and reference line for one source, as labeled entries.

    A Pmf stands for the source Y = X. Achievable lines that come out
    nonpositive are flagged vacuous: the guarantee only ever demands a
    nonnegative length. The two cited lines (two-stage reference, prior
    scheme at epsilon = 1/m) are comparisons, never asserted achievements.
    """
    if m < 1:
        raise ValidationError("bucket count m must be >= 1")
    stats = agreement_stats(j)
    p = stats.p
    i_val = mutual_information(j)
    log2m = math.log2(m)
    lines = [
        _line("length converse: I(X;Y) + log2 3 + 1", "converse", converse_bound(j))
    ]
    h_cond = None
    kappa = None
    if stats.conditional is not None:
        h_cond = entropy(stats.conditional)
        kappa = float(p) * h_cond
        hash_line = float(p) * (h_cond - log2m - 2.0)
        lines.append(
            _line(
                "hash-check guarantee: p (H(X|X=Y) - log2 m - 2)",
                "achievable",
                hash_line,
                vacuous=hash_line <= 0,
            )
        )
        display = kappa - log2m - 2.0
        lines.append(
            _line(
                "hash-check guarantee, substituted form: kappa - log2 m - 2",
                "achievable",
                display,
                vacuous=display <= 0,
                note="pair form exceeds this by (1 - p)(log2 m + 2)",
            )
        )
        common_line = h_cond - 2.0
        lines.append(
            _line(
                "common-source length: H(X|X=Y) - 2 (exact guarantee at p = 1)",
                "achievable" if p == 1 else "reference",
                common_line,
                vacuous=common_line <= 0,
            )
        )
        if kappa > 0:
            value = kappa - math.log2(kappa) - 2.0 * log2m
            lines.append(
                _line(
                    "cited prior scheme ~ kappa - log2 kappa - 2 log2(1/epsilon),"
                    " at epsilon = 1/m",
                    "comparison",
                    value,
                    vacuous=value <= 0,
                    note="comparison only; not this artifact's guarantee",
                )
            )
    two_stage = correlated_reference_bound(i_val, m)
    lines.append(
        _line(
            "cited two-stage reference: I - 2 log2(I+1) - log2 m - 9.04",
            "reference",
            two_stage,
            vacuous=two_stage <= 0,
            note="reconciliation stage achieving it is cited work, not shipped",
        )
    )
    return {
        "m": m,
        "p_agree": formats.format_rational(p),
        "mutual_information": i_val,
        "conditional_entropy": h_cond,
        "kappa": kappa,
        "lines": lines,
    }


# ---------------------------------------------------------------------------
# Eavesdropper analysis.


def eavesdropper_view(runs: Iterable[_RunRecord]) -> dict:
    """Summarize exactly what the public channel shows, and audit it.

    Asserts that no string payload equals any party's nonempty key
    (integer payloads such as round indices are not bitstrings and are
    compared as types, not spellings). Feeds the fairness diagnostics
    with ideal keys grouped by transcript value. Runs come as a list or a
    Counter, whose first-insertion order names the first offending run.
    """
    try:
        runs = Counter(runs)
    except TypeError as exc:
        raise ValidationError(f"malformed run record: {exc}") from None
    if not runs:
        raise ValidationError("empty transcript log")
    keys_seen = set()
    payload_count = 0
    labels = set()
    samples: Counter[tuple[Transcript, str]] = Counter()
    for entry, n in runs.items():
        try:
            transcript, key_a, key_b, ideal = entry
        except (TypeError, ValueError):
            raise ValidationError(f"malformed run record: {entry!r}") from None
        keys_seen.update(key for key in (key_a, key_b, ideal) if key)
        labels.add(transcript_label(transcript))
        payload_count += n * len(transcript)
        samples[transcript, ideal] += n
    for transcript, _, _, _ in runs:
        for sender, kind, value in transcript:
            if isinstance(value, str) and value in keys_seen:
                raise InvariantError(
                    f"public payload {sender}:{kind}={value!r} equals a party's key"
                )
    return {
        "runs": runs.total(),
        "messages": payload_count,
        "distinct_transcripts": len(labels),
        "leak_check": "clean",
        "fairness": fairness_test(samples),
    }


# ---------------------------------------------------------------------------
# Experiment configuration and report.


_PROTOCOLS = ("common", "almost", "correlated")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run depends on; the seed fixes all randomness."""

    protocol: str
    source_path: str | None = None
    source_doc: Mapping | None = None
    m: int = 1
    w_max: int = 30
    trials: int = 0
    seed: int | str = 0
    reconciler: str | None = None
    hash_spec: str | None = None

    def __post_init__(self) -> None:
        if self.protocol not in _PROTOCOLS:
            raise ValidationError(f"unknown protocol {self.protocol!r}")
        if (self.source_path is None) == (self.source_doc is None):
            raise ValidationError("exactly one of source_path/source_doc required")
        if self.m < 1:
            raise ValidationError("bucket count m must be >= 1")
        if self.w_max < 1:
            raise ValidationError("w_max must be >= 1")
        if self.trials < 0:
            raise ValidationError("trials must be >= 0")
        if self.hash_spec is not None and self.protocol != "almost":
            raise ValidationError(
                f"a hash spec applies only to the almost protocol, not {self.protocol!r}"
            )
        if self.reconciler is not None and self.protocol != "correlated":
            raise ValidationError(
                f"a reconciler applies only to the correlated protocol, not {self.protocol!r}"
            )

    def to_dict(self) -> dict:
        return {
            "protocol": self.protocol,
            "source_path": self.source_path,
            "source_doc": None if self.source_doc is None else dict(self.source_doc),
            "m": self.m,
            "w_max": self.w_max,
            "trials": self.trials,
            "seed": self.seed,
            "reconciler": self.reconciler,
            "hash_spec": self.hash_spec,
        }

    def plan(self) -> ProtocolPlan:
        """Load the source, by path or by document, and build its plan."""
        if self.source_path is not None:
            source = formats.load_source(self.source_path)
        else:
            source = formats.parse_source(self.source_doc)  # type: ignore[arg-type]
        return ProtocolPlan(self, source)


METHODOLOGY = (
    "two-sided 99% intervals (z = 2.5758293035489004): Wilson score for the "
    "error rate, normal approximation with sample variance for mean agreed "
    "length; a bound is violated only if its entire interval is on the wrong "
    "side; exact sections use rational arithmetic with truncation tails "
    "charged against the protocol"
)


@dataclass(frozen=True)
class Report:
    data: Mapping[str, Any]

    def to_json(self) -> str:
        return formats.dumps(self.data)

    @property
    def checks(self) -> list[dict]:
        return list(self.data.get("checks", ()))

    @property
    def violated(self) -> bool:
        return any(c.get("status") == "fail" for c in self.checks)

    def render_text(self) -> str:
        d = self.data
        out = ["== stopkey report =="]
        cfg = d.get("config", {})
        out.append(
            "protocol: {0}   m: {1}   w_max: {2}   trials: {3}   seed: {4!r}".format(
                cfg.get("protocol"), cfg.get("m"), cfg.get("w_max"),
                cfg.get("trials"), cfg.get("seed"),
            )
        )
        out.append(f"methodology: {d.get('methodology')}")
        dash = d.get("bounds", {})
        if dash:
            out.append("-- bound lines --")
            out.append(
                "  p = {0}   I(X;Y) = {1}   H(X|X=Y) = {2}".format(
                    dash.get("p_agree"),
                    _fmt(dash.get("mutual_information")),
                    _fmt(dash.get("conditional_entropy")),
                )
            )
            for line in dash.get("lines", ()):
                out.append(f"  {bound_line_text(line)}")
        est = d.get("estimates")
        if est:
            out.append("-- estimates --")
            eps = est["epsilon"]
            ell = est["ell"]
            out.append(
                "  epsilon: {0}  CI {1}  ({2})".format(
                    _fmt(eps["estimate"]), _fmt_iv(eps["interval"]), eps["method"]
                )
            )
            out.append(
                "  ell:     {0}  CI {1}  ({2})".format(
                    _fmt(ell["estimate"]), _fmt_iv(ell["interval"]), ell["method"]
                )
            )
        exact = d.get("exact")
        if exact:
            out.append("-- exact enumeration --")
            for key in sorted(exact):
                out.append(f"  {key}: {_fmt(exact[key])}")
        checks = d.get("checks")
        if checks:
            out.append("-- bound checks --")
            for c in checks:
                out.append(
                    "  [{0}] {1}: observed {2} vs bound {3} ({4})".format(
                        c["status"], c["label"], _fmt_iv(c.get("observed")),
                        _fmt(c.get("bound")), c.get("direction") or "info",
                    )
                )
        fair = d.get("fairness")
        if fair:
            out.append("-- fairness diagnostics --")
            out.append(
                "  tests: {0}  flags: {1}  adjusted alpha: {2}{3}".format(
                    fair["tests"], len(fair["flags"]), _fmt(fair["adjusted_alpha"]),
                    "  [vacuous]" if fair.get("vacuous") else "",
                )
            )
        eav = d.get("eavesdropper")
        if eav:
            out.append("-- eavesdropper view --")
            out.append(
                "  runs: {0}  messages: {1}  distinct transcripts: {2}  leak check: {3}".format(
                    eav["runs"], eav["messages"], eav["distinct_transcripts"],
                    eav["leak_check"],
                )
            )
        out.append(f"status: {d.get('status')}")
        return "\n".join(out) + "\n"


def bound_line_text(line: Mapping) -> str:
    """One dashboard line as text: ``(kind) label = value``, tagged if vacuous."""
    tag = " [vacuous]" if line.get("vacuous") else ""
    return f"({line['kind']}) {line['label']} = {_fmt(line['value'])}{tag}"


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.10g}"
    if value is None:
        return "n/a"
    return str(value)


def _fmt_iv(iv: Any) -> str:
    if iv is None:
        return "n/a"
    if isinstance(iv, (list, tuple)) and len(iv) == 2:
        return f"[{_fmt(iv[0])}, {_fmt(iv[1])}]"
    return _fmt(iv)


def _check(
    label: str,
    observed: tuple[float, float] | None,
    bound: float | None,
    direction: str,
    *,
    vacuous: bool = False,
) -> dict:
    """Interval-logic comparison: fail only if fully on the wrong side."""
    entry: dict[str, Any] = {
        "label": label,
        "observed": None if observed is None else [observed[0], observed[1]],
        "bound": bound,
        "direction": direction,
    }
    if vacuous or bound is None or observed is None:
        entry["status"] = "vacuous"
        return entry
    lo, hi = observed
    if direction == "ge":
        entry["status"] = "fail" if hi < bound else "pass"
    elif direction == "le":
        entry["status"] = "fail" if lo > bound else "pass"
    else:
        raise ValidationError(f"unknown direction {direction!r}")
    return entry


def parse_reconciler(spec: str, seed: int | str) -> Reconciler:
    """CLI reconciler spec: identity, constant, or hashmap:BITS."""
    if spec == "identity":
        return IdentityReconciler()
    if spec == "constant":
        return ConstantReconciler()
    if spec.startswith("hashmap:"):
        try:
            bits = int(spec.split(":", 1)[1])
        except ValueError:
            raise ValidationError(f"bad reconciler spec {spec!r}") from None
        return OneWayHashReconciler(bits, seed=f"sketch:{seed!r}")
    raise ValidationError(f"unknown reconciler {spec!r}")


def resolve_hash(
    spec: str | None, j: JointPmf, m: int
) -> tuple[str, HashFunction | None, str | None]:
    """CLI hash spec to (mode, fixed table or None, per-trial seed or None).

    No spec means the derandomized table; "fixed:FILE" loads one and
    checks it covers the union alphabet; "random:SEED" draws a fresh
    uniform table per trial from the given seed.
    """
    if spec is None:
        table, _ = derandomize_hash(j, m)
        return "derandomized", table, None
    if spec.startswith("fixed:"):
        table = formats.load_hash_function(spec.split(":", 1)[1])
        if table.m != m:
            raise ValidationError(f"hash file has m = {table.m}, expected m = {m}")
        for label in union_alphabet(j):
            table(label)  # raises on any domain gap
        return "fixed", table, None
    if spec.startswith("random:"):
        return "random", None, spec.split(":", 1)[1]
    raise ValidationError(f"unknown hash spec {spec!r}")


class ProtocolPlan:
    """A configured protocol on its loaded source, ready to play seeded trials.

    The config checked every option; the plan checks the source kind,
    resolves the spec and holds the header a report or run log prints.
    ``runs`` is the only place a trial's substreams are derived, so reports
    and run logs for the same seed play the same trials.
    """

    def __init__(self, cfg: ExperimentConfig, source: Pmf | JointPmf):
        if cfg.protocol == "common":
            if not isinstance(source, Pmf):
                raise ValidationError("common protocol takes a single distribution")
        elif not isinstance(source, JointPmf):
            raise ValidationError(f"{cfg.protocol} protocol takes a joint distribution")
        self.cfg = cfg
        self.source = source
        self.header: dict[str, Any] = {}
        if cfg.protocol == "common":
            self._engine = engine_for(source)
            self._sampler = KnuthYaoSampler(source)
            self._trial = self._common_trial
        elif cfg.protocol == "almost":
            mode, self.table, hash_seed = resolve_hash(cfg.hash_spec, source, cfg.m)
            self.header["hash_mode"] = mode
            if self.table is not None:
                self.header["hash_table"] = formats.hash_function_document(self.table)
            else:
                self._tables = RandomSource(hash_seed)
                self._alphabet = union_alphabet(source)
            self._trial = self._almost_trial
        else:
            spec = "identity" if cfg.reconciler is None else cfg.reconciler
            self.reconciler = parse_reconciler(spec, cfg.seed)
            self.header["reconciler"] = spec
            self._trial = self._correlated_trial

    def runs(self) -> Iterator[_RunRecord]:
        """Each of the config's trials as (transcript, key_a, key_b, ideal), in order."""
        rng = RandomSource(self.cfg.seed)
        for i in range(self.cfg.trials):
            yield self._trial(i, rng.substream("trial", i))

    def _common_trial(self, i: int, sub: RandomSource) -> _RunRecord:
        x, _ = self._sampler.sample(sub.substream("source"))
        key_a, w = self._engine.alice(x, sub.substream("alice"))
        return (("alice", "round", w),), key_a, self._engine.bob(x, w), key_a

    def _almost_trial(self, i: int, sub: RandomSource) -> _RunRecord:
        h, m = self.table, self.cfg.m
        if h is None:
            h = HashFunction.random(self._alphabet, m, self._tables.substream("table", i))
        x, y = sample_joint(self.source, sub.substream("source"))
        run = almost_common_keygen(self.source, x, y, m, h, sub.substream("keys"))
        return run.transcript, run.key_a, run.key_b, run.ideal_key

    def _correlated_trial(self, i: int, sub: RandomSource) -> _RunRecord:
        run = correlated_keygen(self.source, self.reconciler, self.cfg.m, sub)
        return run.transcript, run.key_a, run.key_b, run.ideal_key


def agreed(run: _RunRecord) -> bool:
    """Both parties output the ideal key (an empty one counts)."""
    _, key_a, key_b, ideal = run
    return key_a == key_b == ideal


def _estimates_section(errors: int, lengths: Counter[float]) -> dict:
    n = lengths.total()
    eps_lo, eps_hi = wilson_interval(errors, n)
    ell_lo, ell_hi = mean_interval(lengths)
    return {
        "trials": n,
        "errors": errors,
        "epsilon": {
            "estimate": errors / n,
            "interval": [eps_lo, eps_hi],
            "method": "wilson-99",
        },
        "ell": {
            "estimate": math.fsum(lengths.elements()) / n,
            "interval": [ell_lo, ell_hi],
            "method": "normal-approx-99",
        },
    }


def _law_section(laws: Mapping[Any, KeyLaw]) -> dict:
    bad = []
    for key in laws:
        verdict = verify_rsbs(laws[key])
        if not verdict.valid:
            bad.append(str(key))
    return {
        "transcript_laws": len(laws),
        "rsbs_valid": len(laws) - len(bad),
        "rsbs_violations": sorted(bad),
    }


def run_simulation(cfg: ExperimentConfig) -> Report:
    """Execute one configured experiment end to end.

    trials = 0 produces a bounds-only report. Exact enumeration sections
    are attached whenever the alphabet is small enough (at most 8
    symbols a side); Monte Carlo estimates always carry their intervals
    and are compared to every applicable bound line.
    """
    plan = cfg.plan()
    source = plan.source
    data: dict[str, Any] = {
        "config": cfg.to_dict(),
        "methodology": METHODOLOGY,
        **plan.header,
    }
    data["bounds"] = bounds_dashboard(source, cfg.m)
    conv = next(
        line["value"]
        for line in data["bounds"]["lines"]
        if line["kind"] == "converse"
    )
    sides = (source,) if isinstance(source, Pmf) else (source.x_labels, source.y_labels)
    small = all(len(side) <= 8 for side in sides)
    exact: dict[str, Any] = {}
    checks: list[dict] = []

    # each branch: its exact section and checks, then the bounds its
    # measured error and measured length are held to
    if cfg.protocol == "common":
        h_x = entropy(source)
        if small:
            formats.check_printable_depth(cfg.w_max)  # the law's tail is 2**-w_max
            law = exact_common_law(source, cfg.w_max)
            exact["expected_length"] = formats.format_rational(law.expected_length)
            exact["expected_length_float"] = float(law.expected_length)
            exact["tail"] = formats.format_rational(law.tail)
            per_w = {
                w: law.conditional_key_law(w)
                for w in range(1, min(cfg.w_max, 16) + 1)
            }
            exact.update(_law_section(per_w))
            slack = (cfg.w_max + 2) * 2.0 ** -cfg.w_max
            checks.append(
                _check(
                    "enumerated E|K| >= H(X) - 2 (within truncation slack)",
                    (float(law.expected_length) + slack,) * 2,
                    h_x - 2.0,
                    "ge",
                    vacuous=h_x - 2.0 <= 0,
                )
            )
            exact["huffman_baseline"] = float(huffman_expected_length(source))
        error_label, error_bound = "measured error = 0", 0.0
        length_label, length_bound = "measured length >= H(X) - 2", h_x - 2.0

    elif cfg.protocol == "almost":
        pair = almost_common_bounds(source, cfg.m)
        data["guarantee"] = {
            "epsilon": formats.format_rational(pair.epsilon),
            "ell": pair.ell,
        }
        if small and plan.table is not None:
            analysis = analyze_almost_common(source, plan.table, w_max=min(cfg.w_max, 30))
            exact["collision_error"] = formats.format_rational(analysis.collision_error)
            exact["error_enumerated"] = formats.format_rational(analysis.error_enumerated)
            exact["error_upper_float"] = float(analysis.error_upper)
            exact["agreed_length"] = formats.format_rational(analysis.agreed_length)
            exact["agreed_length_float"] = float(analysis.agreed_length)
            exact.update(_law_section(analysis.transcript_laws or {}))
            checks.append(
                _check(
                    "exact error of this table <= (1 - p)/m",
                    (float(analysis.error_upper),) * 2,
                    float(analysis.epsilon_bound),
                    "le",
                )
            )
            checks.append(
                _check(
                    "exact agreed length >= p (H(X|X=Y) - log2 m - 2)",
                    (float(analysis.agreed_length),) * 2,
                    pair.ell,
                    "ge",
                    vacuous=pair.ell <= 0,
                )
            )
        elif small and subset_count(len(union_alphabet(source)), cfg.m) <= SUBSET_LIMIT:
            avg = average_almost_common(source, cfg.m, w_max=min(cfg.w_max, 30))
            exact["tables"] = formats.check_printable_int(avg.tables)  # m^|X|
            exact["mean_collision_error"] = formats.format_rational(avg.collision_error)
            exact["mean_agreed_length_float"] = float(avg.agreed_length)
        error_label, error_bound = "measured error <= (1 - p)/m", float(pair.epsilon)
        length_label = "measured length >= p (H(X|X=Y) - log2 m - 2)"
        length_bound = pair.ell

    else:  # correlated
        floor = None
        if small:
            stats = reconciler_stats(source, plan.reconciler)
            floor = stats.floor(cfg.m)
            exact["reconciler_p_agree"] = formats.format_rational(stats.p_agree)
            exact["reconciler_conditional_entropy"] = stats.conditional_entropy
            exact["composition_floor"] = floor
            laws = correlated_transcript_laws(
                source, plan.reconciler, cfg.m, w_max=min(cfg.w_max, 20)
            )
            exact.update(_law_section(laws))
            data["composition_floor"] = floor
        error_label, error_bound = "measured error <= 1/m", 1.0 / cfg.m
        length_label = "measured length >= measured-reconciler composition floor"
        length_bound = floor

    if cfg.trials > 0:
        # counted run records: memory grows with distinct records, not trials
        runs = Counter(plan.runs())
        errors = 0
        lengths: Counter[float] = Counter()
        for run, n in runs.items():
            ok = agreed(run)
            errors += 0 if ok else n
            lengths[float(len(run[3])) if ok else 0.0] += n
        data["estimates"] = _estimates_section(errors, lengths)
        eps_iv = tuple(data["estimates"]["epsilon"]["interval"])
        ell_iv = tuple(data["estimates"]["ell"]["interval"])
        checks.append(_check(error_label, eps_iv, error_bound, "le"))
        checks.append(
            _check(
                length_label,
                ell_iv,
                length_bound,
                "ge",
                vacuous=length_bound is None or length_bound <= 0,
            )
        )
        checks.append(
            _check("measured length <= I(X;Y) + log2 3 + 1", ell_iv, conv, "le")
        )
        # the view runs the fairness tests on these same (transcript, ideal) samples
        view = eavesdropper_view(runs)
        data["fairness"] = view["fairness"]
        data["eavesdropper"] = view

    if exact:
        data["exact"] = exact
    data["checks"] = checks
    data["status"] = (
        "bound-violated" if any(c["status"] == "fail" for c in checks) else "ok"
    )
    return Report(data)
