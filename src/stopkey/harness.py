"""Batch experiment driver: Monte Carlo estimation, exact oracles, reports.

Statistical methodology, fixed and printed in every report: two-sided
99% intervals (z = 2.5758...), the Wilson score interval for the error
rate and the normal approximation with sample variance for the mean
agreed length. A bound counts as violated only when its entire interval
lies on the wrong side of the line. Exact sections enumerate in rational
arithmetic; truncation tails are reported and charged against the
protocol, never in its favor.

Each protocol is one plan class (``PLANS``): its source check, its
trials and its exact section. Trials draw their randomness from
per-trial substreams derived from the master seed by trial index, so
reports are byte-identical for a given config and seed under any
execution order or worker count. A report's trials run in contiguous
blocks, up to one per usable CPU, the first in this process and the rest
in forked children, and merge in trial order.
"""

from __future__ import annotations

import gc
import heapq
import marshal
import math
import os
import signal
import threading
from collections import Counter
from dataclasses import dataclass, fields
from functools import cached_property
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
    ConstantReconciler,
    Decision,
    HashFunction,
    IdentityReconciler,
    OneWayHashReconciler,
    Reconciler,
    Transcript,
    _atom_sampler,
    almost_common_bounds,
    analyze_almost_common,
    average_almost_common,
    correlated_reference_bound,
    correlated_transcript_laws,
    decide,
    derandomize_hash,
    play,
    reconciler_stats,
    union_alphabet,
    unpack_run,
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


def fairness_test(samples: Iterable[tuple[str, str]]) -> dict:
    """Chi-square next-bit tests against 1/2, per transcript and prefix.

    Purely diagnostic: the exact verifier is authoritative wherever
    enumeration is feasible. Bonferroni-adjusts alpha = 0.01 across all
    (transcript, prefix) cells; a sample set with only empty keys has no
    testable prefixes and reports vacuous. Samples are (label, key) pairs,
    as a list or a Counter, each label a transcript's ``transcript_label``;
    flags name a transcript by its label. Returns the report's fairness
    section: the levels, the number of tests, and one entry per flagged
    cell.
    """
    samples = Counter(samples)
    if not samples:
        raise ValidationError("at least one sample required")
    tallies: dict[str, dict[str, list[int]]] = {}
    for (label, key), n in samples.items():
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
    with ideal keys grouped by transcript value, each distinct transcript
    labelled once. Runs come as a list or a Counter, whose
    first-insertion order names the first offending run.
    """
    try:
        runs = Counter(runs)
    except TypeError as exc:
        raise ValidationError(f"malformed run record: {exc}") from None
    if not runs:
        raise ValidationError("empty transcript log")
    keys_seen = set()
    payload_count = 0
    labels: dict[Transcript, str] = {}
    samples: Counter[tuple[str, str]] = Counter()
    for entry, n in runs.items():
        try:
            transcript, key_a, key_b, ideal = entry
        except (TypeError, ValueError):
            raise ValidationError(f"malformed run record: {entry!r}") from None
        keys_seen.update(key for key in (key_a, key_b, ideal) if key)
        label = labels.get(transcript)
        if label is None:
            label = labels[transcript] = transcript_label(transcript)
        payload_count += n * len(transcript)
        samples[label, ideal] += n
    for transcript, _, _, _ in runs:
        for sender, kind, value in transcript:
            if isinstance(value, str) and value in keys_seen:
                raise InvariantError(
                    f"public payload {sender}:{kind}={value!r} equals a party's key"
                )
    return {
        "runs": runs.total(),
        "messages": payload_count,
        "distinct_transcripts": len(set(labels.values())),
        "leak_check": "clean",
        "fairness": fairness_test(samples),
    }


# ---------------------------------------------------------------------------
# Experiment configuration and report.


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
        if self.protocol not in PLANS:
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
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        if self.source_doc is not None:
            doc["source_doc"] = dict(self.source_doc)
        return doc

    def plan(self) -> ProtocolPlan:
        """Load the source, by path or by document, and build the
        protocol's plan (``PLANS``)."""
        if self.source_path is not None:
            source = formats.load_source(self.source_path)
        else:
            source = formats.parse_source(self.source_doc)  # type: ignore[arg-type]
        return PLANS[self.protocol](self, source)


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
    return f"[{_fmt(iv[0])}, {_fmt(iv[1])}]"


def _check(
    label: str,
    observed: tuple[float, float],
    bound: float | None,
    direction: str,
    *,
    vacuous: bool = False,
) -> dict:
    """Interval-logic comparison: fail only if fully on the wrong side."""
    entry: dict[str, Any] = {
        "label": label,
        "observed": list(observed),
        "bound": bound,
        "direction": direction,
    }
    if vacuous or bound is None:
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

    One subclass per protocol, named in ``PLANS``. The config checked every
    option; the plan checks the source kind, resolves the spec and holds
    the header a report or run log prints. Each subclass plays trial i on
    its substream in ``_trial(i, sub)``; ``runs`` is the only place a
    trial's substreams are derived, so reports and run logs for the same
    seed play the same trials.

    A trial pays for its draws and little else. A common trial's record
    depends only on (x, W), and a two-stage trial's only on its packed
    run (``reconciled.play``), so each record is built on its first draw
    and shared after: ``_records`` holds one entry per distinct record.
    """

    def __init__(self, cfg: ExperimentConfig, source: Pmf | JointPmf):
        self.cfg = cfg
        self.source = source
        self.header: dict[str, Any] = {}
        # (x, w) or a packed run -> its record, the object every trial with
        # that outcome yields
        self._records: dict[tuple, _RunRecord] = {}

    def runs(self, start: int = 0, stop: int | None = None) -> Iterator[_RunRecord]:
        """Trials start..stop-1 (by default all the config's trials) as
        (transcript, key_a, key_b, ideal), in order."""
        rng = RandomSource(self.cfg.seed)
        trial = self._trial
        for i in range(start, self.cfg.trials if stop is None else stop):
            yield trial(i, rng.substream("trial", i))

    def exact(
        self, small: bool, data: dict, exact: dict, checks: list
    ) -> tuple[tuple[str, float], tuple[str, float | None]]:
        """The report's exact section: the exact fields into ``exact`` and
        their checks into ``checks``, only when ``small`` (at most 8 labels
        a side), and extra report fields into ``data``. Returns the
        (label, bound) lines the measured error and length are held to."""
        raise NotImplementedError


class _CommonPlan(ProtocolPlan):
    """The zero-error scheme on a common source."""

    def __init__(self, cfg: ExperimentConfig, source: Pmf | JointPmf):
        if not isinstance(source, Pmf):
            raise ValidationError("common protocol takes a single distribution")
        super().__init__(cfg, source)
        self._engine = engine_for(source)
        self._sampler = KnuthYaoSampler(source)

    def _trial(self, i: int, sub: RandomSource) -> _RunRecord:
        x = self._sampler.sample(sub.substream("source"))[0]
        w = self._engine.alice(x, sub.substream("alice"))
        return self._records.get((x, w)) or self._record(x, w)

    def _record(self, x: int, w: int) -> _RunRecord:
        """Alice's key is x's round-w codeword, and Bob replays round w."""
        key_a = self._engine.round(w).codeword(x)
        run = ((("alice", "round", w),), key_a, self._engine.bob(x, w), key_a)
        # setdefault: racing first builders all get the stored record
        return self._records.setdefault((x, w), run)

    def exact(self, small, data, exact, checks):
        cfg, source = self.cfg, self.source
        h_x = entropy(source)
        if small:
            formats.check_printable_depth(cfg.w_max)  # the law's tail is 2**-w_max
            law = exact_common_law(source, cfg.w_max)
            exact["expected_length"] = formats.format_rational(law.expected_length)
            exact["expected_length_float"] = float(law.expected_length)
            exact["tail"] = formats.format_rational(law.tail)
            per_w = {w: law.conditional_key_law(w) for w in range(1, min(cfg.w_max, 16) + 1)}
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
        return ("measured error = 0", 0.0), ("measured length >= H(X) - 2", h_x - 2.0)


class _TwoStagePlan(ProtocolPlan):
    """A joint source's stage two: a trial draws a source cell with the
    sampler ``sample_joint`` uses, and Bob's round. Everything else about
    the cell is decided once per plan, on the cell's first draw
    (``_decision``, through the subclass's ``_decide``)."""

    def __init__(self, cfg: ExperimentConfig, source: Pmf | JointPmf):
        if not isinstance(source, JointPmf):
            raise ValidationError(f"{cfg.protocol} protocol takes a joint distribution")
        super().__init__(cfg, source)

    def _play(self, decision: Decision, rng: RandomSource) -> _RunRecord:
        """A stage-two run from a decided outcome: Bob's draw on ``rng``,
        then the record of the packed run."""
        packed = play(decision, rng)
        return self._records.get(packed) or self._records.setdefault(packed, unpack_run(*packed))

    @cached_property
    def _cells(self) -> tuple[KnuthYaoSampler, tuple[tuple[str, str], ...]]:
        """The sampler ``sample_joint`` uses, and the (x, y) cell of each
        draw. Built on the first trial, so a report with no trials builds
        neither it nor ``_decided``."""
        return _atom_sampler(self.source)

    @cached_property
    def _decided(self) -> list[Decision | None]:
        """Each positive source cell's decision, None until it is drawn."""
        return [None] * len(self._cells[1])

    def _decision(self, cell: int) -> Decision:
        """The fixed part of a run on ``cell``: decided on the cell's first
        draw and read back after, so a report decides at most min(trials,
        cells) cells. Racing threads decide a cell alike."""
        got = self._decided[cell]
        if got is None:
            got = self._decided[cell] = self._decide(*self._cells[1][cell])
        return got


class _AlmostPlan(_TwoStagePlan):
    """The hash check on an almost-common source, with a derandomized,
    fixed or per-trial random table."""

    def __init__(self, cfg: ExperimentConfig, source: Pmf | JointPmf):
        super().__init__(cfg, source)
        mode, self.table, hash_seed = resolve_hash(cfg.hash_spec, source, cfg.m)
        self.header["hash_mode"] = mode
        if self.table is not None:
            self.header["hash_table"] = formats.hash_function_document(self.table)
        else:
            self._tables = RandomSource(hash_seed)
            self._alphabet = union_alphabet(source)

    def _decide(self, x: str, y: str) -> Decision:
        return decide(self.source, self.table, x, y)

    def _trial(self, i: int, sub: RandomSource) -> _RunRecord:
        sampler, cells = self._cells
        cell = sampler.sample(sub.substream("source"))[0]
        if self.table is None:
            h = HashFunction.random(self._alphabet, self.cfg.m, self._tables.substream("table", i))
            decision = decide(self.source, h, *cells[cell])
        else:
            decision = self._decision(cell)
        return self._play(decision, sub.substream("keys"))

    def exact(self, small, data, exact, checks):
        cfg, source = self.cfg, self.source
        pair = almost_common_bounds(source, cfg.m)
        data["guarantee"] = {"epsilon": formats.format_rational(pair.epsilon), "ell": pair.ell}
        if small and self.table is not None:
            analysis = analyze_almost_common(source, self.table, w_max=min(cfg.w_max, 30))
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
        elif small:
            avg = average_almost_common(source, cfg.m, w_max=min(cfg.w_max, 30))
            exact["tables"] = formats.check_printable_int(avg.tables)  # m^|X|
            exact["mean_collision_error"] = formats.format_rational(avg.collision_error)
            exact["mean_agreed_length_float"] = float(avg.agreed_length)
        return (
            ("measured error <= (1 - p)/m", float(pair.epsilon)),
            ("measured length >= p (H(X|X=Y) - log2 m - 2)", pair.ell),
        )


class _CorrelatedPlan(_TwoStagePlan):
    """The two-stage pipeline: a reconciler, then the hash check on its
    stage-two source."""

    def __init__(self, cfg: ExperimentConfig, source: Pmf | JointPmf):
        super().__init__(cfg, source)
        spec = "identity" if cfg.reconciler is None else cfg.reconciler
        self.reconciler = parse_reconciler(spec, cfg.seed)
        self.header["reconciler"] = spec

    def _decide(self, x: str, y: str) -> Decision:
        r, j = self.reconciler, self.source
        res = r.outcome(j, x, y)
        cj, h = r.stage_two_source(j, res.transcript_a, self.cfg.m)
        return decide(cj, h, res.m_a, res.m_b, res.transcript_a)

    def _trial(self, i: int, sub: RandomSource) -> _RunRecord:
        cell = self._cells[0].sample(sub.substream("source"))[0]
        return self._play(self._decision(cell), sub.substream("stage2"))

    def exact(self, small, data, exact, checks):
        cfg, source = self.cfg, self.source
        floor = None
        if small:
            stats = reconciler_stats(source, self.reconciler)
            floor = stats.floor(cfg.m)
            exact["reconciler_p_agree"] = formats.format_rational(stats.p_agree)
            exact["reconciler_conditional_entropy"] = stats.conditional_entropy
            exact["composition_floor"] = floor
            laws = correlated_transcript_laws(
                source, self.reconciler, cfg.m, w_max=min(cfg.w_max, 20)
            )
            exact.update(_law_section(laws))
            data["composition_floor"] = floor
        return (
            ("measured error <= 1/m", 1.0 / cfg.m),
            ("measured length >= measured-reconciler composition floor", floor),
        )


# protocol name -> its plan, in the order the CLI lists them
PLANS: dict[str, type[ProtocolPlan]] = {
    "common": _CommonPlan,
    "almost": _AlmostPlan,
    "correlated": _CorrelatedPlan,
}


# ---------------------------------------------------------------------------
# Trial blocks.

# Fewest trials a block plays. Measured with common reports on 2 vCPUs
# (Python 3.11): two blocks break even with one at about 100 trials each
# when the second CPU is free, and cost about 4 ms more than one when it is
# not. The smallest forked report, 2000 trials, then reads 1.09x serial at
# worst, against about 0.6x with a free CPU.
MIN_BLOCK = 1000


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def _block_count(trials: int) -> int:
    """How many blocks a report's trials split into; 1 plays them serially.

    Forks only with no other thread alive: a child starts with one thread,
    and a lock another thread held (``randomsource._SEEDING``) would stay
    held in it.
    """
    if not hasattr(os, "fork") or threading.active_count() != 1:
        return 1
    return max(1, min(_usable_cpus(), trials // MIN_BLOCK))


def _fork_block(plan: ProtocolPlan, start: int, stop: int) -> tuple[int, int] | None:
    """Play trials start..stop-1 in a forked child: (pid, read end of its
    pipe), or None if the fork failed. The child sends its counted records
    as one length-prefixed marshal payload, ([marshal of each record],
    [its count]) in first-insertion order, then exits without cleanup."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid == 0:
        code = 1
        try:
            # the parent's objects, garbage included, are never collected
            # here, so no finalizer of theirs runs twice
            gc.freeze()
            os.close(read_fd)
            counts = Counter(plan.runs(start, stop))
            payload = marshal.dumps(
                ([marshal.dumps(run) for run in counts], list(counts.values()))
            )
            with open(write_fd, "wb") as pipe:
                pipe.write(len(payload).to_bytes(8, "big") + payload)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    return pid, read_fd


def _read_block(read_fd: int) -> tuple[list[bytes], list[int]] | None:
    """A child's payload, or None if the pipe closed before all of it came."""
    with open(read_fd, "rb") as pipe:
        head = pipe.read(8)
        size = int.from_bytes(head, "big")
        payload = pipe.read(size)
    if len(head) < 8 or len(payload) < size:
        return None
    return marshal.loads(payload)


def count_runs(plan: ProtocolPlan) -> Counter[_RunRecord]:
    """Every trial's record, counted, in the serial first-insertion order.

    The trials split into ``_block_count`` contiguous blocks. Block 0 plays
    here; each later block plays in a forked child, and the parent merges
    the blocks in order, so a record first seen in block b was absent from
    blocks 0..b-1 and the Counter's order is the serial one. A trial is a
    pure function of (seed, index): a block whose child fails, or that
    could not fork, plays here, raising what the serial run raises.
    """
    trials = plan.cfg.trials
    k = _block_count(trials)
    bounds = [trials * b // k for b in range(k + 1)]
    pids: dict[int, int] = {}  # block -> child not yet reaped
    pipes: dict[int, int] = {}  # block -> read end not yet opened
    try:
        for b in range(1, k):
            child = _fork_block(plan, bounds[b], bounds[b + 1])
            if child is not None:
                pids[b], pipes[b] = child
        total = Counter(plan.runs(0, bounds[1]))
        for b in range(1, k):
            block = None
            if b in pids:
                block = _read_block(pipes.pop(b))
                if os.waitpid(pids[b], 0)[1] != 0:
                    block = None
                del pids[b]
            if block is None:
                total.update(plan.runs(bounds[b], bounds[b + 1]))
                continue
            # a record already counted keeps its first object: the dict
            # keeps the key it holds, and the loaded copy is dropped
            for blob, n in zip(*block):
                total[marshal.loads(blob)] += n
        return total
    finally:
        for read_fd in pipes.values():
            os.close(read_fd)
        for pid in pids.values():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


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
    bad = sorted(str(key) for key, law in laws.items() if not verify_rsbs(law).valid)
    return {
        "transcript_laws": len(laws),
        "rsbs_valid": len(laws) - len(bad),
        "rsbs_violations": bad,
    }


def run_simulation(cfg: ExperimentConfig) -> Report:
    """Execute one configured experiment end to end.

    The phases run in order: the config and the plan's header, the bound
    dashboard, the plan's exact section (``ProtocolPlan.exact``), the
    trials and their checks, the eavesdropper view, the status. trials = 0
    produces a bounds-only report. Exact enumeration sections are attached
    whenever the alphabet is small enough (at most 8 symbols a side);
    Monte Carlo estimates always carry their intervals and are compared to
    every applicable bound line.
    """
    plan = cfg.plan()
    source = plan.source
    data: dict[str, Any] = {"config": cfg.to_dict(), "methodology": METHODOLOGY, **plan.header}
    data["bounds"] = bounds_dashboard(source, cfg.m)
    conv = next(ln["value"] for ln in data["bounds"]["lines"] if ln["kind"] == "converse")
    sides = (source,) if isinstance(source, Pmf) else (source.x_labels, source.y_labels)
    small = all(len(side) <= 8 for side in sides)
    exact: dict[str, Any] = {}
    checks: list[dict] = []
    (error_label, error_bound), (length_label, length_bound) = plan.exact(
        small, data, exact, checks
    )

    if cfg.trials > 0:
        # counted run records: memory grows with distinct records, not trials
        runs = count_runs(plan)
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
        vacuous = length_bound is None or length_bound <= 0
        checks.append(_check(length_label, ell_iv, length_bound, "ge", vacuous=vacuous))
        checks.append(_check("measured length <= I(X;Y) + log2 3 + 1", ell_iv, conv, "le"))
        # the view runs the fairness tests on these same (transcript, ideal) samples
        view = eavesdropper_view(runs)
        data["fairness"] = view["fairness"]
        data["eavesdropper"] = view

    if exact:
        data["exact"] = exact
    data["checks"] = checks
    data["status"] = "bound-violated" if any(c["status"] == "fail" for c in checks) else "ok"
    return Report(data)
