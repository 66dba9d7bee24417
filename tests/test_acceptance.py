"""Release acceptance runs, one test per shipped guarantee.

Each test exercises a promise at its stated tolerance and prints a
one-line verdict, so `pytest -v` on this file reads as a checklist.
The trial counts (10**6 where stated) are part of the contract, not a
style choice; this file is expected to dominate the suite's runtime.

Statistical checks follow the reporting convention used everywhere
else: two-sided 99% intervals, and a bound counts as violated only
when the entire interval sits on the wrong side. Exact checks use
rational arithmetic and zero tolerance.
"""

import math
import time
from dataclasses import replace
from fractions import Fraction

from stopkey.common import KeyAgreeEngine, engine_for, exact_common_law
from stopkey.dyadic import KnuthYaoSampler
from stopkey.harness import ExperimentConfig, mean_interval, run_simulation, wilson_interval
from stopkey.keylaws import (
    ErrorLengthPair,
    compose_error_length,
    concat_laws,
    converse_bound,
    law_from_codebook,
    pointwise_mass_bound,
    verify_rsbs,
)
from stopkey.probability import Pmf, agreement_stats, entropy
from stopkey.randomsource import RandomSource
from stopkey.reconciled import (
    HashFunction,
    IdentityReconciler,
    OneWayHashReconciler,
    almost_common_bounds,
    almost_common_keygen,
    analyze_almost_common,
    average_almost_common,
    derandomize_hash,
    reconciler_stats,
    correlated_keygen,
    sample_joint,
    union_alphabet,
)

from conftest import (
    CORPUS,
    CORRELATED_3,
    FOUR_SYMBOL,
    diag_joint,
    dyadic_exponent,
    joint,
    pmf,
    random_rational_pmf,
)
from documents import pmf_document
from test_keylaws import random_dyadic_rule_law, random_full_codebook

TAIL_SLACK_30 = 30 * 2.0**-30


def verdict(label: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {label}"
    if detail:
        line += f": {detail}"
    print(line)
    assert ok, line


def acceptance_sources() -> list[Pmf]:
    rng = RandomSource("acceptance-sources")
    extra = [random_rational_pmf(rng) for _ in range(8)]
    return list(CORPUS.values()) + extra


def test_zero_error_over_a_million_seeded_trials_under_a_minute():
    # support 8, deliberately non-dyadic
    p = Pmf.from_masses(tuple(Fraction(w, 36) for w in range(1, 9)))
    eng = engine_for(p)
    sampler = KnuthYaoSampler(p)
    rng = RandomSource("acceptance-1")
    source = rng.substream("source")
    draws = rng.substream("alice")
    n = 10**6
    errors = 0
    start = time.perf_counter()
    for _ in range(n):
        x, _ = sampler.sample(source)
        key_a, w = eng.alice(x, draws)
        if eng.bob(x, w) != key_a:
            errors += 1
    elapsed = time.perf_counter() - start
    verdict(
        "zero-error key agreement, 10^6 seeded trials",
        errors == 0 and elapsed < 60.0,
        f"errors={errors} elapsed={elapsed:.1f}s (limit 60s)",
    )


def test_enumerated_mean_length_meets_entropy_floor_and_round_identity():
    worst = math.inf
    for p in acceptance_sources():
        law = exact_common_law(p, 30)
        # independent tally of the enumerated H(X | W): per-round dyadic
        # conditional entropies are exact integers of bits
        by_rounds = Fraction(0)
        eng = engine_for(p)
        for w in range(1, 31):
            cond = eng.round_conditional(w)
            ent = Fraction(0)
            for m in cond.masses:
                if m > 0:
                    e = dyadic_exponent(m)
                    assert e is not None
                    ent += m * e
            by_rounds += Fraction(1, 1 << w) * ent
        assert law.expected_length == by_rounds
        slack = float(law.expected_length) - (entropy(p) - 2.0)
        worst = min(worst, slack)
        assert slack >= -TAIL_SLACK_30
    verdict(
        "enumerated E[|K|] >= H(X) - 2 and E[|K|] = H(X | W) exactly",
        True,
        f"{len(acceptance_sources())} sources, worst margin {worst:.6f} bits",
    )


def test_every_conditional_key_law_verifies_exactly():
    checked = 0
    for p in acceptance_sources():
        law = exact_common_law(p, 12)
        for w in range(1, 13):
            v = verify_rsbs(law.conditional_key_law(w))
            assert v.valid and not v.violations
            checked += 1
    verdict(
        "conditional key laws are exactly half-stopped at every prefix",
        True,
        f"{checked} round laws, zero tolerance",
    )


def test_decomposition_reconstructs_every_source_exactly_to_depth_forty():
    zero = Fraction(0)
    for p in acceptance_sources():
        e = KeyAgreeEngine(p)
        removed = [zero] * len(p)
        residual_totals = [sum(p.masses, zero)]
        for w in range(1, 41):
            rnd = e.round(w)
            for i in rnd.order:
                removed[i] += Fraction(1, 1 << (w + rnd.length_of(i)))
            for m in e.round_conditional(w).masses:
                assert m == 0 or dyadic_exponent(m) is not None
            residual = e.residual()  # exactly w rounds are built
            # reconstruction identity at every depth, per symbol
            assert all(r + c == m for r, c, m in zip(residual, removed, p.masses))
            residual_totals.append(sum(residual, zero))
        # the split itself lands on half the mass exactly, at every depth
        for before, after in zip(residual_totals, residual_totals[1:]):
            assert before - after == before / 2
    verdict(
        "reconstruction identity exact per symbol through depth 40",
        True,
        f"{len(acceptance_sources())} sources, dyadic conditionals throughout",
    )


def test_five_hundred_random_codebooks_and_concatenations_verify():
    rng = RandomSource("acceptance-5")
    for _ in range(500):
        law = law_from_codebook(tuple(random_full_codebook(rng, max_depth=12)))
        assert verify_rsbs(law).valid
        assert pointwise_mass_bound(law).valid
    for _ in range(500):
        a = random_dyadic_rule_law(rng, max_depth=5)
        b = random_dyadic_rule_law(rng, max_depth=5)
        cat = concat_laws(a, b)
        assert verify_rsbs(cat).valid
        assert pointwise_mass_bound(cat).valid
    verdict(
        "500 random codebooks + 500 random concatenations pass both checks",
        True,
        "exact half-stopping and P(K = k) <= 2^-|k| pointwise",
    )


def test_hash_table_averaging_meets_the_guarantee_exactly():
    cases = 0
    for j in (joint([["1/2", "0"], ["1/4", "1/4"]], "01", "01"), CORRELATED_3, FOUR_SYMBOL):
        p = agreement_stats(j).p
        for m in range(1, 5):
            avg = average_almost_common(j, m)
            bound = (1 - p) / m
            assert avg.collision_error == bound
            assert avg.error_upper <= bound
            pair = almost_common_bounds(j, m)
            assert float(avg.agreed_length) >= pair.ell - TAIL_SLACK_30
            assert float(avg.agreed_length) <= converse_bound(j)
            cases += 1
    # substituting m = ceil(1/eps) reproduces ell = kappa - log2 ceil(1/eps) - 2
    eps = Fraction(1, 4)
    m_sub = math.ceil(Fraction(1) / eps)
    common_source = diag_joint(pmf("1/2", "1/4", "1/8", "1/8"))
    pair = almost_common_bounds(common_source, m_sub)
    kappa = entropy(pmf("1/2", "1/4", "1/8", "1/8"))
    assert pair.epsilon == 0 and pair.epsilon <= eps
    assert pair.ell == kappa - math.log2(m_sub) - 2.0 == -2.25
    verdict(
        "averaged hash tables: disagreement = (1 - p)/m exactly",
        True,
        f"{cases} (source, m) cases plus the m = ceil(1/eps) substitution",
    )


def _agreed(run):
    return run.key_a == run.key_b == run.ideal_key


def _two_stage_trials(j, reconciler, m, n, seed):
    rng = RandomSource(seed)
    errors = 0
    stage1_agree = 0
    lengths = []
    for i in range(n):
        run = correlated_keygen(j, reconciler, m, rng.substream(i))
        if run.m_a == run.m_b:
            stage1_agree += 1
        if _agreed(run):
            lengths.append(float(len(run.key_a)))
        else:
            errors += 1
            lengths.append(0.0)
    return errors, stage1_agree, lengths


def test_measured_lengths_respect_converse_and_composition_floor():
    six = Pmf.from_masses(tuple(Fraction(w, 21) for w in range(1, 7)))
    configs = [
        ("identity/diagonal", diag_joint(six), IdentityReconciler(), 1),
        ("sketch/correlated", CORRELATED_3, OneWayHashReconciler(1, seed="acceptance-7"), 2),
    ]
    n = 10**5
    details = []
    for name, j, rec, m in configs:
        stats = reconciler_stats(j, rec)
        floor = stats.floor(m)
        ceiling = converse_bound(j)
        errors, stage1_agree, lengths = _two_stage_trials(j, rec, m, n, f"acceptance-7-{name}")
        lo, hi = mean_interval(lengths)
        # measured mean length: never entirely above the converse, never
        # entirely below the composition floor
        assert hi < ceiling
        assert not (hi < floor)
        a_lo, a_hi = wilson_interval(stage1_agree, n)
        assert a_lo <= float(stats.p_agree) <= a_hi
        details.append(f"{name}: ell in [{lo:.3f}, {hi:.3f}], floor {floor:.3f}, converse {ceiling:.3f}")
    verdict(
        "measured two-stage lengths obey converse and composition floor",
        True,
        "; ".join(details),
    )


def test_concatenated_runs_match_the_composed_guarantee():
    j1 = diag_joint(CORPUS["tenths"])
    h1 = HashFunction(union_alphabet(j1), (1,) * 4, 1)
    a1 = analyze_almost_common(j1, h1, collect_laws=False)
    pair1 = ErrorLengthPair(a1.error_upper, a1.agreed_length)
    j2 = CORRELATED_3
    h2, _ = derandomize_hash(j2, 2)
    a2 = analyze_almost_common(j2, h2, collect_laws=False)
    pair2 = ErrorLengthPair(a2.error_upper, a2.agreed_length)
    composed = compose_error_length(pair1, pair2)
    # exact in, exact out
    assert isinstance(composed.epsilon, Fraction)
    assert isinstance(composed.ell, Fraction)

    rng = RandomSource("acceptance-8")
    n = 30000
    errors = 0
    lengths = []
    for i in range(n):
        r = rng.substream(i)
        x1, y1 = sample_joint(j1, r.substream("s1"))
        run1 = almost_common_keygen(j1, x1, y1, 1, h1, r.substream("k1"))
        x2, y2 = sample_joint(j2, r.substream("s2"))
        run2 = almost_common_keygen(j2, x2, y2, 2, h2, r.substream("k2"))
        if _agreed(run1) and _agreed(run2):
            lengths.append(float(len(run1.key_a) + len(run2.key_a)))
        else:
            errors += 1
            lengths.append(0.0)
    e_lo, e_hi = wilson_interval(errors, n)
    l_lo, l_hi = mean_interval(lengths)
    eps_ok = not (e_lo > float(composed.epsilon))
    ell_ok = not (l_hi < float(composed.ell))
    verdict(
        "concatenated runs sit inside the composed (eps, ell) guarantee",
        eps_ok and ell_ok,
        f"eps^ in [{e_lo:.4f}, {e_hi:.4f}] vs {float(composed.epsilon):.4f}, "
        f"ell^ in [{l_lo:.3f}, {l_hi:.3f}] vs {float(composed.ell):.3f}",
    )


def test_sampler_mean_bit_cost_within_two_bits_of_entropy():
    p = CORPUS["sevenths"]
    sampler = KnuthYaoSampler(p)
    rng = RandomSource("acceptance-9")
    n = 10**6
    total = 0
    total_sq = 0
    for _ in range(n):
        _, bits = sampler.sample(rng)
        total += bits
        total_sq += bits * bits
    mean = total / n
    var = (total_sq - n * mean * mean) / (n - 1)
    margin = 4.0 * math.sqrt(var / n)
    bound = entropy(p) + 2.0
    verdict(
        "exact sampler spends at most H(p) + 2 fair bits on average",
        mean <= bound + margin,
        f"mean {mean:.4f} vs bound {bound:.4f} (4-sigma margin {margin:.4f}, 10^6 draws)",
    )


def test_reports_reproduce_and_keygen_scales_to_wide_alphabets():
    doc = pmf_document(CORPUS["tenths"])
    cfg = ExperimentConfig(
        protocol="common", source_doc=doc, trials=400, seed=20260822, w_max=20
    )
    first = run_simulation(cfg).to_json()
    second = run_simulation(cfg).to_json()
    assert first == second
    assert run_simulation(replace(cfg, seed=20260823)).to_json() != first

    timings = []
    rng = RandomSource("acceptance-10")
    for size in (10**3, 10**4, 10**5):
        weights = tuple(Fraction(i + 1, size * (size + 1) // 2) for i in range(size))
        p = Pmf.from_masses(weights)
        start = time.perf_counter()
        eng = KeyAgreeEngine(p)
        key, w = eng.alice(size // 2, rng.substream(size))
        timings.append((size, time.perf_counter() - start))
        assert eng.bob(size // 2, w) == key
    widest = timings[-1][1]
    verdict(
        "byte-identical reports per seed, 10^5-symbol keygen under 1s",
        widest < 1.0,
        "timings " + ", ".join(f"|X|=10^{len(str(s)) - 1}: {t:.3f}s" for s, t in timings),
    )
