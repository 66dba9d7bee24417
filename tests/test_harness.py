import math
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from stopkey import formats, harness
from stopkey.errors import InvariantError, ValidationError
from stopkey.harness import (
    METHODOLOGY,
    Z99,
    ExperimentConfig,
    ProtocolPlan,
    Report,
    _check,
    bounds_dashboard,
    chi_square_pvalue,
    eavesdropper_view,
    fairness_test,
    huffman_expected_length,
    mean_interval,
    parse_reconciler,
    resolve_hash,
    run_simulation,
    transcript_label,
    wilson_interval,
)
from stopkey.common import KeyAgreeEngine, exact_common_law
from stopkey.keylaws import law_from_codebook, simulate_stopped_key, stopping_rule_of
from stopkey.probability import JointPmf, Pmf
from stopkey.randomsource import RandomSource
from stopkey.reconciled import (
    ConstantReconciler,
    HashFunction,
    IdentityReconciler,
    OneWayHashReconciler,
)

from conftest import (
    CORPUS,
    CORRELATED_3,
    WORKED_JOINT,
    count_seeding,
    diag_joint,
    joint,
    pmf,
    product_joint,
    random_rational_pmf,
)


class TestIntervals:
    def test_wilson_brackets_the_point_estimate(self):
        for k, n in ((0, 50), (3, 50), (25, 50), (50, 50)):
            lo, hi = wilson_interval(k, n)
            assert 0.0 <= lo <= k / n <= hi <= 1.0

    def test_wilson_endpoints(self):
        for n in range(1, 20001):
            assert wilson_interval(0, n)[0] == 0.0, n
            assert wilson_interval(n, n)[1] == 1.0, n

    def test_wilson_complement_symmetry(self):
        lo, hi = wilson_interval(7, 40)
        clo, chi = wilson_interval(33, 40)
        assert lo == pytest.approx(1.0 - chi)
        assert hi == pytest.approx(1.0 - clo)

    def test_wilson_narrows_with_samples(self):
        w1 = wilson_interval(10, 100)
        w2 = wilson_interval(100, 1000)
        assert w2[1] - w2[0] < w1[1] - w1[0]

    def test_wilson_validation(self):
        with pytest.raises(ValidationError):
            wilson_interval(1, 0)
        with pytest.raises(ValidationError):
            wilson_interval(5, 4)
        with pytest.raises(ValidationError):
            wilson_interval(-1, 4)

    def test_mean_interval_on_constant_samples(self):
        assert mean_interval([2.5]) == (2.5, 2.5)
        lo, hi = mean_interval([1.0, 1.0, 1.0, 1.0])
        assert lo == hi == 1.0

    def test_mean_interval_width(self):
        samples = [0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0]
        lo, hi = mean_interval(samples)
        n = len(samples)
        sd = math.sqrt(sum((v - 0.5) ** 2 for v in samples) / (n - 1))
        assert hi - lo == pytest.approx(2 * Z99 * sd / math.sqrt(n))
        assert (lo + hi) / 2 == pytest.approx(0.5)

    def test_mean_interval_flips_under_negation(self):
        samples = [0.5, 1.5, 2.0, 0.25]
        lo, hi = mean_interval(samples)
        nlo, nhi = mean_interval([-v for v in samples])
        assert nlo == pytest.approx(-hi)
        assert nhi == pytest.approx(-lo)

    def test_mean_interval_validation(self):
        with pytest.raises(ValidationError):
            mean_interval([])
        with pytest.raises(ValidationError):
            mean_interval(Counter())

    def test_mean_interval_of_counted_samples(self):
        rng = RandomSource("mean-counter")
        # few distinct non-integer values, each repeated, in a scrambled order
        values = [0.1, 1 / 3, 2.7182818, 1e-9, 12.5]
        samples = [values[rng.randrange(len(values))] for _ in range(1000)]
        assert mean_interval(Counter(samples)) == mean_interval(samples)
        assert mean_interval(Counter([0.3])) == mean_interval([0.3]) == (0.3, 0.3)

    def test_chi_square_reference_points(self):
        assert chi_square_pvalue(0.0) == 1.0
        assert chi_square_pvalue(3.841458820694124) == pytest.approx(0.05)
        assert chi_square_pvalue(6.634896601021213) == pytest.approx(0.01)
        with pytest.raises(ValidationError):
            chi_square_pvalue(-0.1)


class TestHuffmanBaseline:
    def test_known_codes(self):
        assert huffman_expected_length(CORPUS["uniform3"]) == Fraction(5, 3)
        assert huffman_expected_length(CORPUS["dyadic3"]) == Fraction(3, 2)
        assert huffman_expected_length(CORPUS["uniform2"]) == 1
        assert huffman_expected_length(CORPUS["tenths"]) == Fraction(19, 10)

    def test_degenerate_sources_cost_nothing(self):
        assert huffman_expected_length(CORPUS["point"]) == 0
        assert huffman_expected_length(pmf("1", "0")) == 0


class TestFairness:
    def test_biased_first_bit_is_flagged(self):
        samples = [("t", "0")] * 200
        rep = fairness_test(samples)
        assert not rep["vacuous"]
        assert len(rep["flags"]) == 1
        flag = rep["flags"][0]
        assert flag["prefix"] == ""
        assert flag["zeros"] == 200 and flag["ones"] == 0

    def test_empty_keys_are_vacuous(self):
        rep = fairness_test([("t", "")] * 50)
        assert rep["vacuous"]
        assert rep["tests"] == 0 and rep["flags"] == []
        assert rep["vacuous"] is True

    def test_balanced_bits_pass(self):
        samples = [("t", "0")] * 100 + [("t", "1")] * 100
        rep = fairness_test(samples)
        assert not rep["flags"]

    def test_sampled_stopped_keys_pass(self):
        law = law_from_codebook(("0", "10", "110", "111"))
        rule = stopping_rule_of(law)
        rng = RandomSource("fairness-sim")
        samples = [((), simulate_stopped_key(rule, rng)) for _ in range(20000)]
        rep = fairness_test(samples)
        assert not rep["flags"]

    def test_bonferroni_adjustment(self):
        samples = [("a", "00"), ("a", "01"), ("b", "1")]
        rep = fairness_test(samples)
        # cells: (a, ""), (a, "0"), (b, "")
        assert rep["tests"] == 3
        assert rep["adjusted_alpha"] == pytest.approx(0.01 / 3)

    def test_grouping_by_transcript_value(self):
        # same prefix, different transcripts: tested separately
        samples = [(("x",), "0")] * 30 + [(("y",), "1")] * 30
        rep = fairness_test([(transcript_label(()), k) for _, k in samples[:30]])
        assert rep["tests"] == 1

    def test_empty_sample_set_rejected(self):
        with pytest.raises(ValidationError):
            fairness_test([])
        with pytest.raises(ValidationError):
            fairness_test(Counter())

    def test_counted_samples_match_the_list(self):
        rng = RandomSource("fairness-counter")
        samples = [
            (f"t{rng.randrange(3)}", format(rng.randrange(8), "03b")[: rng.randrange(4)])
            for _ in range(500)
        ]
        assert fairness_test(Counter(samples)) == fairness_test(samples)


class TestBoundsDashboard:
    def test_identical_uniform_source(self):
        j = diag_joint(pmf(*(["1/8"] * 8)))
        d = bounds_dashboard(j, 1)
        assert d["mutual_information"] == 3.0
        assert d["p_agree"] == "1"
        lines = {l["label"]: l for l in d["lines"]}
        conv = lines["length converse: I(X;Y) + log2 3 + 1"]
        assert conv["value"] == pytest.approx(3 + math.log2(3) + 1)
        hash_line = lines["hash-check guarantee: p (H(X|X=Y) - log2 m - 2)"]
        assert hash_line["value"] == pytest.approx(1.0)
        assert "vacuous" not in hash_line
        common = lines[
            "common-source length: H(X|X=Y) - 2 (exact guarantee at p = 1)"
        ]
        assert common["kind"] == "achievable"
        assert common["value"] == pytest.approx(1.0)

    def test_independent_source_has_only_vacuous_achievability(self):
        j = product_joint(CORPUS["uniform2"], CORPUS["uniform2"])
        d = bounds_dashboard(j, 2)
        assert d["mutual_information"] == 0.0
        for line in d["lines"]:
            if line["kind"] in ("achievable", "comparison", "reference"):
                if line["label"].startswith("length converse"):
                    continue
                assert line.get("vacuous") is True, line

    def test_partial_agreement_marks_common_line_as_reference(self):
        d = bounds_dashboard(WORKED_JOINT, 2)
        line = next(
            l for l in d["lines"] if l["label"].startswith("common-source")
        )
        assert line["kind"] == "reference"

    def test_never_agreeing_source_skips_conditional_lines(self):
        j = product_joint(pmf("1", "0"), pmf("0", "1"))
        d = bounds_dashboard(j, 2)
        assert d["conditional_entropy"] is None
        assert d["kappa"] is None
        kinds = [l["kind"] for l in d["lines"]]
        assert kinds == ["converse", "reference"]

    def test_bucket_count_validated(self):
        with pytest.raises(ValidationError):
            bounds_dashboard(WORKED_JOINT, 0)

    def test_pmf_is_its_own_diagonal_source(self):
        rng = RandomSource("dashboard-diagonal")
        sources = list(CORPUS.values())
        sources += [random_rational_pmf(rng.substream(i), 12) for i in range(100)]
        for p in sources:
            for m in (1, 3):
                # float ==, not approx: the same terms in the same order
                assert bounds_dashboard(p, m) == bounds_dashboard(diag_joint(p), m), p

    def test_wide_pmf_builds_no_joint(self, monkeypatch):
        n = 1000
        p = Pmf.from_masses(Fraction(2 * w, n * (n + 1)) for w in range(1, n + 1))
        built = []
        raw = JointPmf.__post_init__

        def counting(self):
            built.append(1)
            raw(self)

        monkeypatch.setattr(JointPmf, "__post_init__", counting)
        d = bounds_dashboard(p, 2)
        assert built == []
        assert d["p_agree"] == "1"
        assert d["mutual_information"] == d["conditional_entropy"]


class TestEavesdropper:
    RUNS = [
        (
            (("alice", "hash", 1), ("bob", "round", 2)),
            "01",
            "01",
            "01",
        ),
        ((("alice", "hash", 1), ("bob", "error", "e")), "", "", ""),
    ]

    def test_clean_log_summary(self):
        doc = eavesdropper_view(self.RUNS)
        assert doc["runs"] == 2
        assert doc["messages"] == 4
        assert doc["distinct_transcripts"] == 2
        assert doc["leak_check"] == "clean"

    def test_integer_payloads_never_compared_to_keys(self):
        # round index 1 printed as a digit is not the bitstring "1"
        runs = [((("alice", "round", 1),), "1", "1", "1")]
        assert eavesdropper_view(runs)["leak_check"] == "clean"

    def test_string_payload_matching_a_key_is_fatal(self):
        runs = [((("alice", "note", "01"),), "01", "01", "01")]
        with pytest.raises(InvariantError, match="equals a party's key"):
            eavesdropper_view(runs)

    def test_error_symbol_is_not_a_key(self):
        runs = [((("bob", "error", "e"),), "", "", "")]
        assert eavesdropper_view(runs)["leak_check"] == "clean"

    def test_empty_log_rejected(self):
        with pytest.raises(ValidationError):
            eavesdropper_view([])

    def test_malformed_record_rejected(self):
        with pytest.raises(ValidationError, match="malformed"):
            eavesdropper_view([("only-two", "fields")])

    def test_fairness_section_attached(self):
        doc = eavesdropper_view(self.RUNS)
        assert doc["fairness"]["tests"] >= 1

    def test_unhashable_record_rejected(self):
        with pytest.raises(ValidationError, match="malformed run record"):
            eavesdropper_view([["only-two", "fields"]])

    def test_counted_runs_match_the_list(self):
        runs = self.RUNS * 3 + [((("alice", "round", 3),), "1", "1", "1")] + self.RUNS
        assert eavesdropper_view(Counter(runs)) == eavesdropper_view(runs)
        assert eavesdropper_view(Counter(runs))["runs"] == 9

    def test_leak_check_names_the_first_offending_run(self):
        # "10" is a key only in the last run; the first run already shows it
        runs = [
            ((("alice", "note", "10"),), "", "", ""),
            ((("alice", "round", 1),), "01", "01", "01"),
            ((("alice", "note", "01"),), "", "", ""),
            ((("alice", "note", "10"),), "", "", ""),
            ((("bob", "round", 2),), "10", "10", "10"),
        ]
        for log, first in ((runs, "10"), (runs[1:], "01"), (runs[3:] + runs, "10")):
            for view in (log, Counter(log)):
                with pytest.raises(InvariantError, match=f"alice:note='{first}'"):
                    eavesdropper_view(view)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValidationError):
            ExperimentConfig(protocol="quantum", source_path="x")
        with pytest.raises(ValidationError):
            ExperimentConfig(protocol="common")
        with pytest.raises(ValidationError):
            ExperimentConfig(
                protocol="common", source_path="x", source_doc={"pmf": []}
            )
        with pytest.raises(ValidationError):
            ExperimentConfig(protocol="common", source_path="x", m=0)
        with pytest.raises(ValidationError):
            ExperimentConfig(protocol="common", source_path="x", w_max=0)
        with pytest.raises(ValidationError):
            ExperimentConfig(protocol="common", source_path="x", trials=-1)

    @pytest.mark.parametrize(
        "protocol, option",
        [
            ("common", {"hash_spec": "random:1"}),
            ("correlated", {"hash_spec": "fixed:nope.json"}),
            ("common", {"reconciler": "hashmap:3"}),
            ("almost", {"reconciler": "identity"}),
        ],
    )
    def test_options_the_protocol_does_not_use(self, protocol, option):
        with pytest.raises(ValidationError, match="applies only"):
            ExperimentConfig(protocol=protocol, source_path="x", **option)


class TestPlan:
    @pytest.mark.parametrize(
        "protocol, source",
        [
            ("common", WORKED_JOINT),
            ("almost", CORPUS["tenths"]),
            ("correlated", CORPUS["tenths"]),
        ],
    )
    def test_wrong_source_kind_names_the_protocol(self, protocol, source):
        doc = (
            formats.pmf_document(source)
            if isinstance(source, Pmf)
            else formats.joint_document(source)
        )
        cfg = ExperimentConfig(protocol=protocol, source_doc=doc)
        with pytest.raises(ValidationError, match=f"^{protocol} protocol takes"):
            ProtocolPlan(cfg, source)
        with pytest.raises(ValidationError, match=f"^{protocol} protocol takes"):
            cfg.plan()

    def test_plan_plays_the_configured_trials(self):
        cfg = ExperimentConfig(
            protocol="correlated",
            source_doc=formats.joint_document(CORRELATED_3),
            m=2,
            trials=7,
            seed=3,
        )
        plan = cfg.plan()
        assert plan.header == {"reconciler": "identity"}
        assert len(list(plan.runs())) == 7
        assert list(plan.runs()) == list(cfg.plan().runs())

    def test_a_two_stage_trial_derives_three_substreams(self, monkeypatch):
        cfg = ExperimentConfig(
            protocol="correlated",
            source_doc=formats.joint_document(CORRELATED_3),
            m=2,
            trials=20,
            reconciler="hashmap:1",
        )
        plan = cfg.plan()
        warm = list(plan.runs())  # builds the sketch table and the stage caches
        derived = []
        raw = RandomSource.substream

        def counting(self, *labels):
            derived.append(labels)
            return raw(self, *labels)

        monkeypatch.setattr(RandomSource, "substream", counting)
        assert list(plan.runs()) == warm
        # the trial stream, then "source" and "stage2" within it
        assert len(derived) == 3 * 20

    @pytest.mark.parametrize(
        "protocol, doc, options",
        [
            ("common", formats.pmf_document(CORPUS["tenths"]), {}),
            ("correlated", formats.joint_document(CORRELATED_3), {"reconciler": "hashmap:1", "m": 2}),
        ],
        ids=["common", "two-stage"],
    )
    def test_a_trial_seeds_only_the_streams_it_reads(self, protocol, doc, options, monkeypatch):
        plan = ExperimentConfig(protocol=protocol, source_doc=doc, trials=40, **options).plan()
        warm = list(plan.runs())  # builds the sketch table and the stage caches
        built = count_seeding(monkeypatch)
        per_trial = []
        runs = []
        for run in plan.runs():
            per_trial.append(len(built) - sum(per_trial))
            runs.append(run)
        assert runs == warm
        # a common trial reads "source" and "alice"; a two-stage trial reads
        # "source", and "stage2" only when Bob draws a round; no trial's parent
        if protocol == "common":
            assert per_trial == [2] * 40
        else:
            assert max(per_trial) == 2 and min(per_trial) >= 1

    def test_an_empty_reconciler_spec_is_not_the_default(self):
        cfg = ExperimentConfig(
            protocol="correlated",
            source_doc=formats.joint_document(CORRELATED_3),
            reconciler="",
        )
        with pytest.raises(ValidationError, match="unknown reconciler"):
            cfg.plan()


class TestCheckLogic:
    def test_ge_fails_only_when_entirely_below(self):
        assert _check("l", (0.5, 1.5), 1.0, "ge")["status"] == "pass"
        assert _check("l", (1.2, 1.5), 1.0, "ge")["status"] == "pass"
        assert _check("l", (0.5, 0.9), 1.0, "ge")["status"] == "fail"

    def test_le_fails_only_when_entirely_above(self):
        assert _check("l", (0.5, 1.5), 1.0, "le")["status"] == "pass"
        assert _check("l", (1.2, 1.5), 1.0, "le")["status"] == "fail"

    def test_vacuous_paths(self):
        assert _check("l", (0.0, 1.0), 1.0, "ge", vacuous=True)["status"] == "vacuous"
        assert _check("l", None, 1.0, "ge")["status"] == "vacuous"
        assert _check("l", (0.0, 1.0), None, "ge")["status"] == "vacuous"

    def test_unknown_direction(self):
        with pytest.raises(ValidationError):
            _check("l", (0.0, 1.0), 0.5, "eq")


class TestSpecs:
    def test_reconciler_specs(self):
        assert isinstance(parse_reconciler("identity", 0), IdentityReconciler)
        assert isinstance(parse_reconciler("constant", 0), ConstantReconciler)
        r = parse_reconciler("hashmap:3", 0)
        assert isinstance(r, OneWayHashReconciler)
        assert r.bits == 3
        with pytest.raises(ValidationError):
            parse_reconciler("hashmap:x", 0)
        with pytest.raises(ValidationError):
            parse_reconciler("osmosis", 0)

    def test_hash_spec_default_is_derandomized(self):
        mode, table, seed = resolve_hash(None, WORKED_JOINT, 2)
        assert mode == "derandomized"
        assert table is not None and seed is None

    def test_hash_spec_fixed_file(self, tmp_path):
        path = str(tmp_path / "h.json")
        formats.write_document(
            formats.hash_function_document(HashFunction(("0", "1"), (1, 2), 2)),
            path,
        )
        mode, table, seed = resolve_hash(f"fixed:{path}", WORKED_JOINT, 2)
        assert mode == "fixed" and table("0") == 1

    def test_hash_spec_fixed_file_must_cover_alphabet(self, tmp_path):
        path = str(tmp_path / "h.json")
        formats.write_document(
            formats.hash_function_document(HashFunction(("0",), (1,), 2)), path
        )
        with pytest.raises(ValidationError):
            resolve_hash(f"fixed:{path}", WORKED_JOINT, 2)

    def test_hash_spec_bucket_count_must_match(self, tmp_path):
        path = str(tmp_path / "h.json")
        formats.write_document(
            formats.hash_function_document(HashFunction(("0", "1"), (1, 2), 2)),
            path,
        )
        with pytest.raises(ValidationError, match="m ="):
            resolve_hash(f"fixed:{path}", WORKED_JOINT, 3)

    def test_hash_spec_random(self):
        mode, table, seed = resolve_hash("random:77", WORKED_JOINT, 2)
        assert mode == "random" and table is None and seed == "77"

    def test_unknown_hash_spec(self):
        with pytest.raises(ValidationError):
            resolve_hash("sha256", WORKED_JOINT, 2)


def _common_cfg(**kw):
    base = dict(
        protocol="common",
        source_doc=formats.pmf_document(CORPUS["tenths"]),
        trials=300,
        seed=11,
        w_max=20,
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestRunSimulation:
    def test_bounds_only_report(self):
        rep = run_simulation(_common_cfg(trials=0))
        assert "estimates" not in rep.data
        assert rep.data["status"] == "ok"
        exact = rep.data["exact"]
        assert exact["rsbs_violations"] == []
        assert exact["huffman_baseline"] == pytest.approx(1.9)
        assert not rep.violated

    def test_common_simulation_is_error_free(self):
        rep = run_simulation(_common_cfg())
        est = rep.data["estimates"]
        assert est["errors"] == 0
        labels = {c["label"]: c["status"] for c in rep.checks}
        assert labels["measured error = 0"] == "pass"
        assert (
            labels["enumerated E|K| >= H(X) - 2 (within truncation slack)"]
            == "vacuous"
        )
        assert rep.data["status"] == "ok"

    def test_fairness_tests_run_once_per_report(self, monkeypatch):
        calls = []

        def counted(samples):
            calls.append(Counter(samples).total())
            return fairness_test(samples)

        monkeypatch.setattr(harness, "fairness_test", counted)
        rep = run_simulation(_common_cfg())
        assert calls == [300]
        assert rep.data["fairness"] == rep.data["eavesdropper"]["fairness"]

    @pytest.mark.parametrize(
        "doc, extra, sizes",
        [
            (formats.pmf_document(CORPUS["tenths"]), {}, (500, 5000)),
            (
                formats.joint_document(CORRELATED_3),
                {"protocol": "correlated", "m": 2, "reconciler": "hashmap:1"},
                (200, 2000),
            ),
        ],
        ids=["common", "correlated"],
    )
    def test_peak_memory_does_not_grow_with_trials(self, doc, extra, sizes):
        def cfg(trials):
            base = {"protocol": "common", "source_doc": doc, "seed": 7, **extra}
            return ExperimentConfig(trials=trials, **base)

        run_simulation(cfg(sizes[-1]))  # warm the engine and stage caches
        peaks = []
        for trials in sizes:
            tracemalloc.start()
            try:
                run_simulation(cfg(trials))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # a stored list of 10x more runs would add about 390 B per trial
        assert peaks[1] - peaks[0] < 100_000, peaks

    def test_deep_w_max_is_refused_before_any_round(self, monkeypatch):
        built = []
        raw = KeyAgreeEngine._advance

        def counting(self):
            built.append(1)
            return raw(self)

        monkeypatch.setattr(KeyAgreeEngine, "_advance", counting)
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300)
        fresh = pmf("3/29", "5/29", "7/29", "14/29")
        with pytest.raises(ValidationError, match="exceeds 14284"):
            run_simulation(
                ExperimentConfig(
                    protocol="common", source_doc=formats.pmf_document(fresh), w_max=15000
                )
            )
        with pytest.raises(ValidationError, match="exceeds limit 20000"):
            exact_common_law(fresh, 20001)
        assert built == []

    def test_reports_are_seed_deterministic(self):
        a = run_simulation(_common_cfg()).to_json()
        b = run_simulation(_common_cfg()).to_json()
        c = run_simulation(_common_cfg(seed=12)).to_json()
        assert a == b
        assert a != c

    def test_source_kind_must_match_protocol(self):
        with pytest.raises(ValidationError, match="single distribution"):
            run_simulation(
                ExperimentConfig(
                    protocol="common",
                    source_doc=formats.joint_document(WORKED_JOINT),
                )
            )
        with pytest.raises(ValidationError, match="joint distribution"):
            run_simulation(
                ExperimentConfig(
                    protocol="almost",
                    source_doc=formats.pmf_document(CORPUS["tenths"]),
                )
            )

    def test_almost_derandomized_sections(self):
        cfg = ExperimentConfig(
            protocol="almost",
            source_doc=formats.joint_document(WORKED_JOINT),
            m=2,
            trials=400,
            seed=3,
        )
        rep = run_simulation(cfg)
        assert rep.data["hash_mode"] == "derandomized"
        assert rep.data["hash_table"]["m"] == 2
        exact = rep.data["exact"]
        assert exact["collision_error"] == "0"
        labels = {c["label"]: c["status"] for c in rep.checks}
        assert labels["exact error of this table <= (1 - p)/m"] == "pass"
        assert labels["measured error <= (1 - p)/m"] == "pass"
        assert rep.data["guarantee"]["epsilon"] == "1/8"

    def test_almost_random_small_alphabet_averages_exactly(self):
        cfg = ExperimentConfig(
            protocol="almost",
            source_doc=formats.joint_document(WORKED_JOINT),
            m=2,
            trials=200,
            seed=9,
            hash_spec="random:41",
        )
        rep = run_simulation(cfg)
        assert rep.data["hash_mode"] == "random"
        assert "hash_table" not in rep.data
        exact = rep.data["exact"]
        assert exact["tables"] == 4
        assert exact["mean_collision_error"] == "1/8"

    FIVE_LABELS = joint(
        [
            ["8/40", "1/40", "0", "0", "0"],
            ["0", "8/40", "1/40", "0", "0"],
            ["0", "0", "8/40", "1/40", "0"],
            ["0", "0", "0", "6/40", "1/40"],
            ["1/40", "0", "0", "0", "5/40"],
        ],
        "abcde",
        "abcde",
    )

    def _average_report(self, m):
        cfg = ExperimentConfig(
            protocol="almost",
            source_doc=formats.joint_document(self.FIVE_LABELS),
            m=m,
            trials=0,
            seed=1,
            hash_spec="random:1",
        )
        return run_simulation(cfg)

    def test_averaged_section_is_gated_by_bucket_contents(self):
        # 10**5 tables, 26 bucket contents: the section is attached
        exact = self._average_report(10).data["exact"]
        assert exact["tables"] == 10**5
        assert exact["mean_collision_error"] == "1/80"

    def test_unprintable_table_count_is_an_input_error(self):
        with pytest.raises(ValidationError, match="int-to-str"):
            self._average_report(10**900)

    def test_correlated_pipeline_report(self):
        cfg = ExperimentConfig(
            protocol="correlated",
            source_doc=formats.joint_document(WORKED_JOINT),
            m=2,
            trials=300,
            seed=21,
            reconciler="hashmap:1",
        )
        rep = run_simulation(cfg)
        assert rep.data["reconciler"] == "hashmap:1"
        assert "composition_floor" in rep.data
        exact = rep.data["exact"]
        assert exact["rsbs_violations"] == []
        labels = {c["label"]: c["status"] for c in rep.checks}
        assert labels["measured error <= 1/m"] == "pass"
        assert rep.data["status"] == "ok"

    def test_methodology_is_pinned(self):
        rep = run_simulation(_common_cfg(trials=0))
        assert rep.data["methodology"] == METHODOLOGY
        assert "99%" in METHODOLOGY


class TestReportRendering:
    def test_text_render_carries_checks_and_status(self):
        rep = run_simulation(_common_cfg())
        text = rep.render_text()
        assert text.startswith("== stopkey report ==")
        assert "[pass] measured error = 0: observed" in text
        assert "status: ok" in text
        assert "-- estimates --" in text

    def test_failed_check_renders_with_both_numbers(self):
        rep = Report(
            {
                "config": {},
                "checks": [
                    {
                        "label": "demo bound",
                        "status": "fail",
                        "observed": [1.25, 1.5],
                        "bound": 1.0,
                        "direction": "le",
                    }
                ],
                "status": "bound-violated",
            }
        )
        assert rep.violated
        text = rep.render_text()
        assert "[fail] demo bound: observed [1.25, 1.5] vs bound 1" in text
        assert "status: bound-violated" in text

    def test_structured_render_is_valid_json(self):
        import json

        rep = run_simulation(_common_cfg(trials=0))
        doc = json.loads(rep.to_json())
        assert doc["config"]["protocol"] == "common"
        assert "out" not in doc["config"]
