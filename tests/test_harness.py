import gc
import io
import math
import os
import sys
import threading
import tracemalloc
import weakref
from collections import Counter
from fractions import Fraction

import pytest

from stopkey import formats, harness
from stopkey.errors import InvariantError, ValidationError
from stopkey.harness import (
    METHODOLOGY,
    PLANS,
    Z99,
    ProtocolPlan,
    ExperimentConfig,
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
from stopkey.common import KeyAgreeEngine, _unpack_code, exact_common_law
from stopkey.keylaws import KeyLaw, law_from_codebook, simulate_stopped_key, stopping_rule_of
from stopkey.probability import JointPmf, Pmf
from stopkey.randomsource import RandomSource
from stopkey.reconciled import (
    ConstantReconciler,
    HashFunction,
    IdentityReconciler,
    OneWayHashReconciler,
    almost_common_keygen,
    correlated_keygen,
    sample_joint,
    union_alphabet,
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
    run_threads,
)
from documents import joint_document, pmf_document, write_document


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

    @staticmethod
    def _elementwise_interval(samples) -> tuple[float, float]:
        """mean_interval with one squared deviation per sample."""
        counted = Counter(samples)
        n = counted.total()
        mean = math.fsum(counted.elements()) / n
        if n == 1:
            return mean, mean
        var = math.fsum((v - mean) ** 2 for v in counted.elements()) / (n - 1)
        half = Z99 * math.sqrt(var / n)
        return mean - half, mean + half

    def test_mean_interval_squares_each_distinct_value_once(self):
        rng = RandomSource("mean-terms").generator()
        cases = [[0.3], Counter([0.3]), [1e300], Counter({-2.5: 1})]
        for _ in range(50):
            values = [rng.uniform(-1e3, 1e3) for _ in range(1 + rng.randrange(8))]
            samples = [rng.choice(values) for _ in range(1 + rng.randrange(2000))]
            cases += [samples, Counter(samples)]
        for _ in range(3):
            values = [rng.uniform(0, 60) for _ in range(4)]
            cases.append(Counter({v: 1 + rng.randrange(10**6) for v in values}))
        cases.append(Counter({0.1: 10**6, 1 / 3: 1, 7.0: 10**6}))
        for samples in cases:
            got = tuple(map(float.hex, mean_interval(samples)))
            assert got == tuple(map(float.hex, self._elementwise_interval(samples)))

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


def _round(w: int) -> str:
    """The transcript label of a common run announced at round w."""
    return transcript_label((("alice", "round", w),))


class TestFairness:
    def test_biased_first_bit_is_flagged(self):
        samples = [(_round(1), "0")] * 200
        rep = fairness_test(samples)
        assert not rep["vacuous"]
        assert len(rep["flags"]) == 1
        flag = rep["flags"][0]
        assert flag["transcript"] == "alice:round=1"
        assert flag["prefix"] == ""
        assert flag["zeros"] == 200 and flag["ones"] == 0

    def test_empty_keys_are_vacuous(self):
        rep = fairness_test([(_round(1), "")] * 50)
        assert rep["vacuous"]
        assert rep["tests"] == 0 and rep["flags"] == []
        assert rep["vacuous"] is True

    def test_balanced_bits_pass(self):
        samples = [(_round(1), "0")] * 100 + [(_round(1), "1")] * 100
        rep = fairness_test(samples)
        assert not rep["flags"]

    def test_sampled_stopped_keys_pass(self):
        law = law_from_codebook(("0", "10", "110", "111"))
        rule = stopping_rule_of(law)
        rng = RandomSource("fairness-sim")
        samples = [(transcript_label(()), simulate_stopped_key(rule, rng)) for _ in range(20000)]
        rep = fairness_test(samples)
        assert not rep["flags"]

    def test_bonferroni_adjustment(self):
        samples = [(_round(1), "00"), (_round(1), "01"), (_round(2), "1")]
        rep = fairness_test(samples)
        # cells: (round 1, ""), (round 1, "0"), (round 2, "")
        assert rep["tests"] == 3
        assert rep["adjusted_alpha"] == pytest.approx(0.01 / 3)

    def test_grouping_by_transcript_value(self):
        # same prefix, different transcripts: tested separately
        samples = [(_round(1), "0")] * 30 + [(_round(2), "1")] * 30
        assert fairness_test([(transcript_label(()), k) for _, k in samples])["tests"] == 1
        assert fairness_test(samples)["tests"] == 2

    def test_empty_sample_set_rejected(self):
        with pytest.raises(ValidationError):
            fairness_test([])
        with pytest.raises(ValidationError):
            fairness_test(Counter())

    def test_counted_samples_match_the_list(self):
        rng = RandomSource("fairness-counter")
        samples = [
            (_round(rng.randrange(3)), format(rng.randrange(8), "03b")[: rng.randrange(4)])
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

    @pytest.mark.parametrize(
        "cfg",
        [
            # a common round carries several keys: records outnumber transcripts
            ExperimentConfig(
                protocol="common", source_doc=pmf_document(CORPUS["tenths"]), trials=300
            ),
            ExperimentConfig(
                protocol="correlated",
                source_doc=joint_document(CORRELATED_3),
                m=2,
                trials=500,
                reconciler="hashmap:1",
            ),
        ],
        ids=["common", "correlated"],
    )
    def test_each_distinct_transcript_is_labelled_once(self, cfg, monkeypatch):
        plan = cfg.plan()
        runs = Counter(map(plan.record, plan.runs()))
        transcripts = {t for t, _, _, _ in runs}
        assert len(transcripts) > 1
        want = eavesdropper_view(runs)
        labelled = []
        raw = harness.transcript_label

        def counting(t):
            labelled.append(t)
            return raw(t)

        monkeypatch.setattr(harness, "transcript_label", counting)
        assert eavesdropper_view(runs) == want
        assert sorted(labelled) == sorted(transcripts)
        assert want["distinct_transcripts"] == len(transcripts)

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

    def test_to_dict_lists_every_field_and_copies_the_document(self):
        doc = pmf_document(CORPUS["tenths"])
        cfg = ExperimentConfig(protocol="almost", source_doc=doc, m=3, hash_spec="random:2")
        out = cfg.to_dict()
        assert out == {
            "protocol": "almost", "source_path": None, "source_doc": doc, "m": 3,
            "w_max": 30, "trials": 0, "seed": 0, "reconciler": None, "hash_spec": "random:2",
        }
        assert out["source_doc"] is not doc
        assert ExperimentConfig(protocol="common", source_path="x").to_dict()["source_doc"] is None

    def test_the_config_builds_the_plan_its_protocol_names(self):
        # in the order the CLI lists its --protocol choices
        assert list(PLANS) == ["common", "almost", "correlated"]
        joint = joint_document(WORKED_JOINT)
        docs = {"common": pmf_document(CORPUS["tenths"]), "almost": joint, "correlated": joint}
        for protocol, doc in docs.items():
            plan = ExperimentConfig(protocol=protocol, source_doc=doc).plan()
            assert type(plan) is PLANS[protocol]


class TestPlan:
    def test_every_plan_writes_its_own_exact_section(self):
        cfg = ExperimentConfig(protocol="common", source_doc=pmf_document(CORPUS["tenths"]))
        for cls in PLANS.values():
            assert cls.exact is not ProtocolPlan.exact, cls
        with pytest.raises(NotImplementedError):
            ProtocolPlan(cfg, CORPUS["tenths"]).exact(True, {}, {}, [])

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
            pmf_document(source)
            if isinstance(source, Pmf)
            else joint_document(source)
        )
        cfg = ExperimentConfig(protocol=protocol, source_doc=doc)
        with pytest.raises(ValidationError, match=f"^{protocol} protocol takes"):
            PLANS[protocol](cfg, source)
        with pytest.raises(ValidationError, match=f"^{protocol} protocol takes"):
            cfg.plan()

    def test_plan_plays_the_configured_trials(self):
        cfg = ExperimentConfig(
            protocol="correlated",
            source_doc=joint_document(CORRELATED_3),
            m=2,
            trials=7,
            seed=3,
        )
        plan = cfg.plan()
        assert plan.header == {"reconciler": "identity"}
        assert len(list(plan.runs())) == 7
        assert list(plan.runs()) == list(cfg.plan().runs())

    @pytest.mark.parametrize(
        "options",
        [
            {"protocol": "common", "source_doc": pmf_document(CORPUS["tenths"])},
            {"protocol": "almost"},
            {"protocol": "almost", "hash_spec": "random:5"},
            {"protocol": "correlated"},
            {"protocol": "correlated", "reconciler": "hashmap:1"},
        ],
        ids=["common", "almost", "almost-random", "identity", "sketch"],
    )
    def test_trials_derive_no_substreams(self, options, monkeypatch):
        # a trial's streams come from the run's templates, one formatting
        # each; deriving them through substream took 3 calls a trial, 4 with
        # a random table
        options = {"source_doc": joint_document(CORRELATED_3), "m": 2, **options}
        plan = ExperimentConfig(trials=1000, **options).plan()
        warm = list(plan.runs())  # builds the sketch table and the stage caches
        derived = []
        raw = RandomSource.substream

        def counting(self, *labels):
            derived.append(labels)
            return raw(self, *labels)

        monkeypatch.setattr(RandomSource, "substream", counting)
        assert list(plan.runs()) == warm
        assert derived == []

    def test_a_run_of_no_trials_builds_no_template(self, monkeypatch):
        built = []
        raw = harness.StreamTemplate

        def counting(*args):
            built.append(args[1:])
            return raw(*args)

        monkeypatch.setattr(harness, "StreamTemplate", counting)
        plan = _common_cfg(trials=3).plan()
        assert list(plan.runs(2, 2)) == [] and built == []
        assert len(list(plan.runs())) == 3
        # one template a leaf, for the run's three trials
        assert built == [("trial", "source"), ("trial", "alice")]

    def test_an_aborted_trial_seeds_only_its_source_stream(self, monkeypatch):
        cfg = ExperimentConfig(
            protocol="correlated",
            source_doc=joint_document(CORRELATED_3),
            m=2,
            trials=300,
            reconciler="hashmap:1",
        )
        plan = cfg.plan()
        runs = list(map(plan.record, plan.runs()))
        aborted = {i for i, run in enumerate(runs) if run[0][-1][1] == "error"}
        assert 0 < len(aborted) < len(runs)
        built = count_seeding(monkeypatch)
        run_simulation(cfg)  # 300 trials play in one block, in this process
        seeded = Counter(material for (material,) in built)
        for i in range(cfg.trials):
            assert seeded[repr((cfg.seed, ("trial", str(i), "source"))).encode()] == 1
            assert seeded[repr((cfg.seed, ("trial", str(i), "stage2"))).encode()] == (i not in aborted)
        # and the sketch table's one stream per x label
        assert sum(seeded.values()) == 2 * cfg.trials - len(aborted) + len(CORRELATED_3.x_labels)

    @pytest.mark.parametrize(
        "protocol, doc, options",
        [
            ("common", pmf_document(CORPUS["tenths"]), {}),
            ("correlated", joint_document(CORRELATED_3), {"reconciler": "hashmap:1", "m": 2}),
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

    @pytest.mark.parametrize(
        "options",
        [
            {"protocol": "correlated", "reconciler": "hashmap:1"},
            {"protocol": "correlated"},
            {"protocol": "almost"},
            {"protocol": "almost", "hash_spec": "random:5"},
        ],
        ids=["sketch", "identity", "almost-fixed", "almost-random"],
    )
    def test_trials_replay_the_keygen_calls(self, options):
        # a plan decides each source cell once; the keygen calls decide on
        # every call, from the same substreams
        cfg = ExperimentConfig(
            source_doc=joint_document(CORRELATED_3), m=2, trials=300, seed=11, **options
        )
        plan = cfg.plan()
        root = RandomSource(cfg.seed)
        want = []
        for i in range(cfg.trials):
            sub = root.substream("trial", i)
            if cfg.protocol == "correlated":
                r = parse_reconciler(cfg.reconciler or "identity", cfg.seed)
                run = correlated_keygen(plan.source, r, 2, sub)
            else:
                h = plan.table or HashFunction.random(
                    union_alphabet(plan.source), 2, RandomSource("5").substream("table", i)
                )
                x, y = sample_joint(plan.source, sub.substream("source"))
                run = almost_common_keygen(plan.source, x, y, 2, h, sub.substream("keys"))
            want.append((run.transcript, run.key_a, run.key_b, run.ideal_key))
        assert list(map(plan.record, plan.runs())) == want
        assert len({run[0] for run in want}) > 3

    def test_reports_seed_two_generators_per_trial_at_most(self, monkeypatch):
        built = count_seeding(monkeypatch)
        run_simulation(_common_cfg(trials=200))
        # "source" and "alice" in each common trial; nothing else reads a stream
        assert len(built) == 400
        built.clear()
        cfg = ExperimentConfig(
            protocol="correlated",
            source_doc=joint_document(CORRELATED_3),
            m=2,
            trials=200,
            reconciler="hashmap:1",
        )
        run_simulation(cfg)
        # the sketch table seeds one stream per x label; every trial reads
        # "source", and "stage2" only when Bob draws a round
        trials = len(built) - len(CORRELATED_3.x_labels)
        assert 200 < trials <= 400

    @pytest.mark.parametrize(
        "options",
        [
            {"protocol": "common", "source_doc": pmf_document(CORPUS["tenths"])},
            {
                "protocol": "correlated",
                "source_doc": joint_document(CORRELATED_3),
                "m": 2,
                "reconciler": "hashmap:1",
            },
        ],
        ids=["common", "sketch"],
    )
    def test_a_record_is_formatted_once_not_per_trial(self, options, blocks, monkeypatch):
        cfg = ExperimentConfig(trials=5000, seed=23, **options)
        # a first plan derandomizes each stage-two hash, which formats keys
        # of its own, and leaves that in the process-wide caches
        list(cfg.plan().runs(0, 500))
        blocks(1)
        formatted = []

        def counting(packed):
            formatted.append(packed)
            return _unpack_code(packed)

        monkeypatch.setattr("stopkey.common._unpack_code", counting)
        monkeypatch.setattr("stopkey.reconciled._unpack_code", counting)
        counts = harness.count_runs(cfg.plan())
        assert counts.total() == 5000
        # counting formats no key: a trial yields its outcome
        assert formatted == []
        raw = harness.count_runs

        def counted(plan):
            formatted.clear()  # the exact section formats keys of its own
            return raw(plan)

        monkeypatch.setattr(harness, "count_runs", counted)
        assert run_simulation(cfg).data["estimates"]["trials"] == 5000
        # a report formats at most two key strings per distinct outcome,
        # however many trials share it
        assert 0 < len(formatted) <= 2 * len(counts) < 5000

    def test_a_report_runs_stage_one_once_per_cell(self, monkeypatch):
        # one block: a forked block decides its cells in its own process
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 1)
        calls = Counter()
        raw = OneWayHashReconciler.run

        def counting(self, j, x, y):
            calls[x, y] += 1
            return raw(self, j, x, y)

        monkeypatch.setattr(OneWayHashReconciler, "run", counting)
        cfg = ExperimentConfig(
            protocol="correlated",
            source_doc=joint_document(CORRELATED_3),
            m=2,
            trials=5000,
            reconciler="hashmap:1",
        )
        assert run_simulation(cfg).data["estimates"]["trials"] == 5000
        cells = {(CORRELATED_3.x_labels[ix], CORRELATED_3.y_labels[iy])
                 for ix, iy, _ in CORRELATED_3.numerator_cells}
        assert set(calls) == cells
        assert max(calls.values()) == 1

    @pytest.mark.parametrize("protocol", ["correlated", "almost"])
    def test_a_report_decides_only_the_cells_it_draws(self, monkeypatch, protocol):
        # 400 positive cells and 3 trials: deciding a cell waits for its draw
        decided = []
        raw = harness.decide

        def counting(j, h, x, y, before=()):
            decided.append((x, y))
            return raw(j, h, x, y, before)

        monkeypatch.setattr(harness, "decide", counting)
        uniform = pmf(*[Fraction(1, 20)] * 20)
        cfg = ExperimentConfig(
            protocol=protocol,
            source_doc=joint_document(product_joint(uniform, uniform)),
            m=2,
            trials=3,
        )
        assert run_simulation(cfg).data["estimates"]["trials"] == 3
        assert 1 <= len(decided) <= 3
        assert len(set(decided)) == len(decided)

    def test_threads_sharing_a_plan_play_the_serial_trials(self):
        cfg = ExperimentConfig(
            protocol="correlated",
            source_doc=joint_document(CORRELATED_3),
            m=2,
            trials=150,
            reconciler="hashmap:1",
        )
        serial = Counter(cfg.plan().runs())
        for _ in range(3):
            plan = cfg.plan()  # fresh: the workers race to decide its cells
            got = []
            assert run_threads(lambda: got.append(Counter(plan.runs()))) == []
            assert got == [serial] * 8

    def test_an_empty_reconciler_spec_is_not_the_default(self):
        cfg = ExperimentConfig(
            protocol="correlated",
            source_doc=joint_document(CORRELATED_3),
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
        assert _check("l", (0.0, 1.0), None, "ge")["status"] == "vacuous"

    def test_unknown_direction(self):
        with pytest.raises(ValidationError):
            _check("l", (0.0, 1.0), 0.5, "eq")


def test_law_section_names_the_laws_that_are_not_randomly_stopped():
    fair = KeyLaw.from_dict({"0": Fraction(1, 2), "1": Fraction(1, 2)})
    # P(first bit = 0) = 3/4: not a randomly stopped fair bit sequence
    biased = KeyLaw.from_dict({"0": Fraction(3, 4), "1": Fraction(1, 4)})
    assert harness._law_section({10: biased, 2: fair, 3: biased}) == {
        "transcript_laws": 3,
        "rsbs_valid": 1,
        "rsbs_violations": ["10", "3"],
    }


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
        write_document(
            formats.hash_function_document(HashFunction(("0", "1"), (1, 2), 2)),
            path,
        )
        mode, table, seed = resolve_hash(f"fixed:{path}", WORKED_JOINT, 2)
        assert mode == "fixed" and table("0") == 1

    def test_hash_spec_fixed_file_must_cover_alphabet(self, tmp_path):
        path = str(tmp_path / "h.json")
        write_document(
            formats.hash_function_document(HashFunction(("0",), (1,), 2)), path
        )
        with pytest.raises(ValidationError):
            resolve_hash(f"fixed:{path}", WORKED_JOINT, 2)

    def test_hash_spec_bucket_count_must_match(self, tmp_path):
        path = str(tmp_path / "h.json")
        write_document(
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
        source_doc=pmf_document(CORPUS["tenths"]),
        trials=300,
        seed=11,
        w_max=20,
    )
    base.update(kw)
    return ExperimentConfig(**base)


@pytest.fixture
def blocks(monkeypatch):
    """``blocks(k)`` makes a report split its trials into k blocks (fewer
    only if it has fewer trials), whatever the host's CPU count."""

    def force(k: int) -> None:
        monkeypatch.setattr(harness, "MIN_BLOCK", 1)
        monkeypatch.setattr(harness, "_usable_cpus", lambda: k)

    return force


@pytest.fixture
def forks(monkeypatch):
    """Every os.fork call the code under test makes from now on."""
    calls = []
    raw = os.fork

    def counting():
        calls.append(1)
        return raw()

    monkeypatch.setattr(os, "fork", counting)
    return calls


def _no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _fill_tuple_free_lists() -> None:
    """Fill CPython's free lists of small tuples (up to 2000 of each size
    below 20).

    A freed tuple parks on its size's list while there is room, and
    tracemalloc counts a parked block as held; with the lists full before
    tracing, a traced peak measures what a run keeps, not how many blocks
    its tuple churn happened to park.
    """
    held = [tuple(range(size)) for size in range(1, 20) for _ in range(2000)]
    del held


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
            (pmf_document(CORPUS["tenths"]), {}, (500, 5000)),
            (
                joint_document(CORRELATED_3),
                {"protocol": "correlated", "m": 2, "reconciler": "hashmap:1"},
                (200, 2000),
            ),
        ],
        ids=["common", "correlated"],
    )
    def test_peak_memory_does_not_grow_with_trials(self, doc, extra, sizes, blocks):
        def cfg(trials):
            base = {"protocol": "common", "source_doc": doc, "seed": 7, **extra}
            return ExperimentConfig(trials=trials, **base)

        for k in (1, 2):  # serial, then with a forked second block
            blocks(k)
            run_simulation(cfg(sizes[-1]))  # warm the engine and stage caches
            peaks = []
            for trials in sizes:
                _fill_tuple_free_lists()
                tracemalloc.start()
                try:
                    run_simulation(cfg(trials))
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            # a stored list of 10x more runs would add about 390 B per trial
            assert peaks[1] - peaks[0] < 100_000, (k, peaks)

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
                    protocol="common", source_doc=pmf_document(fresh), w_max=15000
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
                    source_doc=joint_document(WORKED_JOINT),
                )
            )
        with pytest.raises(ValidationError, match="joint distribution"):
            run_simulation(
                ExperimentConfig(
                    protocol="almost",
                    source_doc=pmf_document(CORPUS["tenths"]),
                )
            )

    def test_almost_derandomized_sections(self):
        cfg = ExperimentConfig(
            protocol="almost",
            source_doc=joint_document(WORKED_JOINT),
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
            source_doc=joint_document(WORKED_JOINT),
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
            source_doc=joint_document(self.FIVE_LABELS),
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
            source_doc=joint_document(WORKED_JOINT),
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


# 301 trials: no block count from 2 to 4 divides them
BLOCK_CONFIGS = {
    "common": {"protocol": "common", "source": CORPUS["tenths"]},
    "almost-fixed": {"protocol": "almost", "m": 2, "hash_spec": "fixed"},
    "almost-random": {"protocol": "almost", "m": 2, "hash_spec": "random:5"},
    "identity": {"protocol": "correlated", "m": 2},
    "sketch": {"protocol": "correlated", "m": 2, "reconciler": "hashmap:1"},
}


def _block_cfg(name: str, tmp_path, trials: int = 301) -> ExperimentConfig:
    options = dict(BLOCK_CONFIGS[name])
    source = options.pop("source", CORRELATED_3)
    if options.get("hash_spec") == "fixed":
        path = str(tmp_path / "table.json")
        table = HashFunction(union_alphabet(source), (1, 2, 1), 2)
        write_document(formats.hash_function_document(table), path)
        options["hash_spec"] = f"fixed:{path}"
    doc = pmf_document(source) if isinstance(source, Pmf) else joint_document(source)
    return ExperimentConfig(source_doc=doc, trials=trials, seed=19, **options)


@pytest.mark.parametrize("name", sorted(BLOCK_CONFIGS))
def test_a_played_plan_is_freed_without_the_cycle_collector(name, tmp_path):
    # a plan in a reference cycle would hold its decided cells and samplers
    # until the cyclic collector next runs
    gc.disable()
    try:
        plan = _block_cfg(name, tmp_path, trials=60).plan()
        assert Counter(plan.runs())
        gone = weakref.ref(plan)
        del plan
        assert gone() is None
    finally:
        gc.enable()


class TestTrialBlocks:
    @pytest.mark.parametrize("name", sorted(BLOCK_CONFIGS))
    def test_reports_are_byte_identical_in_any_block_count(self, name, tmp_path, blocks, forks):
        cfg = _block_cfg(name, tmp_path)
        texts = []
        for k in (1, 2, 3, 4):
            blocks(k)
            forks.clear()
            texts.append(run_simulation(cfg).to_json())
            assert len(forks) == k - 1
            _no_child_left()
        assert texts == [texts[0]] * 4
        # the merged records keep the serial first-insertion order, which
        # names the first offending run
        assert list(harness.count_runs(cfg.plan()).items()) == list(Counter(cfg.plan().runs()).items())

    @pytest.mark.parametrize("failing", [{150}, {220}, {150, 220}, {40, 220}], ids=str)
    def test_a_failing_trial_raises_the_serial_error(self, failing, tmp_path, blocks, forks, monkeypatch):
        # three blocks: trials 0-99 here, 100-199 and 200-300 in children
        raw = harness._CommonPlan._trial

        def trial(self, i, sub):
            if i in failing:
                raise InvariantError(f"trial {i} broke")
            return raw(self, i, sub)

        monkeypatch.setattr(harness._CommonPlan, "_trial", trial)
        cfg = _block_cfg("common", tmp_path)
        raised = []
        for k in (1, 3):
            blocks(k)
            forks.clear()
            with pytest.raises(InvariantError) as info:
                run_simulation(cfg)
            raised.append((type(info.value), str(info.value)))
            assert len(forks) == k - 1
            _no_child_left()
        assert raised == [(InvariantError, f"trial {min(failing)} broke")] * 2

    @pytest.mark.parametrize("code", [0, 3], ids=["no-payload", "exit-3"])
    def test_a_block_whose_child_dies_plays_here(self, code, tmp_path, blocks, forks, monkeypatch):
        serial = run_simulation(_block_cfg("common", tmp_path)).to_json()
        parent = os.getpid()
        raw = harness._CommonPlan._trial

        def trial(self, i, sub):
            if os.getpid() != parent:
                os._exit(code)
            return raw(self, i, sub)

        monkeypatch.setattr(harness._CommonPlan, "_trial", trial)
        blocks(3)
        assert run_simulation(_block_cfg("common", tmp_path)).to_json() == serial
        assert len(forks) == 2
        _no_child_left()

    def test_a_block_cut_short_plays_here(self, tmp_path, blocks, forks, monkeypatch):
        # each child writes its full header and half the payload it
        # announces, then exits 0: only the payload's length tells
        serial = run_simulation(_block_cfg("common", tmp_path)).to_json()
        parent = os.getpid()

        class CutPipe(io.FileIO):
            def write(self, data):
                size = int.from_bytes(data[:8], "big")
                return super().write(data[: 8 + size // 2])

        def opening(fd, mode):
            return (CutPipe if os.getpid() != parent else open)(fd, mode)

        read = []
        raw = harness._read_block

        def reading(fd):
            read.append(raw(fd))
            return read[-1]

        monkeypatch.setattr(harness, "open", opening, raising=False)
        monkeypatch.setattr(harness, "_read_block", reading)
        blocks(3)
        assert run_simulation(_block_cfg("common", tmp_path)).to_json() == serial
        assert len(forks) == 2
        assert read == [None, None]
        _no_child_left()

    def test_no_fork_below_the_threshold(self, tmp_path, forks, monkeypatch):
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 4)
        assert harness._block_count(2 * harness.MIN_BLOCK - 1) == 1
        assert harness._block_count(2 * harness.MIN_BLOCK) == 2
        assert harness._block_count(100 * harness.MIN_BLOCK) == 4
        run_simulation(_block_cfg("common", tmp_path, trials=2 * harness.MIN_BLOCK - 1))
        assert forks == []

    def test_no_fork_while_another_thread_runs(self, tmp_path, blocks, forks):
        serial = run_simulation(_block_cfg("sketch", tmp_path)).to_json()
        blocks(3)
        stop = threading.Event()
        other = threading.Thread(target=stop.wait, args=(60,))
        other.start()
        try:
            assert harness._block_count(301) == 1
            assert run_simulation(_block_cfg("sketch", tmp_path)).to_json() == serial
        finally:
            stop.set()
            other.join(10)
        assert not other.is_alive()
        assert forks == []
        assert harness._block_count(301) == 3

    def test_usable_cpus_falls_back_to_the_cpu_count(self, monkeypatch):
        def refused(pid):
            raise OSError("affinity unavailable")

        monkeypatch.setattr(os, "sched_getaffinity", refused, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert harness._usable_cpus() == 3
        monkeypatch.delattr(os, "sched_getaffinity")
        assert harness._usable_cpus() == 3
        # cpu_count may not know either
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert harness._usable_cpus() == 1

    def test_no_fork_without_os_fork(self, tmp_path, blocks, monkeypatch):
        serial = run_simulation(_block_cfg("sketch", tmp_path)).to_json()
        blocks(3)
        monkeypatch.delattr(os, "fork")
        assert harness._block_count(301) == 1
        assert run_simulation(_block_cfg("sketch", tmp_path)).to_json() == serial

    def test_a_block_that_cannot_fork_plays_here(self, tmp_path, blocks, monkeypatch):
        serial = run_simulation(_block_cfg("sketch", tmp_path)).to_json()
        blocks(3)
        attempts = []

        def failing():
            attempts.append(1)
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", failing)
        assert run_simulation(_block_cfg("sketch", tmp_path)).to_json() == serial
        assert len(attempts) == 2
        _no_child_left()

    def test_forked_blocks_hold_no_more_memory_than_one(self, blocks):
        # the common-mc source: 20 000 trials, as the benchmark runs them
        source = pmf(*[Fraction(k, 36) for k in range(1, 9)])
        cfg = ExperimentConfig(
            protocol="common", source_doc=pmf_document(source), trials=20_000, seed=7
        )
        peaks = {}
        # the first pass of each warms its caches; readings drift down a
        # little from run to run, so the forked one is read first
        for k in (1, 2, 2, 1):
            blocks(k)
            _fill_tuple_free_lists()
            tracemalloc.start()
            try:
                run_simulation(cfg)
                peaks[k] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        _no_child_left()
        assert peaks[2] <= peaks[1], peaks
