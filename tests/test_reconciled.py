import hashlib
import json
import math
import os
import resource
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction

import pytest

from stopkey.common import exact_common_law
from stopkey.errors import (
    InvariantError,
    ReconcilerContractError,
    ValidationError,
)
from stopkey.formats import joint_document
from stopkey.keylaws import verify_rsbs
from stopkey.probability import JointPmf, Pmf, agreement_stats, entropy
from stopkey import reconciled
from stopkey.randomsource import RandomSource
from stopkey.reconciled import (
    AlmostCommonRun,
    ConstantReconciler,
    HashFunction,
    IdentityReconciler,
    OneWayHashReconciler,
    Reconciler,
    ReconcilerResult,
    all_hash_tables,
    almost_common_bounds,
    almost_common_keygen,
    analyze_almost_common,
    average_almost_common,
    collision_error,
    correlated_keygen,
    correlated_reference_bound,
    correlated_transcript_laws,
    derandomize_hash,
    reconciler_stats,
    sample_joint,
    stage_conditional,
    union_alphabet,
)

from conftest import (
    CORRELATED_3,
    FOUR_SYMBOL,
    WORKED_JOINT,
    diag_joint,
    joint,
    pmf,
    run_threads,
)
from grid_sampler_oracle import sample_full_grid
from table_oracle import average_over_tables
import sketch_oracle


SEPARATING = HashFunction(("0", "1"), (1, 2), 2)
ALL_SAME = HashFunction(("0", "1"), (1, 1), 2)


class TestHashFunction:
    def test_lookup_and_bucket(self):
        h = HashFunction(("a", "b", "c"), (1, 2, 1), 2)
        assert h("a") == 1 and h("b") == 2

    def test_unknown_label_rejected(self):
        with pytest.raises(ValidationError):
            SEPARATING("z")

    def test_value_range_enforced(self):
        with pytest.raises(ValidationError):
            HashFunction(("a",), (3,), 2)
        with pytest.raises(ValidationError):
            HashFunction(("a",), (0,), 2)

    def test_duplicate_domain_rejected(self):
        with pytest.raises(ValidationError):
            HashFunction(("a", "a"), (1, 1), 2)

    def test_random_tables_are_seed_deterministic(self):
        a = HashFunction.random("abc", 4, RandomSource("h"))
        b = HashFunction.random("abc", 4, RandomSource("h"))
        assert a.values == b.values
        assert a.provenance == "random-seeded"

    def test_random_table_rejects_empty_bucket_range(self):
        with pytest.raises(ValidationError, match="m must be >= 1"):
            HashFunction.random("abc", 0, RandomSource("h"))

    def test_all_tables_enumeration(self):
        tables = list(all_hash_tables(("a", "b"), 3))
        assert len(tables) == 9
        assert len({t.values for t in tables}) == 9


class TestCollisionAccounting:
    def test_union_alphabet_order(self):
        j = joint([["1/2", "1/4"], ["0", "1/4"]], ("a", "b"), ("b", "c"))
        assert union_alphabet(j) == ("a", "b", "c")

    def test_worked_joint_collision_by_table(self):
        # disagreement mass 1/4 sits on (x=1, y=0)
        assert collision_error(WORKED_JOINT, ALL_SAME) == Fraction(1, 4)
        assert collision_error(WORKED_JOINT, SEPARATING) == 0

    def test_average_over_tables_hits_the_bound_exactly(self):
        av = average_almost_common(WORKED_JOINT, 2)
        assert av.tables == 4
        assert av.collision_error == Fraction(1, 8)
        assert av.collision_error == av.epsilon_bound

    def test_identity_bucket_charges_all_disagreement(self):
        av = average_almost_common(WORKED_JOINT, 1)
        assert av.collision_error == 1 - agreement_stats(WORKED_JOINT).p

    def test_perfect_agreement_never_collides(self):
        j = diag_joint(pmf("1/2", "1/4", "1/4"))
        for h in all_hash_tables(union_alphabet(j), 2):
            assert collision_error(j, h) == 0

    def test_realized_error_stays_under_the_charged_mass(self):
        for h in all_hash_tables(("0", "1"), 2):
            a = analyze_almost_common(WORKED_JOINT, h)
            assert a.error_upper <= a.collision_error + Fraction(1, 1 << 29)

    def test_all_same_table_wins_through_singleton_rounds(self):
        # the bucket conditional (2/3, 1/3) decomposes into one-symbol
        # rounds with empty codewords, so even collided outcomes agree
        a = analyze_almost_common(WORKED_JOINT, ALL_SAME)
        assert a.collision_error == Fraction(1, 4)
        assert a.error_enumerated == 0
        assert a.unresolved == Fraction(1, 4) * Fraction(1, 1 << 30)

    def test_table_space_limit_enforced(self):
        j = diag_joint(Pmf.from_masses([Fraction(1, 17)] * 17))
        with pytest.raises(ValidationError, match="limit"):
            average_almost_common(j, 2)

    def test_average_does_not_grow_with_m(self):
        # 10**48 tables stand behind 247 bucket contents
        labels = "abcdefgh"
        rows = [["1/10" if x == y else "0" for y in labels] for x in labels]
        rows[0][1] = rows[3][5] = "1/10"
        j = joint(rows, labels, labels)
        av = average_almost_common(j, 10**6)
        assert av.tables == 10**48
        assert av.collision_error == (1 - agreement_stats(j).p) / 10**6

    def test_wrong_bucket_share_raises(self, monkeypatch):
        analyze = reconciled.analyze_almost_common

        def doubled(*args, **kwargs):
            a = analyze(*args, **kwargs)
            return replace(a, collision_error=2 * a.collision_error)

        monkeypatch.setattr(reconciled, "analyze_almost_common", doubled)
        with pytest.raises(InvariantError, match="collision"):
            average_almost_common(WORKED_JOINT, 2)


def _seeded_small_joint(rng: RandomSource):
    # 2 to 4 labels a side; a third of the 2- and 3-label joints swap one
    # y label for one outside x, so the union alphabet has a Y-only label
    n = 2 + rng.randrange(3)
    x_labels = [f"s{i}" for i in range(n)]
    y_labels = x_labels[1:] + ["t"] if n < 4 and rng.randrange(3) == 0 else x_labels
    rows = [
        [1 + rng.randrange(6) if x == y else rng.randrange(3) * rng.randrange(2)
         for y in y_labels]
        for x in x_labels
    ]
    total = sum(map(sum, rows))
    return joint([[Fraction(c, total) for c in row] for row in rows], x_labels, y_labels)


class TestAverageOverBucketContents:
    """The sum over bucket contents equals the literal m^|X|-table average."""

    @staticmethod
    def _sums(j, m):
        a = average_almost_common(j, m)
        return a.collision_error, a.error_enumerated, a.unresolved, a.agreed_length

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_acceptance_joints(self, m):
        for j in (WORKED_JOINT, CORRELATED_3, FOUR_SYMBOL):
            assert self._sums(j, m) == average_over_tables(j, m)

    def test_seeded_joints(self):
        rng = RandomSource("bucket-contents")
        differing = 0
        for _ in range(40):
            j = _seeded_small_joint(rng)
            differing += j.x_labels != j.y_labels
            for m in (1, 2, 3):
                assert self._sums(j, m) == average_over_tables(j, m)
        assert differing >= 5

    def test_reports_stay_inside_the_subset_limit(self):
        # reports attach the average for at most 8 labels a side, so a
        # union of at most 16 labels must fit at any m
        assert (1 << 16) - 16 - 1 <= reconciled.SUBSET_LIMIT
        j = diag_joint(Pmf.from_masses([Fraction(1, 17)] * 17))
        with pytest.raises(ValidationError, match="enumeration limit"):
            average_almost_common(j, 2)


class TestStageConditional:
    def test_bucket_conditional_over_union_alphabet(self):
        c = stage_conditional(WORKED_JOINT, ALL_SAME, 1)
        assert c is not None
        assert c.labels == ("0", "1")
        assert c.masses == (Fraction(2, 3), Fraction(1, 3))

    def test_bucket_without_agreement_mass_is_none(self):
        j = joint([["1/2", "1/4"], ["1/4", "0"]], "01", "01")
        h = HashFunction(("0", "1"), (1, 2), 2)
        assert stage_conditional(j, h, 2) is None

    def test_off_bucket_symbols_carry_zero_mass(self):
        j = diag_joint(pmf("1/2", "1/4", "1/4"))
        h = HashFunction(j.x_labels, (1, 2, 2), 2)
        c = stage_conditional(j, h, 2)
        assert c.masses[0] == 0
        assert c.masses[1] == Fraction(1, 2)


class TestAlmostCommonKeygen:
    def test_detected_mismatch_aborts_with_empty_keys(self):
        run = almost_common_keygen(
            WORKED_JOINT, "1", "0", 2, SEPARATING, RandomSource("abort")
        )
        assert run.erred
        assert (run.key_a, run.key_b, run.ideal_key) == ("", "", "")
        assert run.agreed
        assert run.transcript[1] == ("bob", "error", "e")

    def test_same_symbol_outcomes_always_agree(self):
        rng = RandomSource("same")
        for h in all_hash_tables(("0", "1"), 2):
            for _ in range(50):
                run = almost_common_keygen(WORKED_JOINT, "0", "0", 2, h, rng)
                assert not run.erred
                assert run.agreed
                assert run.ideal_key == run.key_a

    def test_empty_bucket_outcome_aborts(self):
        j = joint([["1/2", "1/4"], ["1/4", "0"]], "01", "01")
        h = HashFunction(("0", "1"), (1, 2), 2)
        run = almost_common_keygen(j, "1", "1", 2, h, RandomSource("eb"))
        assert run.erred

    def test_collision_in_a_bucket_without_agreement_mass_aborts(self):
        # labels 1 and 2 share bucket 2, which has no diagonal mass, so both
        # off-diagonal outcomes pass the bucket check and then abort
        j = joint(
            [["1/2", "0", "0"], ["0", "0", "1/4"], ["0", "1/4", "0"]], "012", "012"
        )
        h = HashFunction(("0", "1", "2"), (1, 2, 2), 2)
        for x, y in (("1", "2"), ("2", "1")):
            run = almost_common_keygen(j, x, y, 2, h, RandomSource("eb").substream(x, y))
            assert run.erred and run.w1 == 2
            assert (run.key_a, run.key_b, run.ideal_key) == ("", "", "")
        a = analyze_almost_common(j, h)
        assert [t for t in a.transcript_laws if t[0] == 2] == [(2, None)]
        assert a.transcript_laws[(2, None)].atoms == (("", 1),)
        assert a.collision_error == collision_error(j, h) == Fraction(1, 2)
        assert a.error_enumerated == 0 and a.unresolved == 0

    def test_collapses_to_common_scheme_on_identical_sources(self):
        p = pmf("2/5", "3/10", "1/5", "1/10")
        j = diag_joint(p)
        h = HashFunction(j.x_labels, (1,) * 4, 1)
        law = exact_common_law(p, 20)
        atoms = {(p.labels[x], w): key for x, w, key, _ in law.atoms}
        rng = RandomSource("collapse")
        for _ in range(300):
            x, y = sample_joint(j, rng.substream("src", _))
            assert x == y
            run = almost_common_keygen(j, x, y, 1, h, rng.substream("run", _))
            assert run.agreed
            assert run.key_a == atoms[(x, run.w2)]

    def test_bucket_count_must_match_table(self):
        with pytest.raises(ValidationError):
            almost_common_keygen(
                WORKED_JOINT, "0", "0", 3, SEPARATING, RandomSource("mm")
            )
        with pytest.raises(ValidationError):
            almost_common_keygen(
                WORKED_JOINT, "0", "0", 0, SEPARATING, RandomSource("mm")
            )

    def test_fallback_runs_are_enumerated_paths(self, monkeypatch):
        # bucket 1 holds a, b, c; c has no diagonal mass, so Bob holding c
        # pins round 1 and Alice holding c emits the round's first codeword
        j = joint(
            [
                ["9/48", "2/48", "3/48", "1/48"],
                ["2/48", "6/48", "2/48", "1/48"],
                ["3/48", "2/48", "0", "2/48"],
                ["1/48", "1/48", "2/48", "11/48"],
            ],
            "abcd",
            "abcd",
        )
        h = HashFunction(("a", "b", "c", "d"), (1, 1, 1, 2), 2)
        enumerated = set()
        stage2_keys = reconciled._stage2_keys

        def record(eng, xi, yi, w2):
            keys = stage2_keys(eng, xi, yi, w2)
            labels = eng.pmf.labels
            enumerated.add((labels[xi], labels[yi], w2) + keys)
            return keys

        monkeypatch.setattr(reconciled, "_stage2_keys", record)
        analysis = analyze_almost_common(j, h, w_max=30)
        monkeypatch.undo()
        rng = RandomSource("stage2-paths")
        fallbacks = set()
        for ix, iy, _ in j.atoms():
            x, y = j.x_labels[ix], j.y_labels[iy]
            for t in range(20):
                run = almost_common_keygen(j, x, y, 2, h, rng.substream(x, y, t))
                if run.erred:
                    continue
                assert (x, y, run.w2, run.key_a, run.key_b) in enumerated
                law = dict(analysis.transcript_laws[(run.w1, run.w2)].atoms)
                assert law.get(run.ideal_key, 0) > 0
                if "c" in (x, y):
                    fallbacks.add("bob" if y == "c" else "alice")
        assert fallbacks == {"alice", "bob"}

    def test_abort_run_record_rejects_nonempty_keys(self):
        with pytest.raises(InvariantError):
            AlmostCommonRun("0", "1", 1, None, "0", "", "")
        with pytest.raises(InvariantError):
            AlmostCommonRun("0", "1", 1, 0, "", "", "")


class TestGuaranteedBounds:
    def test_three_symbol_worked_pair(self):
        # p = 3/4, X | X = Y uniform over three symbols, m = 4
        j = joint(
            [["1/4", "1/4", "0"], ["0", "1/4", "0"], ["0", "0", "1/4"]],
            "abc",
            "abc",
        )
        pair = almost_common_bounds(j, 4)
        assert pair.epsilon == Fraction(1, 16)
        assert pair.ell == pytest.approx(0.75 * (math.log2(3) - 4.0))

    def test_perfect_agreement_pair(self):
        j = diag_joint(pmf("1/2", "1/2"))
        pair = almost_common_bounds(j, 2)
        assert pair.epsilon == 0
        assert pair.ell == pytest.approx(1.0 - 1.0 - 2.0)

    def test_target_error_substitution(self):
        # choosing m = ceil(1/eps) on a perfectly agreeing source turns
        # the pair into (0, H - log2 ceil(1/eps) - 2)
        p = pmf("1/2", "1/4", "1/8", "1/8")
        j = diag_joint(p)
        for eps in (Fraction(1, 3), Fraction(1, 10), Fraction(1, 100)):
            m = math.ceil(1 / eps)
            pair = almost_common_bounds(j, m)
            assert pair.epsilon == 0
            assert pair.ell == pytest.approx(entropy(p) - math.log2(m) - 2.0)

    def test_never_agreeing_source_rejected(self):
        j = joint([["0", "1/2"], ["1/2", "0"]], "01", "01")
        with pytest.raises(ValidationError):
            almost_common_bounds(j, 2)

    def test_bucket_count_validated(self):
        with pytest.raises(ValidationError):
            almost_common_bounds(WORKED_JOINT, 0)


class TestDerandomize:
    def test_exhaustive_finds_the_separating_table(self):
        h, err = derandomize_hash(WORKED_JOINT, 2)
        assert err == 0
        assert h("0") != h("1")
        assert h.provenance == "fixed"

    def test_greedy_handles_large_alphabets(self):
        # 13 labels at m = 2 is past the exhaustive cutoff; the greedy
        # must still separate the one colliding pair
        labels = tuple(f"s{i}" for i in range(13))
        rows = [["0"] * 13 for _ in range(13)]
        for i in range(13):
            rows[i][i] = "1/14"
        rows[0][1] = "1/14"
        j = joint(rows, labels, labels)
        h, err = derandomize_hash(j, 2)
        assert err == 0
        assert h("s0") != h("s1")
        assert err <= (1 - agreement_stats(j).p) / 2

    def test_bucket_count_validated(self):
        with pytest.raises(ValidationError):
            derandomize_hash(WORKED_JOINT, 0)

    @staticmethod
    def _greedy_reference(j, m):
        # the greedy rule scored over all m buckets
        labels = union_alphabet(j)
        placed = {}
        for u in labels:
            cost = [Fraction(0)] * m
            for t, v in placed.items():
                cost[v - 1] += j.mass_by_label(u, t) + j.mass_by_label(t, u)
            placed[u] = min(range(m), key=lambda b: (cost[b], b)) + 1
        return tuple(placed[u] for u in labels)

    def test_greedy_matches_the_full_scan(self):
        rng = RandomSource("greedy-reference")
        for _ in range(60):
            n = 2 + rng.randrange(8)
            m = next(m for m in range(2, 4097) if m**n > 4096) + rng.randrange(3)
            labels = [f"s{i}" for i in range(n)]
            y_labels = labels + ["extra"] * rng.randrange(2)
            rows = [
                [1 + rng.randrange(4) if x == y else rng.randrange(3) * rng.randrange(2)
                 for y in y_labels]
                for x in labels
            ]
            total = sum(map(sum, rows))
            j = joint([[Fraction(c, total) for c in row] for row in rows], labels, y_labels)
            h, err = derandomize_hash(j, m)
            assert h.values == self._greedy_reference(j, m)
            assert err == collision_error(j, h) <= (1 - agreement_stats(j).p) / m

    def test_greedy_table_of_a_wide_joint_is_pinned(self):
        # 300 x labels, 5 y-only labels: far past the exhaustive cutoff.
        # The sha256 pins the bucket of every label as the greedy pass
        # picked it when it still looked each pair up by label.
        rng = RandomSource("greedy-300")
        labels = [f"s{i}" for i in range(300)]
        y_labels = labels[:295] + [f"t{i}" for i in range(5)]
        weights = {}
        for x in labels:
            if x in y_labels:
                weights[x, x] = 4 + rng.randrange(8)
            for _ in range(2):
                weights[x, y_labels[rng.randrange(300)]] = 1 + rng.randrange(3)
        total = sum(weights.values())
        atoms = [(x, y, Fraction(c, total)) for (x, y), c in weights.items()]
        j = JointPmf.from_atoms(atoms, labels, y_labels)
        pins = {
            2: ("e281504e992235bac2e5e4d1254a1df924b64acdca0522f534d50f1e27824204", Fraction(256, 3431)),
            3: ("4a246f02ced545e32212489752d42b1aa00ddf660a3288bd1f408cbf99b527a0", Fraction(50, 3431)),
        }
        for m, (digest, pinned_err) in pins.items():
            h, err = derandomize_hash(j, m)
            assert hashlib.sha256("".join(map(str, h.values)).encode()).hexdigest() == digest
            assert err == pinned_err <= (1 - agreement_stats(j).p) / m

    def test_greedy_cost_does_not_grow_with_m(self):
        # run in a child capped at 2 GB of address space, so a pass that
        # scored all 10**9 buckets fails there instead of filling memory
        code = (
            "import json, sys, time\n"
            "from stopkey import formats\n"
            "from stopkey.reconciled import derandomize_hash\n"
            "j = formats.parse_joint(json.loads(sys.argv[1]))\n"
            "start = time.perf_counter()\n"
            "h, err = derandomize_hash(j, 10**9)\n"
            "print(json.dumps([time.perf_counter() - start, h.m, h.values, str(err)]))\n"
        )

        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

        src = os.path.dirname(os.path.dirname(reconciled.__file__))
        child = subprocess.run(
            [sys.executable, "-c", code, json.dumps(joint_document(CORRELATED_3))],
            capture_output=True, text=True, timeout=120, preexec_fn=cap,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert child.returncode == 0, child.stderr
        seconds, m, values, err = json.loads(child.stdout)
        small, small_err = derandomize_hash(CORRELATED_3, 1000)
        assert seconds < 1.0
        assert m == 10**9
        assert tuple(values) == small.values and Fraction(err) == small_err


class TestReconcilers:
    def test_identity_keeps_the_raw_pair(self):
        res = IdentityReconciler().run(WORKED_JOINT, "1", "0")
        assert (res.m_a, res.m_b) == ("1", "0")
        assert res.transcript_a == res.transcript_b == ()
        assert IdentityReconciler().conditional_joint(WORKED_JOINT, ()) is WORKED_JOINT

    def test_identity_rejects_foreign_transcripts(self):
        with pytest.raises(ValidationError):
            IdentityReconciler().conditional_joint(WORKED_JOINT, (("a", "b", 1),))

    def test_identity_stats_match_agreement(self):
        st = reconciler_stats(CORRELATED_3, IdentityReconciler())
        assert st.p_agree == Fraction(2, 3)
        cond = agreement_stats(CORRELATED_3).conditional
        assert st.conditional_entropy == pytest.approx(entropy(cond))
        lo, hi = st.conditional_entropy_interval
        assert float(lo) <= st.conditional_entropy <= float(hi)

    def test_constant_stats_and_floor(self):
        st = reconciler_stats(WORKED_JOINT, ConstantReconciler())
        assert st.p_agree == 1
        assert st.conditional_entropy == 0.0
        assert st.floor(4) == pytest.approx(-math.log2(4) - 2.0)
        lo, hi = st.floor_interval(4)
        assert float(lo) <= st.floor(4) <= float(hi)

    def test_never_agreeing_reconciliation_has_zero_stats(self):
        j = joint([["0", "1/2"], ["1/2", "0"]], "01", "01")
        st = reconciler_stats(j, IdentityReconciler())
        assert st.p_agree == 0
        assert st.conditional_entropy == 0.0

    def test_sketch_width_validated(self):
        with pytest.raises(ValidationError):
            OneWayHashReconciler(0)

    def test_wide_sketch_reconciles_perfectly(self):
        # 4-bit sketches are distinct on this alphabet, so the decoder
        # always recovers x
        st = reconciler_stats(CORRELATED_3, OneWayHashReconciler(4, 0))
        assert st.p_agree == 1

    def test_one_bit_sketch_agreement_mass_by_hand(self):
        # seed 0 buckets a alone; among {b, c} the decoder follows the
        # posterior, erring on (b, c) and (c, b), mass 1/24 each
        r = OneWayHashReconciler(1, 0)
        assert r.sketch_table(CORRELATED_3) == {"a": 0, "b": 1, "c": 1}
        st = reconciler_stats(CORRELATED_3, r)
        assert st.p_agree == Fraction(11, 12)

    def test_sketch_transcript_weights_are_marginal_masses(self):
        r = OneWayHashReconciler(1, 0)
        weights = dict(r.transcript_weights(CORRELATED_3))
        assert weights[(("alice", "sketch", 0),)] == Fraction(7, 12)
        assert weights[(("alice", "sketch", 1),)] == Fraction(5, 12)

    def test_sketch_conditional_joint_normalizes(self):
        r = OneWayHashReconciler(1, 0)
        for t, wt in r.transcript_weights(CORRELATED_3):
            cj = r.conditional_joint(CORRELATED_3, t)
            assert sum(m for _, _, m in cj.atoms()) == 1

    def test_sketch_run_matches_enumerated_agreement(self):
        r = OneWayHashReconciler(1, 0)
        rng = RandomSource("sketch-sim")
        agreed = 0
        n = 4000
        for i in range(n):
            x, y = sample_joint(CORRELATED_3, rng.substream("src", i))
            res = r.run(CORRELATED_3, x, y)
            assert res.m_a == x
            assert res.transcript_a == res.transcript_b
            agreed += res.m_a == res.m_b
        # 4 sigma around p = 11/12
        sigma = math.sqrt(11 / 12 * (1 / 12) / n)
        assert abs(agreed / n - 11 / 12) < 4 * sigma

    def test_unrecognized_transcript_rejected(self):
        r = OneWayHashReconciler(1, 0)
        # failed builds are not memoized: each call raises again
        for _ in range(2):
            with pytest.raises(ValidationError):
                r.conditional_joint(CORRELATED_3, (("bob", "sketch", 0),))
            with pytest.raises(ValidationError, match="zero probability"):
                r.conditional_joint(CORRELATED_3, (("alice", "sketch", 5),))

    def test_sketch_conditional_joint_is_built_once_per_transcript(self, monkeypatch):
        built = []
        raw = JointPmf.from_atoms.__func__

        def counting(cls, *args, **kwargs):
            built.append(1)
            return raw(cls, *args, **kwargs)

        monkeypatch.setattr(JointPmf, "from_atoms", classmethod(counting))
        r = OneWayHashReconciler(1, 0)
        rng = RandomSource("sketch-memo")
        runs = [correlated_keygen(CORRELATED_3, r, 2, rng) for _ in range(200)]
        transcripts = {run.stage1_transcript for run in runs}
        realizable = [t for t, wt in r.transcript_weights(CORRELATED_3) if wt > 0]
        assert transcripts <= set(realizable)
        assert len(built) <= len(realizable)
        for t in realizable:
            assert r.conditional_joint(CORRELATED_3, t) is r.conditional_joint(
                CORRELATED_3, t
            )

    def test_constant_conditional_joint_is_built_once(self, monkeypatch):
        built = []
        raw = JointPmf.from_rows.__func__

        def counting(cls, *args, **kwargs):
            built.append(1)
            return raw(cls, *args, **kwargs)

        monkeypatch.setattr(JointPmf, "from_rows", classmethod(counting))
        r = ConstantReconciler()
        rng = RandomSource("constant-joint")
        for i in range(200):
            assert correlated_keygen(CORRELATED_3, r, 2, rng.substream(i)).agreed
        assert len(built) <= 1
        assert r.conditional_joint(CORRELATED_3, ()) is r.conditional_joint(CORRELATED_3, ())

    def test_concurrent_first_calls_share_one_conditional_joint(self):
        t = (("alice", "sketch", 1),)
        for _ in range(5):
            r = OneWayHashReconciler(1, 0)
            got = []
            assert run_threads(lambda: got.append(r.conditional_joint(CORRELATED_3, t))) == []
            assert len(got) == 8
            assert all(cj is got[0] for cj in got)
            assert got[0] is r.conditional_joint(CORRELATED_3, t)


def _pushforward_joint(r, j, t, x_labels, y_labels):
    atoms = r.pushforward(j)[t]
    total = sum(mass for _, _, mass in atoms)
    scaled = [(a, b, mass / total) for a, b, mass in atoms]
    return JointPmf.from_atoms(scaled, x_labels, y_labels)


class TestStageOneLaw:
    """Each reconciler's exact law is the source law pushed through ``run``."""

    def test_sketch_law_matches_the_hand_written_one(self):
        rng = RandomSource("sketch-law")
        differing = 0
        for k in range(40):
            j = _seeded_small_joint(rng)
            differing += j.x_labels != j.y_labels
            for bits in (1, 2, 3):
                r = OneWayHashReconciler(bits, seed=f"law-{k}")
                weights = r.transcript_weights(j)
                assert weights == sketch_oracle.transcript_weights(r, j)
                for t, _ in weights:
                    assert r.conditional_joint(j, t) == sketch_oracle.conditional_joint(r, j, t)
        assert differing >= 5

    def test_identity_and_constant_joints_are_their_pushforwards(self):
        rng = RandomSource("fixed-law")
        sources = [WORKED_JOINT, CORRELATED_3, FOUR_SYMBOL]
        sources += [_seeded_small_joint(rng) for _ in range(10)]
        for j in sources:
            identity, constant = IdentityReconciler(), ConstantReconciler()
            for r in (identity, constant):
                assert r.transcript_weights(j) == (((), Fraction(1)),)
            assert identity.conditional_joint(j, ()) == _pushforward_joint(
                identity, j, (), j.x_labels, j.y_labels
            )
            assert constant.conditional_joint(j, ()) == _pushforward_joint(
                constant, j, (), ("0",), ("0",)
            )

    def test_pushforward_runs_each_cell_once_per_source(self, monkeypatch):
        r = OneWayHashReconciler(1, 0)
        calls = []
        raw = OneWayHashReconciler.run

        def counting(self, j, x, y):
            calls.append((x, y))
            return raw(self, j, x, y)

        monkeypatch.setattr(OneWayHashReconciler, "run", counting)
        for t, _ in r.transcript_weights(CORRELATED_3):
            r.conditional_joint(CORRELATED_3, t)
        reconciler_stats(CORRELATED_3, r)
        assert sorted(calls) == sorted(
            (CORRELATED_3.x_labels[ix], CORRELATED_3.y_labels[iy])
            for ix, iy, _ in CORRELATED_3.atoms()
        )

    def test_decode_reads_the_column_once(self, monkeypatch):
        def refuse(self, x, y):
            raise AssertionError("mass_by_label called")

        monkeypatch.setattr(JointPmf, "mass_by_label", refuse)
        r = OneWayHashReconciler(1, 0)
        assert r.run(CORRELATED_3, "b", "c").m_b == "c"
        assert len(r.pushforward(CORRELATED_3)) == 2

    def test_foreign_labels_are_input_errors(self):
        r = OneWayHashReconciler(1, 0)
        with pytest.raises(ValidationError, match="outside the joint's y alphabet"):
            r.run(CORRELATED_3, "a", "z")
        with pytest.raises(ValidationError, match="outside the joint's x alphabet"):
            r.run(CORRELATED_3, "z", "a")


class _DivergingReconciler(Reconciler):
    name = "diverging"

    def run(self, j, x, y):
        return ReconcilerResult(x, y, (("alice", "note", 1),), ())

    def conditional_joint(self, j, transcript):
        return j


class TestCorrelatedPipeline:
    def test_identity_on_perfect_source_never_errs(self):
        j = diag_joint(pmf("2/5", "3/10", "1/5", "1/10"))
        rng = RandomSource("pipe-perfect")
        for _ in range(200):
            run = correlated_keygen(j, IdentityReconciler(), 2, rng)
            assert run.m_a == run.m_b == run.x == run.y
            assert run.agreed

    def test_constant_reconciler_yields_empty_agreed_keys(self):
        rng = RandomSource("pipe-const")
        for _ in range(50):
            run = correlated_keygen(WORKED_JOINT, ConstantReconciler(), 2, rng)
            assert run.agreed
            assert run.key_a == run.key_b == run.ideal_key == ""

    def test_sketch_pipeline_end_to_end(self):
        rng = RandomSource("pipe-sketch")
        errs = 0
        n = 1500
        for _ in range(n):
            run = correlated_keygen(
                CORRELATED_3, OneWayHashReconciler(1, 0), 2, rng
            )
            assert run.transcript[0][:2] == ("alice", "sketch")
            assert run.transcript[1][:2] == ("alice", "hash")
            errs += not run.agreed
        # reconciliation failures are caught only with probability about
        # half, so realized error stays near (1 - 11/12) / 2
        assert errs / n < Fraction(1, 12)

    def test_diverging_transcripts_are_fatal(self):
        with pytest.raises(ReconcilerContractError, match="diverging"):
            correlated_keygen(
                WORKED_JOINT, _DivergingReconciler(), 2, RandomSource("div")
            )

    def test_exact_path_refuses_diverging_transcripts(self):
        r = _DivergingReconciler()
        with pytest.raises(ReconcilerContractError, match="diverging"):
            r.transcript_weights(WORKED_JOINT)
        with pytest.raises(ReconcilerContractError, match="diverging"):
            reconciler_stats(WORKED_JOINT, r)

    def test_bucket_count_validated(self):
        with pytest.raises(ValidationError):
            correlated_keygen(
                WORKED_JOINT, IdentityReconciler(), 0, RandomSource("bc")
            )

    def test_sampling_is_exact(self):
        rng = RandomSource("sample")
        counts: dict[tuple[str, str], int] = {}
        n = 6000
        for i in range(n):
            xy = sample_joint(WORKED_JOINT, rng.substream(i))
            counts[xy] = counts.get(xy, 0) + 1
        assert counts.get(("0", "1"), 0) == 0
        for (xl, yl), c in counts.items():
            m = float(WORKED_JOINT.mass_by_label(xl, yl))
            assert abs(c / n - m) < 4 * math.sqrt(m * (1 - m) / n)

    def test_sampler_spans_only_positive_cells(self):
        j = joint([["1/2", "0", "0"], ["0", "0", "1/4"], ["0", "1/4", "0"]], "abc", "abc")
        sampler, cells = reconciled._atom_sampler(j)
        assert len(sampler.pmf) == len(cells) == 3
        assert cells == (("a", "a"), ("b", "c"), ("c", "b"))

    def test_sampling_matches_the_full_grid(self):
        # same draw from the same fair bits, and the same bits left over
        rng = RandomSource("grid")
        for k in range(40):
            nx, ny = 2 + rng.randrange(5), 2 + rng.randrange(5)
            rows = [
                [rng.randrange(2) * (1 + rng.randrange(9)) for _ in range(ny)]
                for _ in range(nx)
            ]
            rows[0][0] += 1
            total = sum(map(sum, rows))
            j = JointPmf.from_rows([[Fraction(c, total) for c in row] for row in rows])
            for d in range(100):
                a, b = RandomSource(f"grid-{k}-{d}"), RandomSource(f"grid-{k}-{d}")
                assert sample_joint(j, a) == sample_full_grid(j, b)
                assert a.bits(2) == b.bits(2)


class TestTranscriptLaws:
    def test_every_transcript_law_is_randomly_stopped(self):
        laws = correlated_transcript_laws(
            CORRELATED_3, OneWayHashReconciler(1, 0), 2, w_max=16
        )
        assert laws
        for t, law in laws.items():
            verdict = verify_rsbs(law)
            assert verdict.valid, (t, verdict.violations)

    def test_identity_pipeline_laws(self):
        laws = correlated_transcript_laws(
            WORKED_JOINT, IdentityReconciler(), 2, w_max=12
        )
        for t, law in laws.items():
            assert verify_rsbs(law).valid

    def test_abort_transcripts_are_point_laws(self):
        laws = correlated_transcript_laws(
            WORKED_JOINT, IdentityReconciler(), 2, w_max=12
        )
        aborts = [
            law for t, law in laws.items() if t[-1] == ("bob", "error", "e")
        ]
        assert aborts
        for law in aborts:
            assert dict(law.atoms) == {"": Fraction(1)}


class TestReferenceBound:
    def test_zero_information_single_bucket(self):
        assert correlated_reference_bound(0, 1) == pytest.approx(-9.04)

    def test_large_information_example(self):
        want = 20 - 2 * math.log2(21) - 1 - 9.04
        assert correlated_reference_bound(20, 2) == pytest.approx(want)

    def test_validation(self):
        with pytest.raises(ValidationError):
            correlated_reference_bound(-1, 2)
        with pytest.raises(ValidationError):
            correlated_reference_bound(1, 0)
