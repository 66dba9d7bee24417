"""The verdicts of tools/bench_pairs.py, on synthetic pairs, and its
cleanup when stopped, on stubbed runs (no benchmark runs)."""

import importlib.util
import json
import os
import signal

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location("bench_pairs", os.path.join(ROOT, "tools", "bench_pairs.py"))
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    _BENCH = json.load(_fh)
DECLARED = {m["name"]: m for m in _BENCH["end_to_end"] + _BENCH["per_layer"]}
# a bounded lower-is-better metric and an unbounded higher-is-better one
BOUNDED = "report_s"
HIGHER = "common.engine_for.hit_ratio"


def _side(metrics: dict) -> dict:
    return {"result": {"metrics": {k: {"value": v, "unit": "s"} for k, v in metrics.items()}}}


def pairs_of(metric: str, base: list[float], change: list[float]) -> list[dict]:
    return [{"base": _side({metric: b}), "change": _side({metric: c})} for b, c in zip(base, change)]


def judge(metric: str, base: list[float], change: list[float]) -> dict:
    return bench_pairs.summarize(pairs_of(metric, base, change), DECLARED)[metric]


BASE = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]


def test_the_metrics_judged_here_are_declared_as_assumed():
    assert DECLARED[BOUNDED]["better"] == "lower" and DECLARED[BOUNDED]["bound"] == 0.25
    assert DECLARED[HIGHER]["better"] == "higher" and "bound" not in DECLARED[HIGHER]


def test_lower_in_every_pair_by_more_than_the_iqr_is_a_gain():
    entry = judge(BOUNDED, BASE, [b * 0.8 for b in BASE])
    assert entry["verdict"] == "gain"
    assert entry["change_lower_in"] == entry["pairs"] == 10
    assert entry["ratio"] == pytest.approx(0.8)


def test_nine_of_ten_is_enough_and_a_tie_counts_for_neither_side():
    nine = [b * 0.8 for b in BASE[:9]] + [BASE[9] * 1.1]
    assert judge(BOUNDED, BASE, nine)["verdict"] == "gain"
    # nine lower and one tie: still nine wins
    tie = [b * 0.8 for b in BASE[:9]] + [BASE[9]]
    assert judge(BOUNDED, BASE, tie)["verdict"] == "gain"
    # eight lower and two ties: eight wins of ten
    ties = [b * 0.8 for b in BASE[:8]] + BASE[8:]
    entry = judge(BOUNDED, BASE, ties)
    assert entry["change_lower_in"] == 8
    assert entry["verdict"] == "unresolved"


def test_a_win_inside_the_base_iqr_is_unresolved():
    # lower in every pair, but the base spreads wider than the gap
    wide = [1.0, 1.4, 0.6, 1.2, 0.8, 1.3, 0.7, 1.1, 0.9, 1.0]
    entry = judge(BOUNDED, wide, [b - 0.05 for b in wide])
    assert entry["change_lower_in"] == 10
    assert entry["base_median"] - entry["change_median"] < entry["base_q3"] - entry["base_q1"]
    assert entry["verdict"] == "unresolved"


def test_past_the_bound_is_worse_and_at_it_is_not():
    assert judge(BOUNDED, BASE, [b * 1.3 for b in BASE])["verdict"] == "worse"
    # a ratio of exactly 1 + bound is not above it
    at = judge(BOUNDED, [1.0] * 10, [1.25] * 10)
    assert at["ratio"] == 1.25
    assert at["verdict"] == "unresolved"


def test_an_unbounded_metric_is_never_worse():
    metric = "harness.loop.self_us_per_trial"
    assert "bound" not in DECLARED[metric]
    assert judge(metric, BASE, [b * 3 for b in BASE])["verdict"] == "unresolved"


def test_a_higher_is_better_metric_gains_by_reading_higher():
    base = [0.50, 0.52, 0.48, 0.51, 0.49, 0.50, 0.50, 0.53, 0.47, 0.50]
    assert judge(HIGHER, base, [b + 0.2 for b in base])["verdict"] == "gain"
    assert judge(HIGHER, base, [b - 0.2 for b in base])["verdict"] == "unresolved"


def test_an_undeclared_metric_is_lower_is_better_and_unbounded():
    entry = bench_pairs.summarize(pairs_of("made.up", BASE, [b * 0.5 for b in BASE]), {})["made.up"]
    assert entry["verdict"] == "gain"
    assert bench_pairs.summarize(pairs_of("made.up", BASE, [b * 9 for b in BASE]), {})["made.up"]["verdict"] == "unresolved"


def test_a_failed_run_drops_its_pair():
    pairs = pairs_of(BOUNDED, BASE, [b * 0.8 for b in BASE])
    pairs[3]["change"] = {"returncode": 1, "stderr": "boom", "wall_s": 0.1}
    entry = bench_pairs.summarize(pairs, DECLARED)[BOUNDED]
    assert entry["pairs"] == 9
    assert entry["verdict"] == "gain"


def test_every_metric_of_a_run_gets_a_verdict():
    names = [m for m in DECLARED if m != HIGHER][:5]
    pairs = [
        {"base": _side({n: b for n in names}), "change": _side({n: b * 0.9 for n in names})}
        for b in BASE
    ]
    summary = bench_pairs.summarize(pairs, DECLARED)
    assert sorted(summary) == sorted(names)
    assert {e["verdict"] for e in summary.values()} <= {"gain", "worse", "unresolved"}


def test_source_lines_counts_the_non_blank_lines_of_the_package_modules(tmp_path):
    package = tmp_path / "src" / "stopkey"
    (package / "sub").mkdir(parents=True)
    (package / "a.py").write_text("import os\n\n\ndef f():\n    return os\n")
    (package / "b.py").write_text("  \n\t\nX = 1\n# a comment counts\n")
    (package / "notes.txt").write_text("not\nPython\n")
    (package / "sub" / "c.py").write_text("Y = 2\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "t.py").write_text("Z = 3\n")
    assert bench_pairs.source_lines(str(tmp_path)) == 3 + 2
    assert bench_pairs.source_lines(str(tmp_path / "empty")) == 0


def test_a_stopped_run_removes_its_exported_trees(tmp_path, monkeypatch):
    made = []

    def source_tree(spec, work, name):
        path = os.path.join(work, name)
        os.makedirs(path)
        made.append(path)
        return path, {"spec": spec}

    def run_once(tree, workload, seed, trace):
        os.kill(os.getpid(), signal.SIGTERM)
        return {}

    class Stopped(Exception):
        pass

    def outer(signum, frame):
        raise Stopped

    monkeypatch.setattr(bench_pairs, "source_tree", source_tree)
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    # a SIGTERM the script does not take over raises Stopped, not SystemExit
    previous = signal.signal(signal.SIGTERM, outer)
    try:
        with pytest.raises(SystemExit) as info:
            bench_pairs.main(["--base", "HEAD", "--change", "HEAD", "--workloads", "common-mc",
                              "--out", str(tmp_path / "out.json")])
        assert signal.getsignal(signal.SIGTERM) is outer
    finally:
        signal.signal(signal.SIGTERM, previous)
    assert info.value.code == 128 + signal.SIGTERM
    assert [os.path.basename(p) for p in made] == ["base", "change"]
    assert not os.path.exists(os.path.dirname(made[0]))
    assert not (tmp_path / "out.json").exists()
