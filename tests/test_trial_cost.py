"""A smoke test of tools/trial_cost.py at a tiny size: it loads, times the
three protocols' trials, and counts the generators a trial seeds as the
trial tests do, so a tool that calls a deleted name fails here."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location("trial_cost", os.path.join(ROOT, "tools", "trial_cost.py"))
trial_cost = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(trial_cost)


def test_each_protocol_gets_a_timed_line_with_its_seeding_floor():
    rows = trial_cost.measure(trials=40, repeat=1)
    assert [row[0] for row in rows] == ["common", "almost", "correlated"]
    seedings = {name: per_trial for name, _, per_trial, _ in rows}
    # "source" and "alice" every common trial; "keys" or "stage2" only
    # when Bob draws a round
    assert seedings["common"] == 2
    assert 1 < seedings["almost"] <= 2 and 1 < seedings["correlated"] <= 2
    for _, us, per_trial, floor in rows:
        assert us > 0 and floor > 0
    assert trial_cost.main(["--trials", "20", "--repeat", "1"]) == 0
