"""The benchmark's pinned report bytes, checked in the test suite.

Each perfbench workload pins the sha256 of its rep-0 report at full size
and the default seed. Running that report here makes a byte drift fail
in the tests, not only when the benchmark runs. Only reads perfbench/.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench"))

import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_rep0_report_matches_its_pin(name, tmp_path, monkeypatch):
    # the report echoes paths relative to the workload root
    monkeypatch.chdir(tmp_path)
    workload = workloads.WORKLOADS[name](workloads.DEFAULT_SEED, "full", str(tmp_path))
    workload.prepare(0)
    text = workload.report(0, workloads.run_inprocess)
    workload.check_report(0, text)
    assert workloads.sha256(text) == workloads.PINS[name]
