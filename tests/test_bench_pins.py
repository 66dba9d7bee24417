"""The benchmark's pinned report bytes, checked in the test suite.

Each perfbench workload pins the sha256 of its rep-0 report at full size
and the default seed. Running that report here makes a byte drift fail
in the tests, not only when the benchmark runs. The benchmark's tracer is
checked here too: it must find every function it wraps and put each one
back. Only reads perfbench/.
"""

import importlib
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench"))

import spans  # noqa: E402
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


def _stopkey_namespaces():
    return [
        mod for name, mod in sys.modules.items()
        if name == "stopkey" or name.startswith("stopkey.")
    ]


def test_tracer_wraps_every_target_and_restores_it():
    owners = []
    for mod_name, path, _ in spans.TARGETS:
        owner = importlib.import_module("stopkey." + mod_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        owners.append((owner, attr, vars(owner)[attr]))
    before = {mod.__name__: dict(vars(mod)) for mod in _stopkey_namespaces()}
    tracer = spans.Tracer()
    try:
        tracer.install()
        for owner, attr, raw in owners:
            now = vars(owner)[attr]
            # a classmethod is wrapped inside its descriptor
            assert getattr(now, "__func__", now).__wrapped__ is getattr(raw, "__func__", raw)
    finally:
        tracer.uninstall()
    for owner, attr, raw in owners:
        assert vars(owner)[attr] is raw, f"{owner.__name__}.{attr} not restored"
    after = {mod.__name__: dict(vars(mod)) for mod in _stopkey_namespaces()}
    assert after == before
