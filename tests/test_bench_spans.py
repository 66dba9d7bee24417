"""Every span the benchmark expects on a workload fires there, in pytest.

``perfbench/selftest.py`` makes the same check in subprocesses. Here each
workload runs in process at its tiny size under ``spans.Tracer``: one
report op and a few keygen ops, after the package's memo caches are
emptied, as in a fresh interpreter. So a refactor that routes around a
wrapped layer (building a joint without ``JointPmf.from_atoms`` on
sketch-mc, say) fails in the test suite. Writes only under the test's
temporary directory.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench"))

import spans  # noqa: E402
import workloads  # noqa: E402
from selftest import EXPECTED  # noqa: E402

SEED = 7
KEYGEN_OPS = 4


def _clear_memo_caches():
    for name, mod in list(sys.modules.items()):
        if name == "stopkey" or name.startswith("stopkey."):
            for obj in vars(mod).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()


def _traced(tracer, kind, fn, trial=-1):
    idx = tracer.begin_op(kind, trial=trial)
    try:
        return fn()
    finally:
        tracer.end_op(idx)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_every_expected_span_fires(name, tmp_path, monkeypatch):
    # the report echoes paths relative to the workload root
    monkeypatch.chdir(tmp_path)
    wl = workloads.WORKLOADS[name](SEED, "tiny", str(tmp_path))
    wl.prepare(0)
    _clear_memo_caches()
    tracer = spans.Tracer()
    tracer.install()
    try:
        text = _traced(tracer, "report", lambda: wl.report(0, workloads.run_inprocess))
        wl.check_report(0, text)
        for i in range(KEYGEN_OPS):
            inp = wl.keygen_input(i)
            out = _traced(tracer, "keygen", lambda: wl.keygen(i, inp), trial=i)
            wl.check_keygen(inp, out)
    finally:
        tracer.uninstall()
    fired = tracer.summary(tracer.ops_of("report") + tracer.ops_of("keygen"))
    assert sorted(EXPECTED[name] - set(fired)) == []
