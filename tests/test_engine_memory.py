"""A smoke test of tools/engine_memory.py: it loads, and its round count
reads the figure ROADMAP item 5 quotes, so a tool that calls a deleted
engine method fails here."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location("engine_memory", os.path.join(ROOT, "tools", "engine_memory.py"))
engine_memory = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(engine_memory)


def test_the_bucket_set_engines_build_290_rounds():
    # every set of two or more of the exact-report diagonal's five labels
    pmfs = engine_memory.bucket_set_pmfs()
    assert len(pmfs) == 2**5 - 5 - 1
    assert sum(map(engine_memory.built_rounds, pmfs)) == 290
