"""Every name a public module lists in ``__all__`` exists and star-imports."""

import importlib

import pytest

MODULES = [
    "stopkey",
    "stopkey.common",
    "stopkey.dyadic",
    "stopkey.keylaws",
    "stopkey.probability",
    "stopkey.randomsource",
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_star_import(name):
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(importlib.import_module(name).__all__) <= set(namespace)


# deleted with their tests: nothing in src/, perfbench/, the CLI or the README called them
REMOVED = [
    ("stopkey.probability", "is_dyadic"),
    ("stopkey.probability", "mutual_information_interval"),
    ("stopkey.reconciled", "almost_common_ell_interval"),
    ("stopkey.formats", "key_law_document"),
]


@pytest.mark.parametrize("module, name", REMOVED)
def test_removed_names_stay_removed(module, name):
    assert not hasattr(importlib.import_module(module), name)
