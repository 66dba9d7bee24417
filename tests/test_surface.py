"""Every name a public module lists in ``__all__`` exists and star-imports."""

import dataclasses
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
    # replaced by the dyadic form KeyAgreeEngine.round_lengths
    ("stopkey.common", "KeyAgreeEngine.round_distribution"),
    ("stopkey.common", "KeyAgreeEngine.first_codeword"),
    # only tests used it, as a dyadicity check; it lives with them now
    ("stopkey.probability", "dyadic_exponent"),
    # the integer constructor is Pmf itself; atoms() is the one Fraction view
    ("stopkey.probability", "Pmf.from_numerators"),
    ("stopkey.probability", "JointPmf.cells"),
    # only tests used it, as a closed-form reference; it lives with them now
    ("stopkey.dyadic", "round_weight_partial_entropy"),
    # only tests read them; the brackets are the reference the float
    # entropy is tested against, and live with the tests now
    ("stopkey.reconciled", "ReconcilerStats.conditional_entropy_interval"),
    ("stopkey.reconciled", "ReconcilerStats.floor_interval"),
    ("stopkey.probability", "entropy_interval"),
    ("stopkey.probability", "log2_interval"),
    # only the oracles and their tests used them; they live with them now
    ("stopkey.probability", "floor_log2"),
    ("stopkey.probability", "ceil_neg_log2"),
]


@pytest.mark.parametrize("module, name", REMOVED)
def test_removed_names_stay_removed(module, name):
    *owners, last = name.split(".")
    obj = importlib.import_module(module)
    for owner in owners:
        obj = getattr(obj, owner)
    assert not hasattr(obj, last)
    # a dataclass field with no default is no class attribute
    if dataclasses.is_dataclass(obj):
        assert last not in {f.name for f in dataclasses.fields(obj)}


def test_pmfs_store_one_integer_form():
    from stopkey.probability import JointPmf, Pmf

    def names(cls):
        return [f.name for f in dataclasses.fields(cls)]

    assert names(Pmf) == ["labels", "numerators", "denominator", "_hash"]
    assert names(JointPmf) == ["x_labels", "y_labels", "numerator_cells", "denominator", "_hash"]
