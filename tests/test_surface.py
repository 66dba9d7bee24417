"""The public surface: every name a public module lists in ``__all__``
exists and star-imports, deleted names stay deleted, and every public
name is reached from outside the tests."""

import ast
import dataclasses
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "stopkey"

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
    # composition is exact arithmetic on (epsilon, ell) points; the float
    # interval arm only tests used
    ("stopkey.keylaws", "IntervalLike"),
    ("stopkey.keylaws", "_interval"),
    ("stopkey.keylaws", "_interval_mul"),
    # only tests called them, as shortcuts for generator().getrandbits(k),
    # not at_least(t), value_bits/nbits, the atoms and the numerators
    ("stopkey.randomsource", "RandomSource.bits"),
    ("stopkey.randomsource", "LazyUniform.less_than"),
    ("stopkey.randomsource", "LazyUniform.as_bracket"),
    ("stopkey.probability", "Pmf.support"),
    ("stopkey.keylaws", "KeyLaw.support"),
    ("stopkey.common", "CommonLaw.joint_w_x"),
    # no verb emits a source document; tests build fixtures with them, from
    # tests/documents.py
    ("stopkey.formats", "pmf_document"),
    ("stopkey.formats", "joint_document"),
    ("stopkey.formats", "write_document"),
    # one KeygenRun, the plan's record plus the values stage two ran on,
    # replaces both; what only tests read of them went with them
    ("stopkey.reconciled", "AlmostCommonRun"),
    ("stopkey.reconciled", "CorrelatedRun"),
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


# Public names reached from nowhere outside the tests, each kept for the
# reason given: the paper states them, and the keylaws docstrings document
# them as its surface.
PAPER_SURFACE = {
    ("stopkey.keylaws", "stopping_rule_of"): "the law-to-rule direction of the randomly stopped property",
    ("stopkey.keylaws", "law_from_stopping_rule"): "the rule-to-law direction of the randomly stopped property",
    ("stopkey.keylaws", "simulate_stopped_key"): "a key drawn by the stopping dynamics themselves",
    ("stopkey.keylaws", "pointwise_mass_bound"): "P(K = k) <= 2**-|k|, the inequality behind the converse",
}


def _identifiers(tree: ast.AST):
    """(identifier, line, member) for every name, attribute and keyword
    argument in ``tree``; an f-string's expressions are nodes of the tree,
    so they count too. ``member`` marks the two forms that can reach a
    method, property or field: an attribute and a keyword argument."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.end_lineno, True
        elif isinstance(node, ast.keyword) and node.arg:
            yield node.arg, node.lineno, True


def _public_definitions(tree: ast.Module):
    """(qualified name, line) of each module-level name and each member
    (method, property or annotated field) defined in a module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from ((t.id, node.lineno) for t in targets if isinstance(t, ast.Name))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item.lineno
                elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield f"{node.name}.{item.target.id}", item.lineno


def _readme_code() -> list[str]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```[^\n]*\n(.*?)```", text, re.S)
    prose = re.sub(r"```.*?```", "", text, flags=re.S)
    return blocks + re.findall(r"`([^`\n]+)`", prose)


def _surface():
    """({(module, name): line} of the package's public definitions, a
    function telling whether a definition is used outside the tests). A
    module-level name is used by any identifier that spells it; a member
    only by an attribute or a keyword argument, so a local variable that
    shares its name does not reach it. README code counts every identifier
    it spells. A definition's own line does not count as a use of the name
    it defines."""
    defined = {}
    names, members = set(), set()

    def note(idents, own=()):
        for ident, line, member in idents:
            if (ident, line) not in own:
                names.add(ident)
                if member:
                    members.add(ident)

    for path in sorted(PACKAGE.glob("*.py")):
        module = "stopkey" if path.stem == "__init__" else f"stopkey.{path.stem}"
        tree = ast.parse(path.read_text(encoding="utf-8"))
        own = set()
        for name, line in _public_definitions(tree):
            last = name.rsplit(".", 1)[-1]
            if not last.startswith("_"):
                defined[module, name] = line
            own.add((last, line))
        note(_identifiers(tree), own)
    for folder in ("perfbench", "tools"):
        for path in sorted((ROOT / folder).glob("*.py")):
            note(_identifiers(ast.parse(path.read_text(encoding="utf-8"))))
    for code in _readme_code():
        try:
            idents = [ident for ident, _, _ in _identifiers(ast.parse(code))]
        except SyntaxError:  # a shell line, JSON, CLI output
            idents = re.findall(r"[A-Za-z_]\w*", code)
        names.update(idents)
        members.update(idents)

    def used(name: str) -> bool:
        *owner, last = name.split(".")
        return last in (members if owner else names)

    return defined, used


def test_every_public_name_is_reached_outside_the_tests():
    defined, used = _surface()
    unreached = [
        f"{module}.{name}"
        for module, name in defined
        if not used(name) and (module, name) not in PAPER_SURFACE
    ]
    assert unreached == [], "delete these, or list them in PAPER_SURFACE with a reason"


def test_the_paper_surface_table_lists_only_unreached_names():
    defined, used = _surface()
    for (module, name), reason in PAPER_SURFACE.items():
        assert (module, name) in defined, name
        assert not used(name), f"{name} is reached; drop it from the table"
        assert reason
