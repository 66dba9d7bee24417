"""The pmf corpus and joint-source corpus, with the builders behind them.

Every distribution here is exact rational. The corpus deliberately mixes
dyadic pmfs (whose keys collapse to the empty string), the two-symbol
cycling case, richer non-dyadic sources, and degenerate point masses.
Nothing here imports pytest, so tools that replay the pins can read it.
"""

from fractions import Fraction

from stopkey.probability import JointPmf, Pmf
from stopkey.randomsource import RandomSource


def pmf(*masses) -> Pmf:
    return Pmf.from_masses(tuple(Fraction(m) for m in masses))


CORPUS = {
    "point": pmf(1),
    "uniform2": pmf("1/2", "1/2"),
    "dyadic3": pmf("1/2", "1/4", "1/4"),
    "thirds": pmf("1/3", "2/3"),
    "uniform3": pmf("1/3", "1/3", "1/3"),
    "sevenths": pmf("1/7", "2/7", "4/7"),
    "tenths": pmf("2/5", "3/10", "1/5", "1/10"),
}


def random_rational_pmf(rng: RandomSource, max_support: int = 8) -> Pmf:
    """A random pmf with small integer numerators over a common denominator."""
    n = 2 + rng.randrange(max_support - 1)
    weights = [1 + rng.randrange(12) for _ in range(n)]
    total = sum(weights)
    return Pmf.from_masses(tuple(Fraction(w, total) for w in weights))


def joint(rows, x_labels, y_labels) -> JointPmf:
    return JointPmf.from_rows(
        tuple(tuple(Fraction(c) for c in row) for row in rows),
        tuple(x_labels),
        tuple(y_labels),
    )


# The worked almost-common example: p = 3/4, disagreement concentrated on
# the (1, 0) cell, conditional-on-agree = (2/3, 1/3).
WORKED_JOINT = joint([["1/2", "0"], ["1/4", "1/4"]], "01", "01")


def diag_joint(p: Pmf) -> JointPmf:
    """X = Y with X ~ p."""
    n = len(p)
    rows = [[p.masses[i] if i == k else Fraction(0) for k in range(n)] for i in range(n)]
    return JointPmf.from_rows(tuple(tuple(r) for r in rows), p.labels, p.labels)


def product_joint(px: Pmf, py: Pmf) -> JointPmf:
    rows = [[mx * my for my in py.masses] for mx in px.masses]
    return JointPmf.from_rows(tuple(tuple(r) for r in rows), px.labels, py.labels)


CORRELATED_3 = joint(
    [["5/12", "1/12", "1/12"], ["1/12", "1/8", "1/24"], ["0", "1/24", "1/8"]],
    ("a", "b", "c"),
    ("a", "b", "c"),
)

FOUR_SYMBOL = joint(
    [
        ["7/20", "1/20", "0", "0"],
        ["0", "3/10", "0", "0"],
        ["0", "0", "1/5", "0"],
        ["0", "1/40", "0", "3/40"],
    ],
    "0123",
    "0123",
)
