"""The hash-check average taken literally, over every one of the m^|X| tables.

Kept as the oracle ``average_almost_common``'s sum over bucket contents is
tested against: both must give the same four ``Fraction`` sums.
"""

from __future__ import annotations

from fractions import Fraction

from stopkey.probability import JointPmf
from stopkey.reconciled import all_hash_tables, analyze_almost_common, union_alphabet


def average_over_tables(
    j: JointPmf, m: int, w_max: int = 30
) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """(collision_error, error_enumerated, unresolved, agreed_length), averaged."""
    labels = union_alphabet(j)
    sums = [Fraction(0)] * 4
    for h in all_hash_tables(labels, m):
        a = analyze_almost_common(j, h, w_max=w_max, collect_laws=False)
        parts = (a.collision_error, a.error_enumerated, a.unresolved, a.agreed_length)
        sums = [s + v for s, v in zip(sums, parts)]
    count = m ** len(labels)
    return tuple(s / count for s in sums)
