"""The one-way sketch reconciler's exact law, written out by hand.

Kept as the oracle the pushforward of ``OneWayHashReconciler.run`` is
tested against: the transcript weights are the X-marginal summed per
sketch value, and each conditional joint re-applies the sketch filter
and Bob's posterior decoder cell by cell.
"""

from __future__ import annotations

from fractions import Fraction

from stopkey.probability import JointPmf
from stopkey.reconciled import OneWayHashReconciler


def decode(j: JointPmf, yl: str, sketch: int, table: dict[str, int]) -> str:
    """Bob's sketch-consistent symbol of highest posterior, ties to the first."""
    best = None
    best_mass = None
    for xl in j.x_labels:
        if table[xl] != sketch:
            continue
        mass = j.mass_by_label(xl, yl)
        if mass == 0:
            continue
        if best_mass is None or mass > best_mass:
            best, best_mass = xl, mass
    assert best is not None
    return best


def transcript_weights(r: OneWayHashReconciler, j: JointPmf):
    table = r.sketch_table(j)
    px = j.marginal_x()
    weights: dict[int, Fraction] = {}
    for i, xl in enumerate(j.x_labels):
        if px.masses[i] > 0:
            s = table[xl]
            weights[s] = weights.get(s, Fraction(0)) + px.masses[i]
    return tuple(((("alice", "sketch", s),), w) for s, w in sorted(weights.items()))


def conditional_joint(r: OneWayHashReconciler, j: JointPmf, transcript) -> JointPmf:
    s = transcript[0][2]
    table = r.sketch_table(j)
    atoms = []
    total = Fraction(0)
    for ix, iy, mass in j.atoms():
        xl, yl = j.x_labels[ix], j.y_labels[iy]
        if table[xl] != s:
            continue
        atoms.append((xl, decode(j, yl, s, table), mass))
        total += mass
    assert total > 0
    scaled = [(a, b, mass / total) for a, b, mass in atoms]
    return JointPmf.from_atoms(scaled, j.x_labels, j.x_labels)
