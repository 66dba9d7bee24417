"""Joint sampling over every |X|·|Y| cell, zero-mass cells included.

Kept as the oracle ``sample_joint``'s sampler over positive cells is
tested against: a zero mass is never a terminal of the Knuth-Yao tree,
so both give the same draw from the same fair bits.
"""

from __future__ import annotations

from stopkey.dyadic import KnuthYaoSampler
from stopkey.probability import JointPmf, Pmf


def sample_full_grid(j: JointPmf, rng) -> tuple[str, str]:
    grid = [j.mass_by_label(x, y) for x in j.x_labels for y in j.y_labels]
    idx, _ = KnuthYaoSampler(Pmf.from_masses(grid)).sample(rng)
    ix, iy = divmod(idx, len(j.y_labels))
    return j.x_labels[ix], j.y_labels[iy]
