"""The hash-check analysis summed round by round, one ``Fraction`` per step.

Kept as the oracle ``analyze_almost_common``'s integer sums over 2^top
are tested against: for every outcome it weighs each round by
P(W = w | y) = 2^-(w + n_w) / p*(y) as a ``Fraction`` and adds the error,
key-length and transcript-law masses one round at a time.
"""

from __future__ import annotations

from fractions import Fraction

from stopkey.common import _unpack_code
from stopkey.keylaws import KeyLaw
from stopkey.probability import JointPmf
from stopkey.reconciled import HashFunction, _bucket_check


def analyze(j: JointPmf, h: HashFunction, w_max: int = 30):
    """(collision_error, error_enumerated, unresolved, agreed_length, laws)."""
    col = err = unresolved = length = Fraction(0)
    acc: dict = {}

    def bucket_of(label):
        return h.values[h.labels.index(label)]

    def law_add(transcript, key, mass):
        bucket = acc.setdefault(transcript, {})
        bucket[key] = bucket.get(key, Fraction(0)) + mass

    for ix, iy, mass in j.atoms():
        xl, yl = j.x_labels[ix], j.y_labels[iy]
        same = xl == yl
        if not same and bucket_of(xl) == bucket_of(yl):
            col += mass
        w1, stage = _bucket_check(j, h, xl, yl)
        if stage is None:
            law_add((w1, None), "", mass)
            continue
        eng, xi, yi = stage
        py = eng.pmf.masses[yi]
        if py > 0:
            rounds = []
            for w in range(1, w_max + 1):
                n = eng.round(w).length_of(yi)
                if n is not None:
                    rounds.append((w, Fraction(1, 1 << (w + n)) / py))
        else:
            rounds = [(1, Fraction(1))]
        seen = Fraction(0)
        for w2, q in rounds:
            seen += q
            key_a, key_b = map(_unpack_code, eng.round(w2).keys((xi, yi)))
            ideal = key_a if same else ""
            law_add((w1, w2), ideal, mass * q)
            if key_a == key_b == ideal:
                length += mass * q * len(ideal)
            else:
                err += mass * q
        if not same:
            unresolved += mass * (1 - seen)
    laws = {}
    for t, bucket in acc.items():
        total = sum(bucket.values(), Fraction(0))
        laws[t] = KeyLaw.from_dict({k: v / total for k, v in bucket.items()})
    return col, err, unresolved, length, laws
