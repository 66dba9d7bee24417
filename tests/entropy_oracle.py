"""Exact integer log2, and certified exact-rational brackets for log2 and
for entropy.

Kept as the reference the double-precision ``entropy`` is tested against:
the float must lie inside the bracket, which directed integer rounding
makes certain without trusting floating point. ``ceil_neg_log2`` also
serves the literal agreement loop in ``literal_oracle``.
"""

from __future__ import annotations

from fractions import Fraction

from stopkey.probability import Pmf

FRAC_BITS = 40  # the brackets are about 2**-FRAC_BITS wide


def ceil_neg_log2(r: Fraction) -> int:
    """Smallest integer a >= 0 with 2**-a <= r, for rational r in (0, 1].

    Evaluated by exact integer comparison (never via floating-point log):
    a is the least integer with den <= num << a.
    """
    assert 0 < r <= 1, r
    num, den = r.numerator, r.denominator
    # smallest a with num * 2**a >= den, i.e. 2**a >= ceil(den / num)
    c = -(-den // num)
    return (c - 1).bit_length()


def floor_log2(r: Fraction) -> int:
    """Largest integer e with 2**e <= r, for rational r > 0."""
    assert r > 0, r
    if r <= 1:
        return -ceil_neg_log2(r)
    return (r.numerator // r.denominator).bit_length() - 1


def log2_interval(r: Fraction) -> tuple[Fraction, Fraction]:
    """Certified bracket lo <= log2(r) <= hi with dyadic rational endpoints.

    Uses the classic squaring recurrence with directed integer rounding at
    2 * FRAC_BITS + 16 guard bits, so the bracket width is about
    2**-FRAC_BITS. Exact powers of two get a zero-width bracket.
    """
    assert r > 0, r
    num, den = r.numerator, r.denominator
    if num & (num - 1) == 0 and den & (den - 1) == 0:
        e = num.bit_length() - den.bit_length()
        return Fraction(e), Fraction(e)
    e = floor_log2(r)
    # scale r into [1, 2) exactly
    if e >= 0:
        den <<= e
    else:
        num <<= -e
    prec = 2 * FRAC_BITS + 16
    one = 1 << prec
    two = 2 << prec
    scaled = num << prec
    z_lo = scaled // den
    z_hi = -((-scaled) // den)
    bits_lo = 0
    bits_hi = 0
    for _ in range(FRAC_BITS):
        z_lo = (z_lo * z_lo) >> prec
        bits_lo <<= 1
        if z_lo >= two:
            bits_lo |= 1
            z_lo >>= 1
        if z_lo < one:
            z_lo = one
        z_hi = (z_hi * z_hi + one - 1) >> prec
        bits_hi <<= 1
        if z_hi >= two:
            bits_hi |= 1
            z_hi = (z_hi + 1) >> 1
    scale = 1 << FRAC_BITS
    lo = e + Fraction(bits_lo, scale)
    hi = e + Fraction(bits_hi + 1, scale)
    return lo, hi


def entropy_interval(p: Pmf) -> tuple[Fraction, Fraction]:
    """Certified rational bracket for the entropy of a Pmf in bits.

    Dyadic pmfs get a zero-width (exact) bracket.
    """
    lo = hi = Fraction(0)
    for m in p.masses:
        if m > 0:
            llo, lhi = log2_interval(m)
            lo += -m * lhi
            hi += -m * llo
    return lo, hi
