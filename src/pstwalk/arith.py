"""Integer and rational helpers: 2-adic valuations, square-free parts,
continued-fraction reconstruction, and symbolic rendering of times."""

from __future__ import annotations

import math
from fractions import Fraction

from .tolerances import PI_FRACTION_FIT, PI_RANGE, PI_SQUARE_FIT, PI_SURD_FIT


def two_adic_valuation(a: int) -> float:
    """Exponent of the largest power of two dividing a; +inf for a = 0."""
    if a == 0:
        return math.inf
    a = abs(int(a))
    return float((a & -a).bit_length() - 1)


def squarefree_split(n: int, limit: int = 10**6) -> tuple[int, int]:
    """Write n = s**2 * d with d square-free; returns (s, d).

    Trial division up to `limit`; n is expected to be small (spectral data).
    """
    if n <= 0:
        raise ValueError("squarefree_split requires a positive integer")
    s, d = 1, 1
    p = 2
    while p * p <= n and p <= limit:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            s *= p ** (e // 2)
            d *= p ** (e % 2)
        p += 1 if p == 2 else 2
    return s, d * n


def reconstruct_fraction(value: float, q_max: int) -> tuple[int, int, float]:
    """Best rational p/q with q <= q_max (continued fractions); returns
    (p, q, |value - p/q|) with gcd(p, q) = 1."""
    frac = Fraction(value).limit_denominator(q_max)
    p, q = frac.numerator, frac.denominator
    return p, q, abs(value - p / q)


def _render_pi_fraction(a: int, b: int, d: int) -> str:
    """Format a*pi/(b*sqrt(d)) with the obvious simplifications."""
    num = "pi" if a == 1 else f"{a}*pi"
    if d == 1:
        return num if b == 1 else f"{num}/{b}"
    root = f"sqrt({d})"
    if b == 1:
        return f"{num}/{root}"
    return f"{num}/({b}*{root})"


def symbolic_pi_multiple(tau: float) -> str | None:
    """Render tau as "a*pi/(b*sqrt(d))" when that fit is exact to the
    tolerance block's PI_* thresholds.

    Returns None when tau does not match such a form (e.g. the underlying
    eigenvalue gap is not a quadratic integer).
    """
    r = tau / math.pi
    if not PI_RANGE[0] < r < PI_RANGE[1]:
        return None
    # Rational multiple of pi. Small numerator and denominator caps plus a
    # tight residual keep close approximants of surds (e.g. 1/sqrt(2) and
    # 1000*sqrt(2)) out.
    fr = Fraction(r).limit_denominator(10**4)
    if 0 < fr.numerator <= 10**4 and abs(r - float(fr)) <= PI_FRACTION_FIT * r:
        return _render_pi_fraction(fr.numerator, fr.denominator, 1)
    # Quadratic-surd multiple: r**2 rational => r = a*sqrt(u) / (b*sqrt(v)).
    fr2 = Fraction(r * r).limit_denominator(10**8)
    if fr2 <= 0 or abs(r * r - float(fr2)) > PI_SQUARE_FIT * r * r:
        return None
    sa, u = squarefree_split(fr2.numerator)
    sb, v = squarefree_split(fr2.denominator)
    d = u * v  # square-free since gcd(u, v) = 1 after reduction
    # tau = pi * sa*sqrt(u)/(sb*sqrt(v)): canonicalize to a*pi/(b*sqrt(d))
    # with a/b = sa*d/(sb*v) reduced.
    num, den = sa * d, sb * v
    g = math.gcd(num, den)
    a, b = num // g, den // g
    if d == 1 or max(a, b, d) > 10**4:
        return None  # not a clean surd; degrade to numeric-only rendering
    fit = a * math.pi / (b * math.sqrt(d))
    if abs(fit - tau) > PI_SURD_FIT * tau:
        return None
    return _render_pi_fraction(a, b, d)
