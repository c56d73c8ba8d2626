"""Integer and rational helpers: 2-adic valuations, square-free parts,
continued-fraction reconstruction, and symbolic rendering of times."""

from __future__ import annotations

import math

from .tolerances import PI_FRACTION_FIT, PI_RANGE, PI_SQUARE_FIT, PI_SURD_FIT

TRIAL_LIMIT = 10**6  # squarefree_split divides out the primes up to it


def two_adic_valuation(a: int) -> float:
    """Exponent of the largest power of two dividing a; +inf for a = 0."""
    if a == 0:
        return math.inf
    a = abs(int(a))
    return float((a & -a).bit_length() - 1)


def squarefree_split(n: int) -> tuple[int, int]:
    """Write n = s**2 * d with d square-free; returns (s, d). Trial division
    up to TRIAL_LIMIT leaves a cofactor with no smaller prime factor: below
    10**18, 1, a prime, two primes' product or a prime squared, which one
    isqrt settles."""
    if n <= 0:
        raise ValueError("squarefree_split requires a positive integer")
    s, d, p = 1, 1, 2
    while p * p <= n and p <= TRIAL_LIMIT:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            s *= p ** (e // 2)
            d *= p ** (e % 2)
        p += 1 if p == 2 else 2
    root = math.isqrt(n)
    return (s * root, d) if root * root == n else (s, d * n)


def _best_fraction(value: float, q_max: int) -> tuple[int, int]:
    """The p/q with q <= q_max closest to value, as
    Fraction(value).limit_denominator(q_max) gives it, on plain ints.

    value.as_integer_ratio() is the exact value: it raises OverflowError for
    an infinity and ValueError for a NaN, as Fraction(value) does, before
    q_max < 1 raises ValueError. The continued fraction of n/d runs until the
    next convergent's denominator exceeds q_max; the answer is then the last
    convergent p1/q1 or the semiconvergent (p0 + k p1)/(q0 + k q1) with the
    largest k in bounds, whichever lies closer to n/d, the convergent on a
    tie, decided by exact cross-multiplication. Either is in lowest terms.
    """
    n, d = value.as_integer_ratio()
    if q_max < 1:
        raise ValueError("max_denominator should be at least 1")
    if d <= q_max:
        return n, d
    p0, q0, p1, q1 = 0, 1, 1, 0
    num, den = n, d
    while True:
        a = num // den
        q2 = q0 + a * q1
        if q2 > q_max:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        num, den = den, num - a * den
    k = (q_max - q0) // q1
    ps, qs = p0 + k * p1, q0 + k * q1
    # |p1/q1 - n/d| <= |ps/qs - n/d|, both sides multiplied by d q1 qs
    if abs(p1 * d - n * q1) * qs <= abs(ps * d - n * qs) * q1:
        return p1, q1
    return ps, qs


def reconstruct_fraction(value: float, q_max: int) -> tuple[int, int, float]:
    """Best rational p/q with q <= q_max (continued fractions, _best_fraction);
    returns (p, q, |value - p/q|) with gcd(p, q) = 1."""
    p, q = _best_fraction(value, q_max)
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
    p, q = _best_fraction(r, 10**4)
    if 0 < p <= 10**4 and abs(r - p / q) <= PI_FRACTION_FIT * r:
        return _render_pi_fraction(p, q, 1)
    # Quadratic-surd multiple: r**2 rational => r = a*sqrt(u) / (b*sqrt(v)).
    p, q = _best_fraction(r * r, 10**8)
    if p <= 0 or abs(r * r - p / q) > PI_SQUARE_FIT * r * r:
        return None
    sa, u = squarefree_split(p)
    sb, v = squarefree_split(q)
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
