import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pstwalk.arith import (
    reconstruct_fraction,
    squarefree_split,
    symbolic_pi_multiple,
    two_adic_valuation,
)


def test_two_adic_valuation():
    assert two_adic_valuation(0) == math.inf
    assert two_adic_valuation(1) == 0
    assert two_adic_valuation(2) == 1
    assert two_adic_valuation(12) == 2
    assert two_adic_valuation(-12) == 2
    assert two_adic_valuation(96) == 5


def test_squarefree_split():
    assert squarefree_split(1) == (1, 1)
    assert squarefree_split(8) == (2, 2)
    assert squarefree_split(97) == (1, 97)
    assert squarefree_split(180) == (6, 5)
    # past the trial division: the cofactor is a prime, a prime squared or
    # a product of two primes
    big, other = 1000003, 1000033
    assert squarefree_split(big) == (1, big)
    assert squarefree_split(big * big) == (big, 1)
    assert squarefree_split(12 * big * big) == (2 * big, 3)
    assert squarefree_split(big * other) == (1, big * other)
    assert squarefree_split(999983 ** 2) == (999983, 1)
    with pytest.raises(ValueError):
        squarefree_split(0)


# independent continued-fraction oracle for reconstruct_fraction
def _cf_best_fraction(x, q_max):
    p0, q0, p1, q1 = 0, 1, 1, 0
    value = x
    for _ in range(64):
        a = math.floor(value)
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
        if q1 > q_max:
            # best approximation with denominator <= q_max lies on the last
            # convergent or a semiconvergent; fall back to scanning those
            k = (q_max - q0) // q1 if q1 else 0
            cand = [(p0, q0)]
            if k > 0:
                cand.append((p0 + k * p1, q0 + k * q1))
            return min(cand, key=lambda pq: abs(x - pq[0] / pq[1]))
        frac = value - a
        if frac < 1e-15:
            return p1, q1
        value = 1.0 / frac
    return p1, q1


@pytest.mark.parametrize("x", [0.5, 2.0, 1.5, 5.0 / 3.0, 2.0 / 7.0, 355.0 / 113.0])
def test_reconstruct_matches_cf_oracle(x):
    p, q, err = reconstruct_fraction(x, 10_000)
    po, qo = _cf_best_fraction(x, 10_000)
    assert (p, q) == (po, qo)
    assert err <= 1e-12
    assert math.gcd(p, q) == 1


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=-500, max_value=500), st.integers(min_value=1, max_value=97))
def test_reconstruct_exact_rationals(p, q):
    got_p, got_q, err = reconstruct_fraction(p / q, 10_000)
    frac = Fraction(p, q)
    assert (got_p, got_q) == (frac.numerator, frac.denominator)
    assert err <= 1e-12


# any sign and magnitude, subnormals included; dyadic values m / 2**e; and
# the midpoints (2i + 1) / (2q) of two neighbours i/q and (i + 1)/q, which
# tie for q = 1 and q = 2
FINITE = st.floats(allow_nan=False, allow_infinity=False)
DYADIC = st.builds(math.ldexp, st.integers(-2**53, 2**53), st.integers(-1074, 60))
Q_MAX = st.sampled_from([1, 2, 10**4, 10**8])


def _as_fraction(value, q_max):
    frac = Fraction(value).limit_denominator(q_max)
    return frac.numerator, frac.denominator, abs(value - frac.numerator / frac.denominator)


@settings(max_examples=400, deadline=None)
@given(st.one_of(FINITE, DYADIC), Q_MAX)
def test_reconstruct_matches_limit_denominator(value, q_max):
    assert reconstruct_fraction(value, q_max) == _as_fraction(value, q_max)


@settings(max_examples=200, deadline=None)
@given(st.integers(-10**6, 10**6), st.sampled_from([1, 2]))
def test_reconstruct_breaks_midpoint_ties_as_limit_denominator(i, q_max):
    value = (2 * i + 1) / (2 * q_max)
    got = reconstruct_fraction(value, q_max)
    assert got == _as_fraction(value, q_max)
    assert got[2] == 1 / (2 * q_max)


@pytest.mark.parametrize("value,q_max", [(math.inf, 10), (-math.inf, 10), (math.nan, 10), (0.5, 0),
                                         (0.5, -3), (math.inf, 0), (math.nan, -1)])
def test_reconstruct_refuses_as_limit_denominator(value, q_max):
    with pytest.raises((OverflowError, ValueError)) as want:
        Fraction(value).limit_denominator(q_max)
    with pytest.raises((OverflowError, ValueError)) as got:
        reconstruct_fraction(value, q_max)
    assert type(got.value) is type(want.value)


def test_symbolic_rendering_frozen():
    # 200 times: rational and surd multiples of pi, the same off by 1e-10
    # and 1e-13, seeded random times, and edge values; the renderings as
    # recorded when symbolic_pi_multiple still ran on fractions.Fraction
    table = json.loads((Path(__file__).parent / "golden" / "symbolic_pi.json").read_text())
    assert len(table) == 200
    assert [symbolic_pi_multiple(float.fromhex(tau)) for tau, _ in table] == [want for _, want in table]


def test_symbolic_rendering():
    cases = {
        math.pi / 6: "pi/6",
        math.pi / math.sqrt(2): "pi/sqrt(2)",
        math.pi / (2 * math.sqrt(2)): "pi/(2*sqrt(2))",
        math.pi / math.sqrt(97): "pi/sqrt(97)",
        math.pi: "pi",
        3 * math.pi / 2: "3*pi/2",
        math.pi / math.sqrt(5): "pi/sqrt(5)",
    }
    for tau, want in cases.items():
        assert symbolic_pi_multiple(tau) == want
    assert symbolic_pi_multiple(1.7) is None
    # golden-ratio multiple must not be mistaken for a rational multiple
    assert symbolic_pi_multiple(math.pi * (1 + math.sqrt(5)) / 2) is None
    # a large surd multiple must not be mistaken for a rational multiple
    # either; rational multiples with a numerator above 10**4 are not rendered
    assert symbolic_pi_multiple(1000 * math.pi * math.sqrt(2)) == "2000*pi/sqrt(2)"
    assert symbolic_pi_multiple(10**4 * math.pi / 7) == "10000*pi/7"
    assert symbolic_pi_multiple(10001 * math.pi / 7) is None
    # beyond every rendered form; r * r would overflow or underflow
    for tau in (math.pi / 2e-200, 1e300, 1e-300, 5e-324, -math.pi, math.inf, math.nan):
        assert symbolic_pi_multiple(tau) is None
    assert symbolic_pi_multiple(10**4 * math.pi) == "10000*pi"
    assert symbolic_pi_multiple(math.pi / 10**4) == "pi/10000"
