import math
from fractions import Fraction

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
