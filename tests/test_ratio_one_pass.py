"""The one-pass ratio condition against the three-pass reference: the same
periodic/nonperiodic decision on every support, and the same RatioTable,
field by field, on every periodic one. ratio_condition reads no int_tol, so
its result does not move with it; classify_form still does."""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pstwalk as pw
from oracles import three_pass_ratio_condition
from pstwalk.periodicity import INTEGER, PHASE_ALIGNMENT, RatioTable

INT_TOL = pw.DEFAULT_TOLERANCES.int_tol
INT_TOLS = (1e-12, 1e-6, 1e-3)   # far below the phase test's residual bound, the default, far above
PRIMES = (9973, 9967, 9949, 9941, 9931)   # their product passes 2**63 at the fifth
MARGINS = (-3.0, -1.0, -0.01, 0.01, 1.0, 3.0)   # log10 of the distance to a threshold


def _assert_same(sup, cfg=pw.DEFAULT_TOLERANCES):
    """ratio_condition(sup, cfg) against the three-pass reference at the
    default tolerances; cfg may differ from them in int_tol alone."""
    got, want = pw.ratio_condition(sup, cfg), three_pass_ratio_condition(sup)
    assert isinstance(got, RatioTable) == isinstance(want, RatioTable), (sup, got, want)
    if isinstance(want, RatioTable):
        assert got == want
    else:
        assert 2 <= got.offending_index < len(sup)
    return got


def _spectrum(lam1, gap, ratios):
    """lam1 - gap * r for r = 0, 1 and each of ratios (increasing, > 1)."""
    return np.array([lam1, lam1 - gap] + [lam1 - gap * r for r in ratios])


@st.composite
def rational_supports(draw, perturb):
    """A support whose ratios are reduced fractions with small denominators,
    exact or (perturb) moved off them on some positions by a distance 10**k
    times int_tol, or 10**k times the residual at which the phases at the
    table's lcm stop aligning."""
    parts = draw(st.lists(st.tuples(st.integers(1, 40), st.integers(1, 12)), min_size=1, max_size=7))
    fracs = sorted({1 + Fraction(a, q) for a, q in parts})
    lam1 = draw(st.sampled_from([0.0, 3.0, -2.5, 7.25, 1e3]))
    gap = draw(st.sampled_from([1.0, 0.5, math.sqrt(2.0), 3.0, 1e-2]))
    ratios = [float(f) for f in fracs]
    if perturb:
        lcm = math.lcm(*(f.denominator for f in fracs))
        unit = draw(st.sampled_from([INT_TOL, PHASE_ALIGNMENT / (2.0 * math.pi * lcm)]))
        for j in range(len(ratios)):
            if draw(st.booleans()):
                sign = draw(st.sampled_from([-1.0, 1.0]))
                ratios[j] += sign * unit * 10.0 ** draw(st.sampled_from(MARGINS))
    return _spectrum(lam1, gap, ratios)


@st.composite
def surd_supports(draw):
    """A subset of at least two distinct eigenvalues of a path (adjacency or
    Laplacian) or a cycle on at most 30 vertices."""
    family = draw(st.sampled_from(["path-adj", "path-lap", "cycle"]))
    n = draw(st.integers(3 if family == "cycle" else 2, 30))
    graph = pw.build_cycle(n) if family == "cycle" else pw.build_path(n)
    kind = pw.LAPLACIAN if family == "path-lap" else pw.ADJACENCY
    eig = pw.decompose(pw.hamiltonian(graph, kind)).eigenvalues
    keep = draw(st.lists(st.booleans(), min_size=len(eig), max_size=len(eig)))
    idx = [j for j, k in enumerate(keep) if k]
    if len(idx) < 2:
        idx = [0, len(eig) - 1]
    return eig[idx]


@st.composite
def prime_supports(draw):
    """Exact ratios j + 1/q over some of the five primes near 10**4, in any
    order, so that the running lcm reaches 2**63 at the fifth prime if all
    five are present; optionally one position moved off by a margin around
    the phase threshold of the primes' lcm."""
    primes = draw(st.permutations(PRIMES))[:draw(st.integers(1, 5))]
    ratios = [j + 2 + 1.0 / q for j, q in enumerate(primes)]
    if draw(st.booleans()):
        j = draw(st.integers(0, len(ratios) - 1))
        unit = PHASE_ALIGNMENT / (2.0 * math.pi * math.prod(primes))
        ratios[j] += unit * 10.0 ** draw(st.sampled_from(MARGINS))
    return _spectrum(0.0, 1.0, ratios)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.one_of(rational_supports(perturb=False), rational_supports(perturb=True),
                 surd_supports(), prime_supports()))
def test_one_pass_matches_three_pass(sup):
    got = _assert_same(sup)
    for int_tol in INT_TOLS:  # the same table, or NonPeriodic at the same position
        assert _assert_same(sup, replace(pw.DEFAULT_TOLERANCES, int_tol=int_tol)) == got


@pytest.mark.parametrize("position", [0, -1])
def test_margin_supports_land_on_both_sides(position):
    # ratios 3/2, 7/3, 11/4 (lcm 12), on the first or the last ratio: ten
    # times under the phase threshold stays periodic and ten times over it
    # is refused; around the default int_tol (far above the phase threshold)
    # both sides are refused, by the phase test
    fracs = [Fraction(3, 2), Fraction(7, 3), Fraction(11, 4)]
    phase_unit = PHASE_ALIGNMENT / (2.0 * math.pi * 12)
    for unit, k, periodic in ((phase_unit, -1.0, True), (phase_unit, 1.0, False),
                              (INT_TOL, -1.0, False), (INT_TOL, 1.0, False)):
        ratios = [float(f) for f in fracs]
        ratios[position] += unit * 10.0 ** k
        got = _assert_same(_spectrum(3.0, 1.0, ratios))
        assert isinstance(got, RatioTable) is periodic
        if not periodic:
            assert got.residual == pytest.approx(unit * 10.0 ** k, rel=1e-6)


def test_int_tol_still_sets_the_spectral_form():
    # the support 2, 1, 0 shifted by 1e-7: its table is the same at every
    # int_tol, but lambda1 is an integer to 1e-6 and not to 1e-8
    sup = np.array([2.0, 1.0, 0.0]) + 1e-7
    table = pw.ratio_condition(sup)
    assert isinstance(table, RatioTable) and table.lcm == 1
    for int_tol in INT_TOLS:
        assert pw.ratio_condition(sup, replace(pw.DEFAULT_TOLERANCES, int_tol=int_tol)) == table
    form = pw.classify_form(table)
    assert form.variant == INTEGER and form.b == (4, 2, 0)
    assert pw.classify_form(table, replace(pw.DEFAULT_TOLERANCES, int_tol=1e-8)) is None
