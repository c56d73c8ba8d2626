import math
import warnings

import numpy as np
import pytest

import pstwalk as pw
from conftest import basis_state, unit


def _dec(graph, kind=pw.ADJACENCY):
    return pw.decompose(pw.hamiltonian(graph, kind))


def _collect_pairs(rng, count):
    """Unit transfer pairs with their decomposition and time, drawn from
    synthesized Hamiltonians and the closed-form families."""
    pairs = []
    while len(pairs) < count:
        kind = len(pairs) % 3
        if kind == 0:
            n = int(rng.integers(2, 10))
            x = unit(rng.normal(size=n))
            y = rng.normal(size=n)
            y = unit(y - (y @ x) * x)
            m1 = int(rng.integers(1, n))
            m2 = int(rng.integers(1, n - m1 + 1))
            tau = float(rng.uniform(0.3, 5.0))
            m = pw.synthesize(pw.SynthesisRequest(x=x, y=y, tau=tau, m1=m1, m2=m2))
            pairs.append((pw.decompose(m), x, y, tau))
        elif kind == 1:
            n = int(rng.integers(2, 9))
            dec = _dec(pw.build_complete(n))
            x = rng.normal(size=n)
            while abs(x.sum()) < 0.1 * math.sqrt(n) * np.linalg.norm(x):
                x = rng.normal(size=n)
            x = unit(x)
            y, tau = pw.complete_graph_pst(n, x)
            pairs.append((dec, x, y, tau))
        else:
            n = int(rng.choice([8, 12, 16]))
            dec = _dec(pw.build_cycle(n))
            case = pw.cycle_pst_families(n)[0]
            sample = case.sample(rng, min_coef=0.25)
            pairs.append((dec, sample.x, sample.y, sample.tau))
    return pairs


def test_moment_formula_matches_finite_differences(rng):
    for dec, x, y, tau in _collect_pairs(rng, 12):
        report = pw.fidelity_derivatives(dec, x, y, tau, k_max=4)
        fd2 = pw.finite_difference_oracle(dec, unit(x), unit(y), tau, 2, 1e-3)
        assert abs(report.d2 - fd2) <= max(1e-4, 1e-3 * abs(report.d2))
        fd4 = pw.finite_difference_oracle(dec, unit(x), unit(y), tau, 4, 1e-3)
        if abs(report.derivatives[4]) > 1e-2:
            assert math.copysign(1.0, fd4) == math.copysign(1.0, report.derivatives[4])


def test_bound_and_odd_vanishing(rng):
    for dec, x, y, tau in _collect_pairs(rng, 12):
        report = pw.fidelity_derivatives(dec, x, y, tau, k_max=7)
        prof = pw.support(dec, unit(x))
        gap = float(prof.eigenvalues[0] - prof.eigenvalues[-1])
        assert report.bound_lo == pytest.approx(-0.5 * gap * gap, rel=1e-12)
        assert 0.0 > report.d2 >= report.bound_lo - 1e-8
        # the moment formula yields exact zeros for odd orders, well inside
        # the 1e-7 * scale**k envelope for every odd k up to seven
        assert all(report.derivatives[k] == 0.0 for k in report.derivatives if k % 2 == 1)
        assert abs(pw.finite_difference_oracle(dec, unit(x), unit(y), tau, 1, 1e-3)) <= 1e-5
        assert report.odd_max_abs <= 1e-4


@pytest.mark.parametrize("k_max", [1, 3, 7])
def test_odd_max_abs_is_the_oracle_calls_bit_for_bit(rng, k_max):
    # one sampling serves both odd orders: it reads exactly what a separate
    # finite_difference_oracle call per order reads (k = 1 only below k_max 3)
    for dec, x, y, tau in _collect_pairs(rng, 12):
        report = pw.fidelity_derivatives(dec, x, y, tau, k_max=k_max)
        orders = (1,) if k_max < 3 else (1, 3)
        want = max(abs(pw.finite_difference_oracle(dec, x, y, tau, k, 1e-3)) for k in orders)
        assert report.odd_max_abs == want


def test_moment_symmetry_on_pairs(rng):
    for dec, x, y, tau in _collect_pairs(rng, 6):
        assert np.max(np.abs(dec.moments(x, 8) - dec.moments(y, 8))) <= 1e-8


def test_cauchy_schwarz_step(rng):
    # (sum a_j lam_j)^2 <= sum a_j lam_j^2 for the support weights
    for dec, x, y, tau in _collect_pairs(rng, 6):
        yv = unit(y)
        weights = dec.norms(yv) ** 2
        lin = float(dec.eigenvalues @ weights)
        quad = float(dec.eigenvalues**2 @ weights)
        assert lin * lin <= quad + 1e-12


def test_size2_pairs_attain_bound(rng):
    for n in (4, 6, 9):
        g = pw.build_cycle(n)
        dec = _dec(g)
        x, y, tau = pw.universal_pst_pair(dec)
        x, y = unit(x), unit(y)
        report = pw.fidelity_derivatives(dec, x, y, tau, k_max=2)
        assert report.d2 == pytest.approx(report.bound_lo, abs=1e-8)


def test_petersen_example(rng):
    dec = _dec(pw.build_petersen())
    c = rng.uniform(0.3, 1.0, size=3) * rng.choice([-1.0, 1.0], size=3)
    c = c / np.linalg.norm(c)
    vs = [dec.eigenvector(j) for j in range(3)]
    x = c[0] * vs[0] + c[1] * vs[1] + c[2] * vs[2]
    y = -c[0] * vs[0] - c[1] * vs[1] + c[2] * vs[2]
    verdict = pw.pst_decide(dec, x, y)
    assert verdict.decision and verdict.tau_min == pytest.approx(math.pi, rel=1e-9)
    report = pw.fidelity_derivatives(dec, x, y, math.pi, k_max=2)
    assert -12.5 - 1e-9 <= report.d2 < 0.0
    assert report.bound_lo == pytest.approx(-12.5, rel=1e-12)


def test_refuses_non_transfer_input():
    dec = _dec(pw.build_cycle(5))
    with pytest.raises(pw.NotApplicableError):
        pw.fidelity_derivatives(dec, basis_state(5, 0), basis_state(5, 1), 1.0)


def test_refuses_what_the_cospectrality_check_refuses():
    # on P2, e0 returns to itself at tau = pi, so the numeric check alone
    # would pass y = +-x; unequal norms are refused before it too
    dec = _dec(pw.build_path(2))
    e0 = basis_state(2, 0)
    for y in (e0, -e0):
        assert pw.verify_pst_numeric(dec, e0, y, math.pi).passed
        with pytest.raises(pw.InvalidPairError, match="y must differ from both x and -x"):
            pw.fidelity_derivatives(dec, e0, y, math.pi)
    with pytest.raises(pw.InvalidPairError, match="states must have equal norms"):
        pw.fidelity_derivatives(dec, e0, 2.0 * basis_state(2, 1), math.pi / 2.0)


def _extremal_sensitivity(n, kind):
    """The extremal-time pair on n vertices, its decomposition and the
    second-order report of its transfer."""
    rep = pw.extremal_min_pst_search(n, kind)
    dec = _dec(rep.graph, kind)
    return rep, dec, pw.fidelity_derivatives(dec, rep.x, rep.y, rep.tau, 2)


def test_sensitivity_extremal():
    # the extremal-time pair attains f'' = -(lam_max - lam_min)^2 / 2 exactly
    # (-n^2/2 for the Laplacian walk)
    for n, kind, d2, tol in ((6, pw.LAPLACIAN, -18.0, 1e-8), (2, pw.ADJACENCY, -2.0, 1e-10)):
        sr = _extremal_sensitivity(n, kind)[2]
        assert sr.d2 == pytest.approx(d2, abs=tol)
        assert sr.bound_lo == pytest.approx(d2, abs=1e-8)
        assert abs(sr.d2 - sr.bound_lo) <= 1e-8 * max(1.0, abs(sr.bound_lo))


def test_extremal_matches_finite_difference():
    rep, dec, sr = _extremal_sensitivity(6, pw.LAPLACIAN)
    fd = pw.finite_difference_oracle(dec, unit(rep.x), unit(rep.y), rep.tau, 2, 1e-3)
    assert abs(fd - sr.d2) <= max(1e-4, 1e-3 * abs(sr.d2))


def _p7_end_pair(c):
    """Decomposition of c times the P7 adjacency matrix, the end pair
    e0 - e6 with its partner, and their transfer time."""
    dec = _dec(pw.make_graph(7, [(u, u + 1, c) for u in range(6)]))
    x = basis_state(7, 0, (6, -1.0))
    y = pw.pst_partner(dec, x)
    return dec, x, y, pw.pst_decide(dec, x, y).tau_min


@pytest.mark.parametrize("c", [1e-3, 1e3])
def test_derivatives_scale_as_c_to_the_k(c):
    want = pw.fidelity_derivatives(*_p7_end_pair(1.0), k_max=6).derivatives
    got = pw.fidelity_derivatives(*_p7_end_pair(c), k_max=6).derivatives
    for k in range(1, 7):
        assert got[k] == pytest.approx(c**k * want[k], rel=1e-9, abs=0.0)


@pytest.mark.parametrize("c", [1e-6, 1e-3, 1.0, 1e3])
def test_sensitivity_verdict_is_scale_invariant(c):
    # the second derivative is about -4 c^2: at c = 1e-6 it once read as near zero
    report = pw.fidelity_derivatives(*_p7_end_pair(c), k_max=2)
    assert report.bound_ok and not report.near_zero
    assert report.bound_lo <= report.d2 < 0.0


def test_moments_run_clean_at_large_scale():
    # P2 with weight w: f(t) = sin^2(w t), f'' = -2 w^2 and f'''' = 8 w^4 at
    # pi / 2w; the fourth derivative, 8e400, is beyond the float range
    dec = _dec(pw.make_graph(2, [(0, 1, 1e100)]))
    x, y = basis_state(2, 0), basis_state(2, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = pw.fidelity_derivatives(dec, x, y, math.pi / 2e100, k_max=4)
        assert np.max(np.abs(dec.moments(x, 4) - dec.moments(y, 4))) <= 1e-8
    assert report.d2 == pytest.approx(-2e200, rel=1e-12)
    assert report.derivatives[4] == math.inf and report.bound_ok


def test_underflowing_second_derivative_is_a_numeric_failure():
    # f''(tau) = -2e-400 rounds to -0 at weight 1e-200
    dec = _dec(pw.make_graph(2, [(0, 1, 1e-200)]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(pw.NumericFailureError, match="leaves the float range"):
            pw.fidelity_derivatives(dec, basis_state(2, 0), basis_state(2, 1), math.pi / 2e-200)
