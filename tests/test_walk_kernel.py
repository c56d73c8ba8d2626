"""The walk kernel (`spectral.walk`) against the evolve-based path it
replaced, and its one overflow guard and one fidelity clamp.

`_reference_fidelity` and `_reference_fd` are copies of the fidelity and the
finite-difference oracle as they were computed before the kernel: each
sample by a full evolution U(t) x, then y^T U(t) x.
"""

import dataclasses
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pstwalk as pw
from pstwalk import spectral, transfer
from conftest import basis_state, cases, decompose_graph, pair_state
from pstwalk.errors import NumericFailureError

TIMES = st.lists(st.floats(0.0, 20.0), min_size=1, max_size=12)
EPS = np.finfo(float).eps


def _reference_fidelity(dec, t, x, y):
    phases = np.exp(1j * t * np.repeat(dec.eigenvalues, dec.multiplicities))
    v = dec.basis.dense()
    coef = phases * (v.T @ x)
    z = v @ coef.real + 1j * (v @ coef.imag)
    val = float(abs(y @ z) ** 2 / (np.dot(x, x) * np.dot(y, y)))
    return min(val, 1.0) if val <= 1.0 + 1e-9 else val


def _stencil(k, h):
    offsets = np.arange(-4, 5, dtype=float)
    rhs = np.zeros(9)
    rhs[k] = math.factorial(k)
    return offsets, np.linalg.solve(np.vander(offsets, 9, increasing=True).T, rhs) / h**k


def _reference_fd(dec, x, y, tau, k, h):
    offsets, weights = _stencil(k, h)
    return float(weights @ np.array([_reference_fidelity(dec, tau + o * h, x, y) for o in offsets]))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(cases(), TIMES)
def test_fidelity_of_an_array_equals_the_scalar_calls(case, times):
    g, kind, x, y, _ = case
    dec = decompose_graph(g, kind)
    got = pw.fidelity(dec, np.array(times), x, y)
    assert got.shape == (len(times),)
    want = [pw.fidelity(dec, t, x, y) for t in times]
    # an array is summed by a matrix-vector product, a scalar by a dot
    # product: they may differ in the last bits
    assert np.max(np.abs(got - want)) <= 1e-14


def _check_scan(dec, x, y, t_max, steps):
    """The scan's grid, formed from a factorised phase table, against the
    fidelity at its times: to 16 eps (1 + |t_max| max|lambda|), the rounding
    of phases t lambda formed in two factors, and to 1e-12 against the evolve
    path while that rounding stays below it (|t_max| <= 20). The refined peak
    is the scalar fidelity at its time whenever it beats the grid."""
    scan = pw.fidelity_scan(dec, x, y, t_max, steps)
    assert np.array_equal(scan.times, np.linspace(0.0, t_max, steps))
    bound = 16 * EPS * (1.0 + abs(t_max) * np.abs(dec.eigenvalues).max())
    assert np.max(np.abs(scan.values - pw.fidelity(dec, scan.times, x, y))) <= bound
    if abs(t_max) <= 20.0:
        ref = [_reference_fidelity(dec, t, x, y) for t in scan.times]
        assert np.max(np.abs(scan.values - ref)) <= 1e-12
    best = int(np.argmax(scan.values))
    if (scan.peak_time, scan.peak_value) != (scan.times[best], scan.values[best]):
        assert scan.peak_value == pw.fidelity(dec, scan.peak_time, x, y)
        assert scan.peak_value >= scan.values[best]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(cases(), st.floats(0.5, 20.0), st.integers(2, 300))
def test_scan_values_are_the_fidelity_of_its_times(case, t_max, steps):
    g, kind, x, y, _ = case
    _check_scan(decompose_graph(g, kind), x, y, t_max, steps)


SCAN_GRAPHS = {"P40": pw.build_path(40), "C31": pw.build_cycle(31),
               "Q6": pw.build_hypercube(6), "K9": pw.build_complete(9)}


@pytest.mark.parametrize("name", SCAN_GRAPHS)
@pytest.mark.parametrize("kind", [pw.ADJACENCY, pw.LAPLACIAN])
@pytest.mark.parametrize("t_max", [0.0, 1e-3, -5.0, 1e5])
def test_scan_grid_at_edge_sizes_and_times(name, kind, t_max):
    # steps around the square 256 = 16^2 (full last row, one more, one less),
    # the fewest, a prime and a long grid
    g = SCAN_GRAPHS[name]
    dec = decompose_graph(g, kind)
    x, y = pair_state(g.n, 0, 1, 1.0), pair_state(g.n, g.n - 2, g.n - 1, 1.0)
    for steps in (2, 3, 17, 255, 256, 257, 4001):
        _check_scan(dec, x, y, t_max, steps)


def _walks(monkeypatch, *args):
    """fidelity_scan(*args) and the number of scalar walks it made."""
    calls = []
    real = transfer.walk

    def spy(*a):
        calls.append(a[1])
        return real(*a)

    with monkeypatch.context() as m:
        m.setattr(transfer, "walk", spy)
        return pw.fidelity_scan(*args), len(calls)


@pytest.mark.parametrize("name", SCAN_GRAPHS)
@pytest.mark.parametrize("kind", [pw.ADJACENCY, pw.LAPLACIAN])
def test_peak_refinement_walks(monkeypatch, name, kind):
    """The Newton refinement walks at most 5 times, plus the final walk of the
    peak, on every grid of test_scan_grid_at_edge_sizes_and_times that
    resolves the walk: |dt| (lambda_max - lambda_min) <= pi. On a coarser grid
    (t_max = 1e5, or -5 at 2 or 3 steps) the bracket holds many oscillations
    and bisection must first reach a concave stretch, so only the loop's own
    bound of 64 walks holds there. The peak lies in the scanned window, for
    t_max <= 0 too."""
    g = SCAN_GRAPHS[name]
    dec = decompose_graph(g, kind)
    spread = dec.eigenvalues[0] - dec.eigenvalues[-1]
    x, y = pair_state(g.n, 0, 1, 1.0), pair_state(g.n, g.n - 2, g.n - 1, 1.0)
    for t_max in (0.0, 1e-3, -5.0, 1e5):
        for steps in (2, 3, 17, 255, 256, 257, 4001):
            scan, walks = _walks(monkeypatch, dec, x, y, t_max, steps)
            assert walks <= (6 if abs(t_max) / (steps - 1) * spread <= math.pi else 65)
            assert min(0.0, t_max) <= scan.peak_time <= max(0.0, t_max)
            assert scan.peak_value >= scan.values.max()


@pytest.mark.parametrize("d", [3, 4, 5, 6])
@pytest.mark.parametrize("kind", [pw.ADJACENCY, pw.LAPLACIAN])
@pytest.mark.parametrize("t_max", [2.0, 5.0])
def test_antipodal_peak_to_a_few_ulp(d, kind, t_max):
    # Q_d transfers a vertex to its antipode at every odd multiple of pi/2;
    # the golden-section refinement stopped about 5e-9 away
    dec = decompose_graph(pw.build_hypercube(d), kind)
    n = 1 << d
    scan = pw.fidelity_scan(dec, basis_state(n, 0), basis_state(n, n - 1), t_max, 256)
    want = round(scan.peak_time / (math.pi / 2)) * (math.pi / 2)
    assert abs(scan.peak_time - want) <= 4 * np.spacing(want)
    assert scan.peak_value == pytest.approx(1.0, abs=1e-14)


def test_roundoff_amplitudes_stop_at_the_first_walk(monkeypatch):
    # on C102 the overlaps of (26, 27) with (0, 1) cancel to roundoff: one
    # Newton walk sees a derivative inside its rounding bound, then the peak
    # takes the final walk
    dec = decompose_graph(pw.build_cycle(102), pw.ADJACENCY)
    x, y = pair_state(102, 26, 27, 1.0), pair_state(102, 0, 1, 1.0)
    assert np.abs(pw.fidelity(dec, np.linspace(0.0, 2.0, 256), x, y)).max() < 1e-28
    _, walks = _walks(monkeypatch, dec, x, y, 2.0, 256)
    assert walks == 2


P2 = decompose_graph(pw.build_path(2), pw.ADJACENCY)
DBL_MAX = sys.float_info.max


def test_scan_near_the_float_maximum_is_refused_cleanly():
    # np.linspace(0, t_max, steps) forms (steps - 1) * dt, which rounds to inf
    # for 162 of these (t_max, steps); each is refused before any time is formed
    x, y = basis_state(2, 0), basis_state(2, 1)
    done = refused = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for t_max in (DBL_MAX, -DBL_MAX, 1e308):
            for steps in range(2, 300):
                overflows = math.isinf((steps - 1) * (t_max / (steps - 1)))
                try:
                    scan = pw.fidelity_scan(P2, x, y, t_max, steps)
                except NumericFailureError:
                    assert overflows
                    refused += 1
                    continue
                assert not overflows and np.isfinite(scan.times).all()
                assert min(0.0, t_max) <= scan.peak_time <= max(0.0, t_max)
                done += 1
        # numpy scalars too: the guard forms the last time as a Python float
        with pytest.raises(NumericFailureError):
            pw.fidelity_scan(P2, x, y, np.float64(DBL_MAX), np.int64(4))
    assert (done, refused) == (732, 162)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(cases(), st.floats(0.0, 20.0), st.sampled_from([1, 2]))
def test_fidelity_and_stencil_match_the_evolve_path(case, tau, k):
    g, kind, x, y, _ = case
    dec = decompose_graph(g, kind)
    assert abs(pw.fidelity(dec, tau, x, y) - _reference_fidelity(dec, tau, x, y)) <= 1e-12
    # samples agreeing to 1e-12 move the stencil by at most 1e-12 times its weight sum
    h = 1e-2
    bound = 1e-12 * np.abs(_stencil(k, h)[1]).sum()
    got = pw.finite_difference_oracle(dec, x, y, tau, k, h)
    assert abs(got - _reference_fd(dec, x, y, tau, k, h)) <= bound


K5 = decompose_graph(pw.build_complete(5), pw.ADJACENCY)
X5, Y5 = pair_state(5, 0, 1), pair_state(5, 2, 3)


@pytest.mark.parametrize("call", [
    lambda: pw.evolve(K5, 1e308, X5),
    lambda: pw.transition_matrix(K5, 1e308),
    lambda: pw.fidelity(K5, 1e308, X5, Y5),
    lambda: pw.verify_pst_numeric(K5, X5, Y5, 1e308),
    lambda: pw.fidelity_scan(K5, X5, Y5, 1e308, 16),
    lambda: pw.finite_difference_oracle(K5, X5, Y5, 1e308, 1, 1e-3),
    lambda: pw.join_transition_matrix(pw.build_cycle(3), pw.build_complete(2), pw.ADJACENCY, 1e308),
    lambda: pw.join_transition_matrix(pw.build_cycle(3), pw.build_complete(2), pw.LAPLACIAN, 1e308),
], ids=["evolve", "transition_matrix", "fidelity", "verify_pst_numeric", "fidelity_scan",
        "finite_difference_oracle", "join_transition_matrix-adj", "join_transition_matrix-lap"])
def test_overflowing_phase_is_a_numeric_failure(call):
    # t * lambda = 4e308 (5e308 for the Laplacian join's closed-form phase) is
    # not finite; each consumer stops at the kernel's guard
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericFailureError, match="walk phase t\\*lambda is not finite"):
            call()


def test_fidelity_above_one_shows_alike():
    # eigenvectors scaled by 1.001 inflate every amplitude by 1.001^2: the
    # fidelity reads 1.001^4, above the 1 + 1e-9 clamp, on every path
    dec = decompose_graph(pw.build_path(2), pw.ADJACENCY)
    bad = dataclasses.replace(dec, basis=spectral.DenseBasis(dec.basis.dense() * 1.001))
    x, y = basis_state(2, 0), basis_state(2, 1)
    want = 1.001**4
    assert pw.fidelity(bad, math.pi / 2, x, y) == pytest.approx(want, rel=1e-12)
    assert pw.verify_pst_numeric(bad, x, y, math.pi / 2).fidelity == pytest.approx(want, rel=1e-12)
    scan = pw.fidelity_scan(bad, x, y, math.pi, 101)
    assert scan.peak_value == pytest.approx(want, rel=1e-12)
    assert scan.values.max() > 1.0 + 1e-9
