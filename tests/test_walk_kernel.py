"""The walk kernel (`spectral.walk`) against the evolve-based path it
replaced, and its one overflow guard and one fidelity clamp.

`_reference_fidelity` and `_reference_fd` are copies of the fidelity and the
finite-difference oracle as they were computed before the kernel: each
sample by a full evolution U(t) x, then y^T U(t) x.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pstwalk as pw
from conftest import basis_state, pair_state
from pstwalk.errors import NumericFailureError
from test_metamorphic import cases

TIMES = st.lists(st.floats(0.0, 20.0), min_size=1, max_size=12)


def _reference_fidelity(dec, t, x, y):
    phases = np.exp(1j * t * np.repeat(dec.eigenvalues, dec.multiplicities))
    coef = phases * (dec.vectors.T @ x)
    z = dec.vectors @ coef.real + 1j * (dec.vectors @ coef.imag)
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


def _dec(g, kind):
    return pw.decompose(pw.hamiltonian(g, kind))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(cases(), TIMES)
def test_fidelity_of_an_array_equals_the_scalar_calls(case, times):
    g, kind, x, y, _ = case
    dec = _dec(g, kind)
    got = pw.fidelity(dec, np.array(times), x, y)
    assert got.shape == (len(times),)
    want = [pw.fidelity(dec, t, x, y) for t in times]
    # an array is summed by a matrix-vector product, a scalar by a dot
    # product: they may differ in the last bits
    assert np.max(np.abs(got - want)) <= 1e-14


@settings(max_examples=60, deadline=None, derandomize=True)
@given(cases(), st.floats(0.5, 20.0), st.integers(2, 300))
def test_scan_values_are_the_fidelity_of_its_times(case, t_max, steps):
    g, kind, x, y, _ = case
    dec = _dec(g, kind)
    scan = pw.fidelity_scan(dec, x, y, t_max, steps)
    assert np.array_equal(scan.values, pw.fidelity(dec, scan.times, x, y))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(cases(), st.floats(0.0, 20.0), st.sampled_from([1, 2]))
def test_fidelity_and_stencil_match_the_evolve_path(case, tau, k):
    g, kind, x, y, _ = case
    dec = _dec(g, kind)
    assert abs(pw.fidelity(dec, tau, x, y) - _reference_fidelity(dec, tau, x, y)) <= 1e-12
    # samples agreeing to 1e-12 move the stencil by at most 1e-12 times its weight sum
    h = 1e-2
    bound = 1e-12 * np.abs(_stencil(k, h)[1]).sum()
    got = pw.finite_difference_oracle(dec, x, y, tau, k, h)
    assert abs(got - _reference_fd(dec, x, y, tau, k, h)) <= bound


K5 = _dec(pw.build_complete(5), pw.ADJACENCY)
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
    dec = _dec(pw.build_path(2), pw.ADJACENCY)
    bad = dataclasses.replace(dec, vectors=dec.vectors * 1.001)
    x, y = basis_state(2, 0), basis_state(2, 1)
    want = 1.001**4
    assert pw.fidelity(bad, math.pi / 2, x, y) == pytest.approx(want, rel=1e-12)
    assert pw.verify_pst_numeric(bad, x, y, math.pi / 2).fidelity == pytest.approx(want, rel=1e-12)
    scan = pw.fidelity_scan(bad, x, y, math.pi, 101)
    assert scan.peak_value == pytest.approx(want, rel=1e-12)
    assert scan.values.max() > 1.0 + 1e-9
