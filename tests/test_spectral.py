import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import pstwalk as pw
from conftest import basis_state, random_connected_graph
from oracles import projector, reconstruct


def _expm_oracle(matrix, t, x):
    """Independent evolution oracle: dense matrix exponential."""
    return scipy.linalg.expm(1j * t * matrix) @ x


def test_decompose_complete_graph():
    dec = pw.decompose(pw.hamiltonian(pw.build_complete(4), pw.ADJACENCY))
    # A(K_4) = J - I: spectrum {3, -1} with multiplicities {1, 3}
    assert np.allclose(dec.eigenvalues, [3.0, -1.0], atol=1e-12)
    assert dec.multiplicities == (1, 3)


def test_decompose_cycle8():
    dec = pw.decompose(pw.hamiltonian(pw.build_cycle(8), pw.ADJACENCY))
    want = sorted({round(2.0 * math.cos(2.0 * j * math.pi / 8), 12) for j in range(8)}, reverse=True)
    assert np.allclose(dec.eigenvalues, want, atol=1e-9)
    assert dec.multiplicities == (1, 2, 2, 2, 1)


def test_decompose_path3_laplacian():
    dec = pw.decompose(pw.hamiltonian(pw.build_path(3), pw.LAPLACIAN))
    want = sorted((2.0 * (1.0 - math.cos(j * math.pi / 3)) for j in range(3)), reverse=True)
    assert np.allclose(dec.eigenvalues, want, atol=1e-12)
    assert np.allclose(dec.eigenvalues, [3.0, 1.0, 0.0], atol=1e-12)


def test_decompose_rejects_asymmetric():
    with pytest.raises(pw.InvalidStateError):
        pw.decompose(np.array([[0.0, 1.0], [0.5, 0.0]]))


@pytest.mark.parametrize("shape", [(0, 0), (0,), (2, 3), (1, 1, 1)])
def test_decompose_refuses_empty_and_non_square_matrices(shape):
    with pytest.raises(pw.InvalidStateError, match="matrix must"):
        pw.decompose(np.zeros(shape))


def test_decompose_refuses_non_finite_and_overflowing_matrices():
    big = np.array([[0.0, 1e308, 1e308], [1e308, 0.0, 0.0], [1e308, 0.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for bad in (np.inf, np.nan):
            with pytest.raises(pw.NumericFailureError, match="non-finite"):
                pw.decompose(np.array([[0.0, bad], [bad, 0.0]]))
        with pytest.raises(pw.NumericFailureError, match="non-finite"):
            pw.decompose(big)  # finite entries, infinite row sum
        # an asymmetry that overflows is still refused as asymmetric
        with pytest.raises(pw.InvalidStateError):
            pw.decompose(np.array([[0.0, 1e308], [-1e308, 0.0]]))


@pytest.mark.parametrize("n,extra", [(4, 2), (7, 4), (12, 6)])
def test_projector_algebra(rng, n, extra):
    g = random_connected_graph(rng, n, extra)
    for kind in (pw.ADJACENCY, pw.LAPLACIAN):
        dec = pw.decompose(pw.hamiltonian(g, kind))
        tol = 1e-9 * n
        projectors = [projector(dec, j) for j in range(dec.k)]
        total = np.sum(projectors, axis=0)
        assert np.max(np.abs(total - np.eye(n))) <= tol
        for j in range(dec.k):
            assert np.max(np.abs(projectors[j] - projectors[j].T)) <= tol
            for l in range(dec.k):
                prod = projectors[j] @ projectors[l]
                want = projectors[j] if j == l else np.zeros((n, n))
                assert np.max(np.abs(prod - want)) <= tol
        recon = reconstruct(dec)
        assert np.max(np.abs(recon - pw.hamiltonian(g, kind).matrix)) <= tol * max(1.0, dec.scale)


def test_evolve_identity_at_zero(rng):
    g = random_connected_graph(rng, 6)
    dec = pw.decompose(pw.hamiltonian(g, pw.ADJACENCY))
    x = rng.normal(size=6)
    z = pw.evolve(dec, 0.0, x)
    assert np.max(np.abs(z - x)) <= 1e-12


def test_evolve_k2_hand_oracle():
    # 2x2 exponential by hand: U(t) = cos(t) I + i sin(t) A
    g = pw.build_path(2)
    dec = pw.decompose(pw.hamiltonian(g, pw.ADJACENCY))
    z = pw.evolve(dec, math.pi / 2, basis_state(2, 0))
    assert np.max(np.abs(z - np.array([0.0, 1j]))) <= 1e-12
    t = 0.37
    hand = math.cos(t) * np.eye(2) + 1j * math.sin(t) * pw.hamiltonian(g, pw.ADJACENCY).matrix
    assert np.max(np.abs(pw.evolve(dec, t, basis_state(2, 0)) - hand @ basis_state(2, 0))) <= 1e-12


def test_fixed_state_picks_up_phase_only():
    g = pw.build_complete(3)
    dec = pw.decompose(pw.hamiltonian(g, pw.ADJACENCY))
    ones = np.ones(3)
    for t in (0.3, 1.7, 4.0):
        z = pw.evolve(dec, t, ones)
        assert np.max(np.abs(z - np.exp(2j * t) * ones)) <= 1e-10


@pytest.mark.parametrize("n", [5, 9])
def test_evolve_matches_expm(rng, n):
    g = random_connected_graph(rng, n, 3)
    for kind in (pw.ADJACENCY, pw.LAPLACIAN):
        ham = pw.hamiltonian(g, kind)
        dec = pw.decompose(ham)
        x = rng.normal(size=n)
        for t in rng.uniform(0.0, 10.0, size=3):
            assert np.max(np.abs(pw.evolve(dec, t, x) - _expm_oracle(ham.matrix, t, x))) <= 1e-9


def test_fidelity_examples():
    g = pw.build_path(2)
    dec = pw.decompose(pw.hamiltonian(g, pw.ADJACENCY))
    e0, e1 = basis_state(2, 0), basis_state(2, 1)
    assert pw.fidelity(dec, 0.0, e0, e0) == pytest.approx(1.0, abs=1e-12)
    assert pw.fidelity(dec, math.pi / 2, e0, e1) == pytest.approx(1.0, abs=1e-12)
    assert pw.fidelity(dec, math.pi / 4, e0, e1) == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(pw.InvalidStateError):
        pw.fidelity(dec, 1.0, np.zeros(2), e1)


def test_unitarity_and_symmetry(rng):
    g = random_connected_graph(rng, 10, 6)
    dec = pw.decompose(pw.hamiltonian(g, pw.ADJACENCY))
    for t in rng.uniform(0.0, 10.0, size=4):
        u = pw.transition_matrix(dec, t)
        assert np.max(np.abs(u @ u.conj().T - np.eye(10))) <= 1e-9
        assert np.max(np.abs(u - u.T)) <= 1e-9


def test_group_property(rng):
    g = random_connected_graph(rng, 7, 3)
    dec = pw.decompose(pw.hamiltonian(g, pw.LAPLACIAN))
    x = rng.normal(size=7)
    s, t = 0.9, 2.3
    once = pw.evolve(dec, s + t, x)
    # evolving twice needs the full operator on the intermediate complex state
    twice = pw.transition_matrix(dec, t) @ pw.evolve(dec, s, x)
    assert np.max(np.abs(once - twice)) <= 1e-9


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=9), st.floats(min_value=0.0, max_value=10.0),
       st.integers(min_value=0, max_value=10**6))
def test_evolution_preserves_norm(n, t, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n)
    if np.linalg.norm(x) < 1e-6:
        x[0] += 1.0
    dec = pw.decompose(pw.hamiltonian(pw.build_path(n), pw.ADJACENCY))
    z = pw.evolve(dec, t, x)
    assert abs(np.linalg.norm(z) - np.linalg.norm(x)) <= 1e-10 * np.linalg.norm(x)


def test_cluster_ambiguity_flag():
    # two eigenvalues closer than twice the clustering threshold but farther
    # than one threshold: decomposition succeeds with a warning
    m = np.diag([0.0, 1.5e-8, 1.0])
    dec = pw.decompose(m)
    assert dec.ambiguous
    assert dec.warnings
    assert not pw.decompose(np.diag([0.0, 1.0])).ambiguous


def test_decompose_refuses_a_norm_whose_eigenvalue_differences_overflow():
    # ||M||_inf = 1e308 is finite, but the eigenvalues +-1e308 are 2e308 apart
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(pw.NumericFailureError, match="overflows eigenvalue differences"):
            pw.decompose(np.array([[0.0, 1e308], [1e308, 0.0]]))
    # a norm of 8e307 still decomposes, and its spread is finite
    dec = pw.decompose(np.array([[0.0, 8e307], [8e307, 0.0]]))
    assert dec.eigenvalues[0] - dec.eigenvalues[-1] == pytest.approx(1.6e308, rel=1e-12)



@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["tol_group", "tol_supp", "tol_phase", "int_tol"])
def test_tolerances_must_be_positive_and_finite(name, value):
    # NaN passes a `value <= 0` test: at tol_group = nan the double
    # eigenvalue of C8 once split into two clusters
    with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
        pw.ToleranceConfig(**{name: value})


def test_support_tolerance_must_be_below_one():
    # ||E_j x|| <= ||x||, so at tol_supp >= 1 no state has a support; at
    # 1e308 the threshold tol_supp * ||x|| once overflowed with a warning
    for value in (1.0, 1e308):
        with pytest.raises(ValueError, match="tol_supp must be below 1"):
            pw.ToleranceConfig(tol_supp=value)
    assert pw.ToleranceConfig(tol_supp=0.999).tol_supp == 0.999
