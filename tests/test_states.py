import itertools
import math

import numpy as np
import pytest

import census
import pstwalk as pw
from conftest import basis_state, pair_state, random_connected_graph, random_tree, unit
from oracles import all_partners, components, eigenvector, involution, moments


# explicit 3x3 eigenprojector oracle for the 3-path adjacency matrix
def _p3_projectors():
    v1 = np.array([1.0, math.sqrt(2.0), 1.0]) / 2.0     # eigenvalue sqrt(2)
    v2 = np.array([1.0, 0.0, -1.0]) / math.sqrt(2.0)    # eigenvalue 0
    v3 = np.array([1.0, -math.sqrt(2.0), 1.0]) / 2.0    # eigenvalue -sqrt(2)
    return [np.outer(v, v) for v in (v1, v2, v3)]


def test_support_examples():
    k4 = pw.decompose(pw.hamiltonian(pw.build_complete(4), pw.ADJACENCY))
    prof = pw.support(k4, np.ones(4))
    assert prof.kind == "fixed"
    assert np.allclose(prof.eigenvalues, [3.0])

    k3 = pw.decompose(pw.hamiltonian(pw.build_complete(3), pw.ADJACENCY))
    prof = pw.support(k3, basis_state(3, 0))
    assert prof.kind != "fixed"
    assert np.allclose(prof.eigenvalues, [2.0, -1.0])

    # twin vertices: difference state is an eigenvector
    c4 = pw.decompose(pw.hamiltonian(pw.build_cycle(4), pw.ADJACENCY))
    prof = pw.support(c4, pair_state(4, 0, 2))
    assert prof.kind == "fixed"

    with pytest.raises(pw.InvalidStateError):
        pw.support(k3, np.zeros(3))


def test_support_decomposition_invariant(rng):
    for n in (4, 6, 9):
        g = random_connected_graph(rng, n, 3)
        dec = pw.decompose(pw.hamiltonian(g, pw.ADJACENCY))
        for _ in range(5):
            x = rng.normal(size=n)
            prof = pw.support(dec, x)
            assert np.linalg.norm(x - components(dec, x, prof.indices).sum(axis=0)) <= 1e-9 * n * np.linalg.norm(x)


def test_strong_cospectrality_p3_oracle():
    g = pw.build_path(3)
    dec = pw.decompose(pw.hamiltonian(g, pw.ADJACENCY))
    x, y = basis_state(3, 0), basis_state(3, 2)
    cert = pw.check_strong_cospectrality(dec, x, y)
    assert np.allclose(sorted(cert.sigma_plus), [-math.sqrt(2.0), math.sqrt(2.0)], atol=1e-9)
    assert np.allclose(cert.sigma_minus, [0.0], atol=1e-9)
    # cross-check classification against the explicit projector oracle
    for proj, expect in zip(_p3_projectors(), (1, -1, 1)):
        assert np.linalg.norm(proj @ x - expect * (proj @ y)) <= 1e-12


def test_strong_cospectrality_sum_difference(rng):
    g = random_connected_graph(rng, 6, 3)
    dec = pw.decompose(pw.hamiltonian(g, pw.LAPLACIAN))
    u1, u2 = eigenvector(dec, 0), eigenvector(dec, 1)
    cert = pw.check_strong_cospectrality(dec, u1 + u2, u1 - u2)
    assert np.allclose(cert.sigma_plus, [dec.eigenvalues[0]], atol=1e-9)
    assert np.allclose(cert.sigma_minus, [dec.eigenvalues[1]], atol=1e-9)


def test_strong_cospectrality_refusals():
    k3 = pw.decompose(pw.hamiltonian(pw.build_complete(3), pw.ADJACENCY))
    refusal = pw.check_strong_cospectrality(k3, basis_state(3, 0), basis_state(3, 1))
    assert refusal.reason == "not-cospectral"
    assert refusal.eigenvalue == pytest.approx(-1.0, abs=1e-9)
    with pytest.raises(pw.InvalidPairError):
        pw.check_strong_cospectrality(k3, basis_state(3, 0), 2.0 * basis_state(3, 1))
    with pytest.raises(pw.InvalidPairError):
        pw.check_strong_cospectrality(k3, basis_state(3, 0), -basis_state(3, 0))
    fixed = pw.check_strong_cospectrality(k3, np.ones(3), unit(np.array([1.0, 1.0, -2.0])) * math.sqrt(3))
    assert fixed == pw.NotCospectral("fixed-state")


def test_census_cospectrality_decisions_are_the_verdicts_refusals():
    """Over every census graph on n <= 4 vertices, both kinds, and every
    ordered pair of pair and plus states, check_strong_cospectrality raises
    nothing but InvalidPairError, and each NotCospectral it returns is
    pst_decide's refusal, its eigenvalue the verdict's detail."""
    refusals = {"fixed-state", "not-cospectral", "ambiguous-cospectrality"}
    seen = set()
    for n in range(2, 5):
        X = census.states(n)
        for g in census.graphs(n):
            for kind in census.KINDS:
                dec = pw.decompose(pw.hamiltonian(g, kind))
                for x, y in itertools.product(X.T, repeat=2):
                    try:
                        cert = pw.check_strong_cospectrality(dec, x, y)
                    except pw.InvalidPairError:
                        continue
                    verdict = pw.pst_decide(dec, x, y)
                    if isinstance(cert, pw.NotCospectral):
                        seen.add(cert.reason)
                        assert (verdict.reason, verdict.detail) == (cert.reason, cert.eigenvalue)
                    else:
                        assert verdict.reason not in refusals
    assert seen == {"fixed-state", "not-cospectral"}


def test_enumerate_partners_counts(rng):
    c4 = pw.decompose(pw.hamiltonian(pw.build_cycle(4), pw.ADJACENCY))
    partners = all_partners(c4, basis_state(4, 0))  # support size 3
    assert len(partners) == 3
    for y in partners:
        cert = pw.check_strong_cospectrality(c4, basis_state(4, 0), y)
        assert 0 in cert.plus_positions  # largest eigenvalue kept positive

    k3 = pw.decompose(pw.hamiltonian(pw.build_complete(3), pw.ADJACENCY))
    assert len(all_partners(k3, basis_state(3, 0))) == 1  # support size 2
    assert all_partners(k3, np.ones(3)) == []  # a fixed state has no partner


def _moment_gap(dec, x, y, k_max):
    mom = moments(dec, np.column_stack((x, y)), k_max)
    return np.max(np.abs(mom[:, 0] - mom[:, 1]))


def test_moment_check():
    p3 = pw.decompose(pw.hamiltonian(pw.build_path(3), pw.ADJACENCY))
    assert _moment_gap(p3, basis_state(3, 0), basis_state(3, 2), 6) <= 1e-8
    # (A^2)_00 = 1 but (A^2)_11 = 2: moments differ at k = 2
    assert _moment_gap(p3, basis_state(3, 0), basis_state(3, 1), 2) > 1e-8
    x = np.array([0.3, -1.0, 0.2])
    assert _moment_gap(p3, x, x, 8) <= 1e-8


def test_cospectrality_implies_moment_equality(rng):
    for n in (5, 8):
        g = random_connected_graph(rng, n, 3)
        dec = pw.decompose(pw.hamiltonian(g, pw.ADJACENCY))
        x = rng.normal(size=n)
        for y in all_partners(dec, x)[:8]:
            assert _moment_gap(dec, x, y, 10) <= 1e-8


def test_automorphism_fix_check():
    # an automorphism that fixes y fixes its strongly cospectral partner x
    c4 = pw.build_cycle(4)
    ham = pw.hamiltonian(c4, pw.ADJACENCY)
    dec = pw.decompose(ham)
    x, y = basis_state(4, 0), basis_state(4, 2)  # vertex transfer pair in the 4-cycle
    assert isinstance(pw.check_strong_cospectrality(dec, x, y), pw.CospectralityCertificate)
    # oracle: enumerate every automorphism of the 4-cycle among all 24 permutations
    a = ham.matrix
    autos = [
        list(p) for p in itertools.permutations(range(4))
        if np.array_equal(a[np.ix_(p, p)], a)
    ]
    assert len(autos) == 8
    fixing = [p for p in autos if np.array_equal(y[p], y)]
    assert len(fixing) == 2  # the identity and the reflection through 0 and 2
    assert all(np.array_equal(x[p], x) for p in fixing)


def test_automorphism_fix_check_p3_reversal():
    ham = pw.hamiltonian(pw.build_path(3), pw.ADJACENCY)
    dec = pw.decompose(ham)
    # the partner of the end-vertex sum under the reversal symmetry
    y = basis_state(3, 0) + basis_state(3, 2)
    x = math.sqrt(2.0) * basis_state(3, 1)
    assert isinstance(pw.check_strong_cospectrality(dec, x, y), pw.CospectralityCertificate)
    # the reversal is an automorphism; it fixes y, and so fixes x
    assert np.array_equal(ham.matrix[::-1, ::-1], ham.matrix)
    assert np.array_equal(y[::-1], y)
    assert np.array_equal(x[::-1], x)


def test_involution_certificate_property(rng):
    g = random_connected_graph(rng, 7, 4)
    dec = pw.decompose(pw.hamiltonian(g, pw.ADJACENCY))
    x = rng.normal(size=7)
    for y in all_partners(dec, x)[:6]:
        cert = pw.check_strong_cospectrality(dec, x, y)
        q = involution(dec, cert)
        assert np.max(np.abs(q @ q - np.eye(7))) <= 1e-8
        assert np.linalg.norm(q @ x - y) <= 1e-8 * np.linalg.norm(x)


def test_covering_radius_support_bound(rng):
    # nonnegative matrix and state: support size exceeds the covering radius
    for trial in range(20):
        n = int(rng.integers(4, 16))
        g = random_tree(rng, n) if trial % 2 == 0 else pw.build_cycle(max(n, 3))
        ham = pw.hamiltonian(g, pw.ADJACENCY)
        dec = pw.decompose(ham)
        x = np.zeros(g.n)
        size = int(rng.integers(1, g.n))
        chosen = rng.choice(g.n, size=size, replace=False)
        x[chosen] = rng.uniform(0.2, 1.0, size=size)
        prof = pw.support(dec, x)
        if prof.kind == "fixed":
            continue
        r = pw.covering_radius(g, x)
        assert prof.size >= r + 1
