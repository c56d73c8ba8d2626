"""The product route of decompose: a matrix that is exactly
M_G (x) I_2 + I_G (x) M_K2 in cartesian_product's labelling v = 2a + b, from
BIPARTITE_MIN_N on, takes its eigenpairs from its factors' (spectral.
_product_route): G's from the route table, K2's from a 2 x 2 eigh, held as a
KroneckerBasis. spectral._box_factor detects it from the edge form alone. On
the inputs of scripts/decompose_digest.py that take it (Q6-Q10, P40xK2,
C32xK2 and C64xK2, both kinds, as a Hamiltonian, a raw matrix and shifted and
scaled), it must give what np.linalg.eigh gives: the same multiplicities,
eigenvalues to 1e-12 * scale and every cluster projector to 1e-12. A near
product is refused and decided as by eigh."""

import numpy as np
import pytest

import pstwalk as pw
from pstwalk import spectral
from conftest import pair_state
from test_bipartite_route import _q8_relabelled, assert_same_verdicts

K2 = pw.build_path(2)


def _digest_products():
    """The 48 inputs of scripts/decompose_digest.py on the product route."""
    graphs = ([(f"Q{d}", pw.build_hypercube(d)) for d in range(6, 11)]
              + [("P40xK2", pw.cartesian_product(pw.build_path(40), K2)),
                 ("C32xK2", pw.cartesian_product(pw.build_cycle(32), K2)),
                 ("C64xK2", pw.cartesian_product(pw.build_cycle(64), K2))])
    for name, g in graphs:
        for kind in (pw.ADJACENCY, pw.LAPLACIAN):
            h = pw.hamiltonian(g, kind)
            yield f"{name}-{kind}", (h, np.array(h.matrix), 2.5 * h.matrix + 0.75 * np.eye(g.n))


DIGEST_PRODUCTS = list(_digest_products())


def _eigh_decompose(monkeypatch, m):
    with monkeypatch.context() as patch:
        patch.setattr(spectral, "ROUTES", spectral.ROUTES[-1:])
        return pw.decompose(m)


def _cluster_blocks(dec):
    v = dec.basis.dense()
    return [v[:, dec.offsets[j]:dec.offsets[j + 1]] for j in range(dec.k)]


@pytest.mark.parametrize("name,entries", DIGEST_PRODUCTS, ids=[c[0] for c in DIGEST_PRODUCTS])
def test_product_route_matches_eigh(monkeypatch, name, entries):
    """Each entry: the Hamiltonian, its raw matrix (one eigh serves both),
    and 2.5 M + 0.75 I."""
    want = None
    for i, m in enumerate(entries):
        got = pw.decompose(m)
        assert isinstance(got.basis, spectral.KroneckerBasis)
        if i != 1:
            want = _eigh_decompose(monkeypatch, m)
        assert got.multiplicities == want.multiplicities
        assert got.warnings == want.warnings
        np.testing.assert_allclose(got.eigenvalues, want.eigenvalues, rtol=0, atol=1e-12 * want.scale)
        for a, b in zip(_cluster_blocks(got), _cluster_blocks(want)):
            assert np.abs(a @ a.T - b @ b.T).max() <= 1e-12


def _weighted_product():
    """A seeded weighted G on 40 vertices with a potential in quarters, times
    K2 with the rung 0.7 and the potential (0, -1.5), as a custom matrix:
    each d(2a + 1) - d(2a) is exactly -1.5 (an inexact split would be no
    product to the detector, which is exact)."""
    rng = np.random.default_rng(40)
    n = 40
    g = np.zeros((n, n))
    for a, b in rng.choice(n, (90, 2)):
        if a != b:
            g[a, b] = g[b, a] = rng.uniform(-2.0, 2.0)
    g += np.diag(rng.integers(-8, 8, n) / 4.0)
    k2 = np.array([[0.0, 0.7], [0.7, -1.5]])
    return np.kron(g, np.eye(2)) + np.kron(np.eye(n), k2)


def _reweighted(g, at, w):
    """g with the weight of its edge number at set to w."""
    edges = list(g.edges)
    u, v, _ = edges[at]
    edges[at] = (u, v, w)
    return pw.make_graph(g.n, edges)


def _edge_index(g, u, v):
    return int(np.flatnonzero((g.src == u) & (g.dst == v))[0])


def _adj(g):
    return np.array(pw.hamiltonian(g, pw.ADJACENCY).matrix)


def _near_products():
    """(name, matrix): each off M_G (x) I_2 + I_G (x) M_K2 in v = 2a + b by
    one change, or outside the route's sizes."""
    q8, c32k2 = pw.build_hypercube(8), pw.cartesian_product(pw.build_cycle(32), K2)
    q7 = _adj(pw.build_hypercube(7))
    ramp = q7 + np.diag(np.r_[np.zeros(127), 1.0])  # d(127) - d(126) is 1, every other 0
    pendant = pw.make_graph(65, list(pw.build_hypercube(6).edges) + [(63, 64)])
    return [
        ("rung-weight", _adj(_reweighted(q8, _edge_index(q8, 4, 5), 2.0))),
        ("one-copy-edge", _adj(_reweighted(c32k2, _edge_index(c32k2, 0, 2), 2.0))),
        ("diagonal-split", ramp),
        ("odd-n", _adj(pendant)),
        ("Q5", _adj(pw.build_hypercube(5))),
        ("K2xC32", _adj(pw.cartesian_product(K2, pw.build_cycle(32)))),
        ("K2xP40-laplacian", np.array(pw.hamiltonian(pw.cartesian_product(K2, pw.build_path(40)),
                                                     pw.LAPLACIAN).matrix)),
        ("Q8-relabelled", _adj(_q8_relabelled())),
    ]


NEAR_PRODUCTS = _near_products()


@pytest.mark.parametrize("name,mat", NEAR_PRODUCTS, ids=[c[0] for c in NEAR_PRODUCTS])
def test_near_products_are_refused(monkeypatch, name, mat):
    """The detector passes each on, and the route after it decides it as
    eigh does."""
    form = spectral._edge_form(mat)
    assert spectral._box_factor(form) is None
    got = pw.decompose(mat)
    assert not isinstance(got.basis, spectral.KroneckerBasis)
    want = _eigh_decompose(monkeypatch, mat)
    assert got.multiplicities == want.multiplicities
    np.testing.assert_allclose(got.eigenvalues, want.eigenvalues, rtol=0, atol=1e-12 * want.scale)
    assert_same_verdicts(got, want, len(mat))


def test_weighted_product_with_a_potential(monkeypatch):
    """A signed weighted G with an uneven diagonal, times K2 with an uneven
    one: the diagonal splits as d(2a) and d(2a + 1) - d(2a) = -1.5."""
    mat = _weighted_product()
    got = pw.decompose(mat)
    assert isinstance(got.basis, spectral.KroneckerBasis) and isinstance(got.basis.g, spectral.DenseBasis)
    want = _eigh_decompose(monkeypatch, mat)
    assert got.multiplicities == want.multiplicities
    np.testing.assert_allclose(got.eigenvalues, want.eigenvalues, rtol=0, atol=1e-12 * want.scale)
    for a, b in zip(_cluster_blocks(got), _cluster_blocks(want)):
        assert np.abs(a @ a.T - b @ b.T).max() <= 1e-10
    assert_same_verdicts(got, want, len(mat))
    x = pair_state(len(mat), 0, 1, 1.0)
    np.testing.assert_allclose(pw.evolve(got, 0.8, x), pw.evolve(want, 0.8, x), rtol=0, atol=1e-10)
