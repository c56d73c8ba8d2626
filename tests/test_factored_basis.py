"""The factored eigenvectors of the product and bipartite routes
(spectral.KroneckerBasis, spectral.BipartiteBasis), and the one protocol
they share with the dense V of eigh (spectral.DenseBasis).

A route-taking decomposition holds V factored: a box product G x H as the
Kronecker product of G's basis and H's dense one, a nested product folded
into one dense block, and a bipartite pattern as an SVD of its half block,
with null columns when |P| != |Q|. Its stages read V only through the basis's project
(V^T X) and lift (V[:, cols] C); dense() builds V, for no public call.
project and lift must agree with that V on every basis kind; a
hypercube pair must be decided, every other per-state call and the
universal pair made and the walk operator formed, with V never built
(transition_matrix lifts only the columns outside its largest cluster),
every yes confirmed by scipy's
expm; and relabelling the vertices, which can move a graph from the product
route to the SVD, must not change a verdict."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pstwalk as pw
from pstwalk.spectral import BipartiteBasis, DenseBasis, FourierBasis, KroneckerBasis, PathBasis
from conftest import check_basis, heavy_path_ends, pair_state, random_tree, relabel
from oracles import eigenvector, expm_transfer


def _weighted_bipartite(seed, n, extra):
    """A random tree on n vertices with weights in [0.5, 3) and up to extra
    more edges across its two colour classes: bipartite, not complete
    bipartite, and with parts of unequal size for most seeds."""
    rng = np.random.default_rng(seed)
    edges = {(u, v) for u, v, _ in random_tree(rng, n).edges}
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    side = np.zeros(n, dtype=bool)  # the tree's 2-colouring, by breadth-first search from 0
    seen, queue = {0}, [0]
    for u in queue:
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                side[v] = not side[u]
                queue.append(v)
    p, q = np.flatnonzero(~side), np.flatnonzero(side)
    for _ in range(extra):
        a, b = int(rng.choice(p)), int(rng.choice(q))
        edges.add((min(a, b), max(a, b)))
    return pw.make_graph(n, [(u, v, float(rng.uniform(0.5, 3.0))) for u, v in sorted(edges)])


DENSE_CASES = [("P7", pw.hamiltonian(pw.build_path(7), pw.ADJACENCY), "eigh"),
               ("P150-laplacian", pw.hamiltonian(heavy_path_ends(pw.build_path(150)), pw.LAPLACIAN), "eigh")]


@pytest.mark.parametrize("name,ham,route", DENSE_CASES, ids=[c[0] for c in DENSE_CASES])
@pytest.mark.parametrize("seed", [0, 1])
def test_dense_basis(name, ham, route, seed):
    """P7 and the P150 Laplacian with heavy end edges (the path route takes
    the uniform one) through eigh hold V as a DenseBasis, which keeps the
    protocol of the factored bases."""
    dec = pw.decompose(ham)
    assert isinstance(dec.basis, DenseBasis) and dec.route == route
    check_basis(dec, np.random.default_rng(seed))


EMPTY_CASES = [("Q8", pw.build_hypercube(8), KroneckerBasis), ("P7", pw.build_path(7), DenseBasis),
               ("P100", heavy_path_ends(pw.build_path(100)), BipartiteBasis),
               ("P100-uniform", pw.build_path(100), PathBasis)]


@pytest.mark.parametrize("name,g,kind", EMPTY_CASES, ids=[c[0] for c in EMPTY_CASES])
def test_empty_state_matrix(name, g, kind):
    """An (n, 0) state matrix gives empty results on every basis kind: the
    product route's basis reshapes by its factor's n, not by -1."""
    dec = pw.decompose(pw.hamiltonian(g, pw.ADJACENCY))
    assert isinstance(dec.basis, kind)
    empty = np.zeros((g.n, 0))
    assert [np.shape(a) for a in pw.pst_partners(dec, empty)] == [(g.n, 0), (0,), (0,), (0,)]
    assert pw.support_mask(dec, empty).shape == (dec.k, 0)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(64, 160), extra=st.integers(0, 40))
def test_svd_basis_with_null_columns(seed, n, extra):
    g = _weighted_bipartite(seed, n, extra)
    dec = pw.decompose(pw.hamiltonian(g, pw.ADJACENCY))
    basis = dec.basis
    assert isinstance(basis, BipartiteBasis)
    check_basis(dec, np.random.default_rng(seed))


def _product_graphs():
    k2 = pw.build_path(2)
    graphs = [(f"Q{d}", pw.build_hypercube(d)) for d in (6, 7, 8)]
    graphs += [("P40xK2", pw.cartesian_product(pw.build_path(40), k2)),
               ("C32xK2", pw.cartesian_product(pw.build_cycle(32), k2)),
               ("C64xK2", pw.cartesian_product(pw.build_cycle(64), k2)),
               ("tree70xK2", pw.cartesian_product(random_tree(np.random.default_rng(70), 70), k2))]
    return graphs


PRODUCT_GRAPHS = _product_graphs()


@settings(max_examples=20, deadline=None)
@given(case=st.sampled_from(PRODUCT_GRAPHS), kind=st.sampled_from([pw.ADJACENCY, pw.LAPLACIAN]),
       seed=st.integers(0, 2**32 - 1))
def test_product_basis(case, kind, seed):
    """Every G x K2 of 64 vertices or more takes the product route, of
    either kind: a Laplacian's degrees split as deg_G + 1 and K2's 1."""
    name, g = case
    dec = pw.decompose(pw.hamiltonian(g, kind))
    assert isinstance(dec.basis, KroneckerBasis), name
    check_basis(dec, np.random.default_rng(seed))


def test_product_factor_reaches_an_svd():
    # P64 x K2 with heavy end edges on P64: its factor takes the bipartite
    # route (the path route takes the uniform P64), whose 32 x 32 block
    # goes to the SVD
    g = pw.cartesian_product(heavy_path_ends(pw.build_path(64)), pw.build_path(2))
    dec = pw.decompose(pw.hamiltonian(g, pw.ADJACENCY))
    assert isinstance(dec.basis.g, BipartiteBasis) and dec.basis.h.shape == (2, 2)
    check_basis(dec, np.random.default_rng(64))


def test_nested_products_fold_into_one_block():
    """Q10 = Q5 x K2 x ... x K2 holds Q5's dense 32 x 32 basis and one
    32 x 32 block for the five K2 factors, not a chain of them."""
    dec = pw.decompose(pw.hamiltonian(pw.build_hypercube(10), pw.LAPLACIAN))
    assert isinstance(dec.basis.g, DenseBasis)
    assert dec.basis.g.v.shape == dec.basis.h.shape == (32, 32)
    check_basis(dec, np.random.default_rng(10))


@pytest.mark.parametrize("d", [8, 9, 10])
@pytest.mark.parametrize("kind", [pw.ADJACENCY, pw.LAPLACIAN])
def test_hypercube_pair_decided_without_vectors(monkeypatch, d, kind):
    """A Q8 to Q10 pair through partner, decide, verify, scan and
    derivatives, and every other public call that reads states or V,
    transition_matrix included, never builds V; transition_matrix lifts the
    identity on exactly the n - m_* columns outside the largest cluster. The
    yes verdict holds under expm, and the partner is the one the dense V
    gives through V_F (V_F^T x)."""
    n = 1 << d
    ham = pw.hamiltonian(pw.build_hypercube(d), kind)
    dec = pw.decompose(ham)
    x = pair_state(n, 3, 100, 1.0)
    lifted = []

    def refuse(self):
        raise AssertionError("vectors materialised")

    def lift(self, c, cols=slice(None)):
        lifted.append(c.shape)
        return real_lift(self, c, cols)

    real_lift = KroneckerBasis.lift
    with monkeypatch.context() as m:
        m.setattr(KroneckerBasis, "dense", refuse)
        m.setattr(BipartiteBasis, "dense", refuse)
        m.setattr(DenseBasis, "dense", refuse)
        y = pw.pst_partner(dec, x)
        verdict = pw.pst_decide(dec, x, y)
        assert verdict.decision
        check = pw.verify_pst_numeric(dec, x, y, verdict.tau_min)
        scan = pw.fidelity_scan(dec, x, y, 2.0 * verdict.tau_min, 64)
        report = pw.fidelity_derivatives(dec, x, y, verdict.tau_min)
        pw.universal_pst_pair(dec)
        z = pw.evolve(dec, verdict.tau_min, x)
        value = pw.fidelity(dec, verdict.tau_min, x, y)
        pw.support(dec, x)
        assert isinstance(pw.check_strong_cospectrality(dec, x, y), pw.CospectralityCertificate)
        _, found, _, _ = pw.pst_partners(dec, np.column_stack((x, y)))
        m.setattr(KroneckerBasis, "lift", lift)
        u = pw.transition_matrix(dec, verdict.tau_min)
    rest = n - max(dec.multiplicities)
    assert lifted == [(rest, rest)]
    np.testing.assert_allclose(u @ x, check.phase * y, rtol=0, atol=1e-9)
    assert check.passed and report.bound_ok and found.all()
    assert scan.peak_value == pytest.approx(1.0, abs=1e-9)
    assert value == pytest.approx(1.0, abs=1e-9)
    np.testing.assert_allclose(z, check.phase * y, rtol=0, atol=1e-9)
    assert expm_transfer(ham.matrix, x, y, verdict.tau_min) == pytest.approx(1.0, abs=1e-9)
    antipodes = pair_state(n, 3 ^ (n - 1), 100 ^ (n - 1), 1.0)  # up to sign
    assert min(np.abs(y - antipodes).max(), np.abs(y + antipodes).max()) <= 1e-9
    dense = dataclasses.replace(dec, basis=DenseBasis(dec.basis.dense()))
    np.testing.assert_allclose(y, pw.pst_partner(dense, x), rtol=0, atol=1e-9)


@pytest.mark.parametrize("d", [8, 9, 10])
@pytest.mark.parametrize("kind", [pw.ADJACENCY, pw.LAPLACIAN])
def test_universal_pair_on_factored_hypercubes(d, kind):
    """The universal pair from one lift of the factored basis agrees with the
    dense construction (oracles.eigenvector), and is decided yes at
    pi/(lambda_max - lambda_min)."""
    dec = pw.decompose(pw.hamiltonian(pw.build_hypercube(d), kind))
    assert isinstance(dec.basis, KroneckerBasis)
    u, v, tau = pw.universal_pst_pair(dec)
    top, bottom = eigenvector(dec, 0), eigenvector(dec, dec.k - 1)
    np.testing.assert_allclose(u, top + bottom, rtol=0, atol=1e-12)
    np.testing.assert_allclose(v, top - bottom, rtol=0, atol=1e-12)
    assert tau == math.pi / float(dec.eigenvalues[0] - dec.eigenvalues[-1])
    verdict = pw.pst_decide(dec, u, v)
    assert verdict.decision and verdict.tau_min == pytest.approx(tau, rel=1e-12)


RELABEL_CASES = [("Q8", pw.build_hypercube(8), pw.ADJACENCY),
                 ("P128", pw.build_path(128), pw.ADJACENCY),
                 ("C128", pw.build_cycle(128), pw.LAPLACIAN)]


@pytest.mark.parametrize("name,g,kind", RELABEL_CASES, ids=[c[0] for c in RELABEL_CASES])
def test_relabelling_keeps_verdicts(name, g, kind):
    """Verdicts, reasons and transfer times agree between a graph and a
    seeded relabelling of it, and so do partners once relabelled back. The
    relabelling moves Q8 off cartesian_product's labelling, from the product
    route to the SVD, C128 off build_cycle's, from the circulant route to
    the SVD, and P128 off build_path's, from the path route to the SVD."""
    rng = np.random.default_rng(128)
    perm = rng.permutation(g.n)
    natural = pw.decompose(pw.hamiltonian(g, kind))
    moved = pw.decompose(pw.hamiltonian(relabel(g, perm), kind))
    assert isinstance(moved.basis, BipartiteBasis)
    assert isinstance(natural.basis, {"Q8": KroneckerBasis, "C128": FourierBasis, "P128": PathBasis}[name])
    for _ in range(8):
        u, v = (int(a) for a in rng.choice(g.n, size=2, replace=False))
        x = pair_state(g.n, u, v, float(rng.choice([-1.0, 1.0])))
        x_moved = np.empty(g.n)
        x_moved[perm] = x
        y = pw.pst_partner(natural, x)
        y_moved = pw.pst_partner(moved, x_moved)
        assert (y is None) == (y_moved is None)
        if y is None:
            y = pair_state(g.n, *(int(a) for a in rng.choice(g.n, size=2, replace=False)))
        else:
            np.testing.assert_allclose(y_moved[perm], y, rtol=0, atol=1e-9)
        y_in_moved = np.empty(g.n)
        y_in_moved[perm] = y
        a, b = pw.pst_decide(natural, x, y), pw.pst_decide(moved, x_moved, y_in_moved)
        assert (a.decision, a.reason) == (b.decision, b.reason)
        if a.decision:
            assert b.tau_min == pytest.approx(a.tau_min, rel=1e-12)
