"""The path route of decompose: a uniform path M = tridiag(w, a, w) has the
vectors of the DST-I (ends a, Dirichlet) or of the DCT-II (ends a + w,
Neumann) for eigenvectors (Strang, SIAM Review 41, 1999), so
routes._path_route takes its eigenvalues in closed form and holds V as a
PathBasis, applied by one real FFT. decompose takes it from ROUTE_MIN_N
on, after the product and circulant routes: paths as build_path labels them,
of either kind, and any uniform weighted path, as a Hamiltonian, as a raw
matrix and shifted and scaled. It must give what np.linalg.eigh gives: the
same clusters, multiplicities, scale and warnings, eigenvalues to a few ulps
of the scale and each cluster's projector to 1e-12. The basis keeps the
protocol of the other bases; a matrix that is not exactly a uniform path is
declined before any FFT; verdicts keep under scaling, reversal and
relabelling; and its yes verdicts hold under scipy's expm. The inputs are
route_table.ROUTE_OF's rows that the route takes or passes on."""

import tracemalloc

import numpy as np
import pytest
import scipy.fft

import pstwalk as pw
from pstwalk.families import path_adj_eigenbasis, path_lap_eigenbasis
from pstwalk.routes import KroneckerBasis, PathBasis
from conftest import assert_same_outcome, check_basis, entries, held_bytes, outcome, pair_state, relabelled
from oracles import eigh_decompose
from route_table import assert_declined, assert_matches_eigh, assert_transfer, row, rows, uniform_path

ULPS = 8  # eigenvalue agreement with eigh, in units of np.spacing(scale)
SIZES = (64, 65, 100, 127, 300)
CASES = [(f"{r.name}-{entry}", m) for r in rows("path") for entry, m in entries(r.build(), r.shifted)]


@pytest.mark.parametrize("name,m", CASES, ids=[c[0] for c in CASES])
def test_route_matches_eigh(monkeypatch, name, m):
    assert_matches_eigh(monkeypatch, m, "path", ulps=ULPS, ortho_atol=1e-13)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("kind", [pw.ADJACENCY, pw.LAPLACIAN])
def test_basis_is_the_closed_form(n, kind):
    """V's columns are families' sine (adjacency) or cosine (Laplacian)
    vectors, in the order the basis holds them; project is scipy's
    orthonormal DST-I or DCT-II, gathered by that order."""
    basis = pw.decompose(pw.hamiltonian(pw.build_path(n), kind)).basis
    assert isinstance(basis, PathBasis) and basis.neumann == (kind == pw.LAPLACIAN)
    vectors = (path_adj_eigenbasis if kind == pw.ADJACENCY else path_lap_eigenbasis)(n)[1]
    np.testing.assert_allclose(basis.dense(), vectors[:, basis.order], rtol=0, atol=1e-13)
    x = np.random.default_rng(n).normal(size=(n, 3))
    if basis.neumann:
        want = scipy.fft.dct(x, type=2, norm="ortho", axis=0)
    else:
        want = scipy.fft.dst(x, type=1, norm="ortho", axis=0)
    np.testing.assert_allclose(basis.project(x), want[basis.order], rtol=0, atol=1e-13 * np.linalg.norm(x))


BASIS_CASES = [r.name for r in rows("path")] + [f"P64xK2-{kind}" for kind in (pw.ADJACENCY, pw.LAPLACIAN)]


@pytest.mark.parametrize("name", BASIS_CASES)
def test_basis_protocol(name):
    """project and lift against the dense V on b = 3, 1 and 0 columns, on a
    bool and an index cols, and the round trip; the ladder P64 x K2 holds a
    KroneckerBasis over its factor's PathBasis."""
    ladder = "xK2" in name
    ham = row("product" if ladder else "path", name).build()
    dec = pw.decompose(ham)
    assert isinstance(dec.basis.g if ladder else dec.basis, PathBasis)
    assert not ladder or isinstance(dec.basis, KroneckerBasis)
    check_basis(dec, np.random.default_rng(ham.n))


@pytest.mark.parametrize("kind", [pw.ADJACENCY, pw.LAPLACIAN])
def test_p300_needs_no_dense_array(monkeypatch, kind):
    """Decomposing a P300 Hamiltonian, then partnering, deciding, verifying
    and scanning on it, never reads its matrix, never builds V, and never
    allocates as much as one n x n float array at a time; the decomposition
    holds O(n) numbers."""
    ham = pw.hamiltonian(pw.build_path(300), kind)
    n = ham.n
    x, y = pair_state(n, 0, n - 1, 1.0), pair_state(n, 3, n - 4, -1.0)
    monkeypatch.setattr(PathBasis, "dense", lambda self: pytest.fail("vectors materialised"))
    assert np.fft.rfft  # numpy.fft loads on first access (about 0.5 MB), outside the trace
    tracemalloc.start()
    try:
        dec = pw.decompose(ham)
        assert pw.pst_partner(dec, x) is None
        verdict = pw.pst_decide(dec, x, y)
        pw.verify_pst_numeric(dec, x, y, 1.0)
        pw.fidelity_scan(dec, x, y, 10.0, 200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not verdict.decision
    assert "matrix" not in vars(ham)
    assert peak < n * n * 8 / 2
    assert held_bytes(dec) <= 8 * n * 8


DECLINED = rows(declines="path")


@pytest.mark.parametrize("r", DECLINED, ids=[r.name for r in DECLINED])
def test_route_declined(monkeypatch, r):
    """Each differs from a uniform path in one place, or sits below the
    gate; the route passes it on from the edge form alone, with no FFT, and
    a later route gives eigh's spectrum and verdicts."""
    for _, m in entries(r.build(), r.shifted):
        dec, ref = assert_declined(monkeypatch, m, "path", r.route)
        assert not isinstance(dec.basis, PathBasis)
        n = dec.n
        for u, v, s in ((0, n - 1, 1.0), (1, n - 2, -1.0), (5, 17, 1.0)):
            x, y = pair_state(n, u, v, s), pair_state(n, u + 1, v - 1, s)
            a, b = pw.pst_decide(dec, x, y), pw.pst_decide(ref, x, y)
            assert (a.decision, a.reason, a.case) == (b.decision, b.reason, b.case)


def test_neumann_ends_of_a_positive_weight():
    # ends a + w = 3 on tridiag(1, 2, 1) are Neumann ends, which the route
    # takes, where the signless Laplacian's a - w = 1 is declined above
    ham = uniform_path(100, 1.0, 2.0, True)
    dec = pw.decompose(ham)
    assert isinstance(dec.basis, PathBasis) and dec.basis.neumann
    np.testing.assert_allclose(np.repeat(dec.eigenvalues, dec.multiplicities),
                               np.linalg.eigvalsh(ham.matrix)[::-1], rtol=0, atol=1e-13 * dec.scale)


def _family_states(n, kind):
    """One sampled state of each of the n-path's transfer families."""
    rng = np.random.default_rng(n)
    cases = pw.path_pst_families(n, kind)
    assert cases
    return [case.sample(rng, 0.2).x for case in cases]


FAMILY_PATHS = [(71, pw.ADJACENCY), (72, pw.LAPLACIAN)]


@pytest.mark.parametrize("n,kind", FAMILY_PATHS)
def test_family_states_transfer(monkeypatch, n, kind):
    """A sampled state of each of the path's transfer families has a partner
    on the route's decomposition, found with V never built; the yes verdict
    is eigh's and holds under expm."""
    ham = pw.hamiltonian(pw.build_path(n), kind)
    dec, ref = pw.decompose(ham), eigh_decompose(ham)
    assert isinstance(dec.basis, PathBasis)
    for x in _family_states(n, kind):
        assert_transfer(monkeypatch, dec, ref, ham, x)


def _metamorphic_states(n, kind):
    """Seeded pair states e_u +- e_v (none of them has a partner on these
    paths), and on the family paths their family states, which transfer."""
    rng = np.random.default_rng(n)
    states = [pair_state(n, int(u), int(v), float(s)) for (u, v), s in
              zip(rng.choice(n, (4, 2), replace=False), rng.choice([-1.0, 1.0], 4))]
    states.append(pair_state(n, 0, n - 1, 1.0))
    return states + (_family_states(n, kind) if (n, kind) in FAMILY_PATHS else [])


METAMORPHIC = [(n, kind) for n in (64, 65, 100, 127, 300) for kind in (pw.ADJACENCY, pw.LAPLACIAN)] + FAMILY_PATHS


@pytest.mark.parametrize("n,kind", METAMORPHIC)
def test_verdicts_keep_under_scaling_reversal_and_relabelling(n, kind):
    """Scaling M by c keeps every decision, reason and partner and divides
    tau by c, on the route; the reversal i -> n - 1 - i maps M to itself and
    the partner to its reversal; a seeded relabelling leaves the route and
    keeps the verdicts, with the partner relabelled."""
    ham = pw.hamiltonian(pw.build_path(n), kind)
    dec = pw.decompose(ham)
    assert isinstance(dec.basis, PathBasis)
    scaled = {c: pw.decompose(pw.Hamiltonian(pw.CUSTOM, ham.graph, c * ham.diagonal, c * ham.values))
              for c in (1e-4, 7.3, 1e4)}
    assert all(isinstance(d.basis, PathBasis) for d in scaled.values())
    other_ham, perm = relabelled(ham, n + 1)
    moved = pw.decompose(other_ham)
    assert not isinstance(moved.basis, PathBasis)
    rev = np.arange(n)[::-1]
    for x in _metamorphic_states(n, kind):
        other = np.roll(x, 1)
        want = outcome(dec, x, other)
        for c, scaled_dec in scaled.items():
            assert_same_outcome(outcome(scaled_dec, x, other), want, scale=c)
        assert_same_outcome(outcome(dec, x[::-1], other[::-1]), want, perm=rev)
        x_moved, other_moved = np.empty(n), np.empty(n)
        x_moved[perm], other_moved[perm] = x, other
        assert_same_outcome(outcome(moved, x_moved, other_moved), want, perm=perm)
