"""The path route of decompose: a uniform path M = tridiag(w, a, w) has the
vectors of the DST-I (ends a, Dirichlet) or of the DCT-II (ends a + w,
Neumann) for eigenvectors (Strang, SIAM Review 41, 1999), so
spectral._path_route takes its eigenvalues in closed form and holds V as a
PathBasis, applied by one real FFT. decompose takes it from BIPARTITE_MIN_N
on, after the product and circulant routes: paths as build_path labels them,
of either kind, and any uniform weighted path, as a Hamiltonian, as a raw
matrix and shifted and scaled. It must give what np.linalg.eigh gives: the
same clusters, multiplicities, scale and warnings, eigenvalues to a few ulps
of the scale and each cluster's projector to 1e-12. The basis keeps the
protocol of the other bases; a matrix that is not exactly a uniform path is
declined before any FFT; verdicts keep under scaling, reversal and
relabelling; and its yes verdicts hold under scipy's expm."""

import tracemalloc

import numpy as np
import pytest
import scipy.fft

import pstwalk as pw
from pstwalk import spectral
from pstwalk.families import path_adj_eigenbasis, path_lap_eigenbasis
from pstwalk.spectral import DenseBasis, KroneckerBasis, PathBasis
from conftest import pair_state
from oracles import projector
from test_circulant_route import _NoFFT, _eigh_decompose, _expm_transfer
from test_eigenvector_blocks import _held_bytes
from test_factored_basis import _check_basis
from test_mirror_route import _relabelled

ULPS = 8  # eigenvalue agreement with eigh, in units of np.spacing(scale)
SIZES = (64, 65, 100, 127, 300)


def _uniform_path(n, w, a, neumann):
    """tridiag(w, a, w) on build_path's labels, with ends a + w (Neumann) or a."""
    diagonal = np.full(n, a)
    diagonal[[0, -1]] = a + w if neumann else a
    return pw.Hamiltonian(pw.CUSTOM, pw.build_path(n), diagonal, np.full(n - 1, w))


HAMILTONIANS = ([(f"P{n}-{kind}", pw.hamiltonian(pw.build_path(n), kind))
                 for n in SIZES for kind in (pw.ADJACENCY, pw.LAPLACIAN)]
                + [(f"weighted90-{ends}", _uniform_path(90, -0.7, 1.3, ends == "neumann"))
                   for ends in ("dirichlet", "neumann")])


def _entries(ham):
    """(entry, matrix) for the Hamiltonian, its raw matrix and 2.5 M + 0.75 I."""
    return [("hamiltonian", ham), ("raw", np.array(ham.matrix)),
            ("shifted", 2.5 * ham.matrix + 0.75 * np.eye(ham.n))]


CASES = [(f"{name}-{entry}", m) for name, ham in HAMILTONIANS for entry, m in _entries(ham)]


@pytest.mark.parametrize("name,m", CASES, ids=[c[0] for c in CASES])
def test_route_matches_eigh(monkeypatch, name, m):
    got = pw.decompose(m)
    assert isinstance(got.basis, PathBasis)
    want = _eigh_decompose(monkeypatch, m)
    assert isinstance(want.basis, DenseBasis)
    assert got.multiplicities == want.multiplicities
    assert np.array_equal(got.offsets, want.offsets)
    assert got.scale == want.scale
    assert got.warnings == want.warnings
    np.testing.assert_allclose(got.eigenvalues, want.eigenvalues, rtol=0, atol=ULPS * np.spacing(got.scale))
    for j in range(want.k):
        np.testing.assert_allclose(projector(got, j), projector(want, j), rtol=0, atol=1e-12)
    v = got.basis.dense()
    np.testing.assert_allclose(v.T @ v, np.eye(got.n), rtol=0, atol=1e-13)
    mat = np.asarray(m.matrix if isinstance(m, pw.Hamiltonian) else m)
    np.testing.assert_allclose(mat @ v, v * np.repeat(got.eigenvalues, got.multiplicities), rtol=0,
                               atol=1e-13 * got.scale)


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


BASIS_CASES = HAMILTONIANS + [(f"P64xK2-{kind}", pw.hamiltonian(
    pw.cartesian_product(pw.build_path(64), pw.build_path(2)), kind)) for kind in (pw.ADJACENCY, pw.LAPLACIAN)]


@pytest.mark.parametrize("name,ham", BASIS_CASES, ids=[c[0] for c in BASIS_CASES])
def test_basis_protocol(name, ham):
    """project and lift against the dense V on b = 3, 1 and 0 columns, on a
    bool and an index cols, and the round trip; the ladder P64 x K2 holds a
    KroneckerBasis over its factor's PathBasis."""
    dec = pw.decompose(ham)
    basis = dec.basis.g if "xK2" in name else dec.basis
    assert isinstance(basis, PathBasis)
    assert "xK2" not in name or isinstance(dec.basis, KroneckerBasis)
    _check_basis(dec, np.random.default_rng(ham.n))


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
    assert _held_bytes(dec, set()) <= 8 * n * 8


def _declined_cases():
    n = 100
    p100 = pw.build_path(n)
    lap = pw.hamiltonian(p100, pw.LAPLACIAN)
    cases = []
    p = np.random.default_rng(n).permutation(n)
    moved = pw.make_graph(n, [(int(p[a]), int(p[b])) for a, b, _ in p100.edges])
    cases.append(("P100-relabelled", pw.hamiltonian(moved, pw.LAPLACIAN)))
    values = p100.w.copy()
    values[40] = 1.5
    cases.append(("P100-one-weight", pw.Hamiltonian(pw.ADJACENCY, p100, np.zeros(n), values)))
    potential = np.zeros(n)
    potential[0] = 0.5
    cases.append(("P100-one-end-potential", pw.Hamiltonian(pw.CUSTOM, p100, potential, p100.w)))
    signless = np.full(n, 2.0)
    signless[[0, -1]] = 1.0
    cases.append(("P100-signless", pw.Hamiltonian(pw.CUSTOM, p100, signless, p100.w)))
    chord = pw.make_graph(n, list(p100.edges) + [(10, 30, 1.0)])
    cases.append(("P100-chord", pw.hamiltonian(chord, pw.ADJACENCY)))
    cases.append(("P63", pw.hamiltonian(pw.build_path(63), pw.LAPLACIAN)))
    ulp = lap.diagonal.copy()
    ulp[[0, -1]] = np.nextafter(1.0, 2.0)
    cases.append(("P100-end-one-ulp-off", pw.Hamiltonian(pw.CUSTOM, p100, ulp, lap.values)))
    return cases


DECLINED = _declined_cases()


@pytest.mark.parametrize("name,ham", DECLINED, ids=[c[0] for c in DECLINED])
def test_route_declined(monkeypatch, name, ham):
    """Each differs from a uniform path in one place; the route declines it
    from the edge form alone, with no FFT, and a later route gives eigh's
    spectrum and verdicts."""
    for m in (ham, np.array(ham.matrix)):
        with monkeypatch.context() as patch:
            patch.setattr(np, "fft", _NoFFT())
            assert spectral._path_route(spectral._edge_form(m)) is None
            dec = pw.decompose(m)
        assert not isinstance(dec.basis, PathBasis)
        ref = _eigh_decompose(monkeypatch, m)
        assert dec.multiplicities == ref.multiplicities
        np.testing.assert_allclose(dec.eigenvalues, ref.eigenvalues, rtol=0, atol=1e-12 * dec.scale)
        n = ham.n
        for u, v, s in ((0, n - 1, 1.0), (1, n - 2, -1.0), (5, 17, 1.0)):
            x, y = pair_state(n, u, v, s), pair_state(n, u + 1, v - 1, s)
            a, b = pw.pst_decide(dec, x, y), pw.pst_decide(ref, x, y)
            assert (a.decision, a.reason, a.case) == (b.decision, b.reason, b.case)


def test_neumann_ends_of_a_positive_weight():
    # ends a + w = 3 on tridiag(1, 2, 1) are Neumann ends, which the route
    # takes, where the signless Laplacian's a - w = 1 is declined above
    ham = _uniform_path(100, 1.0, 2.0, True)
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
    dec, ref = pw.decompose(ham), _eigh_decompose(monkeypatch, ham)
    assert isinstance(dec.basis, PathBasis)
    for x in _family_states(n, kind):
        with monkeypatch.context() as patch:
            patch.setattr(PathBasis, "dense", lambda self: pytest.fail("vectors materialised"))
            y = pw.pst_partner(dec, x)
            verdict = pw.pst_decide(dec, x, y)
            check = pw.verify_pst_numeric(dec, x, y, verdict.tau_min)
        want = pw.pst_decide(ref, x, y)
        np.testing.assert_allclose(y, pw.pst_partner(ref, x), rtol=0, atol=1e-9)
        assert verdict.decision and check.passed
        assert (verdict.case, verdict.tau_symbolic) == (want.case, want.tau_symbolic)
        assert verdict.tau_min == pytest.approx(want.tau_min, rel=1e-12)
        assert _expm_transfer(ham.matrix, x, y, verdict.tau_min) == pytest.approx(1.0, abs=1e-9)


def _outcome(dec, x, other):
    """(partner or None, decision, reason, tau) of x; without a partner, x is
    decided against the state other."""
    try:
        y = pw.pst_partner(dec, x)
    except pw.FixedStateError:
        y = None
    verdict = pw.pst_decide(dec, x, other if y is None else y)
    return y, verdict.decision, verdict.reason, verdict.tau_min


def _assert_same_outcome(got, want, scale=1.0, perm=None):
    """got is want with tau divided by scale and the partner relabelled by perm."""
    (y, decision, reason, tau), (y_want, decision_want, reason_want, tau_want) = got, want
    assert (decision, reason) == (decision_want, reason_want)
    assert (y is None) == (y_want is None)
    if y is not None:
        np.testing.assert_allclose(y if perm is None else y[perm], y_want, rtol=0, atol=1e-9)
    if decision:
        assert tau == pytest.approx(tau_want / scale, rel=1e-12)


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
    other_ham, perm = _relabelled(ham, n + 1)
    moved = pw.decompose(other_ham)
    assert not isinstance(moved.basis, PathBasis)
    rev = np.arange(n)[::-1]
    for x in _metamorphic_states(n, kind):
        other = np.roll(x, 1)
        want = _outcome(dec, x, other)
        for c, scaled_dec in scaled.items():
            _assert_same_outcome(_outcome(scaled_dec, x, other), want, scale=c)
        _assert_same_outcome(_outcome(dec, x[::-1], other[::-1]), want, perm=rev)
        x_moved, other_moved = np.empty(n), np.empty(n)
        x_moved[perm], other_moved[perm] = x, other
        _assert_same_outcome(_outcome(moved, x_moved, other_moved), want, perm=perm)
