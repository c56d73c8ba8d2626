"""The circulant route of decompose: a circulant M, m_ij = r_((j - i) mod n),
has the real Fourier vectors for eigenvectors (Davis, Circulant Matrices,
1979), so spectral._circulant_route takes its eigenvalues from one rfft of
the first row r and holds V as a FourierBasis. decompose takes it from
BIPARTITE_MIN_N on, after the product route: cycles and complete graphs in
their builders' labelling, any weighted circulant, of either kind, as a
Hamiltonian, as a raw matrix and shifted and scaled. It must give what
np.linalg.eigh gives: the same clusters and multiplicities, eigenvalues to a
few ulps of the scale and each cluster's projector to 1e-12. The basis keeps
the protocol of the other bases; a matrix that is not exactly circulant is
declined before any FFT; and its yes verdicts hold under scipy's expm."""

import numpy as np
import pytest
import scipy.linalg

import pstwalk as pw
from pstwalk import spectral
from pstwalk.spectral import DenseBasis, FourierBasis, KroneckerBasis
from conftest import pair_state
from oracles import projector
from test_factored_basis import _check_basis

ULPS = 8  # eigenvalue agreement with eigh, in units of np.spacing(scale); 5 seen


def _circulant(n, weights):
    """The circulant graph on n vertices with weight w on every pair at
    circular distance d, for each d: w in weights (n/2 pairs at d = n/2)."""
    return pw.make_graph(n, [(i, (i + d) % n, w) for d, w in weights.items()
                             for i in range(n // 2 if 2 * d == n else n)])


GRAPHS = [("C64", pw.build_cycle(64)), ("C65", pw.build_cycle(65)), ("C128", pw.build_cycle(128)),
          ("C300", pw.build_cycle(300)), ("K64", pw.build_complete(64)), ("K150", pw.build_complete(150)),
          ("circ97-125", _circulant(97, {1: 1.0, 2: 0.5, 5: 2.25})),
          ("C80-diameters", _circulant(80, {1: 1.0, 40: 1.0}))]


def _entries(g, kind):
    """(entry, matrix) for the Hamiltonian, its raw matrix and 2.5 M + 0.75 I."""
    h = pw.hamiltonian(g, kind)
    return [("hamiltonian", h), ("raw", np.array(h.matrix)), ("shifted", 2.5 * h.matrix + 0.75 * np.eye(g.n))]


CASES = [(f"{name}-{kind}-{entry}", m) for name, g in GRAPHS for kind in (pw.ADJACENCY, pw.LAPLACIAN)
         for entry, m in _entries(g, kind)]


def _eigh_decompose(monkeypatch, m):
    with monkeypatch.context() as patch:
        patch.setattr(spectral, "ROUTES", spectral.ROUTES[-1:])
        return pw.decompose(m)


@pytest.mark.parametrize("name,m", CASES, ids=[c[0] for c in CASES])
def test_route_matches_eigh(monkeypatch, name, m):
    got = pw.decompose(m)
    assert isinstance(got.basis, FourierBasis)
    want = _eigh_decompose(monkeypatch, m)
    assert isinstance(want.basis, DenseBasis)
    assert got.multiplicities == want.multiplicities
    assert np.array_equal(got.offsets, want.offsets)
    assert got.scale == want.scale
    np.testing.assert_allclose(got.eigenvalues, want.eigenvalues, rtol=0, atol=ULPS * np.spacing(got.scale))
    for j in range(want.k):
        np.testing.assert_allclose(projector(got, j), projector(want, j), rtol=0, atol=1e-12)
    assert got.warnings == want.warnings
    n = got.n
    v = got.basis.dense()
    np.testing.assert_allclose(v.T @ v, np.eye(n), rtol=0, atol=1e-13)
    mat = np.asarray(m.matrix if isinstance(m, pw.Hamiltonian) else m)
    np.testing.assert_allclose(mat @ v, v * np.repeat(got.eigenvalues, got.multiplicities), rtol=0,
                               atol=1e-13 * got.scale)


def test_pairs_are_degenerate_exactly():
    # frequency k gives its cosine and its sine vector one eigenvalue, so a
    # cycle's clusters are the pairs k, n - k, with no spread inside them
    n = 128
    evals, _ = spectral._circulant_route(spectral._edge_form(pw.hamiltonian(pw.build_cycle(n), pw.ADJACENCY)))
    assert np.all(np.diff(evals) <= 0)
    assert len(np.unique(evals)) == n // 2 + 1
    np.testing.assert_allclose(evals, np.sort(2 * np.cos(2 * np.pi * np.arange(n) / n))[::-1], rtol=0, atol=1e-14)


BASIS_CASES = [("C64", pw.build_cycle(64)), ("C65", pw.build_cycle(65)), ("K64", pw.build_complete(64)),
               ("circ97-125", GRAPHS[6][1]), ("C80-diameters", GRAPHS[7][1]),
               ("C64xK2", pw.cartesian_product(pw.build_cycle(64), pw.build_path(2)))]


@pytest.mark.parametrize("name,g", BASIS_CASES, ids=[c[0] for c in BASIS_CASES])
@pytest.mark.parametrize("kind", [pw.ADJACENCY, pw.LAPLACIAN])
def test_basis_protocol(name, g, kind):
    """project and lift against the dense V on b = 3, 1 and 0 columns, on a
    bool and an index cols, and the round trip; the prism C64 x K2 holds a
    KroneckerBasis over its factor's FourierBasis."""
    dec = pw.decompose(pw.hamiltonian(g, kind))
    basis = dec.basis.g if name == "C64xK2" else dec.basis
    assert isinstance(basis, FourierBasis)
    assert name != "C64xK2" or isinstance(dec.basis, KroneckerBasis)
    _check_basis(dec, np.random.default_rng(g.n))


class _NoFFT:
    def __getattr__(self, name):
        raise AssertionError("numpy.fft reached")


def _declined_cases():
    c64 = pw.build_cycle(64)
    cases = []
    values = c64.w.copy()
    values[5] = 1.5
    cases.append(("C64-one-weight", pw.Hamiltonian(pw.ADJACENCY, c64, np.zeros(64), values)))
    chord = pw.make_graph(64, list(c64.edges) + [(0, 7, 1.0)])
    cases.append(("C64-chord", pw.hamiltonian(chord, pw.ADJACENCY)))
    diameter = pw.make_graph(64, list(c64.edges) + [(3, 35, 1.0)])
    cases.append(("C64-one-diameter", pw.hamiltonian(diameter, pw.ADJACENCY)))
    p = np.random.default_rng(64).permutation(64)
    moved = pw.make_graph(64, [(int(p[a]), int(p[b])) for a, b, _ in c64.edges])
    cases.append(("C64-relabelled", pw.hamiltonian(moved, pw.LAPLACIAN)))
    cases.append(("C63", pw.hamiltonian(pw.build_cycle(63), pw.ADJACENCY)))
    potential = np.zeros(64)
    potential[9] = 0.5
    cases.append(("C64-potential", pw.Hamiltonian(pw.CUSTOM, c64, potential, c64.w)))
    k64 = pw.build_complete(64)
    cases.append(("K64-minus-an-edge", pw.hamiltonian(pw.make_graph(64, k64.edges[1:]), pw.ADJACENCY)))
    return cases


DECLINED = _declined_cases()


@pytest.mark.parametrize("name,ham", DECLINED, ids=[c[0] for c in DECLINED])
def test_route_declined(monkeypatch, name, ham):
    """Each differs from a circulant in one place; the route declines it
    from the edge form alone, with no FFT, and a later route decides it."""
    for m in (ham, np.array(ham.matrix)):
        with monkeypatch.context() as patch:
            patch.setattr(np, "fft", _NoFFT())
            assert spectral._circulant_route(spectral._edge_form(m)) is None
            dec = pw.decompose(m)
        assert not isinstance(dec.basis, FourierBasis)
        np.testing.assert_allclose(np.repeat(dec.eigenvalues, dec.multiplicities),
                                   np.linalg.eigvalsh(ham.matrix)[::-1], rtol=0, atol=1e-12 * dec.scale)


def _expm_transfer(mat, x, y, tau):
    """|y^T exp(i tau M) x| / (||x|| ||y||) from scipy's expm of the dense M."""
    u = scipy.linalg.expm(1j * tau * np.asarray(mat))
    return abs(y @ (u @ x)) / (np.linalg.norm(x) * np.linalg.norm(y))


def _assert_transfer(monkeypatch, ham, x):
    """x has a partner on the route's decomposition; the yes verdict is eigh's,
    it holds under expm, and V is never built on the way."""
    dec = pw.decompose(ham)
    assert isinstance(dec.basis, FourierBasis)
    with monkeypatch.context() as patch:
        patch.setattr(FourierBasis, "dense", lambda self: pytest.fail("vectors materialised"))
        y = pw.pst_partner(dec, x)
        verdict = pw.pst_decide(dec, x, y)
        check = pw.verify_pst_numeric(dec, x, y, verdict.tau_min)
    ref = _eigh_decompose(monkeypatch, ham)
    want = pw.pst_decide(ref, x, y)
    np.testing.assert_allclose(y, pw.pst_partner(ref, x), rtol=0, atol=1e-9)
    assert verdict.decision and check.passed
    assert (verdict.case, verdict.tau_symbolic) == (want.case, want.tau_symbolic)
    assert verdict.tau_min == pytest.approx(want.tau_min, rel=1e-12)
    assert _expm_transfer(ham.matrix, x, y, verdict.tau_min) == pytest.approx(1.0, abs=1e-9)
    return verdict


@pytest.mark.parametrize("n", [64, 128, 300])
@pytest.mark.parametrize("kind", [pw.ADJACENCY, pw.LAPLACIAN])
def test_cycle_family_states_transfer(monkeypatch, n, kind):
    """A sampled state of each of the cycle's transfer families, whose
    eigenspaces the adjacency and the Laplacian 2I - A share, transfers to
    the family's partner at the family's time."""
    rng = np.random.default_rng(n)
    cases = pw.cycle_pst_families(n)
    assert cases
    for case in cases:
        pair = case.sample(rng, 0.2)
        verdict = _assert_transfer(monkeypatch, pw.hamiltonian(pw.build_cycle(n), kind), pair.x)
        assert verdict.tau_min <= case.tau * (1 + 1e-12)


@pytest.mark.parametrize("n", [64, 150])
@pytest.mark.parametrize("kind", [pw.ADJACENCY, pw.LAPLACIAN])
def test_complete_graph_plus_states_transfer(monkeypatch, n, kind):
    # e_u + e_v lies on K_n's two eigenvalues, and transfers
    for u, v in ((0, 1), (3, n - 1), (n // 2, n // 2 + 7)):
        _assert_transfer(monkeypatch, pw.hamiltonian(pw.build_complete(n), kind), pair_state(n, u, v, 1.0))


@pytest.mark.parametrize("n", [64, 65, 128, 300])
def test_cycle_pair_verdicts_match_eigh(monkeypatch, n):
    """Every pair state e_0 +- e_v on the cycle: the same partner (None on
    each side) and the same verdict as eigh's decomposition."""
    ham = pw.hamiltonian(pw.build_cycle(n), pw.LAPLACIAN)
    dec, ref = pw.decompose(ham), _eigh_decompose(monkeypatch, ham)
    X = np.array([pair_state(n, 0, v, s) for v in range(1, n // 2 + 1) for s in (1.0, -1.0)]).T
    got, want = pw.pst_partners(dec, X), pw.pst_partners(ref, X)
    assert np.array_equal(got[1], want[1]) and np.array_equal(got[2], want[2])
    np.testing.assert_allclose(got[0], want[0], rtol=0, atol=1e-9)
    np.testing.assert_allclose(got[3], want[3], rtol=1e-12, atol=0)
    y = pair_state(n, 1, n // 2 + 1, -1.0)
    for x in X.T[::7]:
        a, b = pw.pst_decide(dec, x, y), pw.pst_decide(ref, x, y)
        assert (a.decision, a.reason, a.case) == (b.decision, b.reason, b.case)
