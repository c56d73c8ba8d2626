"""The circulant route of decompose: a circulant M, m_ij = r_((j - i) mod n),
has the real Fourier vectors for eigenvectors (Davis, Circulant Matrices,
1979), so routes._circulant_route takes its eigenvalues from one rfft of
the first row r and holds V as a FourierBasis. decompose takes it from
ROUTE_MIN_N on, after the product route: cycles and complete graphs in
their builders' labelling, any weighted circulant, of either kind, as a
Hamiltonian, as a raw matrix and shifted and scaled. It must give what
np.linalg.eigh gives: the same clusters and multiplicities, eigenvalues to a
few ulps of the scale and each cluster's projector to 1e-12. The basis keeps
the protocol of the other bases; a matrix that is not exactly circulant is
declined before any FFT; and its yes verdicts hold under scipy's expm. The
inputs are route_table.ROUTE_OF's rows that the route takes or passes on."""

import numpy as np
import pytest

import pstwalk as pw
from pstwalk import routes, spectral
from pstwalk.routes import FourierBasis, KroneckerBasis
from conftest import check_basis, entries, pair_state
from oracles import eigh_decompose
from route_table import assert_declined, assert_matches_eigh, assert_transfer, row, rows

ULPS = 8  # eigenvalue agreement with eigh, in units of np.spacing(scale); 5 seen
CASES = [(f"{r.name}-{entry}", m) for r in rows("circulant") for entry, m in entries(r.build(), r.shifted)]


@pytest.mark.parametrize("name,m", CASES, ids=[c[0] for c in CASES])
def test_route_matches_eigh(monkeypatch, name, m):
    assert_matches_eigh(monkeypatch, m, "circulant", ulps=ULPS, ortho_atol=1e-13)


def test_pairs_are_degenerate_exactly():
    # frequency k gives its cosine and its sine vector one eigenvalue, so a
    # cycle's clusters are the pairs k, n - k, with no spread inside them
    n = 128
    evals, _ = routes._circulant_route(spectral._edge_form(pw.hamiltonian(pw.build_cycle(n), pw.ADJACENCY)))
    assert np.all(np.diff(evals) <= 0)
    assert len(np.unique(evals)) == n // 2 + 1
    np.testing.assert_allclose(evals, np.sort(2 * np.cos(2 * np.pi * np.arange(n) / n))[::-1], rtol=0, atol=1e-14)


BASIS_CASES = ["C64", "C65", "K64", "circ97-125", "C80-diameters", "C64xK2"]


@pytest.mark.parametrize("name", BASIS_CASES)
@pytest.mark.parametrize("kind", [pw.ADJACENCY, pw.LAPLACIAN])
def test_basis_protocol(name, kind):
    """project and lift against the dense V on b = 3, 1 and 0 columns, on a
    bool and an index cols, and the round trip; the prism C64 x K2 holds a
    KroneckerBasis over its factor's FourierBasis."""
    prism = name == "C64xK2"
    ham = row("product" if prism else "circulant", f"{name}-{kind}").build()
    dec = pw.decompose(ham)
    assert isinstance(dec.basis.g if prism else dec.basis, FourierBasis)
    assert not prism or isinstance(dec.basis, KroneckerBasis)
    check_basis(dec, np.random.default_rng(ham.n))


DECLINED = rows(declines="circulant")


@pytest.mark.parametrize("r", DECLINED, ids=[r.name for r in DECLINED])
def test_route_declined(monkeypatch, r):
    """Each differs from a circulant in one place, or sits below the gate;
    the route passes it on from the edge form alone, with no FFT, and a
    later route decides it."""
    for _, m in entries(r.build(), r.shifted):
        dec, _ = assert_declined(monkeypatch, m, "circulant", r.route)
        assert not isinstance(dec.basis, FourierBasis)


def _route_and_eigh(ham):
    dec = pw.decompose(ham)
    assert isinstance(dec.basis, FourierBasis)
    return dec, eigh_decompose(ham)


@pytest.mark.parametrize("n", [64, 128, 300])
@pytest.mark.parametrize("kind", [pw.ADJACENCY, pw.LAPLACIAN])
def test_cycle_family_states_transfer(monkeypatch, n, kind):
    """A sampled state of each of the cycle's transfer families, whose
    eigenspaces the adjacency and the Laplacian 2I - A share, transfers to
    the family's partner at the family's time."""
    rng = np.random.default_rng(n)
    cases = pw.cycle_pst_families(n)
    assert cases
    ham = pw.hamiltonian(pw.build_cycle(n), kind)
    dec, ref = _route_and_eigh(ham)
    for case in cases:
        verdict = assert_transfer(monkeypatch, dec, ref, ham, case.sample(rng, 0.2).x)
        assert verdict.tau_min <= case.tau * (1 + 1e-12)


@pytest.mark.parametrize("n", [64, 150])
@pytest.mark.parametrize("kind", [pw.ADJACENCY, pw.LAPLACIAN])
def test_complete_graph_plus_states_transfer(monkeypatch, n, kind):
    # e_u + e_v lies on K_n's two eigenvalues, and transfers
    ham = pw.hamiltonian(pw.build_complete(n), kind)
    dec, ref = _route_and_eigh(ham)
    for u, v in ((0, 1), (3, n - 1), (n // 2, n // 2 + 7)):
        assert_transfer(monkeypatch, dec, ref, ham, pair_state(n, u, v, 1.0))


@pytest.mark.parametrize("n", [64, 65, 128, 300])
def test_cycle_pair_verdicts_match_eigh(monkeypatch, n):
    """Every pair state e_0 +- e_v on the cycle: the same partner (None on
    each side) and the same verdict as eigh's decomposition."""
    ham = pw.hamiltonian(pw.build_cycle(n), pw.LAPLACIAN)
    dec, ref = pw.decompose(ham), eigh_decompose(ham)
    X = np.array([pair_state(n, 0, v, s) for v in range(1, n // 2 + 1) for s in (1.0, -1.0)]).T
    got, want = pw.pst_partners(dec, X), pw.pst_partners(ref, X)
    assert np.array_equal(got[1], want[1]) and np.array_equal(got[2], want[2])
    np.testing.assert_allclose(got[0], want[0], rtol=0, atol=1e-9)
    np.testing.assert_allclose(got[3], want[3], rtol=1e-12, atol=0)
    y = pair_state(n, 1, n // 2 + 1, -1.0)
    for x in X.T[::7]:
        a, b = pw.pst_decide(dec, x, y), pw.pst_decide(ref, x, y)
        assert (a.decision, a.reason, a.case) == (b.decision, b.reason, b.case)
