"""The product route of decompose: a matrix that is exactly
M_G (x) I_2 + I_G (x) M_K2 in cartesian_product's labelling v = 2a + b, from
ROUTE_MIN_N on, takes its eigenpairs from its factors' (spectral.
_product_route): G's from the route table, K2's from a 2 x 2 eigh, held as a
KroneckerBasis. spectral._box_factor detects it from the edge form alone. On
route_table.ROUTE_OF's product rows (the inputs of scripts/decompose_digest.py
that take it, Q6-Q10, P40xK2, C32xK2 and C64xK2, and P64xK2, both kinds, as
a Hamiltonian, a raw matrix and shifted and scaled), it must give what
np.linalg.eigh gives: the same multiplicities, eigenvalues to 1e-12 * scale
and every cluster projector to 1e-12. A near product, ROUTE_OF's rows the
route passes on, is refused and decided as by eigh."""

import numpy as np
import pytest

import pstwalk as pw
from pstwalk import graphs, spectral
from conftest import assert_same_verdicts, decomposition_bytes, entries, pair_state
from route_table import assert_declined, assert_matches_eigh, row, rows

DIGEST_PRODUCTS = [(r.name, r) for r in rows("product")]


@pytest.mark.parametrize("name,r", DIGEST_PRODUCTS, ids=[c[0] for c in DIGEST_PRODUCTS])
def test_product_route_matches_eigh(monkeypatch, name, r):
    """Each entry: the Hamiltonian, its raw matrix (one eigh serves both),
    and 2.5 M + 0.75 I."""
    want = None
    for entry, m in entries(r.build(), r.shifted):
        _, want = assert_matches_eigh(monkeypatch, m, "product", want=want if entry == "raw" else None)


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


NEAR_PRODUCTS = rows(declines="product")


@pytest.mark.parametrize("r", NEAR_PRODUCTS, ids=[r.name for r in NEAR_PRODUCTS])
def test_near_products_are_refused(monkeypatch, r):
    """Each is off M_G (x) I_2 + I_G (x) M_K2 in v = 2a + b by one change,
    or below the gate: the product route passes it on, and the route after
    it decides it as eigh does."""
    for _, m in entries(r.build(), r.shifted):
        got, want = assert_declined(monkeypatch, m, "product", r.route)
        assert not isinstance(got.basis, spectral.KroneckerBasis)
        assert_same_verdicts(got, want, got.n)


def test_weighted_product_with_a_potential(monkeypatch):
    """A signed weighted G with an uneven diagonal, times K2 with an uneven
    one: the diagonal splits as d(2a) and d(2a + 1) - d(2a) = -1.5."""
    mat = _weighted_product()
    got, want = assert_matches_eigh(monkeypatch, mat, "product", proj_atol=1e-10)
    assert isinstance(got.basis.g, spectral.DenseBasis)
    assert_same_verdicts(got, want, len(mat))
    x = pair_state(len(mat), 0, 1, 1.0)
    np.testing.assert_allclose(pw.evolve(got, 0.8, x), pw.evolve(want, 0.8, x), rtol=0, atol=1e-10)


def test_factor_past_the_dense_guard(monkeypatch):
    """DENSE_GUARD refuses a graph's dense matrix, not a route's work: with
    it below Q6's factor Q5, which eigh reads, Q6 still decomposes from
    either entry, and a raw matrix off every other route goes to eigh."""
    ham = row("product", "Q6-adjacency").build()
    raw, off_route = entries(ham, False)[1][1], entries(row("eigh", "random-weighted-adjacency").build(), False)[1][1]
    monkeypatch.setattr(graphs, "DENSE_GUARD", 16)
    with pytest.raises(pw.InvalidSizeError):
        pw.hamiltonian(pw.build_hypercube(5), pw.ADJACENCY)
    got, _ = assert_matches_eigh(monkeypatch, raw, "product")
    dec = pw.decompose(ham)
    assert dec.route == "product" and "matrix" not in vars(ham)
    assert decomposition_bytes(dec) == decomposition_bytes(got)
    assert_matches_eigh(monkeypatch, off_route, "eigh")
