"""The mirror route of decompose: a symmetric M with JMJ = M, J the reversal
i -> n - 1 - i, has its eigenpairs from two eighs of about n/2
(spectral._mirror_eigh). decompose takes it from ROUTE_MIN_N on, where
the bipartite route declines, when spectral._mirrored finds the diagonal a
palindrome and the reversed edges, with their values, equal to the edges. It
must give what np.linalg.eigh gives: the same multiplicities, eigenvalues to
1e-12 * scale and projectors to 1e-10, and the same verdicts as a
relabelled copy of the graph, which takes eigh. The cycles and complete
graphs here carry weight 2 on their edge (0, n - 1), which J fixes, and the
paths weight 2 on both end edges, which J swaps: the circulant and the path
routes, before this one, take them unweighted. The inputs are
route_table.ROUTE_OF's rows that the route takes or passes on."""

import numpy as np
import pytest

import pstwalk as pw
from pstwalk import spectral
from conftest import (assert_same_outcome, assert_same_verdicts, decomposition_bytes, entries, outcome, pair_state,
                      relabelled, route_calls, taken)
from route_table import assert_declined, assert_matches_eigh, mirror_chain, row, rows

ROUTE_CASES = [(r.name, r.build()) for r in rows("mirror")]


@pytest.mark.parametrize("name,m", ROUTE_CASES, ids=[c[0] for c in ROUTE_CASES])
def test_route_matches_eigh(monkeypatch, name, m):
    got, _ = assert_matches_eigh(monkeypatch, m, "mirror", proj_atol=1e-10)
    assert np.array_equal(m.matrix, m.matrix[::-1, ::-1])
    # both entries reach the route through the same test, so the same bytes
    for _, e in entries(m, False):
        dec = pw.decompose(e)
        assert dec.route == "mirror" and decomposition_bytes(dec) == decomposition_bytes(got)


# the n = 63 rows of the gate, under the names this test has always had
BELOW = {"P63-adjacency": "path63-adjacency", "P63": "path63-laplacian", "C63": "cycle63-adjacency",
         "C63-laplacian": "cycle63-laplacian", "K63-adjacency": "complete63-adjacency",
         "K63-laplacian": "complete63-laplacian"}
OFF_ROUTE = [(BELOW[r.name], r) for r in rows("eigh") if r.name in BELOW] + [(r.name, r) for r in rows(
    declines="mirror")]


@pytest.mark.parametrize("name,r", OFF_ROUTE, ids=[c[0] for c in OFF_ROUTE])
def test_off_the_route(monkeypatch, name, r):
    ham = r.build()
    mat = ham.matrix
    for _, m in entries(ham, False):
        assert_declined(monkeypatch, m, "mirror", r.route)
    # only the n = 63 graphs are mirror symmetric: the route starts at 64
    mirrored = spectral._mirrored(spectral._edge_form(ham))
    assert mirrored == np.array_equal(mat, mat[::-1, ::-1]) == (ham.n < spectral.ROUTE_MIN_N)


BIPARTITE_ROUTE = [(name, route, row(route, name).build()) for route, name in (
    ("path", "P64-adjacency"), ("circulant", "C64-adjacency"), ("circulant", "C64-laplacian"),
    ("product", "Q7-adjacency"), ("product", "Q7-laplacian"), ("product", "C32xK2-adjacency"))]


@pytest.mark.parametrize("name,route,ham", BIPARTITE_ROUTE, ids=[c[0] for c in BIPARTITE_ROUTE])
def test_bipartite_route_comes_first(name, route, ham):
    # each is mirror symmetric too, but a route before this one takes it:
    # the product route Q7 and C32 x K2, the circulant route C64, the path
    # route P64, else the bipartite route
    form = spectral._edge_form(ham)
    assert spectral._mirrored(form)
    assert spectral._route_parts(form) is not None
    assert pw.decompose(ham).route == route


def _pairs(n, rng):
    """Seeded e_u +- e_v pairs, and each vertex's mirror pair e_u +- e_{n-1-u}."""
    out = []
    for u in rng.choice(n // 2, 3, replace=False):
        out.append((int(u), n - 1 - int(u), 1.0))
        out.append((int(u), n - 1 - int(u), -1.0))
    for u, v in rng.choice(n, (4, 2), replace=False):
        out.append((int(u), int(v), float(rng.choice([-1.0, 1.0]))))
    return out


METAMORPHIC = [c for c in ROUTE_CASES if c[0] in ("P64-laplacian", "P65-laplacian", "C65-adjacency",
                                                  "C151-laplacian", "K64-adjacency", "K64,64-laplacian",
                                                  "chain64", "chain65")]


@pytest.mark.parametrize("name,ham", METAMORPHIC, ids=[c[0] for c in METAMORPHIC])
def test_verdicts_match_the_relabelled_graph(name, ham):
    """The route's verdicts against eigh's on a relabelled copy: the same
    partner, decision, reason and case, and tau to 1e-12."""
    other, p = relabelled(ham, 5)
    dec, ref = pw.decompose(ham), pw.decompose(other)
    assert (dec.route, ref.route) == ("mirror", "eigh")
    n = ham.n
    for u, v, s in _pairs(n, np.random.default_rng(n)):
        x, y = pair_state(n, u, v, s), pair_state(n, (u + 1) % n, (v + 1) % n, s)
        px, py = np.empty(n), np.empty(n)
        px[p], py[p] = x, y
        assert_same_outcome(outcome(ref, px, py), outcome(dec, x, y), perm=p)


def test_middle_row_of_an_odd_matrix():
    # the middle vertex of the odd chain couples to both halves: its entries
    # enter the symmetric block scaled by sqrt(2), and the antisymmetric
    # eigenvectors vanish on it
    ham = mirror_chain(65)
    evals, vectors = spectral._mirror_eigh(ham.matrix)
    scale = np.linalg.norm(ham.matrix, np.inf)
    np.testing.assert_allclose(ham.matrix @ vectors, vectors * evals, rtol=0, atol=1e-12 * scale)
    assert not vectors[32, 33:].any()
    np.testing.assert_allclose(vectors[:32], vectors[:32:-1] * np.r_[np.ones(33), -np.ones(32)], rtol=0, atol=0)


K2 = pw.build_path(2)
HALF_BLOCKS = [(f"K{p},{p}xK2-{kind}",
                pw.hamiltonian(pw.cartesian_product(pw.build_complete_bipartite(p, p), K2), kind))
               for p in (32, 40) for kind in (pw.ADJACENCY, pw.LAPLACIAN)]


@pytest.mark.parametrize("name,ham", HALF_BLOCKS, ids=[c[0] for c in HALF_BLOCKS])
def test_half_block_takes_the_mirror_route(monkeypatch, name, ham):
    """K_{p,p} x K2 takes the product route, and its 2p x 2p half block,
    the factor K_{p,p} (plus I for the Laplacian), passes through the same
    route table: the bipartite route declines its complete pattern and the
    mirror route takes it. It
    must give what np.linalg.eigh of the whole matrix gives: the same
    multiplicities, eigenvalues to 1e-12 * scale, projectors to 1e-10, and
    the same pst_decide and pst_partner verdicts on pair states."""
    assert taken(route_calls(monkeypatch, ham)[1], "mirror") == 1
    got, want = assert_matches_eigh(monkeypatch, ham, "product", proj_atol=1e-10)
    assert_same_verdicts(got, want, ham.n)
