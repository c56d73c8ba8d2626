"""Bipartite inputs of decompose, which no route of their own takes: a
matrix cI + [[0, B], [B^T, 0]] on the parts P, Q of a bipartite pattern
goes to whichever route of routes.ROUTES takes it (the product route for
hypercubes and G x K2, the circulant and path routes for cycles and paths
as their builders label them, eigh for the rest). Whatever the route, it
must give what np.linalg.eigh gives: the same multiplicities, eigenvalues
to 1e-12 * scale, projectors to 1e-10, and the same pst_decide and
pst_partner verdicts; and its spectrum must keep the bipartite symmetry
D M D = 2cI - M, D = diag(+1 on P, -1 on Q), which maps the cluster at
lambda onto the one at 2c - lambda. A Hamiltonian that a structure route
takes never builds its dense matrix."""

import numpy as np
import pytest

import pstwalk as pw
from conftest import assert_one_form, assert_same_verdicts, heavy_path_ends, route_calls, route_of
from oracles import eigh_decompose, projector
from route_table import DENSE_ROUTES, assert_agrees, q8_relabelled, random_weighted


def _graph_matrix(g, kind):
    return pw.hamiltonian(g, kind).matrix


def _parts(n, p):
    p = np.asarray(p)
    return p, np.setdiff1d(np.arange(n), p)


def _colouring(mat):
    """The 2-colouring of mat's nonzero off-diagonal pattern, each component
    from its least vertex: a bool mask of P."""
    n = len(mat)
    adjacent = (mat != 0) & ~np.eye(n, dtype=bool)
    colour = np.full(n, -1)
    for root in range(n):
        if colour[root] >= 0:
            continue
        colour[root], stack = 0, [root]
        while stack:
            u = stack.pop()
            for v in np.flatnonzero(adjacent[u]):
                if colour[v] < 0:
                    colour[v] = 1 - colour[u]
                    stack.append(v)
                assert colour[v] != colour[u], "pattern is not bipartite"
    return colour == 0


def _cases():
    """(name, matrix, parts): parts None means the colouring's own parts."""
    cases = []
    for d in (3, 4, 6):
        for kind in (pw.ADJACENCY, pw.LAPLACIAN):
            cases.append((f"Q{d}-{kind}", _graph_matrix(pw.build_hypercube(d), kind), None))
    for n in (7, 8, 65):
        cases.append((f"P{n}", _graph_matrix(pw.build_path(n), pw.ADJACENCY), None))
    for n in (6, 8, 64):
        for kind in (pw.ADJACENCY, pw.LAPLACIAN):
            cases.append((f"C{n}-{kind}", _graph_matrix(pw.build_cycle(n), kind), None))
    cases.append(("K2,5", _graph_matrix(pw.build_complete_bipartite(2, 5), pw.ADJACENCY), _parts(7, [0, 1])))
    cases.append(("K5,2", _graph_matrix(pw.build_complete_bipartite(5, 2), pw.ADJACENCY),
                  _parts(7, range(5))))
    cases.append(("K3,3-lap", _graph_matrix(pw.build_complete_bipartite(3, 3), pw.LAPLACIAN),
                  _parts(6, range(3))))
    star = pw.make_graph(7, [(0, j) for j in range(1, 7)])
    cases.append(("star7", _graph_matrix(star, pw.ADJACENCY), _parts(7, [0])))
    # P3 + P4 + an isolated vertex, and the edgeless graph
    split = pw.make_graph(8, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6)])
    cases.append(("P3+P4+K1", _graph_matrix(split, pw.ADJACENCY), None))
    cases.append(("edgeless", _graph_matrix(pw.make_graph(5, []), pw.ADJACENCY), None))
    # signed weights on a 6-cycle with a chord across it and a pendant vertex,
    # shifted by 0.75 I: parts of 3 and 4, so c is also an eigenvalue
    signed = 0.75 * np.eye(7)
    for u, v, w in ((0, 1, 2.0), (1, 2, -1.0), (2, 3, 0.5), (3, 4, -3.0), (4, 5, 1.5), (5, 0, -0.25),
                    (0, 3, 1.0), (5, 6, -2.0)):
        signed[u, v] = signed[v, u] = w
    cases.append(("signed", signed, None))
    cases.append(("shifted-edgeless", 2.5 * np.eye(4), None))
    # hypercubes as build_hypercube labels them and bipartite G x K2: the product route
    for d in (7, 8, 9, 10):
        for kind in (pw.ADJACENCY, pw.LAPLACIAN):
            cases.append((f"Q{d}-{kind}", _graph_matrix(pw.build_hypercube(d), kind), None))
    k2 = pw.build_path(2)
    cases.append(("P40xK2", _graph_matrix(pw.cartesian_product(pw.build_path(40), k2), pw.ADJACENCY), None))
    for kind in (pw.ADJACENCY, pw.LAPLACIAN):
        cases.append((f"C32xK2-{kind}", _graph_matrix(pw.cartesian_product(pw.build_cycle(32), k2), kind),
                      None))
    cases.append(("signed-symmetric-block", _halves(_signed_block(), 0.75), None))
    cases.append(("asymmetric-block", _halves(np.triu(np.arange(1.0, 37.0).reshape(6, 6)), -1.0), None))
    return cases


def _signed_block():
    """A signed symmetric 32 x 32 block whose spectrum has negative
    eigenvalues and the exact eigenvalue 0: signed weights on the band
    |i - j| in {1, 2} of 0..29 (its triangles tie the two copies of the
    pattern in [[0, B], [B, 0]] together), and leaves 30 and 31 on vertex 29
    with one weight, which make e_30 - e_31 a kernel vector. Seeded so that
    distinct |lambda| lie at least 0.04 apart: a nearly repeated eigenvalue
    leaves the projectors of both decompositions ill-conditioned."""
    rng = np.random.default_rng(6)
    b = np.zeros((32, 32))
    for k, weights in ((1, [-3.0, -2.0, -1.0, 1.0, 2.0, 3.0]), (2, [-2.0, -1.0, 1.0, 2.0])):
        for i in range(30 - k):
            b[i, i + k] = b[i + k, i] = rng.choice(weights)
    b[29, 30] = b[30, 29] = b[29, 31] = b[31, 29] = 2.0
    return b


def _halves(b, c):
    """cI + [[0, B], [B^T, 0]], with parts 0..m-1 and m..2m-1."""
    m = len(b)
    mat = c * np.eye(2 * m)
    mat[:m, m:] = b
    mat[m:, :m] = b.T
    return mat


CASES = _cases()


def _assert_mirrored(dec, mat, in_p):
    """D M D = 2cI - M: the spectrum is symmetric about c, with equal
    multiplicities, and D E_lambda D is the projector at 2c - lambda."""
    c = mat[0, 0]
    assert np.array_equal(mat.diagonal(), np.full(len(mat), c))
    order = np.argsort(dec.eigenvalues)
    mult = np.array(dec.multiplicities)
    assert mult[order].tolist() == mult[order[::-1]].tolist()
    np.testing.assert_allclose(dec.eigenvalues[order] + dec.eigenvalues[order[::-1]], 2 * c, rtol=0,
                               atol=2e-12 * dec.scale)
    d = np.where(in_p, 1.0, -1.0)
    for j, mirror in zip(order, order[::-1]):
        np.testing.assert_allclose(d[:, None] * projector(dec, j) * d, projector(dec, mirror), rtol=0,
                                   atol=1e-10)


@pytest.mark.parametrize("name,mat,parts", CASES, ids=[c[0] for c in CASES])
def test_route_matches_eigh(monkeypatch, name, mat, parts):
    in_p = _colouring(mat)
    if parts is not None:
        assert np.array_equal(np.flatnonzero(in_p), parts[0])
    got, calls = route_calls(monkeypatch, mat)
    assert got.route == route_of(calls)
    want = eigh_decompose(mat)
    assert_agrees(got, want, mat, proj_atol=1e-10)
    assert_same_verdicts(got, want, len(mat))
    _assert_mirrored(got, mat, in_p)


def _heavy_path(n):
    """The n-path with heavy end edges: off the path route, which takes the
    uniform path."""
    return heavy_path_ends(pw.build_path(n))


def _lazy_cases():
    k2 = pw.build_path(2)
    graphs = ([(f"Q{d}", pw.build_hypercube(d)) for d in range(6, 11)]
              + [(f"P{n}", _heavy_path(n)) for n in (64, 65, 100, 300)]
              + [(f"C{n}", pw.build_cycle(n)) for n in (64, 128, 300)]
              + [("P40xK2", pw.cartesian_product(pw.build_path(40), k2)),
                 ("C32xK2", pw.cartesian_product(pw.build_cycle(32), k2)),
                 ("C64xK2", pw.cartesian_product(pw.build_cycle(64), k2)),
                 ("Q8-relabelled", q8_relabelled()),
                 ("random-weighted", random_weighted())])
    return [(f"{name}-{kind}", g, kind) for name, g in graphs for kind in (pw.ADJACENCY, pw.LAPLACIAN)]


LAZY_CASES = _lazy_cases()
# the heavy-ended paths (off the path route), the relabelled hypercube (off
# the product route) and the random graph take eigh
OFF_ROUTE = {f"{name}-{kind}" for name in ("P64", "P65", "P100", "P300", "Q8-relabelled", "random-weighted")
             for kind in (pw.ADJACENCY, pw.LAPLACIAN)}


@pytest.mark.parametrize("name,g,kind", LAZY_CASES, ids=[c[0] for c in LAZY_CASES])
def test_route_never_builds_the_dense_matrix(monkeypatch, name, g, kind):
    """A bipartite Hamiltonian on a structure route is decomposed from its
    edge arrays alone: its dense matrix is not built, and the same matrix
    given as a raw ndarray passes the door into the same form. eigh still
    reads the matrix."""
    ham = pw.hamiltonian(g, kind)
    dec, calls = route_calls(monkeypatch, ham)
    route = route_of(calls)
    assert dec.route == route and (route in DENSE_ROUTES) == (name in OFF_ROUTE)
    assert ("matrix" in vars(ham)) == (route in DENSE_ROUTES)
    assert_one_form(ham)
