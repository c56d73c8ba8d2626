import math

import numpy as np
import pytest

import pstwalk as pw
from conftest import basis_state, pair_state


def test_build_path():
    assert pw.build_path(1).edges == ()
    assert [(u, v) for u, v, _ in pw.build_path(3).edges] == [(0, 1), (1, 2)]
    p5 = pw.build_path(5)
    assert len(p5.edges) == 4
    assert max(p5.degrees()) == 2
    with pytest.raises(pw.InvalidSizeError):
        pw.build_path(0)


def test_build_cycle():
    assert sorted((u, v) for u, v, _ in pw.build_cycle(3).edges) == [(0, 1), (0, 2), (1, 2)]
    assert pw.build_cycle(3).edges == pw.build_complete(3).edges
    assert sorted((u, v) for u, v, _ in pw.build_cycle(4).edges) == [(0, 1), (0, 3), (1, 2), (2, 3)]
    c8 = pw.build_cycle(8)
    assert len(c8.edges) == 8
    assert np.all(c8.degrees() == 2)
    with pytest.raises(pw.InvalidSizeError):
        pw.build_cycle(2)


def test_standard_builders():
    assert len(pw.build_complete(4).edges) == 6
    kb = pw.build_complete_bipartite(2, 4)
    assert len(kb.edges) == 8
    assert all(u < 2 <= v for u, v, _ in kb.edges)
    q3 = pw.build_hypercube(3)
    assert q3.n == 8
    assert len(q3.edges) == 12
    assert np.all(q3.degrees() == 3)
    assert pw.build_empty(3).edges == ()
    for bad in (lambda: pw.build_complete(0), lambda: pw.build_complete_bipartite(0, 2),
                lambda: pw.build_empty(0), lambda: pw.build_hypercube(0)):
        with pytest.raises(pw.InvalidSizeError):
            bad()


def test_graph_validation():
    with pytest.raises(pw.GraphError):
        pw.make_graph(3, [(0, 0)])
    with pytest.raises(pw.GraphError):
        pw.make_graph(3, [(0, 1), (1, 0)])  # duplicate after canonicalization
    with pytest.raises(pw.GraphError):
        pw.make_graph(3, [(0, 1, -2.0)])
    with pytest.raises(pw.GraphError):
        pw.make_graph(3, [(0, 5)])
    for bad in (math.inf, math.nan):
        with pytest.raises(pw.GraphError, match="non-finite"):
            pw.make_graph(3, [(0, 1, bad)])


def test_adjacency_exact_symmetry():
    g = pw.make_graph(4, [(0, 1, 0.3), (1, 2, 1.7), (0, 3)])
    a = g.adjacency()
    assert np.array_equal(a, a.T)
    assert np.all(np.diag(a) == 0.0)
    lap = g.laplacian()
    assert np.allclose(lap.sum(axis=1), 0.0, atol=0.0)


def _kronecker_sum_oracle(g, h, kind):
    mg = pw.hamiltonian(g, kind).matrix
    mh = pw.hamiltonian(h, kind).matrix
    return np.kron(mg, np.eye(h.n)) + np.kron(np.eye(g.n), mh)


def test_cartesian_product():
    # K_2 box K_2 is the 4-cycle
    q2 = pw.cartesian_product(pw.build_path(2), pw.build_path(2))
    assert sorted((u, v) for u, v, _ in q2.edges) == [(0, 1), (0, 2), (1, 3), (2, 3)]
    # P_2 box P_3: 6 vertices, 7 edges, and the Kronecker-sum identity exactly
    g, h = pw.build_path(2), pw.build_path(3)
    prod = pw.cartesian_product(g, h)
    assert prod.n == 6
    assert len(prod.edges) == 7
    for kind in (pw.ADJACENCY, pw.LAPLACIAN):
        assert np.array_equal(pw.hamiltonian(prod, kind).matrix, _kronecker_sum_oracle(g, h, kind))
    # Q_2 box C_8: 32 vertices, 4-regular
    big = pw.cartesian_product(pw.build_hypercube(2), pw.build_cycle(8))
    assert big.n == 32
    assert np.all(big.degrees() == 4)
    assert np.array_equal(
        pw.hamiltonian(big, pw.ADJACENCY).matrix,
        _kronecker_sum_oracle(pw.build_hypercube(2), pw.build_cycle(8), pw.ADJACENCY),
    )


def test_join():
    k2 = pw.join(pw.build_empty(1), pw.build_empty(1))
    assert [(u, v) for u, v, _ in k2.edges] == [(0, 1)]
    c4 = pw.join(pw.build_empty(2), pw.build_empty(2))
    assert c4.edges == pw.build_complete_bipartite(2, 2).edges
    # complete split graph: all cross edges plus the clique edge
    split = pw.join(pw.build_empty(3), pw.build_complete(2))
    assert split.n == 5
    expected = {(0, 3), (0, 4), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)}
    assert {(u, v) for u, v, _ in split.edges} == expected
    assert len(split.edges) == 7


def test_join_laplacian_top_eigenvalue():
    g = pw.join(pw.build_path(3), pw.build_cycle(4))
    dec = pw.decompose(pw.hamiltonian(g, pw.LAPLACIAN))
    assert abs(dec.eigenvalues[0] - g.n) < 1e-9


def test_hamiltonian_examples():
    a = pw.hamiltonian(pw.build_complete(3), pw.ADJACENCY).matrix
    assert np.array_equal(a, np.ones((3, 3)) - np.eye(3))
    lap = pw.hamiltonian(pw.build_path(3), pw.LAPLACIAN).matrix
    assert np.array_equal(np.diag(lap), [1.0, 2.0, 1.0])
    assert np.allclose(lap.sum(axis=1), 0.0, atol=0.0)


def test_load_custom():
    g = pw.build_path(3)
    m = np.array([[0.5, 2.0, 0.0], [2.0, -1.0, 0.25], [0.0, 0.25, 0.0]])
    ham = pw.load_custom(m, g)
    assert ham.kind == pw.CUSTOM
    bad = m.copy()
    bad[0, 2] = bad[2, 0] = 1.0  # nonzero off the edge set
    with pytest.raises(pw.PatternMismatchError):
        pw.load_custom(bad, g)
    zero_edge = m.copy()
    zero_edge[0, 1] = zero_edge[1, 0] = 0.0
    with pytest.raises(pw.PatternMismatchError):
        pw.load_custom(zero_edge, g)
    asym = m.copy()
    asym[0, 1] = 3.0
    with pytest.raises(pw.PatternMismatchError):
        pw.load_custom(asym, g)


def test_is_connected():
    assert pw.is_connected(pw.build_path(6))
    assert not pw.is_connected(pw.build_empty(3))
    assert pw.is_connected(pw.build_empty(1))


def test_covering_radius():
    p5 = pw.build_path(5)
    assert pw.covering_radius(p5, np.ones(5)) == 0.0
    assert pw.covering_radius(p5, basis_state(5, 0)) == 4.0
    # adjacent pair in a primitive strongly regular graph has radius two
    pet = pw.build_petersen()
    u, v = pet.edges[0][0], pet.edges[0][1]
    assert pw.covering_radius(pet, pair_state(10, u, v)) == 2.0
    assert pw.covering_radius(pw.build_empty(3), basis_state(3, 0)) == math.inf
    with pytest.raises(pw.InvalidStateError):
        pw.covering_radius(p5, np.zeros(5))
