import heapq

import numpy as np
import pytest

import pstwalk as pw
from oracles import projector


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def basis_state(n, *entries):
    """Sparse state from (index, value) pairs; bare ints mean value 1."""
    x = np.zeros(n)
    for item in entries:
        if isinstance(item, tuple):
            i, val = item
        else:
            i, val = item, 1.0
        x[i] = val
    return x


def pair_state(n, u, v, s=-1.0):
    """e_u + s e_v with 0-based indices."""
    x = np.zeros(n)
    x[u] = 1.0
    x[v] = s
    return x


def random_tree(rng, n):
    """Uniform labeled tree from a random Pruefer sequence."""
    if n == 1:
        return pw.build_empty(1)
    if n == 2:
        return pw.build_path(2)
    prufer = rng.integers(0, n, size=n - 2)
    degree = np.ones(n, dtype=int)
    for v in prufer:
        degree[v] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in prufer:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, int(v)))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, int(v))
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return pw.make_graph(n, edges)


def heavy_end_edge(g):
    """g with weight 2 on its edge (0, n - 1), which the reversal
    i -> n - 1 - i maps to itself: a cycle or complete graph stays mirror
    symmetric but is no longer circulant."""
    return pw.make_graph(g.n, [(u, v, 2.0 if (u, v) == (0, g.n - 1) else w) for u, v, w in g.edges])


def heavy_path_ends(g):
    """The path g with weight 2 on its two end edges (0, 1) and (n - 2, n - 1),
    which the reversal i -> n - 1 - i swaps: it stays mirror symmetric and
    bipartite but is no longer uniform, so the path route passes it on."""
    ends = {(0, 1), (g.n - 2, g.n - 1)}
    return pw.make_graph(g.n, [(u, v, 2.0 if (u, v) in ends else w) for u, v, w in g.edges])


def random_connected_graph(rng, n, extra_edges=2):
    """Random tree plus a few extra edges; unit weights."""
    tree = random_tree(rng, n)
    edges = {(u, v) for u, v, _ in tree.edges}
    attempts = 0
    while len(edges) < min(n * (n - 1) // 2, n - 1 + extra_edges) and attempts < 50:
        u, v = sorted(rng.integers(0, n, size=2).tolist())
        if u != v and (u, v) not in edges:
            edges.add((u, v))
        attempts += 1
    return pw.make_graph(n, sorted(edges))


def random_support_state(rng, dec, positions, min_coef=0.1):
    """Unit state supported exactly on the given decomposition positions,
    with every component's coefficient bounded away from zero."""
    x = np.zeros(dec.n)
    for j in positions:
        v = projector(dec, j) @ rng.normal(size=dec.n)
        nv = np.linalg.norm(v)
        while nv < 1e-8:
            v = projector(dec, j) @ rng.normal(size=dec.n)
            nv = np.linalg.norm(v)
        coef = float(rng.uniform(min_coef, 1.0)) * (1.0 if rng.random() < 0.5 else -1.0)
        x += coef * v / nv
    return unit(x)
