"""Per-edge reference implementations of the graph constructors, kept to
check the array-based ones in pstwalk.graphs against.

A reference graph is a pair (n, edges) with edges the canonical sorted
tuple of (u, v, w) triples, u < v. The constructors validate edge by edge
in input order and raise at the first defective edge; the matrices are
filled one edge at a time.
"""

import math
from itertools import combinations

import numpy as np

from pstwalk.errors import GraphError, InvalidSizeError, PatternMismatchError


def make_graph(n, edges):
    if n < 1:
        raise InvalidSizeError("graph needs at least one vertex")
    seen = set()
    canon = []
    for item in edges:
        if len(item) == 2:
            u, v = item
            w = 1.0
        else:
            u, v, w = item
        u, v, w = int(u), int(v), float(w)
        if u == v:
            raise GraphError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u},{v}) out of range for n={n}")
        if w <= 0:
            raise GraphError(f"edge ({u},{v}) has non-positive weight {w}")
        if not math.isfinite(w):
            raise GraphError(f"edge ({u},{v}) has non-finite weight {w}")
        if u > v:
            u, v = v, u
        if (u, v) in seen:
            raise GraphError(f"duplicate edge ({u},{v})")
        seen.add((u, v))
        canon.append((u, v, w))
    canon.sort()
    return n, tuple(canon)


def build_path(n):
    return make_graph(n, [(i, i + 1) for i in range(n - 1)])


def build_cycle(n):
    return make_graph(n, [(i, (i + 1) % n) for i in range(n)])


def build_complete(n):
    return make_graph(n, list(combinations(range(n), 2)))


def build_complete_bipartite(m, n):
    return make_graph(m + n, [(i, m + j) for i in range(m) for j in range(n)])


def build_empty(n):
    return make_graph(n, [])


def build_hypercube(d):
    return make_graph(2**d, [(u, u | 1 << b) for u in range(2**d) for b in range(d)
                             if not u >> b & 1])


def build_petersen():
    subsets = list(combinations(range(5), 2))
    edges = [
        (i, j)
        for i, j in combinations(range(len(subsets)), 2)
        if not set(subsets[i]) & set(subsets[j])
    ]
    return make_graph(10, edges)


def cartesian_product(g, h):
    (ng, g_edges), (nh, h_edges) = g, h
    edges = []
    for a, b, w in g_edges:
        for k in range(nh):
            edges.append((a * nh + k, b * nh + k, w))
    for a, b, w in h_edges:
        for k in range(ng):
            edges.append((k * nh + a, k * nh + b, w))
    return make_graph(ng * nh, edges)


def join(g, h):
    (m, g_edges), (nh, h_edges) = g, h
    edges = list(g_edges)
    edges += [(m + a, m + b, w) for a, b, w in h_edges]
    edges += [(i, m + j, 1.0) for i in range(m) for j in range(nh)]
    return make_graph(m + nh, edges)


def adjacency(g):
    n, edges = g
    a = np.zeros((n, n))
    for u, v, w in edges:
        a[u, v] = w
        a[v, u] = w
    return a


def laplacian(g):
    n, edges = g
    lap = np.zeros((n, n))
    for u, v, w in edges:
        lap[u, u] += w
        lap[v, v] += w
        lap[u, v] = -w
        lap[v, u] = -w
    return lap


def load_custom(matrix, g):
    n, edges = g
    m = np.array(matrix, dtype=float)
    if m.shape != (n, n):
        raise PatternMismatchError(f"matrix shape {m.shape} does not match n={n}")
    if not np.array_equal(m, m.T):
        raise PatternMismatchError("custom Hamiltonian must be exactly symmetric")
    adjacent = {(u, v) for u, v, _ in edges}
    for u in range(n):
        for v in range(u + 1, n):
            has_edge = (u, v) in adjacent
            if has_edge and m[u, v] == 0.0:
                raise PatternMismatchError(f"entry ({u},{v}) is zero on an edge")
            if not has_edge and m[u, v] != 0.0:
                raise PatternMismatchError(f"entry ({u},{v}) is nonzero off the edge set")
    return m
