"""Weighted simple undirected graphs and their walk Hamiltonians.

Vertices are 0-indexed. Family generators that follow 1-based labelling
conventions map label j to index j-1; cycles are 0-based already.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import GraphError, InvalidSizeError, InvalidStateError, PatternMismatchError

Edge = tuple[int, int, float]

ADJACENCY = "adjacency"
LAPLACIAN = "laplacian"
CUSTOM = "custom"


@dataclass(frozen=True)
class Graph:
    """Immutable weighted graph: `n` vertices, canonical sorted edge list."""

    n: int
    edges: tuple[Edge, ...]

    def adjacency(self) -> np.ndarray:
        a = np.zeros((self.n, self.n))
        for u, v, w in self.edges:
            a[u, v] = w
            a[v, u] = w
        return a

    def laplacian(self) -> np.ndarray:
        a = self.adjacency()
        with np.errstate(over="ignore"):  # an infinite degree is refused by decompose
            return np.diag(a.sum(axis=1)) - a

    def degrees(self) -> np.ndarray:
        """Weighted degrees (row sums of the adjacency matrix)."""
        return self.adjacency().sum(axis=1)

    def is_regular(self, tol: float = 1e-12) -> bool:
        d = self.degrees()
        return self.n == 0 or bool(np.max(np.abs(d - d[0])) <= tol * max(1.0, abs(d[0])))


@dataclass(frozen=True, eq=False)
class Hamiltonian:
    """Real symmetric matrix respecting a graph's adjacency pattern."""

    kind: str
    matrix: np.ndarray
    graph: Graph

    @property
    def n(self) -> int:
        return self.graph.n


def make_graph(n: int, edges) -> Graph:
    """Validate and canonicalize an edge list (u < v, sorted, weights > 0)."""
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
    return Graph(n=n, edges=tuple(canon))


def build_path(n: int) -> Graph:
    if n < 1:
        raise InvalidSizeError("path needs n >= 1")
    return make_graph(n, [(i, i + 1) for i in range(n - 1)])


def build_cycle(n: int) -> Graph:
    if n < 3:
        raise InvalidSizeError("cycle needs n >= 3")
    return make_graph(n, [(i, (i + 1) % n) for i in range(n)])


def build_complete(n: int) -> Graph:
    if n < 1:
        raise InvalidSizeError("complete graph needs n >= 1")
    return make_graph(n, list(combinations(range(n), 2)))


def build_complete_bipartite(m: int, n: int) -> Graph:
    if m < 1 or n < 1:
        raise InvalidSizeError("complete bipartite graph needs m, n >= 1")
    return make_graph(m + n, [(i, m + j) for i in range(m) for j in range(n)])


def build_empty(n: int) -> Graph:
    if n < 1:
        raise InvalidSizeError("empty graph needs n >= 1")
    return make_graph(n, [])


def build_hypercube(d: int) -> Graph:
    if d < 1:
        raise InvalidSizeError("hypercube needs dimension >= 1")
    # the d-fold box product of P2: vertices are bit strings, edges flip one bit
    return make_graph(2**d, [(u, u | 1 << b) for u in range(2**d) for b in range(d)
                             if not u >> b & 1])


def build_petersen() -> Graph:
    """Kneser graph on 2-subsets of a 5-set (disjointness adjacency)."""
    subsets = list(combinations(range(5), 2))
    edges = [
        (i, j)
        for i, j in combinations(range(len(subsets)), 2)
        if not set(subsets[i]) & set(subsets[j])
    ]
    return make_graph(10, edges)


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Box product: vertex (a, b) maps to index a*|V(h)| + b, so the
    adjacency/Laplacian matrices equal the Kronecker sum of the factors'."""
    nh = h.n
    edges = []
    for a, b, w in g.edges:
        for k in range(nh):
            edges.append((a * nh + k, b * nh + k, w))
    for a, b, w in h.edges:
        for k in range(g.n):
            edges.append((k * nh + a, k * nh + b, w))
    return make_graph(g.n * nh, edges)


def join(g: Graph, h: Graph) -> Graph:
    """Disjoint union plus all cross edges with weight one; g's vertices first."""
    m = g.n
    edges = list(g.edges)
    edges += [(m + a, m + b, w) for a, b, w in h.edges]
    edges += [(i, m + j, 1.0) for i in range(m) for j in range(h.n)]
    return make_graph(m + h.n, edges)


def _distances(g: Graph, sources) -> list[int]:
    """Breadth-first graph distance from the nearest source to every vertex;
    -1 for vertices no source reaches."""
    adj = [[] for _ in range(g.n)]
    for u, v, _ in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    dist = [-1] * g.n
    queue = deque()
    for u in sources:
        dist[u] = 0
        queue.append(u)
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def is_connected(g: Graph) -> bool:
    return min(_distances(g, [0])) >= 0


def covering_radius(g: Graph, x, tol_supp: float = 1e-8) -> float:
    """Largest graph distance from any vertex to the support of x.

    The support uses the same relative threshold as eigenvalue-support
    membership. Returns math.inf when some vertex is unreachable.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (g.n,):
        raise InvalidStateError(f"state has shape {x.shape}, expected ({g.n},)")
    nrm = float(np.linalg.norm(x))
    if nrm == 0.0:
        raise InvalidStateError("zero vector has no covering radius")
    sources = [int(u) for u in np.nonzero(np.abs(x) > tol_supp * nrm)[0]]
    if not sources:
        raise InvalidStateError("state has empty support at this tolerance")
    dist = _distances(g, sources)
    if min(dist) < 0:
        return math.inf
    return float(max(dist))


def _freeze(matrix: np.ndarray) -> np.ndarray:
    matrix.setflags(write=False)
    return matrix


def hamiltonian(g: Graph, kind: str) -> Hamiltonian:
    """Adjacency or Laplacian Hamiltonian of a graph, built exactly."""
    if kind == ADJACENCY:
        return Hamiltonian(ADJACENCY, _freeze(g.adjacency()), g)
    if kind == LAPLACIAN:
        return Hamiltonian(LAPLACIAN, _freeze(g.laplacian()), g)
    raise ValueError(f"unknown Hamiltonian kind {kind!r}; use load_custom for custom matrices")


def load_custom(matrix, g: Graph) -> Hamiltonian:
    """Wrap a user matrix after checking symmetry and the zero pattern:
    off-diagonal entries are nonzero exactly on the edges of g."""
    m = np.array(matrix, dtype=float)
    if m.shape != (g.n, g.n):
        raise PatternMismatchError(f"matrix shape {m.shape} does not match n={g.n}")
    if not np.array_equal(m, m.T):
        raise PatternMismatchError("custom Hamiltonian must be exactly symmetric")
    adjacent = {(u, v) for u, v, _ in g.edges}
    for u in range(g.n):
        for v in range(u + 1, g.n):
            has_edge = (u, v) in adjacent
            if has_edge and m[u, v] == 0.0:
                raise PatternMismatchError(f"entry ({u},{v}) is zero on an edge")
            if not has_edge and m[u, v] != 0.0:
                raise PatternMismatchError(f"entry ({u},{v}) is nonzero off the edge set")
    return Hamiltonian(CUSTOM, _freeze(m), g)
