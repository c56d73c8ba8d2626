"""Weighted simple undirected graphs and their walk Hamiltonians.

Vertices are 0-indexed. Family generators that follow 1-based labelling
conventions map label j to index j-1; cycles are 0-based already.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from .errors import GraphError, InvalidSizeError, InvalidStateError, PatternMismatchError
from .tolerances import DEFAULT_TOLERANCES, REGULAR_TOL

ADJACENCY = "adjacency"
LAPLACIAN = "laplacian"
CUSTOM = "custom"


DENSE_GUARD = 4096  # vertex limit for a dense n x n matrix


def check_dense(n: int) -> int:
    """n, or InvalidSizeError above DENSE_GUARD, before an n x n array is allocated."""
    if n > DENSE_GUARD:
        raise InvalidSizeError(f"{n} vertices exceed the dense limit of {DENSE_GUARD}")
    return n


def _vertex_sums(n: int, src: np.ndarray, dst: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Row sums of the matrix with values on the edges (src, dst), each added
    in column order from 0.0; an overflowing sum is inf, with no warning."""
    return np.bincount(np.concatenate((dst, src)), np.concatenate((values, values)), n)


def _dense(n: int, src: np.ndarray, dst: np.ndarray, diagonal, values: np.ndarray) -> np.ndarray:
    """The one dense builder: diagonal, values on the edges, zero elsewhere.
    Unguarded: a graph's matrices check_dense first, a product's factor not."""
    a = np.zeros((n, n))
    a[src, dst] = values
    a[dst, src] = values
    np.fill_diagonal(a, diagonal)
    return a


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable weighted graph on `n` vertices: read-only arrays of edge
    endpoints `src` < `dst` and weights `w`, sorted by (src, dst). Equality
    and hashing compare `n` and the edge triples."""

    n: int
    src: np.ndarray
    dst: np.ndarray
    w: np.ndarray

    @property
    def edges(self) -> tuple[tuple[int, int, float], ...]:
        """The (u, v, w) triples with u < v, in (u, v) order."""
        return tuple(zip(self.src.tolist(), self.dst.tolist(), self.w.tolist()))

    def __eq__(self, other):
        return isinstance(other, Graph) and (self.n, self.edges) == (other.n, other.edges)

    def __hash__(self):
        return hash((self.n, self.edges))

    def adjacency(self) -> np.ndarray:
        return _dense(check_dense(self.n), self.src, self.dst, 0.0, self.w)

    def laplacian(self) -> np.ndarray:
        return _dense(check_dense(self.n), self.src, self.dst, self.degrees(), -self.w)

    def degrees(self) -> np.ndarray:
        """Weighted degrees (row sums of the adjacency matrix), from the edge arrays."""
        return _vertex_sums(self.n, self.src, self.dst, self.w)

    def is_regular(self) -> bool:
        """Whether every degree is within REGULAR_TOL * |d_0| of d_0: relative
        with no floor, so scaling every weight by c > 0 keeps the answer."""
        d = self.degrees()
        return self.n == 0 or bool(np.max(np.abs(d - d[0])) <= REGULAR_TOL * abs(d[0]))


@dataclass(frozen=True, eq=False)
class Hamiltonian:
    """Real symmetric matrix held as its `diagonal` and the `values` on the
    edges graph.src, graph.dst; the dense `matrix` is built from them on
    first read, so it is exactly symmetric with off-diagonal support on the
    edges. Kinds ADJACENCY and LAPLACIAN promise the graph's own arrays, as
    `hamiltonian` builds them: decompose reads a Laplacian's ||M||_inf off
    its diagonal as 2 max(d), so one built by hand with another diagonal
    decomposes at a wrong scale. Any other matrix is CUSTOM."""

    kind: str
    graph: Graph
    diagonal: np.ndarray
    values: np.ndarray

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense matrix, read-only, built once on first read: of
        decompose's routes, only eigh reads it."""
        g = self.graph
        return _freeze(_dense(check_dense(g.n), g.src, g.dst, self.diagonal, self.values))

    @property
    def n(self) -> int:
        return self.graph.n


def _integer(value, what: str) -> int:
    """A vertex count or index: an integer or an integral float. A boolean,
    a string or a non-integral number is refused, not converted."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool) or (
            isinstance(value, (float, np.floating)) and value.is_integer()):
        return int(value)
    raise GraphError(f"{what} must be an integer, got {value!r}")


def _weight(value) -> float:
    """An edge weight: a number, not a boolean or a string."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return float(value)
    raise GraphError(f"edge weight must be a number, got {value!r}")


def _graph(n: int, u: np.ndarray, v: np.ndarray, w: np.ndarray) -> Graph:
    """The one validator: the graph on n vertices with edges (u[i], v[i], w[i])
    in any order and orientation. It refuses, as a per-edge check in input order
    would, the first self-loop, endpoint out of range, weight not positive and
    finite, or repeated edge. Edges whose keys min n + max strictly increase,
    as every builder here emits them, are taken in O(m) as they come: distinct
    keys rule out a repeat, so neither the sort nor the repeat scan runs, and
    below n = 2^31, where no key overflows, increasing keys of edges in range
    are edges sorted by (src, dst). The Graph's arrays are its own, never the
    caller's."""
    if n < 1:
        raise InvalidSizeError("graph needs at least one vertex")
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    key = lo * n + hi if n < 1 << 31 else None
    bad = (u == v) | (lo < 0) | (hi >= n) | ~(w > 0) | ~np.isfinite(w)
    if key is not None and (key[1:] > key[:-1]).all():
        src, dst, weights = lo, hi, w.copy()
    else:
        order = np.lexsort((hi, lo))  # stable: a repeat sorts after the edge it repeats
        src, dst, weights = lo[order], hi[order], w[order]
        bad[order[1:][(src[1:] == src[:-1]) & (dst[1:] == dst[:-1])]] = True
    if bad.any():
        i = int(bad.argmax())
        a, b, x = int(u[i]), int(v[i]), float(w[i])
        if a == b:
            raise GraphError(f"self-loop at vertex {a}")
        if not (0 <= a < n and 0 <= b < n):
            raise GraphError(f"edge ({a},{b}) out of range for n={n}")
        if not 0 < x < math.inf:
            raise GraphError(f"edge ({a},{b}) has {'non-positive' if x <= 0 else 'non-finite'} weight {x}")
        raise GraphError(f"duplicate edge ({min(a, b)},{max(a, b)})")
    return Graph(n, _freeze(src), _freeze(dst), _freeze(weights))


def make_graph(n, edges) -> Graph:
    """The graph on n vertices with the (u, v) or (u, v, w) edges given, in
    any order and orientation; a missing weight is 1. n and the endpoints
    must be integers or integral floats and the weights numbers: a boolean,
    a string or a fractional value is refused, not converted."""
    us, vs, ws = [], [], []
    for item in edges:
        u, v, w = item if len(item) == 3 else (*item, 1.0)
        us.append(u if type(u) is int else _integer(u, "edge endpoint"))
        vs.append(v if type(v) is int else _integer(v, "edge endpoint"))
        ws.append(w if type(w) is float else _weight(w))
    try:
        ends = np.array([us, vs], dtype=np.int64)
    except OverflowError:  # an endpoint beyond int64 is out of range; _graph names the edge
        ends = np.array([us, vs], dtype=object)
    return _graph(_integer(n, "vertex count n"), *ends, np.array(ws, dtype=float))


def build_path(n: int) -> Graph:
    u = np.arange(max(n - 1, 0))
    return _graph(n, u, u + 1, np.ones(len(u)))


def build_cycle(n: int) -> Graph:
    """C_n, its edges emitted sorted, (0, 1), (0, n - 1), then (i, i + 1)
    for 0 < i < n - 1, so _graph takes them as they come."""
    if n < 3:
        raise InvalidSizeError("cycle needs n >= 3")
    u = np.arange(n - 1)
    return _graph(n, np.concatenate(([0], u)), np.concatenate(([1, n - 1], u[1:] + 1)), np.ones(n))


def build_complete(n: int) -> Graph:
    u, v = np.triu_indices(max(n, 0), 1)
    return _graph(n, u, v, np.ones(len(u)))


def build_complete_bipartite(m: int, n: int) -> Graph:
    if m < 1 or n < 1:
        raise InvalidSizeError("complete bipartite graph needs m, n >= 1")
    return _graph(m + n, np.repeat(np.arange(m), n), m + np.tile(np.arange(n), m), np.ones(m * n))


def build_empty(n: int) -> Graph:
    return _graph(n, *np.zeros((2, 0), dtype=np.int64), np.zeros(0))


def build_hypercube(d: int) -> Graph:
    if d < 1:
        raise InvalidSizeError("hypercube needs dimension >= 1")
    # the d-fold box product of P2: vertices are bit strings, edges set one clear bit
    u, bit = np.divmod(np.arange(d << d), d)
    keep = (u >> bit) & 1 == 0
    u = u[keep]
    return _graph(1 << d, u, u | 1 << bit[keep], np.ones(len(u)))


def build_petersen() -> Graph:
    """Kneser graph on 2-subsets of a 5-set (disjointness adjacency)."""
    subsets = np.array(list(combinations(range(5), 2)))
    u, v = np.triu_indices(10, 1)
    disjoint = (subsets[u, :, None] != subsets[v, None, :]).all(axis=(1, 2))
    return _graph(10, u[disjoint], v[disjoint], np.ones(15))


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Box product: vertex (a, b) maps to index a*|V(h)| + b, so the
    adjacency/Laplacian matrices equal the Kronecker sum of the factors'.
    The edges are placed in (src, dst) order as they are made, with no sort:
    vertex (a, b)'s come in a block, h's from b in copy a, then g's from a
    in copy b, each in its factor's order."""
    p, q = g.n, h.n
    hout = np.bincount(h.src, minlength=q)
    counts = (np.bincount(g.src, minlength=p)[:, None] + hout).ravel()
    start = (np.cumsum(counts) - counts).reshape(p, q)  # each vertex's block
    at_h = start[:, h.src] + (np.arange(len(h.src)) - np.searchsorted(h.src, h.src))  # (p, |E(h)|)
    at_g = start[g.src] + hout + (np.arange(len(g.src)) - np.searchsorted(g.src, g.src))[:, None]  # (|E(g)|, q)
    size = int(counts.sum())
    (u, v), w = np.empty((2, size), dtype=np.int64), np.empty(size)
    k, row = np.arange(q), np.arange(p)[:, None] * q
    u[at_h], v[at_h], w[at_h] = row + h.src, row + h.dst, h.w
    u[at_g], v[at_g], w[at_g] = g.src[:, None] * q + k, g.dst[:, None] * q + k, g.w[:, None]
    return _graph(p * q, u, v, w)


def join(g: Graph, h: Graph) -> Graph:
    """Disjoint union plus all cross edges with weight one; g's vertices
    first. The edges are placed in (src, dst) order as they are made, with
    no sort: vertex i < |V(g)| has g's edges from i, then its cross edges;
    h's edges come last."""
    m, n = g.n, h.n
    tail = len(g.src) + m * n  # where h's edges start
    at_g = np.arange(len(g.src)) + n * g.src  # after the cross edges of the vertices below
    at_cross = (np.cumsum(np.bincount(g.src, minlength=m) + n) - n)[:, None] + np.arange(n)
    (u, v), w = np.empty((2, tail + len(h.src)), dtype=np.int64), np.ones(tail + len(h.src))
    u[at_g], v[at_g], w[at_g] = g.src, g.dst, g.w
    u[at_cross], v[at_cross] = np.arange(m)[:, None], m + np.arange(n)
    u[tail:], v[tail:], w[tail:] = m + h.src, m + h.dst, h.w
    return _graph(m + n, u, v, w)


def _distances(g: Graph, reached: np.ndarray) -> np.ndarray:
    """Breadth-first distance from the nearest vertex of the mask `reached` to
    every vertex, one sweep of the edge arrays per step; -1 where none reaches."""
    dist = np.full(g.n, -1)
    step = 0
    while reached.any():
        dist[reached] = step
        reached = np.zeros(g.n, dtype=bool)
        reached[g.dst[dist[g.src] == step]] = True
        reached[g.src[dist[g.dst] == step]] = True
        reached &= dist < 0
        step += 1
    return dist


def is_connected(g: Graph) -> bool:
    return bool(_distances(g, np.arange(g.n) == 0).min() >= 0)


def covering_radius(g: Graph, x) -> float:
    """Largest graph distance from any vertex to the support of x.

    The support uses the relative threshold of eigenvalue-support
    membership, DEFAULT_TOLERANCES.tol_supp. Returns math.inf when some
    vertex is unreachable.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (g.n,):
        raise InvalidStateError(f"state has shape {x.shape}, expected ({g.n},)")
    nrm = float(np.linalg.norm(x))
    if nrm == 0.0:
        raise InvalidStateError("zero vector has no covering radius")
    sources = np.abs(x) > DEFAULT_TOLERANCES.tol_supp * nrm
    if not sources.any():
        raise InvalidStateError("state has empty support at this tolerance")
    dist = _distances(g, sources)
    return math.inf if dist.min() < 0 else float(dist.max())


def _freeze(matrix: np.ndarray) -> np.ndarray:
    matrix.setflags(write=False)
    return matrix


def hamiltonian(g: Graph, kind: str) -> Hamiltonian:
    """Adjacency or Laplacian Hamiltonian of a graph, built exactly."""
    check_dense(g.n)
    if kind == ADJACENCY:
        return Hamiltonian(ADJACENCY, g, _freeze(np.zeros(g.n)), g.w)
    if kind == LAPLACIAN:
        return Hamiltonian(LAPLACIAN, g, _freeze(g.degrees()), _freeze(-g.w))
    raise ValueError(f"unknown Hamiltonian kind {kind!r}; use load_custom for custom matrices")


def load_custom(matrix, g: Graph) -> Hamiltonian:
    """Wrap a user matrix after checking symmetry and the zero pattern:
    off-diagonal entries are nonzero exactly on the edges of g."""
    m = np.array(matrix, dtype=float)
    if m.shape != (g.n, g.n):
        raise PatternMismatchError(f"matrix shape {m.shape} does not match n={g.n}")
    if not np.array_equal(m, m.T):
        raise PatternMismatchError("custom Hamiltonian must be exactly symmetric")
    edge = g.adjacency() != 0.0
    wrong = np.argwhere(np.triu(edge != (m != 0.0), 1))
    if len(wrong):
        u, v = wrong[0].tolist()  # the first in row order
        what = "zero on an edge" if edge[u, v] else "nonzero off the edge set"
        raise PatternMismatchError(f"entry ({u},{v}) is {what}")
    return Hamiltonian(CUSTOM, g, _freeze(m.diagonal().copy()), _freeze(m[g.src, g.dst]))
