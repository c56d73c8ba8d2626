import heapq
import importlib
import pkgutil
from dataclasses import replace
from functools import wraps

import numpy as np
import pytest
from hypothesis import strategies as st

import pstwalk as pw
from pstwalk import routes, spectral
from pstwalk.routes import Basis
from pstwalk.spectral import DenseBasis, Projection
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


def same_state(a, b, tol=1e-8):
    """Whether b is a or -a to within tol * ||a||."""
    return min(np.linalg.norm(a - b), np.linalg.norm(a + b)) <= tol * np.linalg.norm(a)


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
    """g with weight 2 on its edge (0, n - 1): a cycle or complete graph is
    no longer circulant, and K_{p,q} no longer a join, so the circulant and
    join routes pass it on."""
    return pw.make_graph(g.n, [(u, v, 2.0 if (u, v) == (0, g.n - 1) else w) for u, v, w in g.edges])


def heavy_path_ends(g):
    """The path g with weight 2 on its two end edges (0, 1) and (n - 2, n - 1):
    it stays bipartite but is no longer uniform, so the path route passes it
    on (to the bipartite route, or to eigh for a Laplacian)."""
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


def relabel(g, perm):
    """g on the vertices permuted by perm: vertex v becomes perm[v]."""
    return pw.make_graph(g.n, [(int(perm[a]), int(perm[b]), w) for a, b, w in g.edges])


def seeded_relabel(g, seed):
    """g relabelled by the seeded permutation of its vertices."""
    return relabel(g, np.random.default_rng(seed).permutation(g.n))


def relabelled(ham, seed):
    """ham's matrix on the vertices permuted by a seeded permutation p (vertex
    v becomes p[v]), as a custom Hamiltonian, and p."""
    p = np.random.default_rng(seed).permutation(ham.n)
    old = np.argsort(p)
    return pw.load_custom(ham.matrix[np.ix_(old, old)], relabel(ham.graph, p)), p


def entries(ham, shifted=True):
    """(entry, matrix) for the Hamiltonian, its raw matrix and, with shifted,
    2.5 M + 0.75 I. The matrices are read from a copy, so a Hamiltonian that
    has not built its matrix still has not."""
    mat = replace(ham).matrix
    out = [("hamiltonian", ham), ("raw", np.array(mat))]
    return out + [("shifted", 2.5 * mat + 0.75 * np.eye(ham.n))] if shifted else out


def set_routes(patch, table):
    """Patch routes.ROUTES to the table, and spectral._eigh_route, which
    alone decides a form below ROUTE_MIN_N, to its last entry, an eigh
    route: the one table every form of decompose reads."""
    patch.setattr(routes, "ROUTES", table)
    patch.setattr(spectral, "_eigh_route", table[-1])


def route_calls(monkeypatch, m):
    """decompose(m) with every entry of ROUTES spied (set_routes): the
    decomposition and each call as (route, took), in the order the calls
    return, a product route's factor before the product; the last one that
    took is m's route. Each spy keeps its route's name, which dec.route
    reads."""
    calls = []

    def spy(route):
        @wraps(route)
        def run(form):
            pairs = route(form)
            calls.append((spectral.route_name(route), pairs is not None))
            return pairs
        return run

    with monkeypatch.context() as patch:
        set_routes(patch, tuple(spy(r) for r in routes.ROUTES))
        dec = pw.decompose(m)
    return dec, calls


def route_of(calls):
    """The route that took the matrix, from route_calls."""
    return [route for route, took in calls if took][-1]


def taken(calls, route):
    """How many times the route took a form, a product's factors included."""
    return calls.count((route, True))


class NoFFT:
    """A tripwire for np.fft, which only the circulant route and the
    Fourier and path bases reach."""

    def __getattr__(self, name):
        raise AssertionError("numpy.fft reached")


def check_basis(dec, rng):
    """project and lift against the materialised V on b = 3, 1 and 0
    columns, a lift on the columns cols (a bool mask, and an unsorted index
    array) against V[:, cols], the round trip, and the cluster weights of a
    Projection against those of V^T x. On a DenseBasis, the partner rule's
    lift of c on the rows F is V_F c[F] bit for bit, the bytes the CLI prints."""
    n = dec.n
    X = rng.normal(size=(n, 3)) * rng.uniform(0.1, 10.0)
    x = X[:, 0]
    size = np.linalg.norm(X)
    basis = dec.basis
    v = basis.dense()
    assert basis.n == n and v.shape == (n, n)
    for b in (3, 1, 0):
        np.testing.assert_allclose(basis.project(X[:, :b]), v.T @ X[:, :b], rtol=0, atol=1e-13 * size)
        np.testing.assert_allclose(basis.lift(X[:, :b]), v @ X[:, :b], rtol=0, atol=1e-13 * size)
    flip = rng.random(n) < 0.5
    for cols in (flip, rng.permutation(n)[:max(1, n // 3)]):
        np.testing.assert_allclose(basis.lift(X[cols], cols), v[:, cols] @ X[cols], rtol=0, atol=1e-13 * size)
    np.testing.assert_allclose(basis.lift(basis.project(X[:, :1]))[:, 0], x, rtol=0,
                               atol=1e-13 * np.linalg.norm(x))
    c = v.T @ x
    np.testing.assert_allclose(Projection.of(dec, x).weights()[:, 0], dec.cluster_sums(c * c), rtol=0,
                               atol=1e-13 * np.dot(x, x))
    if isinstance(basis, DenseBasis):  # a full lift of c zeroed off F differs in last bits on one column
        for c in (basis.project(X), basis.project(X[:, :1])):
            assert np.array_equal(basis.lift(c[flip], flip), v[:, flip] @ c[flip])


def load_package():
    """Import every module of the package (but __main__, which runs the CLI),
    and numpy.fft, which the circulant and path routes load on first use, so
    that a call traced on its own does not count an import's allocations."""
    for module in pkgutil.iter_modules(pw.__path__):
        if module.name != "__main__":
            importlib.import_module(f"pstwalk.{module.name}")
    np.fft.rfft(np.zeros(2))


def held_bytes(obj, seen=None):
    """The bytes of every buffer the ndarrays of obj keep alive, a view
    counted by its base and each buffer once, through the basis record's
    arrays and the basis records it holds, of any kind."""
    seen = set() if seen is None else seen
    total = 0
    for v in vars(obj).values():
        if isinstance(v, np.ndarray):
            buf = v.base if isinstance(v.base, np.ndarray) else v
            if id(buf) not in seen:
                seen.add(id(buf))
                total += buf.nbytes
        elif isinstance(v, Basis):
            total += held_bytes(v, seen)
    return total


def decomposition_bytes(dec):
    """Every byte of a decomposition, with the dense V."""
    return (dec.eigenvalues.tobytes(), dec.offsets.tobytes(), dec.basis.dense().tobytes(), dec.scale,
            dec.multiplicities, dec.ambiguous, dec.warnings)


def assert_same_form(got, want):
    """Two EdgeForms field by field: n, the diagonal, the edges and their
    entries byte for byte, the scale equal, and dense() the same matrix."""
    assert got.n == want.n and got.scale == want.scale
    for name in ("diagonal", "src", "dst", "entries"):
        a, w = getattr(got, name), getattr(want, name)
        assert a.dtype == w.dtype and a.tobytes() == w.tobytes()
    assert got.dense().tobytes() == want.dense().tobytes()


def assert_one_form(ham):
    """The door test: a Hamiltonian and its dense matrix as a raw ndarray
    pass decompose's door into one EdgeForm. Every route reads only the
    form, so both entries take one route and decompose bit for bit alike."""
    assert_same_form(spectral._edge_form(ham), spectral._edge_form(np.array(ham.matrix)))


def _test_states(n, rng):
    """Basis states and e_u +- e_v pairs: every pair for small n, a seeded
    sample of 12 otherwise."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if len(pairs) > 12:
        pairs = [pairs[i] for i in rng.choice(len(pairs), 12, replace=False)]
    states = [np.eye(n)[u] for u in range(min(n, 4))]
    for u, v in pairs:
        states += [pair_state(n, u, v, 1.0), pair_state(n, u, v, -1.0)]
    return states


def _partner(dec, x):
    try:
        return pw.pst_partner(dec, x)
    except pw.FixedStateError:
        return "fixed"


def assert_same_verdicts(got, want, n):
    """pst_partner and pst_decide agree on got and want for the test states."""
    for x in _test_states(n, np.random.default_rng(n)):
        y_got, y_want = _partner(got, x), _partner(want, x)
        if isinstance(y_want, str) or y_want is None:
            assert isinstance(y_got, type(y_want)) and y_got == y_want
            continue
        np.testing.assert_allclose(y_got, y_want, rtol=0, atol=1e-9)
        for y in (y_want, np.roll(x, 1)):
            a, b = pw.pst_decide(got, x, y), pw.pst_decide(want, x, y)
            assert (a.decision, a.reason, a.case) == (b.decision, b.reason, b.case)
            if b.decision:
                assert a.tau_min == pytest.approx(b.tau_min, rel=1e-12)
                assert a.tau_symbolic == b.tau_symbolic


def outcome(dec, x, other):
    """(partner or None, decision, reason, case, tau) of x; without a
    partner, x is decided against the state other."""
    try:
        y = pw.pst_partner(dec, x)
    except pw.FixedStateError:
        y = None
    verdict = pw.pst_decide(dec, x, other if y is None else y)
    return y, verdict.decision, verdict.reason, verdict.case, verdict.tau_min


def assert_same_outcome(got, want, scale=1.0, perm=None):
    """got is want with tau divided by scale and the partner relabelled by perm."""
    assert got[1:4] == want[1:4]
    y, y_want = got[0], want[0]
    assert (y is None) == (y_want is None)
    if y is not None:
        np.testing.assert_allclose(y if perm is None else y[perm], y_want, rtol=0, atol=1e-9)
    if want[1]:
        assert got[4] == pytest.approx(want[4] / scale, rel=1e-12)


FAMILIES = {
    "path": (pw.build_path, 2, 12),
    "cycle": (pw.build_cycle, 3, 12),
    "complete": (pw.build_complete, 2, 8),
    "hypercube": (pw.build_hypercube, 1, 4),
    "complete-bipartite": (lambda n: pw.build_complete_bipartite(n // 2, n - n // 2), 2, 10),
}


def decompose_graph(g, kind=pw.ADJACENCY):
    return pw.decompose(pw.hamiltonian(g, kind))


@st.composite
def graphs(draw):
    """A family graph, or a random connected graph of 2 to 9 vertices with
    weights in {0.5, 1, 2, 3}."""
    if draw(st.booleans()):
        build, lo, hi = FAMILIES[draw(st.sampled_from(sorted(FAMILIES)))]
        return build(draw(st.integers(lo, hi)))
    n = draw(st.integers(2, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pairs = {(u, v) for u, v, _ in random_tree(rng, n).edges}  # connected
    pairs |= {tuple(sorted(rng.choice(n, 2, replace=False).tolist())) for _ in range(n // 2)}
    return pw.make_graph(n, [(u, v, float(rng.choice([0.5, 1.0, 2.0, 3.0]))) for u, v in sorted(pairs)])


@st.composite
def cases(draw):
    """(graph, kind, x, y, perm): x is e_u or e_u +- e_v; y is its transfer
    partner when x has one other than +-x, and a multiple of e_v of x's norm
    otherwise; perm is a relabelling of the vertices."""
    g = draw(graphs())
    kind = draw(st.sampled_from([pw.ADJACENCY, pw.LAPLACIAN]))
    u, v = draw(st.lists(st.integers(0, g.n - 1), min_size=2, max_size=2, unique=True))
    x = np.zeros(g.n)
    x[u] = 1.0
    x[v] = draw(st.sampled_from([-1.0, 0.0, 1.0]))
    partners, found, _, _ = pw.pst_partners(decompose_graph(g, kind), x[:, None])
    y = partners[:, 0]
    if not found[0] or min(np.linalg.norm(y - x), np.linalg.norm(y + x)) < 1e-9:
        y = np.linalg.norm(x) * np.eye(g.n)[v]
    return g, kind, x, y, np.array(draw(st.permutations(range(g.n))))
