"""The array graph layer against the per-edge reference constructors in
reference_graphs.py, the input type rules of make_graph, and the dense-size
guards."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pstwalk as pw
import reference_graphs as ref
from pstwalk.graphs import DENSE_GUARD, _graph, check_dense


def _same(g, r):
    """g has the reference graph's n and edge triples (weights bit-exact,
    types kept) and, bit for bit, the reference's adjacency and Laplacian
    matrices."""
    assert (g.n, g.edges) == r
    assert all(type(u) is int and type(v) is int and type(w) is float for u, v, w in g.edges)
    assert pw.hamiltonian(g, pw.ADJACENCY).matrix.tobytes() == ref.adjacency(r).tobytes()
    assert pw.hamiltonian(g, pw.LAPLACIAN).matrix.tobytes() == ref.laplacian(r).tobytes()


def test_builders_match_reference():
    for n in range(1, 33):
        _same(pw.build_path(n), ref.build_path(n))
        _same(pw.build_complete(n), ref.build_complete(n))
        _same(pw.build_empty(n), ref.build_empty(n))
    for n in range(3, 33):
        _same(pw.build_cycle(n), ref.build_cycle(n))
    for m in range(1, 8):
        for n in range(1, 8):
            _same(pw.build_complete_bipartite(m, n), ref.build_complete_bipartite(m, n))
    for d in range(1, 9):
        _same(pw.build_hypercube(d), ref.build_hypercube(d))
    _same(pw.build_petersen(), ref.build_petersen())


def test_graph_arrays_are_read_only_and_sorted():
    g = pw.make_graph(5, [(4, 1, 2.0), (0, 3), (1, 0, 0.5)])
    assert g.src.tolist() == [0, 0, 1] and g.dst.tolist() == [1, 3, 4]
    assert g.w.tolist() == [0.5, 1.0, 2.0]
    for a in (g.src, g.dst, g.w):
        assert not a.flags.writeable
    assert g == pw.make_graph(5, [(1, 4, 2), (3, 0), (0, 1, 0.5)])
    assert hash(g) == hash(pw.make_graph(5, [(1, 4, 2), (3, 0), (0, 1, 0.5)]))
    assert g != pw.make_graph(5, [(1, 4, 2.5), (3, 0), (0, 1, 0.5)])


WEIGHTS = st.one_of(st.floats(1e-3, 1e3), st.integers(1, 5))


@st.composite
def edge_lists(draw, max_n=8):
    """(n, edges) of a simple graph with (u, v, w) edges, u < v, sorted."""
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = sorted(draw(st.sets(st.sampled_from(pairs)))) if pairs else []
    weights = draw(st.lists(WEIGHTS, min_size=len(chosen), max_size=len(chosen)))
    return n, [(u, v, float(w)) for (u, v), w in zip(chosen, weights)]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(edge_lists(), edge_lists())
def test_products_and_joins_match_reference(first, second):
    g, h = pw.make_graph(*first), pw.make_graph(*second)
    rg, rh = ref.make_graph(*first), ref.make_graph(*second)
    _same(pw.cartesian_product(g, h), ref.cartesian_product(rg, rh))
    _same(pw.join(g, h), ref.join(rg, rh))


def _scrambled(edges, rnd):
    """The edges shuffled and reoriented, some with the weight left out when
    it is 1 and some with an integer weight."""
    items = []
    for u, v, w in edges:
        if rnd.random() < 0.5:
            u, v = v, u
        if w == 1.0 and rnd.random() < 0.5:
            items.append((u, v))
        else:
            items.append([u, v, int(w) if w.is_integer() and rnd.random() < 0.5 else w])
    rnd.shuffle(items)
    return items


@settings(max_examples=80, deadline=None, derandomize=True)
@given(edge_lists(max_n=12), st.randoms(use_true_random=False))
def test_make_graph_matches_reference_on_scrambled_lists(graph, rnd):
    n, edges = graph
    items = _scrambled(edges, rnd)
    _same(pw.make_graph(n, items), ref.make_graph(n, items))


def _defect(n, edges, rnd):
    """One defective edge: a self-loop, an endpoint out of range, a weight
    that is not positive and finite, or a repeat of an edge in the list."""
    u, v = rnd.sample(range(max(n, 2)), 2)
    kind = rnd.choice(["loop", "range", "weight", "repeat"] if edges else ["loop", "range", "weight"])
    if kind == "loop":
        return (u, u, rnd.choice([1.0, 2.5]))
    if kind == "range":
        return (u, rnd.choice([-1 - v, n + v, 10**30]))
    if kind == "weight":
        return (u, v, rnd.choice([0.0, -0.0, -2.0, -math.inf, math.inf, math.nan]))
    a, b, _ = rnd.choice(edges)
    return rnd.choice([(a, b), (b, a, 3.0)])


def _outcome(build, n, items):
    try:
        build(n, items)
    except pw.PstwalkError as exc:
        return type(exc), str(exc)
    return None


@settings(max_examples=150, deadline=None, derandomize=True)
@given(edge_lists(max_n=10), st.randoms(use_true_random=False), st.integers(1, 3))
def test_invalid_lists_refused_like_reference(graph, rnd, defects):
    # the first defective edge in input order decides, as in a per-edge check
    n, edges = graph
    items = _scrambled(edges, rnd)
    for _ in range(defects):
        items.insert(rnd.randrange(len(items) + 1), _defect(n, edges, rnd))
    want = _outcome(ref.make_graph, n, items)
    assert want is not None
    assert _outcome(pw.make_graph, n, items) == want


@pytest.mark.parametrize("n,edges,message", [
    (3, [(0, 2.9)], "edge endpoint must be an integer, got 2.9"),
    (3, [(0, True)], "edge endpoint must be an integer, got True"),
    (3, [("0", "1")], "edge endpoint must be an integer, got '0'"),
    (3, [(0, 1, "2.5")], "edge weight must be a number, got '2.5'"),
    (3, [(0, 1, True)], "edge weight must be a number, got True"),
    (3.7, [(0, 1)], "vertex count n must be an integer, got 3.7"),
    (True, [(0, 1)], "vertex count n must be an integer, got True"),
    ("3", [(0, 1)], "vertex count n must be an integer, got '3'"),
])
def test_make_graph_refuses_wrong_types(n, edges, message):
    with pytest.raises(pw.GraphError, match=re.escape(message)):
        pw.make_graph(n, edges)


def test_make_graph_accepts_numpy_and_integral_values():
    want = pw.make_graph(3, [(0, 1, 2.0), (1, 2)])
    assert pw.make_graph(np.int64(3), [(np.int64(0), 1.0, np.float32(2.0)), (np.int32(1), 2)]) == want
    assert pw.make_graph(3.0, np.array([[0, 1, 2.0], [1, 2, 1.0]])) == want


@settings(max_examples=60, deadline=None, derandomize=True)
@given(edge_lists(max_n=9), st.randoms(use_true_random=False))
def test_load_custom_matches_reference(graph, rnd):
    n, edges = graph
    g, r = pw.make_graph(n, edges), ref.make_graph(n, edges)
    m = ref.adjacency(r) * 0.5 + np.diag(np.arange(n, dtype=float))
    if n > 1:
        for _ in range(rnd.randrange(3)):  # zero an edge entry or fill a non-edge one
            u, v = rnd.sample(range(n), 2)
            m[u, v] = m[v, u] = 0.0 if m[u, v] else 1.5
    try:
        want = ref.load_custom(m, r)
    except pw.PatternMismatchError as exc:
        with pytest.raises(pw.PatternMismatchError, match=re.escape(str(exc))):
            pw.load_custom(m, g)
    else:
        assert np.array_equal(pw.load_custom(m, g).matrix, want)


def _refused_before_allocating(call, message="dense limit"):
    tracemalloc.start()
    try:
        with pytest.raises(pw.InvalidSizeError, match=message):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # an n x n float array would take 134 MB


def test_dense_guard_refuses_before_allocating():
    n = DENSE_GUARD + 1
    assert check_dense(DENSE_GUARD) == DENSE_GUARD
    big = pw.make_graph(n, [(0, 1)])  # a graph this size is fine until a dense matrix is asked for
    assert big.edges == ((0, 1, 1.0),)
    for call in (big.adjacency, big.laplacian,
                 lambda: pw.hamiltonian(big, pw.ADJACENCY),
                 lambda: pw.hamiltonian(big, pw.LAPLACIAN),
                 lambda: pw.cycle_eigenbasis(n),
                 lambda: pw.path_adj_eigenbasis(n),
                 lambda: pw.path_lap_eigenbasis(n),
                 lambda: pw.cycle_pst_families(n),
                 lambda: pw.path_pst_families(n, pw.LAPLACIAN),
                 lambda: pw.path_least_pst_time(n, pw.ADJACENCY)):
        _refused_before_allocating(call)
    tracemalloc.start()  # degrees come from the edge arrays: no dense matrix, no refusal
    try:
        degrees, regular = big.degrees(), big.is_regular()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert degrees[:3].tolist() == [1.0, 1.0, 0.0] and not regular and peak < 1 << 20
    x, y = np.zeros(n), np.zeros(n)
    x[0], y[1] = 1.0, 1.0
    request = pw.SynthesisRequest(x=x, y=y, tau=1.0, m1=1, m2=1)
    _refused_before_allocating(lambda: pw.synthesize(request))


def test_product_guard_is_the_dense_guard():
    # 65 * 64 = 4160 vertices: refused before the factors are decomposed
    p65, p64 = pw.build_path(65), pw.build_path(64)
    e = np.zeros(65)
    e[0] = 1.0
    f = np.zeros(64)
    f[0] = 1.0
    _refused_before_allocating(
        lambda: pw.product_pst(p65, p64, pw.ADJACENCY, e, e, f, f, math.pi), "4160 vertices")


def test_catalog_guard_is_checked_from_the_sizes():
    _refused_before_allocating(
        lambda: pw.pair_plus_catalog("complete-bipartite", pw.ADJACENCY, 20, 20), "catalog sweep")
    _refused_before_allocating(
        lambda: pw.pair_plus_catalog("complete", pw.ADJACENCY, 10**6), "catalog sweep")


def test_builders_refuse_empty_graphs():
    for bad in (lambda: pw.build_path(0), lambda: pw.build_complete(-2),
                lambda: pw.build_empty(0), lambda: pw.make_graph(0, [])):
        with pytest.raises(pw.InvalidSizeError, match="graph needs at least one vertex"):
            bad()
    assert pw.make_graph(4, []) == pw.build_empty(4)


# The sorted path of graphs._graph: edges whose keys min n + max strictly
# increase are taken as they come, with no lexsort and no repeat scan.

def _lexsorts(monkeypatch):
    """A list that counts np.lexsort calls from here on."""
    calls = []
    real = np.lexsort

    def spy(keys, *args, **kwargs):
        calls.append(len(keys[0]))
        return real(keys, *args, **kwargs)

    monkeypatch.setattr(np, "lexsort", spy)
    return calls


def _graph_bytes(g):
    return g.n, g.src.dtype, g.dst.dtype, g.w.dtype, g.src.tobytes(), g.dst.tobytes(), g.w.tobytes()


def _sorted_graphs(rng):
    """Every builder, seeded random weighted graphs, and the joins and box
    products of pairs of them."""
    graphs = [pw.build_path(9), pw.build_cycle(3), pw.build_cycle(8), pw.build_complete(7),
              pw.build_complete_bipartite(3, 5), pw.build_empty(4), pw.build_hypercube(4),
              pw.build_petersen(), pw.build_path(1)]
    for n in (2, 6, 11, 17):
        keep = np.triu(rng.random((n, n)) < 0.4, 1)
        u, v = np.nonzero(keep)
        graphs.append(pw.make_graph(n, zip(u.tolist(), v.tolist(), rng.uniform(0.1, 3.0, len(u)).tolist())))
    picks = [graphs[i] for i in rng.choice(len(graphs), 8, replace=False)]
    graphs += [f(g, h) for g, h in zip(picks[::2], picks[1::2]) for f in (pw.join, pw.cartesian_product)]
    return graphs


def test_builders_emit_sorted_edges(monkeypatch, rng):
    """Each builder, join and cartesian_product hands _graph its edges
    sorted, so no lexsort runs; _graph gives the same Graph bytes for them
    sorted, shuffled and reoriented."""
    calls = _lexsorts(monkeypatch)
    graphs = _sorted_graphs(rng)
    for g in graphs:
        assert g == pw.make_graph(g.n, g.edges)
    assert calls == []
    for g in graphs:
        perm = rng.permutation(len(g.src))
        flip = rng.random(len(perm)) < 0.5
        u, v = np.where(flip, g.dst[perm], g.src[perm]), np.where(flip, g.src[perm], g.dst[perm])
        assert _graph_bytes(_graph(g.n, u, v, g.w[perm])) == _graph_bytes(g)
        before = len(calls)
        assert _graph_bytes(_graph(g.n, g.src, g.dst, g.w)) == _graph_bytes(g)
        assert len(calls) == before


def _plant(rng, n, src, dst, w):
    """A sorted edge list with one defect planted at a random position: a
    self-loop (u, u), an endpoint out of range, a weight not positive and
    finite, or a repeat. Only the repeat breaks the increasing keys."""
    u, v, w = src.tolist(), dst.tolist(), w.tolist()
    kinds = ["loop", "range"] + (["weight", "repeat"] if u else [])
    kind = kinds[int(rng.integers(len(kinds)))]
    if kind == "loop":  # (a, a) sorts just before a's first edge
        a = int(rng.integers(n))
        i = int(np.searchsorted(src, a))
        u.insert(i, a), v.insert(i, a), w.insert(i, 1.0)
    elif kind == "range":  # a negative end sorts first, one past n - 1 last
        first = bool(rng.random() < 0.5)
        i = 0 if first else len(u)
        u.insert(i, -1 if first else n - 1), v.insert(i, int(rng.integers(n)) if first else n), w.insert(i, 1.0)
    elif kind == "weight":
        w[int(rng.integers(len(w)))] = float(rng.choice([0.0, -0.0, -2.0, -math.inf, math.inf, math.nan]))
    else:  # the repeat right after its edge
        i = int(rng.integers(len(u)))
        u.insert(i + 1, v[i]), v.insert(i + 1, u[i]), w.insert(i + 1, 2.0)
    return kind, (np.array(u, dtype=np.int64), np.array(v, dtype=np.int64), np.array(w))


def test_sorted_path_raises_the_first_error(monkeypatch, rng):
    """A defect planted in a sorted list is refused with the error and the
    message a per-edge check in input order gives (the reference); every
    defect but a repeat keeps the keys increasing and is found with no
    lexsort."""
    graphs = _sorted_graphs(rng)
    calls = _lexsorts(monkeypatch)
    kinds = set()
    for g in graphs * 6:
        kind, (u, v, w) = _plant(rng, g.n, g.src, g.dst, g.w)
        before = len(calls)
        items = list(zip(u.tolist(), v.tolist(), w.tolist()))
        want = _outcome(ref.make_graph, g.n, items)
        assert want is not None
        assert _outcome(lambda n, _: _graph(n, u, v, w), g.n, items) == want
        assert len(calls) == before + (kind == "repeat"), kind
        kinds.add(kind)
    assert kinds == {"loop", "range", "weight", "repeat"}


def test_sorted_path_owns_its_arrays():
    """The Graph's arrays are copies: the caller's arrays stay writable and
    share no memory with it."""
    u, v, w = np.array([0, 0, 1]), np.array([1, 2, 2]), np.array([1.0, 2.0, 3.0])
    g = _graph(3, u, v, w)
    for given, held in ((u, g.src), (v, g.dst), (w, g.w)):
        assert given.flags.writeable and not held.flags.writeable
        assert not np.shares_memory(given, held)
    w[0] = 5.0
    assert g.w.tolist() == [1.0, 2.0, 3.0]


def test_unsorted_keys_above_the_key_range_are_sorted():
    """From n = 2^31 the keys min n + max can overflow, so _graph sorts: at
    n = 2^40 the key of (2^24, 2^24 + 1) wraps to 2^24 + 1 in int64, below
    the key of (1, 2)."""
    n, a = 1 << 40, 1 << 24
    g = _graph(n, np.array([a, 1]), np.array([a + 1, 2]), np.ones(2))
    assert g.src.tolist() == [1, a] and g.dst.tolist() == [2, a + 1]
