"""Metamorphic properties of pst_decide over random connected weighted graphs
and the family builders: relabelling the vertices keeps the verdict and the
time, negating either state or swapping them keeps the decision, and scaling
the weights by c > 0 divides the time by c. The same relations hold, with tau
to 1e-12 relative, on graphs decompose factors through a half-size block,
where relabelling moves the parts P and Q that make up the block: in their
own labelling Q8 and P40 x K2 have an exactly symmetric block, factored by
decompose's own route, and relabelled ones a block np.linalg.svd factors.

A shift of M by s*I is left out: it should keep tau and multiply the phase
by exp(i*tau*s), but a large shift still collapses the clusters (ROADMAP
item 1)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pstwalk as pw
from conftest import pair_state, random_tree
from pstwalk import spectral

FAMILIES = {
    "path": (pw.build_path, 2, 12),
    "cycle": (pw.build_cycle, 3, 12),
    "complete": (pw.build_complete, 2, 8),
    "hypercube": (pw.build_hypercube, 1, 4),
    "complete-bipartite": (lambda n: pw.build_complete_bipartite(n // 2, n - n // 2), 2, 10),
}


@st.composite
def graphs(draw):
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
    partners, found, _, _ = pw.pst_partners(_dec(g, kind), x[:, None])
    y = partners[:, 0]
    if not found[0] or min(np.linalg.norm(y - x), np.linalg.norm(y + x)) < 1e-9:
        y = np.linalg.norm(x) * np.eye(g.n)[v]
    return g, kind, x, y, np.array(draw(st.permutations(range(g.n))))


def _dec(g, kind):
    return pw.decompose(pw.hamiltonian(g, kind))


def _same_verdict(got, want, tau_scale=1.0, reason=True, rel=1e-9):
    assert got.decision == want.decision
    if reason:
        assert got.reason == want.reason
    if want.decision:
        assert got.tau_min == pytest.approx(want.tau_min / tau_scale, rel=rel)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(cases(), st.floats(1e-3, 1e3))
def test_pst_decide_metamorphic(case, c):
    g, kind, x, y, p = case
    dec = _dec(g, kind)
    want = pw.pst_decide(dec, x, y)

    # relabel through make_graph with permuted endpoints: vertex i becomes p[i]
    relabelled = pw.make_graph(g.n, [(int(p[a]), int(p[b]), w) for a, b, w in g.edges])
    px, py = np.empty(g.n), np.empty(g.n)
    px[p], py[p] = x, y
    _same_verdict(pw.pst_decide(_dec(relabelled, kind), px, py), want)

    _same_verdict(pw.pst_decide(dec, -x, y), want)
    _same_verdict(pw.pst_decide(dec, x, -y), want)
    _same_verdict(pw.pst_decide(dec, y, x), want, reason=False)

    scaled = pw.make_graph(g.n, [(a, b, c * w) for a, b, w in g.edges])
    _same_verdict(pw.pst_decide(_dec(scaled, kind), x, y), want, tau_scale=c)


def test_metamorphic_cases_include_transfers():
    # the P3 end pair transfers at pi/sqrt(2) and keeps doing so under every relation
    g = pw.build_path(3)
    x, y = np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0])
    want = pw.pst_decide(_dec(g, pw.ADJACENCY), x, y)
    assert want.decision and want.tau_min == pytest.approx(math.pi / math.sqrt(2))
    scaled = pw.make_graph(3, [(a, b, 7.0 * w) for a, b, w in g.edges])
    _same_verdict(pw.pst_decide(_dec(scaled, pw.ADJACENCY), x, y), want, tau_scale=7.0)


def _route_graphs():
    """Graphs decompose factors through a half-size block (Q8, by its own
    route as labelled and by an SVD once relabelled, P129 with a 65 x 64
    block and one extra kernel vector, K_{40,90} less one edge with a
    40 x 90 block) and K_{40,90}, whose complete pattern stays on eigh; each
    with pair states (u, v, s)."""
    k4090 = [(u, v) for u in range(40) for v in range(40, 130)]
    return [
        ("Q8", pw.build_hypercube(8), [(0, 1, 1.0), (0, 3, -1.0), (5, 9, 1.0)]),
        ("P129", pw.build_path(129), [(0, 128, 1.0), (3, 125, -1.0), (60, 64, 1.0)]),
        ("K40,90", pw.make_graph(130, k4090), [(0, 40, 1.0), (1, 41, -1.0), (0, 1, 1.0)]),
        ("K40,90-e", pw.make_graph(130, k4090[1:]), [(0, 40, 1.0), (1, 41, 1.0), (2, 50, -1.0)]),
    ]


def _route_parts(ham):
    """The parts decompose(ham) factors on, from the Hamiltonian's arrays."""
    return spectral._route_parts(ham.n, ham.diagonal, ham.graph.src, ham.graph.dst)


@pytest.mark.parametrize("name,g,pairs", _route_graphs(), ids=[c[0] for c in _route_graphs()])
@pytest.mark.parametrize("kind", [pw.ADJACENCY, pw.LAPLACIAN])
def test_svd_route_metamorphic(name, g, pairs, kind):
    ham = pw.hamiltonian(g, kind)
    parts = _route_parts(ham)
    on_route = name != "K40,90" and (kind == pw.ADJACENCY or name == "Q8")
    assert (parts is not None) == on_route
    dec = pw.decompose(ham)
    p = np.random.default_rng(g.n).permutation(g.n)
    relabelled = pw.make_graph(g.n, [(int(p[a]), int(p[b]), w) for a, b, w in g.edges])
    if on_route:  # the parts follow the vertices, so other rows make up B
        moved = _route_parts(pw.hamiltonian(relabelled, kind))
        images = {tuple(np.sort(p[part])) for part in parts}
        assert images == {tuple(part) for part in moved}
        assert not np.array_equal(moved[0], parts[0])
    scaled = pw.make_graph(g.n, [(a, b, 3.7 * w) for a, b, w in g.edges])
    dec_relabelled, dec_scaled = _dec(relabelled, kind), _dec(scaled, kind)
    yes = 0
    for u, v, s in pairs:
        x = np.zeros(g.n)
        x[u], x[v] = 1.0, s
        try:
            y = pw.pst_partner(dec, x)
        except pw.FixedStateError:
            y = None
        if y is None:
            y = np.roll(x, 1)
        want = pw.pst_decide(dec, x, y)
        yes += want.decision
        px, py = np.empty(g.n), np.empty(g.n)
        px[p], py[p] = x, y
        _same_verdict(pw.pst_decide(dec_relabelled, px, py), want, rel=1e-12)
        _same_verdict(pw.pst_decide(dec, -x, y), want, rel=1e-12)
        _same_verdict(pw.pst_decide(dec, x, -y), want, rel=1e-12)
        _same_verdict(pw.pst_decide(dec, y, x), want, reason=False, rel=1e-12)
        _same_verdict(pw.pst_decide(dec_scaled, x, y), want, tau_scale=3.7, rel=1e-12)
    assert yes or name in ("P129", "K40,90-e")


def _svd_calls_decompose(monkeypatch, g, kind):
    """decompose(g's kind), with how many times it reached np.linalg.svd."""
    calls = []
    svd = np.linalg.svd

    def spy(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(np.linalg, "svd", spy)
        return pw.decompose(pw.hamiltonian(g, kind)), len(calls)


CROSS_ROUTE = [
    ("Q8", pw.build_hypercube(8), pw.ADJACENCY, (0, 3, -1.0), (255, 252, -1.0)),
    ("Q8-lap", pw.build_hypercube(8), pw.LAPLACIAN, (5, 9, 1.0), (250, 246, 1.0)),
    ("P40xK2", pw.cartesian_product(pw.build_path(40), pw.build_path(2)), pw.ADJACENCY,
     (6, 7, -1.0), (72, 73, -1.0)),
]


@pytest.mark.parametrize("name,g,kind,x,y", CROSS_ROUTE, ids=[c[0] for c in CROSS_ROUTE])
def test_cross_route_metamorphic(monkeypatch, name, g, kind, x, y):
    """In their own labelling these graphs take the bipartite route on an
    exactly symmetric half block (recursively on Q8), with no SVD; under a
    seeded relabelling the half block is not symmetric and np.linalg.svd
    factors it. Both give one verdict (PST between antipodal pair states on
    Q8, none from the P40 x K2 pair state to its mirror image), tau to 1e-12
    relative, and one partner once the relabelled one is mapped back."""
    x, y = pair_state(g.n, *x), pair_state(g.n, *y)
    dec, natural_svds = _svd_calls_decompose(monkeypatch, g, kind)
    p = np.random.default_rng(g.n).permutation(g.n)
    relabelled = pw.make_graph(g.n, [(int(p[a]), int(p[b]), w) for a, b, w in g.edges])
    dec_relabelled, relabelled_svds = _svd_calls_decompose(monkeypatch, relabelled, kind)
    assert natural_svds == 0 and relabelled_svds > 0
    px, py = np.empty(g.n), np.empty(g.n)
    px[p], py[p] = x, y
    want = pw.pst_decide(dec, x, y)
    assert want.decision == name.startswith("Q8")
    _same_verdict(pw.pst_decide(dec_relabelled, px, py), want, rel=1e-12)
    partner, moved = pw.pst_partner(dec, x), pw.pst_partner(dec_relabelled, px)
    if partner is None:
        assert moved is None and not want.decision
    else:
        np.testing.assert_allclose(moved[p], partner, rtol=0, atol=1e-10)
