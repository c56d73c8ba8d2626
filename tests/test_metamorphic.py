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
from conftest import cases, decompose_graph, pair_state, relabel, route_calls, taken
from pstwalk import routes, spectral

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
    dec = decompose_graph(g, kind)
    want = pw.pst_decide(dec, x, y)

    # vertex i becomes p[i]
    relabelled = relabel(g, p)
    px, py = np.empty(g.n), np.empty(g.n)
    px[p], py[p] = x, y
    _same_verdict(pw.pst_decide(decompose_graph(relabelled, kind), px, py), want)

    _same_verdict(pw.pst_decide(dec, -x, y), want)
    _same_verdict(pw.pst_decide(dec, x, -y), want)
    _same_verdict(pw.pst_decide(dec, y, x), want, reason=False)

    scaled = pw.make_graph(g.n, [(a, b, c * w) for a, b, w in g.edges])
    _same_verdict(pw.pst_decide(decompose_graph(scaled, kind), x, y), want, tau_scale=c)


def test_metamorphic_cases_include_transfers():
    # the P3 end pair transfers at pi/sqrt(2) and keeps doing so under every relation
    g = pw.build_path(3)
    x, y = np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0])
    want = pw.pst_decide(decompose_graph(g, pw.ADJACENCY), x, y)
    assert want.decision and want.tau_min == pytest.approx(math.pi / math.sqrt(2))
    scaled = pw.make_graph(3, [(a, b, 7.0 * w) for a, b, w in g.edges])
    _same_verdict(pw.pst_decide(decompose_graph(scaled, pw.ADJACENCY), x, y), want, tau_scale=7.0)


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
    return routes._route_parts(spectral._edge_form(ham))


@pytest.mark.parametrize("name,g,pairs", _route_graphs(), ids=[c[0] for c in _route_graphs()])
@pytest.mark.parametrize("kind", [pw.ADJACENCY, pw.LAPLACIAN])
def test_svd_route_metamorphic(name, g, pairs, kind):
    ham = pw.hamiltonian(g, kind)
    parts = _route_parts(ham)
    on_route = name != "K40,90" and (kind == pw.ADJACENCY or name == "Q8")
    assert (parts is not None) == on_route
    dec = pw.decompose(ham)
    p = np.random.default_rng(g.n).permutation(g.n)
    relabelled = relabel(g, p)
    if on_route:  # the parts follow the vertices, so other rows make up B
        moved = _route_parts(pw.hamiltonian(relabelled, kind))
        images = {tuple(np.sort(p[part])) for part in parts}
        assert images == {tuple(part) for part in moved}
        assert not np.array_equal(moved[0], parts[0])
    scaled = pw.make_graph(g.n, [(a, b, 3.7 * w) for a, b, w in g.edges])
    dec_relabelled, dec_scaled = decompose_graph(relabelled, kind), decompose_graph(scaled, kind)
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
    """decompose(g's kind), with how many times the bipartite route's SVD took a form."""
    dec, calls = route_calls(monkeypatch, pw.hamiltonian(g, kind))
    return dec, taken(calls, "bipartite")


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
    relabelled = relabel(g, p)
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
