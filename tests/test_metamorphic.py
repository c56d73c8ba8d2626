"""Metamorphic properties of pst_decide over random connected weighted graphs
and the family builders: relabelling the vertices keeps the verdict and the
time, negating either state or swapping them keeps the decision, and scaling
the weights by c > 0 divides the time by c.

A shift of M by s*I is left out: it should keep tau and multiply the phase
by exp(i*tau*s), but a large shift still collapses the clusters (ROADMAP
item 1)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pstwalk as pw
from conftest import random_tree

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


def _same_verdict(got, want, tau_scale=1.0, reason=True):
    assert got.decision == want.decision
    if reason:
        assert got.reason == want.reason
    if want.decision:
        assert got.tau_min == pytest.approx(want.tau_min / tau_scale, rel=1e-9)


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
