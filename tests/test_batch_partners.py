"""The batched partner pass against the one-state pipeline it replaces."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pstwalk as pw
from conftest import random_tree
from oracles import argsort_pair_shapes, eigenvector
from pstwalk import periodicity
from pstwalk.families import _pair_shapes
from pstwalk.tolerances import SHAPE_UNIT, SHAPE_ZERO


def _reference_pair_state(y):
    """Recognize +-(e_a + s e_b), s in {-1, +1}; canonical a < b and a
    positive leading entry (the one-state catalog's recognizer)."""
    order = np.argsort(-np.abs(y))
    a, b = int(order[0]), int(order[1])
    rest = np.abs(y[[i for i in range(len(y)) if i not in (a, b)]])
    if abs(abs(y[a]) - 1.0) > 1e-7 or abs(abs(y[b]) - 1.0) > 1e-7:
        return None
    if rest.size and float(rest.max()) > 1e-8:
        return None
    if a > b:
        a, b = b, a
    sign = 1.0 if y[a] > 0 else -1.0
    s = int(round(sign * y[b]))
    if s not in (-1, 1):
        return None
    return s, a, b


def _reference_catalog(graph, kind):
    """One-state sweep: pst_partner, pair recognition and pst_decide per state."""
    dec = pw.decompose(pw.hamiltonian(graph, kind))
    entries = []
    for u in range(graph.n):
        for v in range(u + 1, graph.n):
            for s in (-1, 1):
                x = np.zeros(graph.n)
                x[u] = 1.0
                x[v] = float(s)
                try:
                    partner = pw.pst_partner(dec, x)
                except pw.FixedStateError:
                    continue
                if partner is None:
                    continue
                shape = _reference_pair_state(partner)
                if shape is None:
                    continue
                verdict = pw.pst_decide(dec, x, partner)
                if verdict.decision:
                    entries.append(pw.CatalogEntry(
                        s=s, u=u, v=v,
                        partner_s=shape[0], partner_u=shape[1], partner_v=shape[2],
                        tau=verdict.tau_min, tau_symbolic=verdict.tau_symbolic,
                    ))
    return entries


def _sweeps():
    builders = {"path": pw.build_path, "cycle": pw.build_cycle, "complete": pw.build_complete}
    for kind in (pw.ADJACENCY, pw.LAPLACIAN):
        for family, build in builders.items():
            for n in range(4, 17):
                yield (family, n), build(n), kind
        for total in range(4, 17):
            for m in range(1, total // 2 + 1):
                yield ("complete-bipartite", m, total - m), pw.build_complete_bipartite(m, total - m), kind


def test_catalog_matches_one_state_sweep():
    hits = 0
    for (family, *sizes), graph, kind in _sweeps():
        expected = _reference_catalog(graph, kind)
        got = pw.pair_plus_catalog(family, kind, *sizes)
        # dataclass equality compares tau exactly; repr pins its printed digits
        assert got == expected, (family, kind, sizes)
        assert [repr(e) for e in got] == [repr(e) for e in expected]
        hits += len(got)
    assert hits > 100


@st.composite
def weighted_graphs(draw):
    n = draw(st.integers(min_value=3, max_value=8))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    edges = {(u, v) for u, v, _ in random_tree(rng, n).edges}
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        u, v = sorted(rng.choice(n, size=2, replace=False).tolist())
        edges.add((u, v))
    weights = draw(st.lists(st.sampled_from([1.0, 2.0, 3.0, 0.5, 1.7]),
                            min_size=len(edges), max_size=len(edges)))
    graph = pw.make_graph(n, [(u, v, w) for (u, v), w in zip(sorted(edges), weights)])
    return graph, draw(st.sampled_from([pw.ADJACENCY, pw.LAPLACIAN])), rng


@settings(max_examples=40, deadline=None)
@given(weighted_graphs())
def test_batch_matches_single_state(case):
    graph, kind, rng = case
    dec = pw.decompose(pw.hamiltonian(graph, kind))
    n = graph.n
    cols = []
    for u in range(n):
        for v in range(u + 1, n):
            for s in (-1.0, 1.0):
                x = np.zeros(n)
                x[u], x[v] = 1.0, s
                cols.append(x)
    # fixed states and two-eigenvalue states, plus a random dense state
    cols.append(eigenvector(dec, 0))
    cols.append(eigenvector(dec, 0) + 0.5 * eigenvector(dec, dec.k - 1))
    cols.append(rng.normal(size=n))
    X = np.stack(cols, axis=1)
    partners, found, fixed, _ = pw.pst_partners(dec, X)
    assert partners.shape == X.shape
    for c in range(X.shape[1]):
        try:
            single = pw.pst_partner(dec, X[:, c])
        except pw.FixedStateError:
            assert fixed[c] and not found[c]
            continue
        assert not fixed[c]
        if single is None:
            assert not found[c] and np.all(np.isnan(partners[:, c]))
        else:
            assert found[c]
            assert np.max(np.abs(partners[:, c] - single)) <= 1e-12


def test_batch_rejects_invalid_matrices():
    dec = pw.decompose(pw.hamiltonian(pw.build_path(4), pw.ADJACENCY))
    for bad in (np.ones(4), np.ones((3, 2)), np.zeros((4, 2)), np.full((4, 1), np.nan)):
        with pytest.raises(pw.InvalidStateError):
            pw.pst_partners(dec, bad)


def test_sweep_reconstructs_each_support_ratio_once(monkeypatch):
    n = 30
    dec = pw.decompose(pw.hamiltonian(pw.build_path(n), pw.ADJACENCY))
    supports = set()
    for u in range(n):
        for v in range(u + 1, n):
            for s in (-1.0, 1.0):
                x = np.zeros(n)
                x[u], x[v] = 1.0, s
                supports.add(pw.support(dec, x).indices)
    # each of the three supports of more than two eigenvalues is
    # nonperiodic, so its ratio table stops at its first ratio
    big = [idx for idx in supports if len(idx) > 2]
    assert len(big) == 3
    assert all(isinstance(pw.ratio_condition(dec.eigenvalues[list(idx)]), periodicity.NonPeriodic)
               for idx in big)
    distinct_ratios = sum(len(idx) - 2 for idx in big)

    calls = []
    original = periodicity.reconstruct_fraction

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(periodicity, "reconstruct_fraction", counting)
    pw.pair_plus_catalog("path", pw.ADJACENCY, n)
    assert len(calls) == len(big) < distinct_ratios


def _same_shapes(Y):
    got, want = _pair_shapes(Y), argsort_pair_shapes(Y)
    for g, w in zip(got, want):
        assert np.array_equal(g, w) and g.dtype == w.dtype
    return got


def test_pair_shapes_match_argsort_form():
    # the counting test against the argsort form on columns at and across
    # each threshold: exactly 1 +- SHAPE_UNIT and SHAPE_ZERO and the floats
    # next to them, three unit entries, ties in magnitude, n = 2, and
    # matrices of no column (b = 0) and one column (b = 1)
    up, down = np.nextafter(SHAPE_ZERO, 1.0), np.nextafter(SHAPE_ZERO, 0.0)
    near_one = [1.0, 1.0 + SHAPE_UNIT, 1.0 - SHAPE_UNIT, np.nextafter(1.0 + SHAPE_UNIT, 2.0),
                np.nextafter(1.0 - SHAPE_UNIT, 0.0), 1.0 + 2 * SHAPE_UNIT, 1.0 - SHAPE_UNIT / 2]
    near_zero = [0.0, SHAPE_ZERO, up, down, SHAPE_ZERO / 2, 1e-3, 0.5]
    palette = np.array(near_one + near_zero)
    rng = np.random.default_rng(29)
    fixed = [[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0 + SHAPE_UNIT], [1.0, up], [1.0, 0.0],
             [1.0, 1.0, 1.0], [1.0, -1.0, -1.0, 0.0], [1.0, 1.0, SHAPE_ZERO, SHAPE_ZERO],
             [1.0, 1.0, up, 0.0], [0.0, 1.0, 0.0, -1.0], [1.0, 1.0 - SHAPE_UNIT, down, -down],
             [1.0 + SHAPE_UNIT, 1.0 + SHAPE_UNIT, 1.0 + SHAPE_UNIT, 0.0], [2.0, 1.0, 1.0]]
    hits = 0
    for n in range(2, 7):
        cols = [np.array(c) for c in fixed if len(c) == n]
        for _ in range(400):
            col = np.zeros(n)
            picks = rng.choice(n, size=int(rng.integers(1, min(n, 4) + 1)), replace=False)
            col[picks] = palette[rng.integers(len(palette), size=len(picks))]
            cols.append(col * rng.choice([-1.0, 1.0], size=n))
        Y = np.stack(cols, axis=1)
        hits += len(_same_shapes(Y)[0])
        for b in (0, 1):
            _same_shapes(Y[:, :b])
    assert hits > 40


@pytest.mark.parametrize("k", [8, 9, 17, 62, 63, 64, 126, 127])
def test_grouping_across_packed_bytes(k):
    # k eigenvalue clusters key each mask column by ceil(k/63) words of 63
    # bits; the supports below differ only in the bit of cluster 7, 8, 62,
    # 63 or k-1, and every fourth eigenvalue is moved off the integers so
    # that some supports are nonperiodic. Each column must get what it gets
    # on its own (one column, b = 1), permuting the columns must permute
    # every output alike, and no column (b = 0) gives empty outputs
    rng = np.random.default_rng(k)
    vals = np.arange(k, 0, -1, dtype=float)
    vals[3::4] += math.sqrt(2.0) / 10.0
    dec = pw.decompose(np.diag(vals))
    assert dec.k == k
    supports = [[0, 1], [0, 1, 7], [0, 1, k - 1], [0, 1, 7, k - 1], [2], [k - 1], list(range(k))]
    if k > 8:
        # [0] is fixed and [0, 8] is not; [0, 3] is periodic and [0, 3, 8] is not
        supports += [[0], [0, 8], [0, 3], [0, 3, 8], [0, 1, 8], [0, 1, 7, 8], [7, 8], [8]]
    for bit in (62, 63):   # the last bit of the first word, the first of the second
        if k > bit:
            supports += [[0, 1, bit], [0, bit], [bit], [bit - 1, bit], [0, 1, bit - 1, bit]]
    supports += [sorted(rng.choice(k, size=rng.integers(1, k + 1), replace=False)) for _ in range(30)]
    cols = []
    for sup in supports:
        for _ in range(2):   # two states per support share its group
            x = np.zeros(k)
            x[sup] = rng.choice([-1.0, 1.0], size=len(sup)) * rng.uniform(0.5, 1.0, size=len(sup))
            cols.append(x)
    X = np.stack(cols, axis=1)
    partners, found, fixed, tau = pw.pst_partners(dec, X)
    assert found.any() and (~found & ~fixed).any() and fixed.any()
    for c in range(X.shape[1]):
        single, s_found, s_fixed, s_tau = pw.pst_partners(dec, X[:, [c]])
        assert (found[c], fixed[c]) == (s_found[0], s_fixed[0])
        assert np.array_equal(tau[c], s_tau[0], equal_nan=True)
        assert np.allclose(partners[:, c], single[:, 0], rtol=0.0, atol=1e-12, equal_nan=True)
    perm = rng.permutation(X.shape[1])
    p_partners, p_found, p_fixed, p_tau = pw.pst_partners(dec, X[:, perm])
    assert np.array_equal(p_found, found[perm]) and np.array_equal(p_fixed, fixed[perm])
    assert np.array_equal(p_tau, tau[perm], equal_nan=True)
    assert np.allclose(p_partners, partners[:, perm], rtol=0.0, atol=1e-12, equal_nan=True)
    empty = pw.pst_partners(dec, X[:, :0])
    assert [a.shape for a in empty] == [(k, 0), (0,), (0,), (0,)]
    assert [a.dtype for a in empty] == [float, bool, bool, float]


def test_flip_selection_takes_largest_valuation():
    # ratios 5/4 and 3/2: q = (1, 1, 4, 2) has three 2-adic levels, and only
    # the component with q = 4 flips; at tau = pi the walk maps x to y
    dec = pw.decompose(np.diag([4.0, 0.0, -1.0, -2.0]))
    x = np.ones(4)
    y = pw.pst_partner(dec, x)
    assert np.max(np.abs(y - [1.0, 1.0, -1.0, 1.0])) <= 1e-12
    verdict = pw.pst_decide(dec, x, y)
    assert verdict.decision and verdict.tau_symbolic == "pi"
    partners, found, _, _ = pw.pst_partners(dec, np.stack([x, -x], axis=1))
    assert found.all() and np.array_equal(partners[:, 1], -partners[:, 0])
