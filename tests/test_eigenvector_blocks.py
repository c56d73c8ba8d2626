"""The eigenvector-block decomposition against the dense projector tensor.

`dense_projectors` rebuilds the (k, n, n) tensor of E_j = V_j V_j^T from a
fresh eigh of the matrix, and the `_dense_*` functions are the formulas that
read that tensor, or the matrix itself, directly. Every consumer of the decomposition must agree
with them to 1e-12 (the moments, in units of scale**k, to 1e-10), with
identical verdicts and reasons; the join operator agrees with scipy's expm
of the join to 1e-12.
"""

import importlib
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pstwalk as pw
from conftest import heavy_path_ends, held_bytes, random_tree
from oracles import all_partners, join_walk, moments, projector, reconstruct
from pstwalk.errors import FixedStateError, InvalidPairError
from pstwalk.periodicity import NonPeriodic, ratio_condition
from pstwalk.spectral import BipartiteBasis, KroneckerBasis, Projection
from pstwalk.states import FIXED, GENERAL, SIZE2

transfer = importlib.import_module("pstwalk.transfer")

TOL = 1e-12


def dense_projectors(matrix, dec):
    """(k, n, n) projectors in descending eigenvalue order, each the
    symmetrised V_j V_j^T of one cluster of a fresh eigh of `matrix`."""
    _, evecs = np.linalg.eigh(matrix)
    bounds = np.cumsum((0,) + dec.multiplicities[::-1])  # ascending clusters
    projs = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        block = evecs[:, lo:hi]
        e = block @ block.T
        projs.append((e + e.T) / 2.0)
    return np.array(projs[::-1])


def _dense_support(dec, P, x, cfg=pw.DEFAULT_TOLERANCES):
    norms = np.linalg.norm(P @ x, axis=1)
    idx = tuple(int(j) for j in np.nonzero(norms > cfg.tol_supp * float(np.linalg.norm(x)))[0])
    kind = FIXED if len(idx) == 1 else SIZE2 if len(idx) == 2 else GENERAL
    return pw.SupportProfile(indices=idx, eigenvalues=dec.eigenvalues[list(idx)], kind=kind)


def _dense_cospectrality(dec, P, x, y, cfg=pw.DEFAULT_TOLERANCES):
    prof = _dense_support(dec, P, x, cfg)
    if prof.kind == FIXED:
        return pw.NotCospectral("fixed-state")
    tol = cfg.tol_supp * float(np.linalg.norm(x))
    plus, minus, worst, ambiguous = [], [], 0.0, []
    for pos, j in enumerate(prof.indices):
        ex, ey = P[j] @ x, P[j] @ y
        d_plus, d_minus = float(np.linalg.norm(ex - ey)), float(np.linalg.norm(ex + ey))
        win, lose = (d_plus, d_minus) if d_plus <= d_minus else (d_minus, d_plus)
        if win > tol:
            return pw.NotCospectral("not-cospectral", float(dec.eigenvalues[j]))
        if lose < 10.0 * tol:
            ambiguous.append(float(dec.eigenvalues[j]))
        worst = max(worst, win)
        (plus if d_plus <= d_minus else minus).append(pos)
    for j in range(dec.k):
        if j not in prof.indices and np.linalg.norm(P[j] @ y) > tol:
            return pw.NotCospectral("not-cospectral", float(dec.eigenvalues[j]))
    if ambiguous:
        return pw.NotCospectral("ambiguous-cospectrality", ambiguous[0])
    if not plus or not minus:
        raise InvalidPairError("indistinguishable")
    return pw.CospectralityCertificate(
        plus_positions=tuple(plus), minus_positions=tuple(minus),
        sigma_plus=prof.eigenvalues[plus], sigma_minus=prof.eigenvalues[minus],
        residual=worst, profile=prof)


def _dense_partners(dec, P, X, cfg=pw.DEFAULT_TOLERANCES):
    cutoff = cfg.tol_supp * np.linalg.norm(X, axis=0)
    mask = np.array([np.linalg.norm(P[j] @ X, axis=0) > cutoff for j in range(dec.k)])
    sizes = mask.sum(axis=0)
    found = np.zeros(X.shape[1], dtype=bool)
    partners = np.full(X.shape, np.nan)
    for c in range(X.shape[1]):
        idx = np.nonzero(mask[:, c])[0]
        if len(idx) == 1:
            continue
        table = ratio_condition(dec.eigenvalues[idx], cfg)
        if isinstance(table, NonPeriodic):
            continue
        flip = sum(P[idx[pos]] @ X[:, c] for pos in table.flips)
        partners[:, c] = X[:, c] - 2.0 * flip
        found[c] = True
    return partners, found, sizes == 1


def _dense_scan_values(dec, P, x, y, times):
    amps = P @ x @ y
    denom = float(np.dot(x, x) * np.dot(y, y))
    return np.array([abs(np.exp(1j * t * dec.eigenvalues) @ amps) ** 2 / denom for t in times])


def _dense_moments(mat, scale, x, k_max):
    """x^T M^k x / (x^T x * scale**k) for k = 0..k_max, by repeated dense
    products with M / scale."""
    powers = [x]
    for _ in range(k_max):
        powers.append(mat @ powers[-1] / (scale or 1.0))
    return np.array([x @ p for p in powers]) / np.dot(x, x)


def _weighted(rng, n):
    edges = {(u, v) for u, v, _ in random_tree(rng, n).edges}
    for _ in range(int(rng.integers(0, n))):
        u, v = sorted(rng.choice(n, size=2, replace=False).tolist())
        edges.add((u, v))
    return pw.make_graph(n, [(u, v, float(rng.choice([0.5, 1.0, 1.7, 2.0, 3.0])))
                             for u, v in sorted(edges)])


@st.composite
def cases(draw):
    """A graph (random weighted, or one with repeated eigenvalues), a kind,
    a state x and a second state y: x's partner, the partner with a little
    weight outside x's support, another strongly cospectral state, or an
    unrelated pair state."""
    family = draw(st.sampled_from(["weighted", "hypercube", "complete-bipartite", "cycle"]))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    if family == "weighted":
        graph = _weighted(rng, draw(st.integers(min_value=3, max_value=10)))
    elif family == "hypercube":
        graph = pw.build_hypercube(draw(st.integers(min_value=1, max_value=4)))
    elif family == "complete-bipartite":
        graph = pw.build_complete_bipartite(draw(st.integers(1, 5)), draw(st.integers(1, 6)))
    else:
        graph = pw.build_cycle(draw(st.integers(min_value=3, max_value=12)))
    kind = draw(st.sampled_from([pw.ADJACENCY, pw.LAPLACIAN]))
    n = graph.n
    if n > 2 and draw(st.booleans()):
        x = np.zeros(n)
        a, b = rng.choice(n, size=2, replace=False)
        x[a], x[b] = 1.0, draw(st.sampled_from([-1.0, 1.0]))
    else:
        x = rng.normal(size=n)
    y_kind = draw(st.sampled_from(["partner", "leaky", "cospectral", "other"]))
    return graph, kind, x, y_kind, rng, draw(st.floats(min_value=0.1, max_value=10.0))


def _assert_same_outcome(call_new, call_ref):
    """Both calls raise the same exception type, or both return; a returned
    NotCospectral must be the same refusal, and the pair (None, None) stands
    for either of these outcomes."""
    try:
        want = call_ref()
    except (FixedStateError, InvalidPairError) as exc:
        with pytest.raises(type(exc)):
            call_new()
        return None, None
    got = call_new()
    if isinstance(want, pw.NotCospectral) or isinstance(got, pw.NotCospectral):
        assert got == want
        return None, None
    return got, want


@settings(max_examples=120, deadline=None)
@given(cases())
def test_consumers_match_dense_projectors(case):
    graph, kind, x, y_kind, rng, t = case
    mat = pw.hamiltonian(graph, kind).matrix
    dec = pw.decompose(mat)
    P = dense_projectors(mat, dec)
    n = dec.n

    assert np.max(np.abs(reconstruct(dec) - np.einsum("k,kij->ij", dec.eigenvalues, P))) \
        <= TOL * max(1.0, dec.scale)
    for j in range(dec.k):
        assert np.max(np.abs(projector(dec, j) - P[j])) <= TOL
    proj = Projection.of(dec, x)
    assert np.max(np.abs(np.sqrt(proj.weights()[:, 0]) - np.linalg.norm(P @ x, axis=1))) <= TOL

    prof, ref_prof = pw.support(dec, x), _dense_support(dec, P, x)
    assert prof.indices == ref_prof.indices and prof.kind == ref_prof.kind
    # E_j x as the record lifts it: (x - reflect on cluster j) / 2
    comps = [(x - proj.reflect([0], [j])[:, 0]) / 2.0 for j in prof.indices]
    assert np.max(np.abs(np.array(comps) - P[list(ref_prof.indices)] @ x)) <= TOL

    off = [j for j in range(dec.k) if j not in prof.indices]
    if y_kind == "partner" and prof.kind != FIXED:
        y = pw.pst_partner(dec, x)
    elif y_kind == "leaky" and prof.kind != FIXED and off:
        # x's partner plus a weight of 1e-6 outside x's support: equal norms
        # to 1e-12, so only the off-support test can refuse it
        y = pw.pst_partner(dec, x)
        if y is not None:
            z = P[off[-1]] @ rng.normal(size=n)
            y = y + 1e-6 * np.linalg.norm(x) * z / np.linalg.norm(z)
            y *= np.linalg.norm(x) / np.linalg.norm(y)
    elif y_kind == "cospectral" and 2 <= prof.size <= 8:
        y = all_partners(dec, x)[-1]
    else:
        y = np.zeros(n)
        a, b = rng.choice(n, size=2, replace=False) if n > 2 else (0, n - 1)
        y[a], y[b] = np.linalg.norm(x) / math.sqrt(2.0), -np.linalg.norm(x) / math.sqrt(2.0)
    if y is None:
        y = x[::-1].copy()

    if np.linalg.norm(x - y) > 1e-6 and np.linalg.norm(x + y) > 1e-6 \
            and abs(np.linalg.norm(x) - np.linalg.norm(y)) <= 1e-12 * np.linalg.norm(x):
        cert, ref_cert = _assert_same_outcome(
            lambda: pw.check_strong_cospectrality(dec, x, y),
            lambda: _dense_cospectrality(dec, P, x, y))
        if cert is not None:
            assert cert.plus_positions == ref_cert.plus_positions
            assert cert.minus_positions == ref_cert.minus_positions
            assert abs(cert.residual - ref_cert.residual) <= TOL

        def dense_decide():
            with mock.patch.object(transfer, "check_strong_cospectrality",
                                   lambda d, a, b, c: _dense_cospectrality(d, P, a, b, c)):
                return pw.pst_decide(dec, x, y)

        verdict, ref = _assert_same_outcome(lambda: pw.pst_decide(dec, x, y), dense_decide)
        if verdict is not None:
            assert (verdict.decision, verdict.reason, verdict.detail, verdict.case,
                    verdict.tau_min, verdict.tau_symbolic) == \
                (ref.decision, ref.reason, ref.detail, ref.case, ref.tau_min, ref.tau_symbolic)
            for got, want in ((verdict.sigma_plus, ref.sigma_plus),
                              (verdict.sigma_minus, ref.sigma_minus)):
                assert (got is None and want is None) or np.array_equal(got, want)

    X = np.column_stack([x, y, np.eye(n)[0]])
    partners, found, fixed, _ = pw.pst_partners(dec, X)
    ref_partners, ref_found, ref_fixed = _dense_partners(dec, P, X)
    assert np.array_equal(found, ref_found) and np.array_equal(fixed, ref_fixed)
    if found.any():
        assert np.max(np.abs(partners[:, found] - ref_partners[:, found])) <= TOL

    phases = np.exp(1j * t * dec.eigenvalues)
    assert np.max(np.abs(pw.evolve(dec, t, x) - phases @ (P @ x))) <= TOL
    assert np.max(np.abs(pw.transition_matrix(dec, t) - np.einsum("k,kij->ij", phases, P))) <= TOL

    scan = pw.fidelity_scan(dec, x, y, t, 64)
    ref_values = _dense_scan_values(dec, P, x, y, scan.times)
    assert np.max(np.abs(scan.values - ref_values)) <= TOL
    # the refined peak is a maximum of the dense fidelity, at its value; its
    # location on a flat maximum is only fixed to about sqrt(eps) * t
    assert abs(_dense_scan_values(dec, P, x, y, [scan.peak_time])[0] - scan.peak_value) <= TOL
    assert scan.peak_value >= ref_values.max() - TOL

    mom = moments(dec, np.column_stack((x, y)), 6)
    for col, v in enumerate((x, y)):
        assert np.max(np.abs(mom[:, col] - _dense_moments(mat, dec.scale, v, 6))) <= 1e-10


def _regular_factors():
    return st.sampled_from([
        ("cycle", 3), ("cycle", 5), ("cycle", 8), ("complete", 1), ("complete", 4),
        ("complete", 6), ("empty", 2), ("empty", 5), ("hypercube", 2), ("hypercube", 3),
    ])


BUILD = {"cycle": pw.build_cycle, "complete": pw.build_complete,
         "empty": pw.build_empty, "hypercube": pw.build_hypercube}


@settings(max_examples=60, deadline=None)
@given(_regular_factors(), _regular_factors(), st.sampled_from([pw.ADJACENCY, pw.LAPLACIAN]),
       st.floats(min_value=0.0, max_value=6.0))
def test_join_operator_matches_dense_projectors(gspec, hspec, kind, t):
    g, h = BUILD[gspec[0]](gspec[1]), BUILD[hspec[0]](hspec[1])
    u = pw.join_transition_matrix(g, h, kind, t)
    assert np.max(np.abs(u - join_walk(g, h, kind, t))) <= TOL


def test_decomposition_holds_no_projector_tensor():
    """P400 adjacency with heavy end edges (off the path route, which takes
    the uniform path) takes the bipartite route, whose basis holds the SVD's
    U and V of 200 x 200 each and O(n) numbers besides: no n x n array."""
    n = 400
    dec = pw.decompose(pw.hamiltonian(heavy_path_ends(pw.build_path(n)), pw.ADJACENCY))
    assert isinstance(dec.basis, BipartiteBasis)
    assert held_bytes(dec) <= (n * n / 2 + 4 * n) * 8


@pytest.mark.parametrize("d", [8, 9, 10])
@pytest.mark.parametrize("kind", [pw.ADJACENCY, pw.LAPLACIAN])
def test_hypercube_holds_two_small_blocks(d, kind):
    """Q8 to Q10 take the product route down to Q5, and hold Q5's dense
    32 x 32 basis, one dense block of at most 32 x 32 for the K2 factors,
    V's n column indices and the clusters' few numbers: at Q10, 24 760
    bytes, against 8 MiB for a dense V."""
    n = 1 << d
    dec = pw.decompose(pw.hamiltonian(pw.build_hypercube(d), kind))
    assert isinstance(dec.basis, KroneckerBasis)
    assert held_bytes(dec) <= 2 * 32 * 32 * 8 + n * 8 + 1024


@pytest.mark.parametrize("kind", [pw.ADJACENCY, pw.LAPLACIAN])
def test_route_peak_below_twice_the_matrix(kind):
    """decompose(Q9) on the product route allocates less than a quarter of
    one n x n float array at its peak (the bound was twice that array while
    the route built V; the name keeps the test's id): no dense matrix of the
    Hamiltonian and no dense V, only the factored basis and the route's
    O(n) arrays."""
    ham = pw.hamiltonian(pw.build_hypercube(9), kind)
    n = ham.n
    tracemalloc.start()
    try:
        pw.decompose(ham)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8 / 4


def test_fidelity_grid_in_blocks(monkeypatch):
    # two rows of phase factors per block and a one-row last block
    mat = pw.hamiltonian(pw.build_cycle(8), pw.ADJACENCY).matrix
    dec = pw.decompose(mat)
    x, y = np.eye(8)[0] + np.eye(8)[4], np.eye(8)[2] + np.eye(8)[6]
    monkeypatch.setattr("pstwalk.spectral.SCAN_BLOCK", 2 * dec.k + 1)
    times = np.linspace(0.0, 5.0, 101)
    got = pw.fidelity(dec, times, x, y)
    want = _dense_scan_values(dec, dense_projectors(mat, dec), x, y, times)
    assert np.max(np.abs(got - want)) <= TOL
