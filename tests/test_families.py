import math

import numpy as np
import pytest

import pstwalk as pw
from conftest import basis_state, decompose_graph, pair_state, same_state, unit


# ---------------------------------------------------------------------------
# complete graphs


def test_complete_graph_examples():
    # 2-pair in the triangle: e_u + 2 e_w goes to (a sign of) e_u + 2 e_v
    x = np.array([1.0, 0.0, 2.0])
    y, tau = pw.complete_graph_pst(3, x)
    assert tau == pytest.approx(math.pi / 3)
    assert same_state(y, np.array([1.0, 2.0, 0.0]))
    dec = decompose_graph(pw.build_complete(3))
    assert pw.verify_pst_numeric(dec, x, y, tau).passed

    # half-pair in the triangle
    x = np.array([1.0, 0.0, 0.5])
    y, tau = pw.complete_graph_pst(3, x)
    assert same_state(y, np.array([0.0, 1.0, 0.5]))

    # plus pair in the 4-clique
    x = basis_state(4, 0, 2)
    y, tau = pw.complete_graph_pst(4, x)
    assert tau == pytest.approx(math.pi / 4)
    assert same_state(y, basis_state(4, 1, 3))

    assert pw.complete_graph_pst(4, np.ones(4)) is None
    assert pw.complete_graph_pst(4, np.array([1.0, -1.0, 0.0, 0.0])) is None


def test_complete_graph_random(rng):
    for n in range(2, 9):
        dec = decompose_graph(pw.build_complete(n))
        for _ in range(5):
            x = rng.normal(size=n)
            while abs(x.sum()) < 0.05 * math.sqrt(n) * np.linalg.norm(x):
                x = rng.normal(size=n)
            y, tau = pw.complete_graph_pst(n, x)
            assert tau == pytest.approx(math.pi / n)
            check = pw.verify_pst_numeric(dec, x, y, tau)
            assert check.fidelity >= 1.0 - 1e-8


# ---------------------------------------------------------------------------
# eigenbases


def test_cycle_eigenbasis():
    for n in (4, 5, 8, 12):
        values, vectors = pw.cycle_eigenbasis(n)
        a = pw.hamiltonian(pw.build_cycle(n), pw.ADJACENCY).matrix
        assert np.max(np.abs(vectors.T @ vectors - np.eye(n))) <= 1e-10
        for j in range(n):
            assert np.linalg.norm(a @ vectors[:, j] - values[j] * vectors[:, j]) <= 1e-9
    values, vectors = pw.cycle_eigenbasis(4)
    assert np.allclose(vectors[:, 0], 0.5)
    assert np.allclose(vectors[:, 2], [0.5, -0.5, 0.5, -0.5])
    assert sorted(np.round(values, 9).tolist()) == [-2.0, 0.0, 0.0, 2.0]


def test_path_eigenbases():
    for n in (3, 4, 7, 12, 64):
        for builder, kind in ((pw.path_adj_eigenbasis, pw.ADJACENCY),
                              (pw.path_lap_eigenbasis, pw.LAPLACIAN)):
            values, vectors = builder(n)
            m = pw.hamiltonian(pw.build_path(n), kind).matrix
            assert np.max(np.abs(vectors.T @ vectors - np.eye(n))) <= 1e-10
            for j in range(n):
                assert np.linalg.norm(m @ vectors[:, j] - values[j] * vectors[:, j]) <= 1e-9
    values, _ = pw.path_adj_eigenbasis(3)
    assert np.allclose(sorted(values), [-math.sqrt(2), 0.0, math.sqrt(2)], atol=1e-12)
    values, vectors = pw.path_lap_eigenbasis(4)
    assert values[0] == 0.0
    assert np.allclose(vectors[:, 0], 0.5)


# ---------------------------------------------------------------------------
# cycle families


def test_cycle_families_listing():
    assert pw.cycle_pst_families(5) == []
    assert {c.case for c in pw.cycle_pst_families(8)} == {"int-0pm2", "surd2"}
    assert {c.case for c in pw.cycle_pst_families(12)} == {
        "int-pm1", "int-with0", "int-0pm2", "surd3"}
    assert {c.case for c in pw.cycle_pst_families(6)} == {"int-pm1"}


def test_cycle_c8_plus_example():
    dec = decompose_graph(pw.build_cycle(8))
    x, y = basis_state(8, 0, 4), basis_state(8, 2, 6)
    pair = pw.cycle_family_match(8, x)
    assert pair is not None and pair.case == "int-0pm2"
    assert pair.tau == pytest.approx(math.pi / 2)
    assert same_state(pair.y, y)
    assert pw.verify_pst_numeric(dec, x, y, math.pi / 2).fidelity >= 1.0 - 1e-8


def test_cycle_c12_triple_example():
    dec = decompose_graph(pw.build_cycle(12))
    x = basis_state(12, 0, 4, 8)
    y = basis_state(12, 2, 6, 10)
    pair = pw.cycle_family_match(12, x)
    assert pair is not None and pair.tau == pytest.approx(math.pi / 2)
    assert same_state(pair.y, y)
    assert pw.verify_pst_numeric(dec, x, y, math.pi / 2).fidelity >= 1.0 - 1e-8


def test_cycle_samples_verify(rng):
    for n in (6, 8, 12, 16):
        dec = decompose_graph(pw.build_cycle(n))
        for case in pw.cycle_pst_families(n):
            for _ in range(4):
                pair = case.sample(rng, min_coef=0.2)
                verdict = pw.pst_decide(dec, pair.x, pair.y)
                assert verdict.decision, (n, case.case)
                assert verdict.tau_min == pytest.approx(pair.tau, rel=1e-9)
                assert pw.verify_pst_numeric(dec, pair.x, pair.y, pair.tau).fidelity >= 1.0 - 1e-8


def test_cycle_match_agrees_with_engine(rng):
    for n in range(3, 17):
        dec = decompose_graph(pw.build_cycle(n))
        cases = pw.cycle_pst_families(n)
        states = []
        for case in cases:
            states += [case.sample(rng, min_coef=0.15).x for _ in range(4)]
        for _ in range(12):
            size = int(rng.integers(2, dec.k + 1))
            positions = sorted(rng.choice(dec.k, size=size, replace=False).tolist())
            from conftest import random_support_state
            states.append(random_support_state(rng, dec, positions, min_coef=0.15))
        states += [unit(rng.normal(size=n)) for _ in range(6)]
        for x in states:
            prof = pw.support(dec, x)
            if prof.kind == "fixed":
                continue
            engine_partner = pw.pst_partner(dec, x)
            match = pw.cycle_family_match(n, x)
            if prof.size == 2:
                assert engine_partner is not None  # two-eigenvalue supports always transfer
                continue
            if match is None:
                # the family catalog is complete only on conjugate-closed
                # supports; outside that hypothesis the engine is the truth
                form = pw.classify_form(pw.ratio_condition(prof.eigenvalues))
                if form is not None and form.variant in ("integer", "quadratic"):
                    assert engine_partner is None, (n, np.round(prof.eigenvalues, 4))
            else:
                assert engine_partner is not None
                assert same_state(match.y, engine_partner, tol=1e-6)
                verdict = pw.pst_decide(dec, x, engine_partner)
                assert verdict.tau_min == pytest.approx(match.tau, rel=1e-9)


def test_cycle_s_pair_transfer_sizes():
    # s-pair transfer exists in a cycle exactly for 4, 6, or 8 vertices
    sizes = []
    for n in range(3, 13):
        cat = pw.pair_plus_catalog("cycle", pw.ADJACENCY, n)
        if cat:
            sizes.append(n)
    assert sizes == [4, 6, 8]


# ---------------------------------------------------------------------------
# path families


def test_path_families_listing():
    assert {c.case for c in pw.path_pst_families(5, pw.ADJACENCY)} == {"int-pm1", "surd3"}
    assert {c.case for c in pw.path_pst_families(7, pw.ADJACENCY)} == {"surd2"}
    assert pw.path_pst_families(6, pw.ADJACENCY) == []
    assert {c.case for c in pw.path_pst_families(6, pw.LAPLACIAN)} == {"int-0123", "surd3"}
    assert {c.case for c in pw.path_pst_families(9, pw.LAPLACIAN)} == {"int-013"}
    assert {c.case for c in pw.path_pst_families(4, pw.LAPLACIAN)} == {"surd2"}


def test_path_p7_pair_example():
    dec = decompose_graph(pw.build_path(7))
    x, y = pair_state(7, 0, 6), pair_state(7, 2, 4)
    pair = pw.path_family_match(7, pw.ADJACENCY, x)
    assert pair is not None and pair.case == "surd2"
    assert pair.tau == pytest.approx(math.pi / math.sqrt(2.0))
    assert same_state(pair.y, y)


def test_path_p11_example():
    # end-alternating combination on eleven vertices transfers at pi/sqrt(2)
    x = np.zeros(11)
    x[0], x[6], x[8] = 1.0, -1.0, 1.0
    y = np.zeros(11)
    y[2], y[4], y[10] = 1.0, -1.0, 1.0
    dec = decompose_graph(pw.build_path(11))
    verdict = pw.pst_decide(dec, x, y)
    assert verdict.decision
    assert verdict.tau_min == pytest.approx(math.pi / math.sqrt(2.0), rel=1e-12)
    pair = pw.path_family_match(11, pw.ADJACENCY, x)
    assert pair is not None and same_state(pair.y, y)


def test_path_p5_laplacian_example():
    dec = decompose_graph(pw.build_path(5), pw.LAPLACIAN)
    x = pair_state(5, 0, 4)
    y = np.array([1.0, 2.0, 0.0, -2.0, -1.0]) / math.sqrt(5.0)
    verdict = pw.pst_decide(dec, x, y)
    assert verdict.decision
    assert verdict.tau_min == pytest.approx(math.pi / math.sqrt(5.0), rel=1e-12)
    assert pw.verify_pst_numeric(dec, x, y, verdict.tau_min).fidelity >= 1.0 - 1e-8


def test_path_samples_verify(rng):
    for n, kind in [(5, pw.ADJACENCY), (7, pw.ADJACENCY), (11, pw.ADJACENCY),
                    (6, pw.LAPLACIAN), (8, pw.LAPLACIAN), (9, pw.LAPLACIAN),
                    (12, pw.LAPLACIAN)]:
        dec = decompose_graph(pw.build_path(n), kind)
        for case in pw.path_pst_families(n, kind):
            for _ in range(4):
                pair = case.sample(rng, min_coef=0.2)
                verdict = pw.pst_decide(dec, pair.x, pair.y)
                assert verdict.decision, (n, kind, case.case)
                assert verdict.tau_min == pytest.approx(pair.tau, rel=1e-9)
                assert pw.verify_pst_numeric(dec, pair.x, pair.y, pair.tau).fidelity >= 1.0 - 1e-8


def test_path_least_time_limit():
    # the least transfer time over paths approaches pi/4 from above
    for n, tol in [(50, 5e-3), (100, 1.3e-3), (200, 4e-4)]:
        tau, x, y = pw.path_least_pst_time(n, pw.ADJACENCY)
        assert tau == pytest.approx(math.pi / (4.0 * math.cos(math.pi / (n + 1))), rel=1e-12)
        assert abs(tau - math.pi / 4.0) < tol
    tau, x, y = pw.path_least_pst_time(40, pw.LAPLACIAN)
    dec = decompose_graph(pw.build_path(40), pw.LAPLACIAN)
    verdict = pw.pst_decide(dec, x, y)
    assert verdict.decision and verdict.tau_min == pytest.approx(tau, rel=1e-9)


def test_path_least_time_verifies_engine():
    tau, x, y = pw.path_least_pst_time(50, pw.ADJACENCY)
    dec = decompose_graph(pw.build_path(50))
    verdict = pw.pst_decide(dec, x, y)
    assert verdict.decision
    assert verdict.tau_min == pytest.approx(tau, rel=1e-9)


# ---------------------------------------------------------------------------
# complete bipartite


def test_complete_bipartite_adjacency():
    # adjacent pair: closed form at pi/sqrt(6)
    x = pair_state(5, 0, 2)  # parts {0,1} and {2,3,4}
    got = pw.complete_bipartite_pst(2, 3, pw.ADJACENCY, x)
    assert got is not None
    y, tau = got
    assert tau == pytest.approx(math.pi / math.sqrt(6.0))
    dec = decompose_graph(pw.build_complete_bipartite(2, 3))
    assert pw.verify_pst_numeric(dec, x, y, tau).fidelity >= 1.0 - 1e-8
    # two-eigenvalue spans are refused (handled by the generic route)
    assert pw.complete_bipartite_pst(2, 3, pw.ADJACENCY, np.ones(5)) is None


def test_complete_bipartite_laplacian_cases(rng):
    # valuation-equal case on equal parts
    x = rng.normal(size=6)
    got = pw.complete_bipartite_pst(3, 3, pw.LAPLACIAN, x)
    assert got is not None
    y, tau = got
    assert tau == pytest.approx(math.pi / 3.0)
    want = np.concatenate([
        -x[:3] + 2.0 / 3.0 * x[:3].sum() * np.ones(3),
        -x[3:] + 2.0 / 3.0 * x[3:].sum() * np.ones(3),
    ])
    assert np.linalg.norm(y - want) <= 1e-12
    dec = decompose_graph(pw.build_complete_bipartite(3, 3), pw.LAPLACIAN)
    assert pw.verify_pst_numeric(dec, x, y, tau).fidelity >= 1.0 - 1e-8

    # unequal valuations pick the asymmetric formulas
    x = rng.normal(size=6)
    got = pw.complete_bipartite_pst(2, 4, pw.LAPLACIAN, x)
    assert got is not None
    y, tau = got
    assert tau == pytest.approx(math.pi / 2.0)
    dec = decompose_graph(pw.build_complete_bipartite(2, 4), pw.LAPLACIAN)
    assert pw.verify_pst_numeric(dec, x, y, tau).fidelity >= 1.0 - 1e-8


def test_complete_bipartite_times_match_engine(rng):
    for m, n in [(1, 2), (2, 2), (2, 3), (3, 4), (2, 8), (5, 6)]:
        for kind in (pw.ADJACENCY, pw.LAPLACIAN):
            dec = decompose_graph(pw.build_complete_bipartite(m, n), kind)
            hits = 0
            for _ in range(12):
                x = rng.normal(size=m + n)
                got = pw.complete_bipartite_pst(m, n, kind, x)
                if got is None:
                    continue
                y, tau = got
                hits += 1
                verdict = pw.pst_decide(dec, x, y)
                assert verdict.decision
                assert verdict.tau_min == pytest.approx(tau, rel=1e-9)
            if m + n >= 3:
                assert hits > 0


# ---------------------------------------------------------------------------
# catalogs


def test_pair_catalog_paths_adjacency():
    found = {}
    for n in range(2, 13):
        cat = pw.pair_plus_catalog("path", pw.ADJACENCY, n)
        pairs = {(e.u, e.v, e.partner_u, e.partner_v) for e in cat
                 if e.s == -1 and e.partner_s == -1}
        if pairs:
            found[n] = pairs
    assert sorted(found) == [3, 5, 7]
    assert (0, 1, 1, 2) in found[3]
    assert (0, 4, 1, 3) in found[5]
    assert (0, 6, 2, 4) in found[7]


def test_plus_catalog_paths_adjacency():
    found = [n for n in range(2, 13)
             if any(e.s == 1 and e.partner_s == 1
                    for e in pw.pair_plus_catalog("path", pw.ADJACENCY, n))]
    assert found == [3]


def test_catalog_matches_brute_force_sweep():
    # the catalog equals a direct decision sweep over every s-pair pair
    n = 5
    dec = decompose_graph(pw.build_path(n))
    catalog = {
        (e.s, e.u, e.v, e.partner_s, e.partner_u, e.partner_v)
        for e in pw.pair_plus_catalog("path", pw.ADJACENCY, n)
    }
    brute = set()
    for s in (-1, 1):
        for u in range(n):
            for v in range(u + 1, n):
                x = pair_state(n, u, v, s)
                for t in (-1, 1):
                    for a in range(n):
                        for b in range(a + 1, n):
                            y = pair_state(n, a, b, t)
                            if min(np.linalg.norm(x - y), np.linalg.norm(x + y)) < 1e-9:
                                continue
                            try:
                                verdict = pw.pst_decide(dec, x, y)
                            except pw.InvalidPairError:
                                continue
                            if verdict.decision:
                                brute.add((s, u, v, t, a, b))
    assert catalog == brute


def test_catalog_guard():
    with pytest.raises(pw.InvalidSizeError):
        pw.pair_plus_catalog("path", pw.ADJACENCY, 31)
