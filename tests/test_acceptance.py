"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import math

import numpy as np
import pytest

import pstwalk as pw
from conftest import (
    basis_state,
    decompose_graph,
    pair_state,
    random_connected_graph,
    random_support_state,
    random_tree,
    same_state,
    unit,
)
from oracles import all_partners, eigenvector, moments, projector

RNG = np.random.default_rng(987654321)


def _margin_state(rng, n):
    """Random state clearly away from the fixed rays of the complete graph."""
    while True:
        x = rng.normal(size=n)
        nrm = np.linalg.norm(x)
        mean = x.sum() / n * np.ones(n)
        if abs(x.sum()) >= 0.05 * math.sqrt(n) * nrm and np.linalg.norm(x - mean) >= 0.05 * nrm:
            return x


def _passline(k, name):
    print(f"ACCEPTANCE {k:02d} ({name}): PASS")


# ---------------------------------------------------------------------------


def test_criterion_01_complete_graphs():
    for n in range(2, 9):
        dec = decompose_graph(pw.build_complete(n))
        for _ in range(20):
            x = _margin_state(RNG, n)
            y = x - 2.0 * x.sum() / n * np.ones(n)
            check = pw.verify_pst_numeric(dec, x, y, math.pi / n)
            assert check.fidelity >= 1.0 - 1e-8
    # named instances: the 2-pairs and half-pairs of the triangle at pi/3, the
    # plus pair of the 4-clique at pi/4, all reproduced exactly
    y, tau = pw.complete_graph_pst(3, np.array([1.0, 0.0, 2.0]))
    assert tau == pytest.approx(math.pi / 3, rel=1e-12)
    assert same_state(y, np.array([1.0, 2.0, 0.0]))
    y, tau = pw.complete_graph_pst(3, np.array([1.0, 0.0, 0.5]))
    assert tau == pytest.approx(math.pi / 3, rel=1e-12)
    assert same_state(y, np.array([0.0, 1.0, 0.5]))
    y, tau = pw.complete_graph_pst(4, basis_state(4, 0, 2))
    assert tau == pytest.approx(math.pi / 4, rel=1e-12)
    assert same_state(y, basis_state(4, 1, 3))
    _passline(1, "complete graphs")


def test_criterion_02_cycles():
    # the plus pair on eight vertices and the triple pair on twelve
    for n, x, y in [
        (8, basis_state(8, 0, 4), basis_state(8, 2, 6)),
        (12, basis_state(12, 0, 4, 8), basis_state(12, 2, 6, 10)),
    ]:
        dec = decompose_graph(pw.build_cycle(n))
        check = pw.verify_pst_numeric(dec, x, y, math.pi / 2)
        assert check.fidelity >= 1.0 - 1e-8
        verdict = pw.pst_decide(dec, x, y)
        assert verdict.decision and verdict.tau_min == pytest.approx(math.pi / 2, rel=1e-12)

    # family classification versus the engine over 200 states per size
    for n in range(3, 17):
        dec = decompose_graph(pw.build_cycle(n))
        cases = pw.cycle_pst_families(n)
        states = []
        for case in cases:
            states += [case.sample(RNG, min_coef=0.15).x for _ in range(8)]
        while len(states) < 120:
            size = int(RNG.integers(2, dec.k + 1))
            positions = sorted(RNG.choice(dec.k, size=size, replace=False).tolist())
            states.append(random_support_state(RNG, dec, positions, min_coef=0.15))
        while len(states) < 200:
            states.append(unit(RNG.normal(size=n)))
        for x in states:
            prof = pw.support(dec, x)
            if prof.kind == "fixed":
                continue
            partner = pw.pst_partner(dec, x)
            match = pw.cycle_family_match(n, x)
            if prof.size == 2:
                assert partner is not None
                continue
            if match is not None:
                assert partner is not None
                assert same_state(match.y, partner, tol=1e-6)
                verdict = pw.pst_decide(dec, x, partner)
                assert verdict.tau_min == pytest.approx(match.tau, rel=1e-9)
            else:
                form = pw.classify_form(pw.ratio_condition(prof.eigenvalues))
                if form is not None and form.variant in ("integer", "quadratic"):
                    assert partner is None
    _passline(2, "cycles")


def test_criterion_03_paths_adjacency():
    pair_expect = {
        3: ({frozenset({(0, 1), (1, 2)})}, math.pi / math.sqrt(2.0)),
        5: ({frozenset({(0, 4), (1, 3)})}, math.pi / 2.0),
        7: ({frozenset({(0, 6), (2, 4)})}, math.pi / math.sqrt(2.0)),
    }
    for n in range(2, 13):
        cat = pw.pair_plus_catalog("path", pw.ADJACENCY, n)
        pairs = {
            frozenset({(e.u, e.v), (e.partner_u, e.partner_v)}): e.tau
            for e in cat if e.s == -1 and e.partner_s == -1
        }
        plus = {
            frozenset({(e.u, e.v), (e.partner_u, e.partner_v)}): e.tau
            for e in cat if e.s == 1 and e.partner_s == 1
        }
        if n in pair_expect:
            want, tau = pair_expect[n]
            assert set(pairs) == want, f"path pair catalog mismatch at n={n}"
            assert all(t == pytest.approx(tau, rel=1e-9) for t in pairs.values())
        else:
            assert not pairs, f"unexpected pair transfer in the {n}-path"
        if n == 3:
            assert set(plus) == {frozenset({(0, 1), (1, 2)})}
            assert all(t == pytest.approx(math.pi / math.sqrt(2.0), rel=1e-9)
                       for t in plus.values())
        else:
            assert not plus, f"unexpected plus transfer in the {n}-path"
    _passline(3, "paths, adjacency catalogs")


def test_criterion_04_paths_laplacian():
    pair_sizes, plus_sizes = [], []
    for n in range(2, 11):
        cat = pw.pair_plus_catalog("path", pw.LAPLACIAN, n)
        if any(e.s == -1 and e.partner_s == -1 for e in cat):
            pair_sizes.append(n)
        if any(e.s == 1 and e.partner_s == 1 for e in cat):
            plus_sizes.append(n)
    assert pair_sizes == [3, 4]
    assert plus_sizes == [4]

    r2, r5 = math.sqrt(2.0), math.sqrt(5.0)
    instances = [
        (3, pair_state(3, 0, 1), pair_state(3, 2, 1), math.pi / 2),
        (4, basis_state(4, 0, 3), basis_state(4, 1, 2), math.pi / 2),
        (4, pair_state(4, 0, 1), pair_state(4, 2, 3), math.pi / r2),
        (4, pair_state(4, 1, 2), np.array([1.0, -1.0, 1.0, -1.0]) / r2, math.pi / (2 * r2)),
        (4, pair_state(4, 0, 3), np.array([1.0, 1.0, -1.0, -1.0]) / r2, math.pi / (2 * r2)),
        (5, pair_state(5, 0, 4), np.array([1.0, 2.0, 0.0, -2.0, -1.0]) / r5, math.pi / r5),
        (5, pair_state(5, 1, 3), np.array([2.0, -1.0, 0.0, 1.0, -2.0]) / r5, math.pi / r5),
    ]
    for n, x, y, tau in instances:
        dec = decompose_graph(pw.build_path(n), pw.LAPLACIAN)
        check = pw.verify_pst_numeric(dec, x, y, tau)
        assert check.fidelity >= 1.0 - 1e-8, (n, tau)
        verdict = pw.pst_decide(dec, x, y)
        assert verdict.decision and verdict.tau_min == pytest.approx(tau, rel=1e-9)
    _passline(4, "paths, Laplacian catalogs and instances")


def _bipartite_margin_state(rng, m, n, kind):
    """State with every transfer-supporting component well away from zero."""
    total = m + n
    if kind == pw.ADJACENCY:
        parts = [
            unit(np.concatenate([math.sqrt(n) * np.ones(m), math.sqrt(m) * np.ones(n)])),
            unit(np.concatenate([math.sqrt(n) * np.ones(m), -math.sqrt(m) * np.ones(n)])),
        ]
        kernel = np.zeros(total)
        if m >= 2:
            kernel[:m] = rng.normal(size=m)
            kernel[:m] -= kernel[:m].mean()
        if n >= 2 and (m < 2 or rng.random() < 0.7):
            kernel[m:] = rng.normal(size=n)
            kernel[m:] -= kernel[m:].mean()
        if np.linalg.norm(kernel) < 1e-9:
            return None
        parts.append(unit(kernel))
    else:
        parts = [unit(np.ones(total)),
                 unit(np.concatenate([n * np.ones(m), -m * np.ones(n)]))]
        if m >= 2:
            dev = np.zeros(total)
            dev[:m] = rng.normal(size=m)
            dev[:m] -= dev[:m].mean()
            parts.append(unit(dev))
        if n >= 2:
            dev = np.zeros(total)
            dev[m:] = rng.normal(size=n)
            dev[m:] -= dev[m:].mean()
            parts.append(unit(dev))
        if len(parts) < 3:
            return None
    x = np.zeros(total)
    for p in parts:
        x += float(rng.uniform(0.25, 1.0)) * (1.0 if rng.random() < 0.5 else -1.0) * p
    return x


def test_criterion_05_complete_bipartite():
    for m in range(1, 12):
        for n in range(m, 12):
            if m + n > 12 or m + n < 3:
                continue
            for kind, tau_want in [
                (pw.ADJACENCY, math.pi / math.sqrt(m * n)),
                (pw.LAPLACIAN, math.pi / math.gcd(m, n)),
            ]:
                dec = decompose_graph(pw.build_complete_bipartite(m, n), kind)
                hits = 0
                for _ in range(8):
                    x = _bipartite_margin_state(RNG, m, n, kind)
                    if x is None:
                        continue
                    got = pw.complete_bipartite_pst(m, n, kind, x)
                    if got is None:
                        continue
                    y, tau = got
                    hits += 1
                    assert tau == pytest.approx(tau_want, rel=1e-12)
                    assert pw.verify_pst_numeric(dec, x, y, tau).fidelity >= 1.0 - 1e-8
                    verdict = pw.pst_decide(dec, x, y)
                    assert verdict.decision and verdict.tau_min == pytest.approx(tau, rel=1e-9)
                if kind == pw.ADJACENCY and m + n >= 3:
                    assert hits > 0, (m, n, kind)
                if kind == pw.LAPLACIAN and (m >= 2 or n >= 2):
                    assert hits > 0, (m, n, kind)

    # Laplacian pair catalog: the 4-cycle and the (2, 4k) family
    cat22 = pw.pair_plus_catalog("complete-bipartite", pw.LAPLACIAN, 2, 2)
    pairs22 = {frozenset({(e.u, e.v), (e.partner_u, e.partner_v)})
               for e in cat22 if e.s == -1 and e.partner_s == -1}
    assert pairs22 == {frozenset({(0, 2), (1, 3)}), frozenset({(0, 3), (1, 2)})}
    for k in (1, 2):
        cat = pw.pair_plus_catalog("complete-bipartite", pw.LAPLACIAN, 2, 4 * k)
        entries = [e for e in cat if e.s == -1 and e.partner_s == -1]
        assert entries, f"pair transfers missing in K(2,{4*k})"
        for e in entries:
            # e_u - e_w goes to e_v - e_w: the opposite-part vertex is shared
            assert e.v == e.partner_v and {e.u, e.partner_u} == {0, 1}
            assert e.tau == pytest.approx(math.pi / 2, rel=1e-9)

    # Laplacian plus catalog: the (4, 4k) family for odd k
    for k, expect in [(1, True), (3, True), (2, False)]:
        cat = pw.pair_plus_catalog("complete-bipartite", pw.LAPLACIAN, 4, 4 * k)
        entries = [e for e in cat if e.s == 1 and e.partner_s == 1]
        if not expect:
            assert not entries
            continue
        assert entries
        for e in entries:
            part = range(0, 4) if e.u < 4 else range(4, 4 + 4 * k)
            assert {e.u, e.v, e.partner_u, e.partner_v} <= set(part)
            assert e.tau == pytest.approx(math.pi / 4, rel=1e-9)
        quadruples = {(e.u, e.v, e.partner_u, e.partner_v) for e in entries}
        assert all(len({u, v, a, b}) == 4 for u, v, a, b in quadruples)
    _passline(5, "complete bipartite graphs")


def _random_synthesis_request(rng, n):
    x = rng.normal(size=n)
    y = rng.normal(size=n)
    y *= np.linalg.norm(x) / np.linalg.norm(y)
    while min(np.linalg.norm(x - y), np.linalg.norm(x + y)) < 0.2 * np.linalg.norm(x):
        y = rng.normal(size=n)
        y *= np.linalg.norm(x) / np.linalg.norm(y)
    m1 = int(rng.integers(1, n))
    m2 = int(rng.integers(1, n - m1 + 1))
    tau = float(rng.uniform(0.1, 10.0))
    return pw.SynthesisRequest(x=x, y=y, tau=tau, m1=m1, m2=m2)


def test_criterion_06_synthesis_round_trip():
    for _ in range(100):
        n = int(RNG.integers(2, 13))
        req = _random_synthesis_request(RNG, n)
        dec = pw.decompose(pw.synthesize(req))
        verdict = pw.pst_decide(dec, req.x, req.y)
        assert verdict.decision
        assert verdict.tau_min == pytest.approx(req.tau, rel=1e-9)
        assert len(verdict.sigma_plus) == req.m1
        assert len(verdict.sigma_minus) == req.m2
        assert pw.verify_pst_numeric(dec, req.x, req.y, req.tau).fidelity >= 1.0 - 1e-8
    _passline(6, "synthesis round trip")


def _yes_pair_pool():
    """Representative transfer pairs drawn from the constructions of
    criteria 1 through 6, with margins keeping them numerically robust."""
    pool = []
    for n in (3, 5, 8):
        dec = decompose_graph(pw.build_complete(n))
        for _ in range(3):
            x = _margin_state(RNG, n)
            y, tau = pw.complete_graph_pst(n, x)
            pool.append((dec, x, y, tau))
    pool.append((decompose_graph(pw.build_complete(3)), np.array([1.0, 0.0, 2.0]),
                 np.array([-1.0, -2.0, 0.0]), math.pi / 3))
    pool.append((decompose_graph(pw.build_complete(4)), basis_state(4, 0, 2),
                 basis_state(4, 1, 3), math.pi / 4))
    pool.append((decompose_graph(pw.build_cycle(8)), basis_state(8, 0, 4),
                 basis_state(8, 2, 6), math.pi / 2))
    pool.append((decompose_graph(pw.build_cycle(12)), basis_state(12, 0, 4, 8),
                 basis_state(12, 2, 6, 10), math.pi / 2))
    for n in (8, 12):
        dec = decompose_graph(pw.build_cycle(n))
        for case in pw.cycle_pst_families(n):
            pair = case.sample(RNG, min_coef=0.3)
            pool.append((dec, pair.x, pair.y, pair.tau))
    pool.append((decompose_graph(pw.build_path(7)), pair_state(7, 0, 6),
                 pair_state(7, 2, 4), math.pi / math.sqrt(2.0)))
    pool.append((decompose_graph(pw.build_path(3), pw.LAPLACIAN), pair_state(3, 0, 1),
                 pair_state(3, 2, 1), math.pi / 2))
    pool.append((decompose_graph(pw.build_path(5), pw.LAPLACIAN), pair_state(5, 0, 4),
                 np.array([1.0, 2.0, 0.0, -2.0, -1.0]) / math.sqrt(5.0),
                 math.pi / math.sqrt(5.0)))
    for m, n, kind in [(2, 3, pw.ADJACENCY), (3, 3, pw.LAPLACIAN), (2, 4, pw.LAPLACIAN)]:
        dec = decompose_graph(pw.build_complete_bipartite(m, n), kind)
        for _ in range(2):
            x = _bipartite_margin_state(RNG, m, n, kind)
            got = pw.complete_bipartite_pst(m, n, kind, x)
            if got is None:
                continue
            pool.append((dec, x, got[0], got[1]))
    for _ in range(6):
        n = int(RNG.integers(3, 10))
        req = _random_synthesis_request(RNG, n)
        pool.append((pw.decompose(pw.synthesize(req)), req.x, req.y, req.tau))
    return pool


def test_criterion_07_monogamy_and_minimality():
    pool = _yes_pair_pool()
    assert len(pool) >= 30
    for dec, x, y, tau in pool:
        verdict = pw.pst_decide(dec, x, y)
        assert verdict.decision
        for z in all_partners(dec, x):
            if same_state(z, y):
                continue
            assert not pw.pst_decide(dec, x, z).decision
        assert pw.fidelity(dec, verdict.tau_min / 2.0, x, y) < 1.0 - 1e-4
    _passline(7, "monogamy and minimality")


def test_criterion_08_sensitivity():
    pool = _yes_pair_pool()
    count = 0
    for dec, x, y, tau in pool:
        if count >= 50:
            break
        count += 1
        report = pw.fidelity_derivatives(dec, x, y, tau, k_max=2)
        fd = pw.finite_difference_oracle(dec, unit(x), unit(y), tau, 2, 1e-3)
        assert abs(report.d2 - fd) <= max(1e-4, 1e-3 * abs(report.d2))
        assert 0.0 > report.d2 >= report.bound_lo - 1e-8
    assert count >= 30

    # extreme-eigenvalue two-point pairs attain the bound exactly
    for graph, kind in [(pw.build_cycle(6), pw.ADJACENCY),
                        (pw.build_path(5), pw.LAPLACIAN),
                        (pw.build_petersen(), pw.ADJACENCY)]:
        dec = decompose_graph(graph, kind)
        x, y, tau = pw.universal_pst_pair(dec)
        report = pw.fidelity_derivatives(dec, unit(x), unit(y), tau, k_max=2)
        assert report.d2 == pytest.approx(report.bound_lo, abs=1e-8)

    # the Petersen three-eigenvalue pair lands in [-25/2, 0)
    dec = decompose_graph(pw.build_petersen())
    c = unit(RNG.uniform(0.3, 1.0, size=3) * RNG.choice([-1.0, 1.0], size=3))
    vs = [eigenvector(dec, j) for j in range(3)]
    x = c[0] * vs[0] + c[1] * vs[1] + c[2] * vs[2]
    y = -c[0] * vs[0] - c[1] * vs[1] + c[2] * vs[2]
    report = pw.fidelity_derivatives(dec, x, y, math.pi, k_max=2)
    assert -12.5 - 1e-9 <= report.d2 < 0.0
    _passline(8, "readout-time sensitivity")


def test_criterion_09_extremal_times():
    for n in range(4, 11):
        rep = pw.extremal_min_pst_search(n, pw.LAPLACIAN)
        assert rep.verdict.decision
        assert rep.verdict.tau_min == pytest.approx(math.pi / n, rel=1e-12)
    # exhaustive check: no connected graph on up to six vertices has Laplacian
    # spread above n, so no state anywhere beats the 2*pi/n minimum period
    for n in (4, 5, 6):
        rep = pw.extremal_min_pst_search(n, pw.LAPLACIAN, exhaustive=True)
        assert rep.oracle["max_spread"] <= n + 1e-9
        assert rep.oracle["max_spread"] == pytest.approx(float(n), abs=1e-9)
    rep = pw.extremal_min_pst_search(9, pw.ADJACENCY)
    assert abs(rep.verdict.tau_min - math.pi / math.sqrt(97.0)) <= 1e-10
    _passline(9, "extremal transfer times")


def test_criterion_10_property_suites():
    rng = np.random.default_rng(24601)

    # projector algebra
    for n in (6, 10):
        g = random_connected_graph(rng, n, 4)
        dec = decompose_graph(g, pw.LAPLACIAN)
        projectors = [projector(dec, j) for j in range(dec.k)]
        assert np.max(np.abs(np.sum(projectors, axis=0) - np.eye(n))) <= 1e-9
        for j in range(dec.k):
            for l in range(dec.k):
                prod = projectors[j] @ projectors[l]
                want = projectors[j] if j == l else 0.0
                assert np.max(np.abs(prod - want)) <= 1e-9

    # unitarity and complex symmetry of the walk operator
    g = random_connected_graph(rng, 9, 5)
    dec = decompose_graph(g, pw.ADJACENCY)
    for t in rng.uniform(0.0, 10.0, size=5):
        u = pw.transition_matrix(dec, t)
        assert np.max(np.abs(u @ u.conj().T - np.eye(9))) <= 1e-9
        assert np.max(np.abs(u - u.T)) <= 1e-9

    # tensor identity on box products
    g = random_connected_graph(rng, 4, 2)
    h = random_connected_graph(rng, 5, 2)
    dg, dh = decompose_graph(g, pw.ADJACENCY), decompose_graph(h, pw.ADJACENCY)
    dp = decompose_graph(pw.cartesian_product(g, h), pw.ADJACENCY)
    for _ in range(5):
        t = float(rng.uniform(0.0, 8.0))
        x, y = rng.normal(size=4), rng.normal(size=5)
        left = pw.evolve(dp, t, np.kron(x, y))
        right = np.kron(pw.evolve(dg, t, x), pw.evolve(dh, t, y))
        assert np.max(np.abs(left - right)) <= 1e-9

    # join closed form versus the generic operator: twenty triples, first one
    # with a disconnected factor
    triples = [(pw.build_empty(2), pw.build_complete(3), pw.LAPLACIAN)]
    regular = [pw.build_cycle(4), pw.build_complete(3), pw.build_empty(3), pw.build_cycle(5)]
    while len(triples) < 14:
        triples.append((random_connected_graph(rng, int(rng.integers(2, 6)), 2),
                        random_connected_graph(rng, int(rng.integers(2, 6)), 2),
                        pw.LAPLACIAN))
    while len(triples) < 20:
        i, j = rng.integers(0, len(regular), size=2)
        triples.append((regular[int(i)], regular[int(j)], pw.ADJACENCY))
    for g, h, kind in triples:
        t = float(rng.uniform(0.0, 7.0))
        u = pw.join_transition_matrix(g, h, kind, t)
        dj = decompose_graph(pw.join(g, h), kind)
        assert np.max(np.abs(u - pw.transition_matrix(dj, t))) <= 1e-8

    # covering-radius bound on 200 random nonnegative states
    checked = 0
    while checked < 200:
        n = int(rng.integers(4, 17))
        graph = random_tree(rng, n) if checked % 2 == 0 else pw.build_cycle(max(3, n))
        dec = decompose_graph(graph, pw.ADJACENCY)
        x = np.zeros(graph.n)
        size = int(rng.integers(1, graph.n))
        chosen = rng.choice(graph.n, size=size, replace=False)
        x[chosen] = rng.uniform(0.2, 1.0, size=size)
        prof = pw.support(dec, x)
        if prof.kind == "fixed":
            continue
        assert prof.size >= pw.covering_radius(graph, x) + 1
        checked += 1

    # strong cospectrality forces equal moments up to order ten
    produced = 0
    while produced < 100:
        n = int(rng.integers(4, 10))
        g = random_connected_graph(rng, n, 3)
        dec = decompose_graph(g, pw.ADJACENCY)
        x = rng.normal(size=n)
        for y in all_partners(dec, x)[:10]:
            mom = moments(dec, np.column_stack((x, y)), 10)
            assert np.max(np.abs(mom[:, 0] - mom[:, 1])) <= 1e-8
            produced += 1
    _passline(10, "property suites")


def test_criterion_11_exclusions_documented():
    """Asymptotic spread optimality (the unknown threshold size) and the
    finiteness-of-periodic-graphs statement are proofs, not operations: the
    first is covered by the per-size generator plus verification in criterion
    9, the second by the covering-radius bound property in criterion 10. The
    generator labels its adjacency optimality claim as asymptotic."""
    rep = pw.extremal_min_pst_search(7, pw.ADJACENCY)
    assert "asymptotic" in rep.optimality
    assert "unverified" in rep.optimality
    _passline(11, "exclusions documented")
