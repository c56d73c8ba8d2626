"""One analysis pipeline: support_mask is the only support rule, the period
is read from the ratio table, check_strong_cospectrality owns the support
and the fixed-state test and returns its refusals as NotCospectral values,
near-tie signs are refused as ambiguous, the
eigenvalue clustering has no scale floor, and one chunked spread oracle
serves both Hamiltonians, reading connectivity from the Laplacian spectrum."""

import ast
import math
import re
import warnings
from collections import Counter
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

import pstwalk as pw
from conftest import basis_state, pair_state, random_connected_graph, random_support_state
from oracles import eigenvector
from pstwalk import serialize
from pstwalk.cli import main
from pstwalk.transfer import _degree_sorted, _spread_classes, _spread_oracle

SRC = Path(__file__).resolve().parent.parent / "src" / "pstwalk"


def _dec(graph, kind=pw.ADJACENCY, scale=1.0):
    return pw.decompose(scale * pw.hamiltonian(graph, kind).matrix)


def test_support_is_the_one_column_case_of_support_mask(rng):
    for n in (4, 7, 10):
        dec = _dec(random_connected_graph(rng, n, extra_edges=3), pw.LAPLACIAN)
        X = rng.normal(size=(n, 6))
        X[:, 0] = eigenvector(dec, 1)  # a fixed state
        X[:, 1] = random_support_state(rng, dec, [0, dec.k - 1])
        mask = pw.support_mask(dec, X)
        assert mask.shape == (dec.k, 6)
        for c in range(6):
            assert pw.support(dec, X[:, c]).indices == tuple(np.nonzero(mask[:, c])[0])
        _, _, fixed, _ = pw.pst_partners(dec, X)
        assert np.array_equal(fixed, mask.sum(axis=0) == 1) and fixed[0]


@pytest.mark.parametrize("column,message", [
    (np.zeros(4), "state must be nonzero"),
    (np.array([1.0, np.nan, 0.0, 0.0]), "state has non-finite entries"),
])
def test_support_refusals_are_shared(column, message):
    dec = _dec(pw.build_path(4))
    X = np.column_stack((np.ones(4), column))
    for call in (lambda: pw.support_mask(dec, X), lambda: pw.pst_partners(dec, X),
                 lambda: pw.support(dec, column)):
        with pytest.raises(pw.InvalidStateError, match=message):
            call()


@pytest.mark.parametrize("peak", [1e200, 1e76, 1e-76, 1e-320])
def test_states_of_unrepresentable_magnitude_are_refused(peak):
    # beyond 1e75 the squared norms of a fidelity overflow, below 1e-75 they
    # underflow; either way the state is refused before any arithmetic
    dec = _dec(pw.build_path(4))
    x = np.array([peak, 0.0, 0.0, -peak])
    y = np.array([0.0, peak, -peak, 0.0])
    message = re.escape("state's largest |entry| must lie in [1e-75, 1e75]")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: pw.support(dec, x), lambda: pw.pst_partners(dec, x[:, None]),
                     lambda: pw.pst_decide(dec, x, y), lambda: pw.verify_pst_numeric(dec, x, y, 1.0),
                     lambda: pw.fidelity_scan(dec, x, y, 1.0, 10)):
            with pytest.raises(pw.InvalidStateError, match=message):
                call()
    # the bounds themselves are representable, and decide as a unit state does
    for scale in (1e75, 1e-75):
        verdict = pw.pst_decide(dec, scale * pair_state(4, 0, 3), scale * pair_state(4, 1, 2))
        assert verdict.decision == pw.pst_decide(dec, pair_state(4, 0, 3), pair_state(4, 1, 2)).decision


def test_empty_support_is_refused_by_every_consumer():
    # a state spread evenly over four clusters has ||E_j x|| = ||x|| / 2, so a
    # support tolerance of 0.6 leaves it no support
    dec = _dec(pw.build_path(4))
    x = dec.basis.dense().sum(axis=1)
    cfg = pw.ToleranceConfig(tol_supp=0.6)
    message = "state has empty eigenvalue support at this tolerance"
    for call in (lambda: pw.support(dec, x, cfg), lambda: pw.pst_partners(dec, x[:, None], cfg),
                 lambda: pw.check_strong_cospectrality(dec, x, -x[::-1], cfg),
                 lambda: pw.pst_decide(dec, x, -x[::-1], cfg)):
        with pytest.raises(pw.InvalidStateError, match=message):
            call()


def test_state_matrix_shape_is_checked():
    dec = _dec(pw.build_path(4))
    for bad in (np.ones(4), np.ones((3, 2))):
        with pytest.raises(pw.InvalidStateError, match=r"state matrix must have shape \(4, b\)"):
            pw.support_mask(dec, bad)


def test_fixed_state_is_refused_before_the_pair_contract():
    dec = _dec(pw.build_complete(5))
    x = np.ones(5)
    y = 2.0 * basis_state(5, 0)  # another norm
    assert pw.check_strong_cospectrality(dec, x, y) == pw.NotCospectral("fixed-state")
    assert pw.pst_decide(dec, x, y).reason == "fixed-state"
    # a non-fixed x against a y of another norm still breaks the pair contract
    with pytest.raises(pw.InvalidPairError):
        pw.check_strong_cospectrality(dec, basis_state(5, 0), y)
    with pytest.raises(pw.InvalidPairError):
        pw.pst_decide(dec, basis_state(5, 0), y)


def test_certificate_carries_the_support_pst_decide_reads():
    dec = _dec(pw.build_path(7))
    x, y = pair_state(7, 0, 6), pair_state(7, 2, 4)
    cert = pw.check_strong_cospectrality(dec, x, y)
    assert cert.profile.indices == pw.support(dec, x).indices
    verdict = pw.pst_decide(dec, x, y)
    assert verdict.decision
    assert verdict.tau_min == pw.ratio_condition(cert.profile.eigenvalues).period / 2.0


def reference_minimum_period(supp, table):
    """The period formula before it moved onto the table: the gap from the
    support, the lcm from the table."""
    vals = np.asarray(supp, dtype=float)
    return 2.0 * math.pi * table.lcm / (vals[0] - vals[1])


def test_period_is_bit_identical_to_the_support_formula(rng):
    supports = [np.array([5.0, 1.0]), np.array([4.0, 0.0, -1.0, -2.0]),
                np.array([2.0 + math.sqrt(3.0), 2.0, 2.0 - math.sqrt(3.0)])]
    for family, kind, n in (("path", pw.ADJACENCY, 7), ("cycle", pw.ADJACENCY, 12),
                            ("path", pw.LAPLACIAN, 12), ("hypercube", pw.LAPLACIAN, 3)):
        graph = {"path": pw.build_path, "cycle": pw.build_cycle,
                 "hypercube": pw.build_hypercube}[family](n)
        dec = _dec(graph, kind)
        for u, v in combinations(range(min(dec.n, 8)), 2):
            prof = pw.support(dec, pair_state(dec.n, u, v))
            if prof.size >= 2:
                supports.append(prof.eigenvalues)
    for _ in range(200):  # random gaps and offsets with rational ratios
        gap, top = rng.uniform(0.1, 10.0), rng.uniform(-5.0, 5.0)
        ratios = [1.0] + sorted(rng.integers(2, 40, size=3) / rng.integers(1, 6, size=3))
        supports.append(top - gap * np.array([0.0] + sorted(set(ratios))))
    periodic = 0
    for sup in supports:
        table = pw.ratio_condition(sup)
        if isinstance(table, pw.RatioTable):
            periodic += 1
            assert table.period == reference_minimum_period(sup, table)
    assert periodic >= 200


P2_V1 = np.array([1.0, 1.0]) / math.sqrt(2.0)
P2_V2 = np.array([1.0, -1.0]) / math.sqrt(2.0)


def test_ambiguous_sign_is_refused_as_ambiguous():
    # partner differs from x by 6e-8 on the eigenvalue -1: the winning
    # residual is 0 and the losing one 6e-8, under ten times the tolerance
    dec = _dec(pw.build_path(2))
    x = P2_V1 + 3e-8 * P2_V2
    y = pw.pst_partner(dec, x)
    assert pw.check_strong_cospectrality(dec, x, y) == pw.NotCospectral("ambiguous-cospectrality", -1.0)
    verdict = pw.pst_decide(dec, x, y)
    assert (verdict.decision, verdict.reason, verdict.detail) == \
        (False, "ambiguous-cospectrality", -1.0)
    assert pw.verify_pst_numeric(dec, x, y, math.pi / 2.0).passed


def test_clear_violation_outranks_an_earlier_ambiguous_sign():
    # P3 eigenvalues sqrt(2), 0, -sqrt(2): x and y nearly tie on sqrt(2)
    # (ambiguous) and differ in magnitude on 0 (a clear violation)
    dec = _dec(pw.build_path(3))
    v = dec.basis.dense()
    x = v @ np.array([3e-8, 0.6, 0.8])
    y = v @ np.array([-3e-8, 0.8, 0.6])
    refusal = pw.check_strong_cospectrality(dec, x, y)
    assert refusal.reason == "not-cospectral"
    assert refusal.eigenvalue == pytest.approx(0.0, abs=1e-12)
    assert pw.pst_decide(dec, x, y).reason == "not-cospectral"
    # so is weight of y on -sqrt(2), outside the support of x
    x = v @ np.array([2e-8, 0.6, 0.0])
    y = v @ np.array([-2e-8, 0.6, 1e-8])
    refusal = pw.check_strong_cospectrality(dec, x, y)
    assert refusal.reason == "not-cospectral"
    assert refusal.eigenvalue == pytest.approx(-math.sqrt(2.0), abs=1e-12)
    y[:] = v @ np.array([-2e-8, 0.6, 0.0])
    assert pw.check_strong_cospectrality(dec, x, y).reason == "ambiguous-cospectrality"


def test_cli_pst_on_the_printed_partner_is_ambiguous(tmp_path, capsys):
    graph = tmp_path / "p2.json"
    graph.write_text(serialize.dumps(serialize.graph_to_doc(pw.build_path(2))))
    x = tmp_path / "x.json"
    x.write_text(serialize.dumps(serialize.state_to_doc(P2_V1 + 3e-8 * P2_V2)))
    y = tmp_path / "y.json"
    assert main(["partner", str(graph), str(x), "--out", str(y)]) == 0
    capsys.readouterr()
    y.write_text(serialize.dumps(serialize.load_json(str(y))["partner"]))
    assert main(["pst", str(graph), str(x), str(y)]) == 0
    out = capsys.readouterr()
    assert '"reason": "ambiguous-cospectrality"' in out.out
    assert out.err.startswith("no (ambiguous-cospectrality)")


SCALES = (1e-9, 1e-6, math.sqrt(2.0), 1e6)


@pytest.mark.parametrize("kind", [pw.ADJACENCY, pw.LAPLACIAN])
def test_scaling_the_matrix_divides_the_transfer_time(kind, rng):
    if kind == pw.ADJACENCY:  # the P7 end pair
        graph, x, y = pw.build_path(7), pair_state(7, 0, 6), pair_state(7, 2, 4)
    else:  # a Laplacian path family pair
        graph = pw.build_path(12)
        pair = pw.path_pst_families(12, pw.LAPLACIAN)[0].sample(rng, min_coef=0.2)
        x, y = pair.x, pair.y
    base = pw.pst_decide(_dec(graph, kind), x, y)
    assert base.decision
    for c in SCALES:
        dec = _dec(graph, kind, c)
        assert dec.k == _dec(graph, kind).k
        verdict = pw.pst_decide(dec, x, y)
        assert (verdict.decision, verdict.case) == (base.decision, base.case)
        assert verdict.tau_min * c == pytest.approx(base.tau_min, rel=1e-9)


def test_zero_matrix_is_one_cluster():
    dec = pw.decompose(np.zeros((4, 4)))
    assert dec.k == 1 and dec.multiplicities == (4,)


def _mask_graph(n, mask):
    pairs = list(combinations(range(n), 2))
    iu = np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs])
    a = np.zeros((n, n))
    a[iu] = [(mask >> k) & 1 for k in range(len(pairs))]
    return a + a.T


def _keep_max(best, attained, spread):
    if spread > best + 1e-9:
        return spread, 1
    if spread > best - 1e-9:
        return best, attained + 1
    return best, attained


def reachability_spread_oracle(n):
    """The Laplacian spread oracle with the reachability test it used first:
    (I + A)^(n-1) has a positive first row iff the graph is connected."""
    best, attained, checked = 0.0, 0, 0
    for mask in range(2 ** (n * (n - 1) // 2)):
        a = _mask_graph(n, mask)
        if np.min(np.linalg.matrix_power(np.eye(n) + a, n - 1)[0]) <= 0:
            continue
        checked += 1
        w = np.linalg.eigvalsh(np.diag(a.sum(axis=1)) - a)
        best, attained = _keep_max(best, attained, float(w[-1] - w[0]))
    return {"n": n, "connected_graphs": checked, "max_spread": best, "attained_count": attained}


def reference_spread_oracle(n, kind):
    """The per-mask oracle the chunked one replaced: one eigvalsh per edge
    mask, connectivity from the Laplacian's second eigenvalue, and a running
    maximum that restarts its count on a spread more than 1e-9 above it."""
    best, attained, checked = 0.0, 0, 0
    for mask in range(2 ** (n * (n - 1) // 2)):
        a = _mask_graph(n, mask)
        w = np.linalg.eigvalsh(np.diag(a.sum(axis=1)) - a)
        if w[1] <= 1e-9:
            continue
        checked += 1
        if kind == pw.ADJACENCY:
            w = np.linalg.eigvalsh(a)
        best, attained = _keep_max(best, attained, float(w[-1] - w[0]))
    return {"n": n, "connected_graphs": checked, "max_spread": best, "attained_count": attained}


def test_spread_oracle_reads_connectivity_from_the_spectrum():
    for n in range(2, 6):
        assert _spread_oracle(n, pw.LAPLACIAN) == reachability_spread_oracle(n)
    # connected labelled graphs on n vertices (OEIS A001187)
    counts = [_spread_oracle(n, pw.LAPLACIAN)["connected_graphs"] for n in range(2, 7)]
    assert counts == [1, 4, 38, 728, 26704]
    with pytest.raises(pw.InvalidSizeError):
        _spread_oracle(1, pw.LAPLACIAN)


@pytest.mark.parametrize("kind", [pw.LAPLACIAN, pw.ADJACENCY])
def test_chunked_spread_oracle_equals_the_per_mask_loop(kind):
    for n in range(2, 7):
        assert _spread_oracle(n, kind) == reference_spread_oracle(n, kind)


def _per_mask_spreads(n, kind, masks):
    spreads = []
    for mask in masks:
        a = _mask_graph(n, int(mask))
        w = np.linalg.eigvalsh(np.diag(a.sum(axis=1)) - a)
        if w[1] <= 1e-9:
            spreads.append(-np.inf)
            continue
        if kind == pw.ADJACENCY:
            w = np.linalg.eigvalsh(a)
        spreads.append(w[-1] - w[0])
    return np.array(spreads)


def _stable_degree_sort(n, mask):
    """The mask re-packed after relabelling its vertices by descending
    degree, ties kept in label order (sorted is stable)."""
    a = _mask_graph(n, mask)
    order = sorted(range(n), key=lambda v: -a[v].sum())
    b = a[np.ix_(order, order)]
    return sum(1 << e for e, (u, v) in enumerate(combinations(range(n), 2)) if b[u, v])


def _key_spreads(n, kind, masks):
    """The spread _spread_classes gives each mask's key, the key found by
    the stable sort above."""
    keys, _, spreads = _spread_classes(n, kind)
    want = [_stable_degree_sort(n, int(mask)) for mask in masks]
    at = np.searchsorted(keys, want)
    assert np.array_equal(keys[at], want)
    return spreads[at]


@pytest.mark.parametrize("kind", [pw.LAPLACIAN, pw.ADJACENCY])
def test_relabelled_spreads_equal_the_per_mask_spectra(kind):
    # a degree-sorted relabelling keeps the spectrum, so the spread shared by
    # a key is each of its masks' own spread up to roundoff
    for n in range(2, 6):
        masks = range(1 << (n * (n - 1) // 2))
        spreads = _key_spreads(n, kind, masks)
        want = _per_mask_spreads(n, kind, masks)
        assert np.array_equal(spreads == -np.inf, want == -np.inf)
        assert np.allclose(spreads, want, rtol=0.0, atol=1e-12)
    masks = np.random.default_rng(6).choice(1 << 15, size=2000, replace=False)
    spreads = _key_spreads(6, kind, masks)
    want = _per_mask_spreads(6, kind, masks)
    assert np.array_equal(spreads == -np.inf, want == -np.inf)
    assert np.allclose(spreads, want, rtol=0.0, atol=1e-12)


def test_degree_sorted_keys_cover_every_isomorphism_class():
    # isomorphic masks may keep distinct keys, but non-isomorphic ones never
    # share one, so there are at least as many keys as graphs on n vertices
    # (OEIS A000088)
    counts = [len(_spread_classes(n, pw.LAPLACIAN)[0]) for n in range(2, 7)]
    assert all(c >= g for c, g in zip(counts, [2, 4, 11, 34, 156]))
    assert counts == [2, 4, 16, 84, 936]


@pytest.mark.parametrize("kind", [pw.LAPLACIAN, pw.ADJACENCY])
def test_key_multiplicities_sum_to_every_mask(kind):
    for n in range(2, 7):
        keys, multiplicity, _ = _spread_classes(n, kind)
        assert multiplicity.sum() == 1 << (n * (n - 1) // 2)
        assert np.all(multiplicity >= 1) and np.all(np.diff(keys) > 0)


def test_key_multiplicities_count_the_masks_sorted_to_each_key():
    # brute force: the stable degree sort of every mask, counted per key
    for n in range(2, 6):
        keys, multiplicity, _ = _spread_classes(n, pw.LAPLACIAN)
        counted = Counter(_stable_degree_sort(n, mask) for mask in range(1 << (n * (n - 1) // 2)))
        assert counted == dict(zip(keys.tolist(), multiplicity.tolist()))


def test_degree_sorted_relabels_as_a_stable_sort():
    # the relabelling that finds the oracle's least attaining mask
    for n in range(2, 6):
        masks = np.arange(1 << (n * (n - 1) // 2))
        assert _degree_sorted(n, masks).tolist() == [_stable_degree_sort(n, int(m)) for m in masks]
    masks = np.random.default_rng(7).choice(1 << 15, size=500, replace=False)
    assert _degree_sorted(6, masks).tolist() == [_stable_degree_sort(6, int(m)) for m in masks]


def test_adjacency_spread_maximum_is_the_split_graph():
    # Breen, Riasanovsky, Tait and Urschel: the spread of the split graph
    # with an empty part of size ceil(n/3) is sqrt(k^2 + 4a(n-a)), k = n-a-1
    oracles = [_spread_oracle(n, pw.ADJACENCY) for n in range(2, 7)]
    for n, oracle in zip(range(2, 7), oracles):
        a = math.ceil(n / 3)
        k = n - a - 1
        assert abs(oracle["max_spread"] - math.sqrt(k * k + 4 * a * (n - a))) <= 1e-12
    expected = [2.0, 3.0, math.sqrt(17), math.sqrt(28), math.sqrt(41)]
    assert [o["max_spread"] for o in oracles] == pytest.approx(expected, abs=1e-12)
    assert [o["connected_graphs"] for o in oracles] == [1, 4, 38, 728, 26704]
    assert [o["attained_count"] for o in oracles] == [1, 1, 6, 10, 15]


@pytest.mark.parametrize("kind", [pw.LAPLACIAN, pw.ADJACENCY])
def test_spread_oracle_refuses_sizes_outside_2_to_6(kind):
    for n in (-1, 0, 1, 7, 8):
        with pytest.raises(pw.InvalidSizeError):
            _spread_oracle(n, kind)
        with pytest.raises(pw.InvalidSizeError):
            pw.extremal_min_pst_search(n, kind, exhaustive=True)


def test_adjacency_exhaustive_search_verifies_the_split_graph():
    for n in range(2, 7):
        plain = pw.extremal_min_pst_search(n, pw.ADJACENCY)
        rep = pw.extremal_min_pst_search(n, pw.ADJACENCY, exhaustive=True)
        assert plain.oracle is None and "unverified at this n" in plain.optimality
        assert rep.oracle == _spread_oracle(n, pw.ADJACENCY)
        assert rep.optimality.startswith("verified at this n")
        assert rep.tau == plain.tau and rep.verdict.decision
        assert abs(rep.oracle["max_spread"] * rep.tau - math.pi) <= 1e-12


def test_subnormal_gap_period_is_a_numeric_failure():
    # P3 with weights 1e-310: 2*pi/gap overflows; every consumer of the
    # period raises instead of reporting an infinite transfer time
    dec = _dec(pw.make_graph(3, [(0, 1, 1e-310), (1, 2, 1e-310)]))
    x, y = basis_state(3, 0), basis_state(3, 2)
    table = pw.ratio_condition(dec.eigenvalues)
    with pytest.raises(pw.NumericFailureError):
        table.period
    with pytest.raises(pw.NumericFailureError):
        pw.pst_decide(dec, x, y)
    with pytest.raises(pw.NumericFailureError):
        pw.pst_partners(dec, np.column_stack((x, y)))
    with pytest.raises(pw.NumericFailureError):
        pw.pst_partner(dec, x)


def test_synthesize_takes_no_tolerance_flags(tmp_path, capsys):
    x = tmp_path / "x.json"
    x.write_text("[1, 0, 0]")
    y = tmp_path / "y.json"
    y.write_text("[0, 0, 1]")
    argv = ["synthesize", str(x), str(y), "--tau", "1", "--m1", "1", "--m2", "1"]
    assert main(argv) == 0
    for flag in ("--tol-group", "--tol-supp", "--tol-phase", "--q-max", "--int-tol"):
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag, "1"])
        assert exc.value.code == 2


def _functions_ignoring_cfg():
    """Library functions that take a `cfg` parameter and never read it."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if "cfg" not in [a.arg for a in node.args.args + node.args.kwonlyargs]:
                continue
            reads = any(isinstance(n, ast.Name) and n.id == "cfg" and isinstance(n.ctx, ast.Load)
                        for stmt in node.body for n in ast.walk(stmt))
            if not reads:
                found.append(f"{path.name}:{node.name}")
    return found


def test_no_function_takes_a_cfg_it_does_not_read():
    assert _functions_ignoring_cfg() == []


def _unused_imports():
    """Module-level imports of src/pstwalk/*.py that their module never reads.
    __init__.py, whose imports are the package's re-exports, and
    `from __future__ import annotations` are exempt."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = []
        for node in tree.body:
            if isinstance(node, ast.Import):
                imported += [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported += [a.asname or a.name for a in node.names]
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found += [f"{path.name}:{name}" for name in imported if name not in read]
    return found


def test_no_module_imports_a_name_it_does_not_read():
    assert _unused_imports() == []
