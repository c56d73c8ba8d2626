import math
import warnings

import numpy as np
import pytest

import pstwalk as pw
from pstwalk import transfer
from pstwalk.tolerances import CLUSTER_SPREAD
from conftest import basis_state, decompose_graph, pair_state, random_connected_graph, random_support_state, unit
from oracles import all_partners, expm_transfer


def test_decide_k4_plus_pair():
    dec = decompose_graph(pw.build_complete(4))
    verdict = pw.pst_decide(dec, basis_state(4, 0, 2), basis_state(4, 1, 3))
    assert verdict.decision
    assert verdict.tau_min == pytest.approx(math.pi / 4, rel=1e-12)
    assert verdict.tau_symbolic == "pi/4"


def test_decide_p7_pair():
    dec = decompose_graph(pw.build_path(7))
    x = pair_state(7, 0, 6)  # end-vertex difference (labels 1 and 7)
    y = pair_state(7, 2, 4)
    verdict = pw.pst_decide(dec, x, y)
    assert verdict.decision
    assert verdict.tau_min == pytest.approx(math.pi / math.sqrt(2.0), rel=1e-12)
    assert verdict.tau_symbolic == "pi/sqrt(2)"
    assert verdict.case == "2b"


def test_decide_p3_laplacian_plus_refusal():
    dec = decompose_graph(pw.build_path(3), pw.LAPLACIAN)
    x = np.array([1.0, 1.0, 0.0])
    y = np.array([0.0, 1.0, 1.0])
    # strongly cospectral and periodic, but the parity condition fails
    cert = pw.check_strong_cospectrality(dec, x, y)
    assert sorted(np.round(cert.sigma_plus, 9)) == [0.0, 3.0]
    verdict = pw.pst_decide(dec, x, y)
    assert not verdict.decision
    assert verdict.reason == "parity-condition-failed(2b)"


def test_decide_refusal_reasons():
    k3 = decompose_graph(pw.build_complete(3))
    v = pw.pst_decide(k3, np.ones(3), unit(np.array([1.0, -1.0, 0.0])) * math.sqrt(3.0))
    assert not v.decision and v.reason == "fixed-state"
    v = pw.pst_decide(k3, basis_state(3, 0), basis_state(3, 1))
    assert not v.decision and v.reason == "not-cospectral"
    c5 = decompose_graph(pw.build_cycle(5))
    partners = all_partners(c5, basis_state(5, 0))
    v = pw.pst_decide(c5, basis_state(5, 0), partners[0])
    assert not v.decision and v.reason == "not-periodic"
    with pytest.raises(pw.InvalidPairError):
        pw.pst_decide(k3, basis_state(3, 0), 2.0 * basis_state(3, 1))


def _lifted_partners(monkeypatch, dec, X):
    """pst_partners of the columns of X with CLUSTER_SPREAD lifted: every
    periodic column's partner, a wide cluster's too."""
    with monkeypatch.context() as patch:
        patch.setattr(transfer, "CLUSTER_SPREAD", math.inf)
        return pw.pst_partners(dec, X)


def _star_shifted():
    """The star K_{1,4} Laplacian plus 1e8 I."""
    star = pw.hamiltonian(pw.join(pw.build_empty(1), pw.build_empty(4)), pw.LAPLACIAN).matrix
    return star, star + 1e8 * np.eye(5)


def test_wide_cluster_is_refused(monkeypatch):
    """The star K_{1,4} Laplacian plus 1e8 I: its clustering threshold
    tol_group ||M||_inf is about 1, so 1e8 + 0 and 1e8 + 1 merge into one
    cluster of width 1, and e0 - e1, whose transfer time is pi/4, would be
    decided yes at 4 pi/17. The phase spread tau * width, 0.74, refuses it,
    in pst_decide against the partner read with the bound lifted (whose
    expm fidelity at 4 pi/17 is 0.996) and in the partner rule itself,
    which finds no partner; unshifted, the pair is decided yes at pi/4 with
    every width 0."""
    star, shifted = _star_shifted()
    x = pair_state(5, 0, 1)
    dec = pw.decompose(shifted)
    assert dec.widths.max() == pytest.approx(1.0, rel=1e-6)
    partners, found, _, tau = _lifted_partners(monkeypatch, dec, x[:, None])
    assert found[0] and tau[0] == pytest.approx(4 * math.pi / 17, rel=1e-12)
    assert expm_transfer(shifted, x, partners[:, 0], tau[0]) == pytest.approx(0.996, abs=1e-3)
    verdict = pw.pst_decide(dec, x, partners[:, 0])
    assert (verdict.decision, verdict.reason) == (False, "ambiguous-clustering")
    assert verdict.detail == pytest.approx(0.739, abs=1e-3)
    partners, found, fixed, tau = pw.pst_partners(dec, x[:, None])
    assert not found[0] and not fixed[0] and np.isnan(tau[0]) and np.isnan(partners).all()
    assert pw.pst_partner(dec, x) is None
    dec = pw.decompose(star)
    verdict = pw.pst_decide(dec, x, pw.pst_partner(dec, x))
    assert verdict.decision and verdict.tau_symbolic == "pi/4" and not dec.widths.any()


def test_heavy_end_paths_decide_no_false_yes(monkeypatch):
    """P4-P6 with weight W in {1e6, 1e7, 1e8} on the end edge (0, 1), both
    kinds, every pair state e_u +- e_v against its partner (read with
    CLUSTER_SPREAD lifted): where W's roundoff merges eigenvalues 1 apart,
    the verdict is refused, with a phase spread far above CLUSTER_SPREAD,
    and the partner rule refuses the same states, finding no partner; every
    yes transfers under expm (some pairs are refused as
    ambiguous-cospectrality). The refusal is conservative: of the 15 yes
    verdicts it withholds (read with CLUSTER_SPREAD lifted), 11 are false
    (the mixed-weight P6 and x = e2 + e3 among them) and 4 transfer under
    expm (P6 adjacency at W = 1e8, x = e2 +- e5 and e3 +- e4, spread 1.4)."""
    spreads, withheld = [], []
    for n in (4, 5, 6):
        for w in (1e6, 1e7, 1e8):
            g = pw.make_graph(n, [(0, 1, w)] + [(i, i + 1, 1.0) for i in range(1, n - 1)])
            for kind in (pw.ADJACENCY, pw.LAPLACIAN):
                ham = pw.hamiltonian(g, kind)
                dec = pw.decompose(ham)
                for u in range(n):
                    for v in range(u + 1, n):
                        for s in (1.0, -1.0):
                            x = pair_state(n, u, v, s)
                            partners, found, _, _ = _lifted_partners(monkeypatch, dec, x[:, None])
                            if not found[0]:
                                continue
                            verdict = pw.pst_decide(dec, x, partners[:, 0])
                            refused = verdict.reason == "ambiguous-clustering"
                            assert pw.pst_partners(dec, x[:, None])[1][0] == (not refused)
                            if verdict.decision:
                                assert expm_transfer(ham.matrix, x, partners[:, 0], verdict.tau_min) == \
                                    pytest.approx(1.0, abs=1e-6)
                            elif refused:
                                spreads.append(verdict.detail)
                                with monkeypatch.context() as patch:
                                    patch.setattr(transfer, "CLUSTER_SPREAD", math.inf)
                                    lifted = pw.pst_decide(dec, x, partners[:, 0])
                                assert lifted.decision
                                fidelity = expm_transfer(ham.matrix, x, partners[:, 0], lifted.tau_min)
                                withheld.append(fidelity == pytest.approx(1.0, abs=1e-6))
    assert spreads and min(spreads) > 1e3 * CLUSTER_SPREAD
    assert (len(withheld), sum(withheld)) == (15, 4)


def test_heavy_end_p6_partners_are_refused(monkeypatch):
    """The mixed-weight P6 adjacency (weights 1e8, 1, 1, 1, 1): x = e2 + e3
    was given a partner at pi/sqrt(5) whose expm fidelity is 0.76. The
    partner rule refuses exactly the pair states pst_decide refuses as
    ambiguous-clustering, with no partner and no time, in one batch as one
    at a time."""
    g = pw.make_graph(6, [(0, 1, 1e8)] + [(i, i + 1, 1.0) for i in range(1, 5)])
    ham = pw.hamiltonian(g, pw.ADJACENCY)
    dec = pw.decompose(ham)
    X = np.array([pair_state(6, u, v, s) for u in range(6) for v in range(u + 1, 6) for s in (1.0, -1.0)]).T
    lifted, periodic, _, _ = _lifted_partners(monkeypatch, dec, X)
    refused = {c for c in np.flatnonzero(periodic).tolist()
               if pw.pst_decide(dec, X[:, c], lifted[:, c]).reason == "ambiguous-clustering"}
    partners, found, _, tau = pw.pst_partners(dec, X)
    assert set(np.flatnonzero(periodic & ~found).tolist()) == refused
    c23 = next(c for c in range(X.shape[1]) if np.array_equal(X[:, c], pair_state(6, 2, 3, 1.0)))
    assert c23 in refused
    assert expm_transfer(ham.matrix, X[:, c23], lifted[:, c23], math.pi / math.sqrt(5)) == pytest.approx(0.763, abs=1e-3)
    for c in refused:
        assert np.isnan(tau[c]) and np.isnan(partners[:, c]).all()
        assert pw.pst_partner(dec, X[:, c]) is None


def test_partner_constructions():
    # two-eigenvalue support: flip the second component
    k5 = decompose_graph(pw.build_complete(5))
    x = np.array([1.0, 2.0, 0.0, -0.5, 0.3])
    y = pw.pst_partner(k5, x)
    closed_form = x - 2.0 * x.sum() / 5.0 * np.ones(5)
    # same pure state: the constructed partner may differ by a global sign
    assert min(np.linalg.norm(y - closed_form), np.linalg.norm(y + closed_form)) <= 1e-9
    verdict = pw.pst_decide(k5, x, y)
    assert verdict.decision and verdict.tau_min == pytest.approx(math.pi / 5)

    c5 = decompose_graph(pw.build_cycle(5))
    assert pw.pst_partner(c5, basis_state(5, 0)) is None

    with pytest.raises(pw.FixedStateError):
        pw.pst_partner(k5, np.ones(5))


def test_partner_matches_decide_on_families(rng):
    for graph, kind in [
        (pw.build_cycle(4), pw.ADJACENCY),
        (pw.build_cycle(8), pw.ADJACENCY),
        (pw.build_path(5), pw.LAPLACIAN),
        (pw.build_hypercube(3), pw.ADJACENCY),
    ]:
        dec = decompose_graph(graph, kind)
        for _ in range(5):
            m = dec.k
            size = int(rng.integers(2, min(m, 4) + 1))
            positions = sorted(rng.choice(m, size=size, replace=False).tolist())
            x = random_support_state(rng, dec, positions)
            y = pw.pst_partner(dec, x)
            if y is None:
                continue
            verdict = pw.pst_decide(dec, x, y)
            assert verdict.decision
            check = pw.verify_pst_numeric(dec, x, y, verdict.tau_min)
            assert check.passed and check.fidelity >= 1.0 - 1e-10


def test_verify_pst_numeric():
    c8 = decompose_graph(pw.build_cycle(8))
    x, y = basis_state(8, 0, 4), basis_state(8, 2, 6)
    ok = pw.verify_pst_numeric(c8, x, y, math.pi / 2)
    assert ok.passed and ok.fidelity >= 1.0 - 1e-12
    bad = pw.verify_pst_numeric(c8, x, y, math.pi / 3)
    assert not bad.passed and bad.fidelity < 1.0 - 1e-4
    with pytest.raises(pw.InvalidStateError):
        pw.verify_pst_numeric(c8, x, y, 0.0)


def test_phase_consistency():
    c8 = decompose_graph(pw.build_cycle(8))
    x, y = basis_state(8, 0, 4), basis_state(8, 2, 6)
    verdict = pw.pst_decide(c8, x, y)
    check = pw.verify_pst_numeric(c8, x, y, verdict.tau_min)
    assert abs(verdict.phase - check.phase) <= 1e-9
    for lam in verdict.sigma_plus:
        assert abs(verdict.phase - np.exp(1j * verdict.tau_min * lam)) <= 1e-7


def test_closed_form_time_fast_path():
    # conjugate-closed supports: the decision time equals half the closed-form
    # period 2*pi/(g*sqrt(delta)) recovered from the spectral form
    cases = [
        (pw.build_cycle(8), pw.ADJACENCY, basis_state(8, 0, 4), basis_state(8, 2, 6)),
        (pw.build_path(7), pw.ADJACENCY, pair_state(7, 0, 6), pair_state(7, 2, 4)),
        (pw.build_complete_bipartite(2, 4), pw.LAPLACIAN,
         pair_state(6, 0, 2), pair_state(6, 1, 2)),
    ]
    for g, kind, x, y in cases:
        verdict = pw.pst_decide(decompose_graph(g, kind), x, y)
        assert verdict.decision
        form = pw.classify_form(verdict.ratio_table)
        assert form.variant in ("integer", "quadratic")
        closed = 2.0 * math.pi / (form.g * math.sqrt(form.delta))
        assert verdict.tau_min == pytest.approx(closed / 2.0, rel=1e-9)


def test_universal_pairs():
    k2 = decompose_graph(pw.build_path(2))
    x, y, tau = pw.universal_pst_pair(k2)
    assert tau == pytest.approx(math.pi / 2)
    assert pw.pst_decide(k2, x, y).decision

    pet = decompose_graph(pw.build_petersen())
    x, y, tau = pw.universal_pst_pair(pet)
    assert tau == pytest.approx(math.pi / 5)  # spread 3 - (-2)
    assert pw.verify_pst_numeric(pet, x, y, tau).passed

    # Laplacian of a join on n vertices: universal time pi/n
    g = pw.join(pw.build_path(2), pw.build_cycle(3))
    dec = decompose_graph(g, pw.LAPLACIAN)
    x, y, tau = pw.universal_pst_pair(dec)
    assert tau == pytest.approx(math.pi / g.n, rel=1e-12)
    assert pw.pst_decide(dec, x, y).decision

    single = pw.decompose(np.zeros((3, 3)))
    with pytest.raises(pw.InvalidStateError):
        pw.universal_pst_pair(single)


def test_monogamy(rng):
    c8 = decompose_graph(pw.build_cycle(8))
    x = basis_state(8, 0, 4)
    y = pw.pst_partner(c8, x)
    for z in all_partners(c8, x):
        if min(np.linalg.norm(z - y), np.linalg.norm(z + y)) <= 1e-8:
            continue
        assert not pw.pst_decide(c8, x, z).decision


def test_minimality(rng):
    cases = []
    c8 = decompose_graph(pw.build_cycle(8))
    cases.append((c8, basis_state(8, 0, 4), basis_state(8, 2, 6)))
    k4 = decompose_graph(pw.build_complete(4))
    cases.append((k4, basis_state(4, 0, 2), basis_state(4, 1, 3)))
    for dec, x, y in cases:
        verdict = pw.pst_decide(dec, x, y)
        assert verdict.decision
        for frac in (2.0, 3.0):
            assert not pw.verify_pst_numeric(dec, x, y, verdict.tau_min / frac).passed


def test_decision_numeric_agreement(rng):
    graphs = [
        (pw.build_cycle(6), pw.ADJACENCY),
        (pw.build_path(6), pw.LAPLACIAN),
        (pw.build_complete_bipartite(2, 4), pw.LAPLACIAN),
        (random_connected_graph(rng, 8, 5), pw.ADJACENCY),
    ]
    grid = np.linspace(0.05, 20.0, 300)
    for graph, kind in graphs:
        dec = decompose_graph(graph, kind)
        for _ in range(6):
            size = int(rng.integers(2, min(dec.k, 5) + 1))
            positions = sorted(rng.choice(dec.k, size=size, replace=False).tolist())
            x = random_support_state(rng, dec, positions)
            for y in all_partners(dec, x)[:4]:
                verdict = pw.pst_decide(dec, x, y)
                if verdict.decision:
                    assert pw.verify_pst_numeric(dec, x, y, verdict.tau_min).passed
                else:
                    fids = [pw.fidelity(dec, t, x, y) for t in grid]
                    assert max(fids) < 1.0 - 1e-4


def test_extremal_search_laplacian():
    rep = pw.extremal_min_pst_search(6, pw.LAPLACIAN)
    assert rep.tau == pytest.approx(math.pi / 6, rel=1e-12)
    assert rep.tau_symbolic == "pi/6"
    assert rep.verdict.decision
    assert rep.verdict.tau_min == pytest.approx(rep.tau, rel=1e-9)


def test_extremal_search_adjacency():
    rep = pw.extremal_min_pst_search(9, pw.ADJACENCY)
    assert rep.tau == pytest.approx(math.pi / math.sqrt(97.0), abs=1e-12)
    assert rep.tau_symbolic == "pi/sqrt(97)"
    assert rep.verdict.decision
    assert "asymptotic" in rep.optimality

    rep2 = pw.extremal_min_pst_search(2, pw.ADJACENCY)
    assert rep2.tau == pytest.approx(math.pi / 2)
    repl = pw.extremal_min_pst_search(2, pw.LAPLACIAN)
    assert repl.tau == pytest.approx(math.pi / 2)


def test_exhaustive_spread_oracle():
    rep = pw.extremal_min_pst_search(4, pw.LAPLACIAN, exhaustive=True)
    assert rep.oracle["max_spread"] == pytest.approx(4.0, abs=1e-9)
    assert rep.oracle["connected_graphs"] == 38


def test_fidelity_scan():
    c8 = decompose_graph(pw.build_cycle(8))
    x, y = basis_state(8, 0, 4), basis_state(8, 2, 6)
    tau = math.pi / 2
    scan = pw.fidelity_scan(c8, x, y, 2 * tau, 200)
    assert scan.peak_value >= 1.0 - 1e-6
    assert abs(scan.peak_time - tau) <= 0.05

    # fixed state: constant series
    k3 = decompose_graph(pw.build_complete(3))
    scan = pw.fidelity_scan(k3, np.ones(3), np.ones(3), 10.0, 50)
    assert np.max(scan.values) - np.min(scan.values) <= 1e-10

    # no transfer: peak stays visibly below one
    c5 = decompose_graph(pw.build_cycle(5))
    scan = pw.fidelity_scan(c5, basis_state(5, 0), basis_state(5, 1), 50.0, 2000)
    assert scan.peak_value < 1.0 - 1e-3


@pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
def test_non_finite_times_are_refused_without_a_warning(t):
    dec = decompose_graph(pw.build_cycle(8))
    x, y = basis_state(8, 0, 4), basis_state(8, 2, 6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(pw.InvalidStateError, match="tau must be positive and finite"):
            pw.verify_pst_numeric(dec, x, y, t)
        with pytest.raises(pw.InvalidStateError, match="t_max must be finite"):
            pw.fidelity_scan(dec, x, y, t, 10)
    with pytest.raises(pw.InvalidStateError, match="tau must be positive and finite"):
        pw.verify_pst_numeric(dec, x, y, 0.0)
    # a finite window is still scanned, and the transfer time still verified
    assert pw.verify_pst_numeric(dec, x, y, math.pi / 2).passed
    assert pw.fidelity_scan(dec, x, y, 4.0, 10).peak_value == pytest.approx(1.0, abs=1e-9)
