"""One transfer rule: RatioTable.flips against the two parity rules it
replaced, the transfer times pst_partners reports, and supports whose
denominator lcm leaves the int64 range."""

import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import pstwalk as pw
from conftest import pair_state
from pstwalk.arith import two_adic_valuation
from pstwalk.periodicity import NonPeriodic, RatioTable
from pstwalk.spectral import Projection


def reference_parity_ok(table, minus, m):
    """The parity check pst_decide made before the flip set existed: with the
    largest support eigenvalue kept positive, position j >= 1 must be in the
    plus class exactly when r_j = lcm * p_j / q_j is even; a two-eigenvalue
    support always passes."""
    if m == 2:
        return True
    plus = set(range(m)) - set(minus)
    if 0 not in plus:
        plus = set(minus)
    q = table.lcm
    for pos in range(1, m):
        p_j, q_j = (1, 1) if pos == 1 else (table.p[pos - 2], table.q[pos - 2])
        r_j = (q // q_j) * p_j
        if (r_j % 2 == 0) != (pos in plus):
            return False
    return True


def reference_flip_positions(table):
    """The 2-adic flip rule pst_partners used before the flip set existed:
    the positions of largest 2-adic valuation of q_j when some q_j is even,
    else those with odd p_j."""
    ps = (0, 1) + table.p
    qs = (1, 1) + table.q
    if any(q % 2 == 0 for q in qs):
        vals = [two_adic_valuation(q) for q in qs]
        eta = max(vals)
        return [pos for pos, v in enumerate(vals) if v == eta]
    return [pos for pos, p in enumerate(ps) if p % 2 == 1]


ratios = st.fractions(min_value=Fraction(1), max_value=Fraction(64), max_denominator=48) \
    .filter(lambda f: f > 1)


@settings(max_examples=200, deadline=None)
@given(st.lists(ratios, max_size=6))
def test_flips_match_both_reference_rules(fracs):
    table = RatioTable(2.0, 1.0, tuple(f.numerator for f in fracs),
                       tuple(f.denominator for f in fracs), (0.0,) * len(fracs))
    m = len(fracs) + 2
    flips = set(table.flips)
    assert flips == set(reference_flip_positions(table))
    assert 0 not in flips and flips
    # every sign partition of the support, as pst_decide canonicalizes it
    for bits in range(1, 2**m - 1):
        minus = {pos for pos in range(m) if bits >> pos & 1}
        canonical = set(range(m)) - minus if 0 in minus else minus
        assert (canonical == flips) == reference_parity_ok(table, minus, m)


def test_flips_at_half_period_negate_the_relative_phase():
    # r_j parity is the sign of exp(i*tau*(lam_1 - lam_j)) at tau = rho / 2
    sup = np.array([4.0, 0.0, -1.0, -2.0])  # ratios 5/4 and 3/2
    table = pw.ratio_condition(sup)
    tau = table.period / 2.0
    signs = np.real(np.exp(1j * tau * (sup[0] - sup)))
    assert np.max(np.abs(np.abs(signs) - 1.0)) <= 1e-12
    assert table.flips == tuple(int(j) for j in np.nonzero(signs < 0)[0]) == (2,)


def test_partner_times_match_pst_decide():
    compared = 0
    for kind in (pw.ADJACENCY, pw.LAPLACIAN):
        for graph in [pw.build_path(n) for n in range(3, 13)] + \
                [pw.build_cycle(n) for n in range(4, 13)]:
            dec = pw.decompose(pw.hamiltonian(graph, kind))
            n = graph.n
            X = np.stack([pair_state(n, u, v, s) for u in range(n) for v in range(u + 1, n)
                          for s in (-1.0, 1.0)], axis=1)
            partners, found, fixed, tau = pw.pst_partners(dec, X)
            assert tau.shape == (X.shape[1],)
            assert np.all(np.isnan(tau[~found])) and np.all(tau[found] > 0)
            for c in np.nonzero(found)[0]:
                verdict = pw.pst_decide(dec, X[:, c], partners[:, c])
                if verdict.decision:
                    assert tau[c] == verdict.tau_min
                    compared += 1
    assert compared >= 150


def test_two_eigenvalue_partner_time_without_cospectral_margin():
    # the partner differs from x by 6e-8 on the second eigenvector, under the
    # 10x tol_supp margin strong cospectrality asks of a pair; the partner
    # pass still reads the time off the ratio table
    v1 = np.array([1.0, 1.0]) / math.sqrt(2.0)
    v2 = np.array([1.0, -1.0]) / math.sqrt(2.0)
    dec = pw.decompose(pw.hamiltonian(pw.build_path(2), pw.ADJACENCY))
    partners, found, fixed, tau = pw.pst_partners(dec, (v1 + 3e-8 * v2)[:, None])
    assert found[0] and not fixed[0] and tau[0] == math.pi / 2.0
    assert np.max(np.abs(partners[:, 0] - (v1 - 3e-8 * v2))) <= 1e-15


def test_end_pair_on_p280_is_not_periodic():
    # the denominator lcm of this support is far beyond any float
    n = 280
    dec = pw.decompose(pw.hamiltonian(pw.build_path(n), pw.ADJACENCY))
    x = pair_state(n, 0, n - 1)
    prof = pw.support(dec, x)
    assert isinstance(pw.ratio_condition(prof.eigenvalues), NonPeriodic)
    assert pw.pst_partner(dec, x) is None
    _, found, fixed, tau = pw.pst_partners(dec, x[:, None])
    assert not found[0] and not fixed[0] and np.isnan(tau[0])
    y = Projection(dec, x[:, None]).reflect([0], [prof.indices[1]])[:, 0]  # x - 2 E_j x
    verdict = pw.pst_decide(dec, x, y)
    assert not verdict.decision and verdict.reason == "not-periodic"


def test_ratio_condition_stops_where_the_lcm_reaches_int64():
    # exact ratios j + 1/q_j over five primes near 10**4: every residual is
    # zero, and the running lcm first reaches 2**63 at the fifth prime
    primes = (9973, 9967, 9949, 9941, 9931)
    assert math.prod(primes[:4]) < 2**63 <= math.prod(primes)
    sup = np.array([0.0, -1.0] + [-(((j + 2) * q + 1) / q) for j, q in enumerate(primes)])
    verdict = pw.ratio_condition(sup)
    assert isinstance(verdict, NonPeriodic)
    assert verdict.offending_index == 6 and verdict.residual == 0.0
    table = pw.ratio_condition(sup[:-1])
    assert isinstance(table, RatioTable) and table.lcm == math.prod(primes[:4])
    assert math.isfinite(table.period)
