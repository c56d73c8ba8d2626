import math

import numpy as np
import pytest

import pstwalk as pw
from conftest import basis_state
from pstwalk.periodicity import NonPeriodic, RatioTable


def _support_of(graph, kind, x):
    dec = pw.decompose(pw.hamiltonian(graph, kind))
    return dec, pw.support(dec, x)


def test_ratio_condition_c4_vertex():
    dec, prof = _support_of(pw.build_cycle(4), pw.ADJACENCY, basis_state(4, 0))
    table = pw.ratio_condition(prof.eigenvalues)
    assert isinstance(table, RatioTable)
    assert table.p == (2,)
    assert table.q == (1,)


def test_ratio_condition_c5_vertex_not_periodic():
    dec, prof = _support_of(pw.build_cycle(5), pw.ADJACENCY, basis_state(5, 0))
    verdict = pw.ratio_condition(prof.eigenvalues)
    assert isinstance(verdict, NonPeriodic)
    # the offending ratio is the squared golden ratio
    assert verdict.ratio == pytest.approx((3.0 + math.sqrt(5.0)) / 2.0, abs=1e-9)


def test_ratio_condition_two_eigenvalues_trivial():
    table = pw.ratio_condition(np.array([1.3, -0.4]))
    assert isinstance(table, RatioTable)
    assert table.p == ()
    assert table.lcm == 1


def test_minimum_period():
    table = pw.ratio_condition(np.array([5.0, 1.0]))
    assert table.period == pytest.approx(2.0 * math.pi / 4.0)

    # vertex state on the 4-cycle: period pi, confirmed by the evolution itself
    dec, prof = _support_of(pw.build_cycle(4), pw.ADJACENCY, basis_state(4, 0))
    table = pw.ratio_condition(prof.eigenvalues)
    rho = table.period
    assert rho == pytest.approx(math.pi, abs=1e-12)
    z = pw.evolve(dec, rho, basis_state(4, 0))
    gamma = z[0] / abs(z[0])
    assert np.max(np.abs(z - gamma * basis_state(4, 0))) <= 1e-9

    # complete graph support {n-1, -1}: period 2 pi / n
    for n in (3, 5, 8):
        sup = np.array([float(n - 1), -1.0])
        assert pw.ratio_condition(sup).period == pytest.approx(2.0 * math.pi / n)


def test_phase_alignment_invariant(rng):
    # whenever a period is produced, all support phases align there, and no
    # small fraction of it already aligns
    for graph, kind, x in [
        (pw.build_cycle(4), pw.ADJACENCY, basis_state(4, 0)),
        (pw.build_path(3), pw.LAPLACIAN, np.array([1.0, 1.0, 0.0])),
        (pw.build_cycle(8), pw.ADJACENCY, basis_state(8, 0, 4)),
    ]:
        dec, prof = _support_of(graph, kind, x)
        table = pw.ratio_condition(prof.eigenvalues)
        assert isinstance(table, RatioTable)
        rho = table.period
        phases = np.exp(1j * rho * prof.eigenvalues)
        assert np.max(np.abs(phases - phases[0])) <= 1e-7
        for divisor in (2, 3, 5, 7):
            sub = np.exp(1j * (rho / divisor) * prof.eigenvalues)
            assert np.max(np.abs(sub - sub[0])) > 1e-7


def test_minimum_period_overflow_guard():
    table = RatioTable(2.0, 1.0, p=(3, 5), q=(2**62, 2**62 - 1), residuals=(0.0, 0.0))
    with pytest.raises(OverflowError):
        table.period
    with pytest.raises(pw.InvalidStateError):
        pw.ratio_condition(np.array([1.0]))


def test_classify_form_integer():
    form = pw.classify_form(pw.ratio_condition(np.array([2.0, 1.0, -1.0, -2.0])))
    assert form.variant == "integer"
    assert form.delta == 1
    assert form.g == 1


def test_classify_form_quadratic():
    form = pw.classify_form(pw.ratio_condition(np.array([math.sqrt(2.0), 0.0, -math.sqrt(2.0)])))
    assert form.variant == "quadratic"
    assert form.a == 0
    assert form.delta == 2
    assert form.b == (2, 0, -2)
    # representation check: (0 + 2 sqrt(2)) / 2 = sqrt(2)
    assert (form.a + form.b[0] * math.sqrt(form.delta)) / 2.0 == pytest.approx(math.sqrt(2.0))
    assert form.g == 1


def test_classify_form_golden_ratio_rejected():
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    form = pw.classify_form(pw.ratio_condition(np.array([phi, 1.0, -1.0 / phi])))
    assert form.variant == "nonperiodic"


def test_closed_form_period_consistency():
    for sup in [
        np.array([2.0, 0.0, -2.0]),
        np.array([math.sqrt(2.0), 0.0, -math.sqrt(2.0)]),
        np.array([2.0 + math.sqrt(3.0), 2.0, 2.0 - math.sqrt(3.0)]),
        np.array([3.0, 1.0, 0.0]),
    ]:
        table = pw.ratio_condition(sup)
        assert isinstance(table, RatioTable)
        rho = table.period
        form = pw.classify_form(table)
        closed = pw.closed_form_period(form)
        assert closed == pytest.approx(rho, rel=1e-9)


def test_spectral_gap_check():
    assert pw.spectral_gap_check(np.array([2.0, 0.0, -2.0]))
    assert not pw.spectral_gap_check(np.array([1.5, 1.0, -1.0]))
    # end vertex of the 4-path: golden-ratio spectrum hits the boundary gap of
    # exactly one, which counts as passing
    dec, prof = _support_of(pw.build_path(4), pw.ADJACENCY, basis_state(4, 0))
    assert prof.size == 4
    assert pw.spectral_gap_check(prof.eigenvalues)


def test_conjugate_closure_detection():
    assert pw.is_conjugate_closed(np.array([2.0, 1.0, -2.0]))
    assert pw.is_conjugate_closed(np.array([math.sqrt(2.0), 0.0, -math.sqrt(2.0)]))
    # a lone member of a conjugate pair is not closed
    assert not pw.is_conjugate_closed(np.array([2.0, math.sqrt(2.0), 0.0]))


def test_covering_radius_bound_check():
    star = pw.hamiltonian(pw.build_complete_bipartite(1, 3), pw.ADJACENCY)
    # sum of center and one leaf: support size 2, radius at most 1
    rep = pw.covering_radius_bound_check(star, np.array([1.0, 1.0, 1.0, 1.0]))
    assert rep.support_size >= 2
    if rep.support_size == 2:
        assert rep.bound == 1.0 and rep.satisfied

    c6 = pw.hamiltonian(pw.build_cycle(6), pw.ADJACENCY)
    rep = pw.covering_radius_bound_check(c6, basis_state(6, 0))
    assert rep.radius == 3.0
    assert rep.max_row_sum == 2.0
    assert rep.bound == 4.0 and rep.satisfied

    rep = pw.covering_radius_bound_check(c6, np.ones(6))
    assert rep.radius == 0.0

    with pytest.raises(pw.NotApplicableError):
        pw.covering_radius_bound_check(c6, np.array([1.0, -1.0, 0, 0, 0, 0]))

    # Laplacian route goes through the reflected nonnegative matrix
    lap = pw.hamiltonian(pw.build_path(4), pw.LAPLACIAN)
    rep = pw.covering_radius_bound_check(lap, np.array([1.0, 0.0, 0.0, 0.0]))
    assert rep.radius == 3.0
    assert rep.support_size >= rep.radius + 1


def test_star_two_eigenvalue_state_bound():
    # center vertex of a star: support is the plus/minus sqrt(3) pair, so the
    # covering radius obeys the two-eigenvalue bound of one
    ham = pw.hamiltonian(pw.build_complete_bipartite(1, 3), pw.ADJACENCY)
    rep = pw.covering_radius_bound_check(ham, basis_state(4, 0))
    assert rep.support_size == 2
    assert rep.bound == 1.0
    assert rep.radius == 1.0
    assert rep.satisfied
