import math
import warnings

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


@pytest.mark.parametrize("supp", [[math.inf, math.inf], [math.nan, 1.0], [math.inf, 1.0],
                                  [3.0, math.nan, 1.0], [math.inf, 0.0, -1.0],
                                  [5.0, math.inf, math.inf, 1.0]])
def test_ratio_condition_refuses_non_finite_supports(supp):
    # refused before any arithmetic: inf - inf would warn
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(pw.InvalidStateError):
            pw.ratio_condition(supp)


def test_classify_form_integer():
    form = pw.classify_form(pw.ratio_condition(np.array([2.0, 1.0, -1.0, -2.0])))
    assert form.variant == "integer"
    assert form.delta == 1
    assert form.g == 1


@pytest.mark.parametrize("w", [999983, 1000003])
def test_classify_form_integer_past_the_trial_limit(w):
    # the P3 Laplacian with both weights w on [1, 0, 0]: support {3w, w, 0},
    # u = w, so nsq = w**2, whose prime lies below (999983) or above
    # (1000003) squarefree_split's trial division
    ham = pw.hamiltonian(pw.make_graph(3, [(0, 1, float(w)), (1, 2, float(w))]), pw.LAPLACIAN)
    supp = pw.support(pw.decompose(ham), np.array([1.0, 0.0, 0.0])).eigenvalues
    np.testing.assert_allclose(supp, [3.0 * w, w, 0.0], rtol=0, atol=1e-9 * w)
    form = pw.classify_form(pw.ratio_condition(supp))
    assert (form.variant, form.delta, form.g) == ("integer", 1, w)


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
        form = pw.classify_form(table)
        assert form.variant in ("integer", "quadratic")
        assert 2.0 * math.pi / (form.g * math.sqrt(form.delta)) == pytest.approx(table.period, rel=1e-9)


def test_spectral_gap_check():
    # every gap of a closed-form support is at least one (the boundary counts)
    int_tol = pw.DEFAULT_TOLERANCES.int_tol
    form = pw.classify_form(pw.ratio_condition(np.array([2.0, 0.0, -2.0])))
    assert form.variant == "integer"
    assert np.min(-np.diff([2.0, 0.0, -2.0])) >= 1.0 - int_tol
    # a periodic support with a gap of one half has no closed form
    assert pw.classify_form(pw.ratio_condition(np.array([1.5, 1.0, -1.0]))) is None
    assert np.min(-np.diff([1.5, 1.0, -1.0])) < 1.0 - int_tol
    # end vertex of the 4-path: golden-ratio spectrum hits the boundary gap of
    # exactly one, which counts as passing
    dec, prof = _support_of(pw.build_path(4), pw.ADJACENCY, basis_state(4, 0))
    assert prof.size == 4
    assert np.min(-np.diff(prof.eigenvalues)) >= 1.0 - int_tol


def _closed(sup):
    form = pw.classify_form(pw.ratio_condition(np.array(sup)))
    return form is not None and form.variant in ("integer", "quadratic")


def test_conjugate_closure_detection():
    assert _closed([2.0, 1.0, -2.0])
    assert _closed([math.sqrt(2.0), 0.0, -math.sqrt(2.0)])
    # a lone member of a conjugate pair is not closed
    assert not _closed([2.0, math.sqrt(2.0), 0.0])


def test_covering_radius_bound_check():
    # the covering radius of a nonnegative state is at most 1 for two support
    # eigenvalues, and at most twice the largest row sum of the nonnegative
    # matrix for a periodic closed-form support
    star = pw.build_complete_bipartite(1, 3)
    x = np.ones(4)
    dec, prof = _support_of(star, pw.ADJACENCY, x)
    assert prof.size >= 2
    if prof.size == 2:
        assert pw.covering_radius(star, x) <= 1.0

    c6 = pw.build_cycle(6)
    dec, prof = _support_of(c6, pw.ADJACENCY, basis_state(6, 0))
    assert prof.size >= 3 and _closed(prof.eigenvalues)
    row_sum = np.max(pw.hamiltonian(c6, pw.ADJACENCY).matrix.sum(axis=1))
    assert pw.covering_radius(c6, basis_state(6, 0)) == 3.0 <= 2.0 * row_sum
    assert pw.covering_radius(c6, np.ones(6)) == 0.0

    # a Laplacian shares its supports with the nonnegative k*I - L
    p4 = pw.build_path(4)
    dec, prof = _support_of(p4, pw.LAPLACIAN, basis_state(4, 0))
    r = pw.covering_radius(p4, basis_state(4, 0))
    assert r == 3.0
    assert prof.size >= r + 1


def test_star_two_eigenvalue_state_bound():
    # center vertex of a star: support is the plus/minus sqrt(3) pair, so the
    # covering radius obeys the two-eigenvalue bound of one
    star = pw.build_complete_bipartite(1, 3)
    dec, prof = _support_of(star, pw.ADJACENCY, basis_state(4, 0))
    assert prof.size == 2
    assert pw.covering_radius(star, basis_state(4, 0)) == 1.0
