"""One projection per public call: every stage after decompose reads one
Projection of its states, c = V^T X, formed by its basis's project. A spy
wraps project and lift of the three basis kinds with one depth counter and
counts each public call's top-level project calls (the nested call into a
factored basis's factor is part of one product). A dense V that tracks its
transpose shows that no V^T product is made anywhere else. verify_pst_numeric
works on the record's coefficients alone (no lift), and pst_decide takes its
norms from them (no np.linalg.norm call), as does fidelity_derivatives' pair
rule."""

import dataclasses

import numpy as np
import pytest

import pstwalk as pw
from pstwalk import states
from pstwalk.spectral import BipartiteBasis, DenseBasis, KroneckerBasis
from conftest import pair_state


class _Tracked(np.ndarray):
    """A view of DenseBasis.v that counts the matmuls outside project and
    lift that form a V^T product: its transpose on the left, or V itself on
    the right."""

    transposed = False

    @property
    def T(self):
        view = np.ndarray.T.__get__(self)
        view.transposed = True
        return view

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul and not _Spy.depth:
            left, right = inputs[0], inputs[1]
            if getattr(left, "transposed", False) or isinstance(right, _Tracked):
                _Spy.outside += 1
        plain = [np.asarray(a) if isinstance(a, _Tracked) else a for a in inputs]
        return getattr(ufunc, method)(*plain, **kwargs)


class _Spy:
    depth = 0     # project and lift calls open
    top = 0       # top-level project calls
    outside = 0   # V^T products made outside project and lift
    lifts = []    # the shape of c of each top-level lift


def _wrap(real, seen):
    """real (a basis method) with seen(x) called on its top-level calls."""
    def method(self, x, *args):
        if not _Spy.depth:  # a factored basis projects or lifts again through its factor
            seen(x)
        _Spy.depth += 1
        try:
            return real(self, x, *args)
        finally:
            _Spy.depth -= 1
    return method


def _top_project(x):
    _Spy.top += 1


@pytest.fixture
def spy(monkeypatch):
    for cls in (DenseBasis, BipartiteBasis, KroneckerBasis):
        monkeypatch.setattr(cls, "project", _wrap(cls.project, _top_project))
        monkeypatch.setattr(cls, "lift", _wrap(cls.lift, lambda c: _Spy.lifts.append(c.shape)))
    _Spy.depth = _Spy.top = _Spy.outside = 0
    _Spy.lifts = []

    def count(call):
        _Spy.top = _Spy.outside = 0
        call()
        return _Spy.top, _Spy.outside

    return count


def _case(name):
    """(dec, x, y, tau): the P7 end pair on a tracked dense basis, or Q8's
    e0 + e1 on the product route's factored one, with its partner and
    transfer time."""
    if name == "P7":
        dec = pw.decompose(pw.hamiltonian(pw.build_path(7), pw.ADJACENCY))
        dec = dataclasses.replace(dec, basis=DenseBasis(dec.basis.v.view(_Tracked)))
        x = pair_state(7, 0, 6)
    else:
        dec = pw.decompose(pw.hamiltonian(pw.build_hypercube(8), pw.ADJACENCY))
        assert isinstance(dec.basis, KroneckerBasis)
        x = pair_state(256, 0, 1, 1.0)
    y = pw.pst_partner(dec, x)
    verdict = pw.pst_decide(dec, x, y)
    assert verdict.decision
    return dec, x, y, verdict.tau_min


@pytest.mark.parametrize("name", ["P7", "Q8"])
def test_one_projection_per_public_call(spy, name):
    dec, x, y, tau = _case(name)
    X = np.column_stack((x, y, np.eye(dec.n)[2]))
    calls = {
        "pst_decide": (lambda: pw.pst_decide(dec, x, y), 1),
        "pst_partners": (lambda: pw.pst_partners(dec, X), 1),
        "pst_partner": (lambda: pw.pst_partner(dec, x), 1),
        "fidelity_scan": (lambda: pw.fidelity_scan(dec, x, y, 2.0 * tau, 50), 1),
        "support": (lambda: pw.support(dec, x), 1),
        "support_mask": (lambda: pw.support_mask(dec, X), 1),
        "check_strong_cospectrality": (lambda: pw.check_strong_cospectrality(dec, x, y), 1),
        "verify_pst_numeric": (lambda: pw.verify_pst_numeric(dec, x, y, tau), 1),
        "fidelity": (lambda: pw.fidelity(dec, tau, x, y), 1),
        "fidelity_derivatives": (lambda: pw.fidelity_derivatives(dec, x, y, tau), 1),
    }
    for call_name, (call, limit) in calls.items():
        top, outside = spy(call)
        assert 1 <= top <= limit, call_name
        assert outside == 0, call_name


def test_tracked_basis_sees_a_stray_product(spy):
    """The tracker itself: a V^T x outside project is counted."""
    dec, x, _, _ = _case("P7")
    v = dec.basis.v
    assert spy(lambda: v.T @ x) == (0, 1)
    assert spy(lambda: x @ v) == (0, 1)
    assert spy(lambda: v @ x) == (0, 0)
    assert spy(lambda: dec.basis.project(x[:, None])) == (1, 0)


@pytest.mark.parametrize("name", ["P7", "Q8"])
def test_verify_makes_no_lift(spy, name):
    dec, x, y, tau = _case(name)
    _Spy.lifts.clear()
    assert pw.verify_pst_numeric(dec, x, y, tau).passed
    assert _Spy.lifts == []
    pw.evolve(dec, tau, x)  # the spy sees evolve's one lift, of [Re c, Im c]
    assert _Spy.lifts == [(dec.n, 2)]


@pytest.mark.parametrize("name", ["P7", "Q8"])
def test_decide_makes_no_norm_call(monkeypatch, name):
    dec, x, y, tau = _case(name)
    calls = []
    real_norm = np.linalg.norm

    def norm(*args, **kwargs):
        calls.append(len(args[0]))
        return real_norm(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", norm)
    assert pw.pst_decide(dec, x, y).decision
    assert calls == []
    # the pair rule reads the record's Parseval norms: only _verify's two
    # norms are left, on coefficient vectors
    assert pw.fidelity_derivatives(dec, x, y, tau).bound_ok
    assert calls == [dec.n, dec.n]
    calls.clear()
    states.check_pair(x, y)  # the spy sees the raw-vector rule's four norms
    assert len(calls) == 4
