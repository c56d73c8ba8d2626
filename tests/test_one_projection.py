"""One projection per public call: every stage after decompose reads one
Projection of its states, c = V^T X, formed by its basis's project. A spy
wraps project and lift of the six basis kinds with one depth counter and
counts each public call's top-level project calls (the nested call into a
factored basis's factor is part of one product). A dense V that tracks its
transpose shows that no V^T product is made anywhere else. verify_pst_numeric
works on the record's coefficients alone (no lift), and pst_decide takes its
norms from them (no np.linalg.norm call), as does fidelity_derivatives' pair
rule. Projection.of keeps its last state tuple's projection in one slot on
the decomposition: a repeat projects nothing and reads back the bits of a
fresh projection, another tuple takes the slot, which holds no reference to
the decomposition and starts empty on a dataclasses.replace twin; the op
sequence of one large-graph pair projects twice."""

import dataclasses
import gc
import weakref

import numpy as np
import pytest

import pstwalk as pw
from pstwalk import states
from pstwalk.routes import FourierBasis, JoinBasis, KroneckerBasis, PathBasis
from pstwalk.spectral import DenseBasis, Projection
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
    for cls in (DenseBasis, KroneckerBasis, FourierBasis, PathBasis, JoinBasis):
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
    """On a decomposition that has not seen its states, each public call
    projects once; the same call again projects nothing where it goes
    through Projection.of's slot, and once more where it takes a state
    matrix (pst_partners, support_mask)."""
    dec, x, y, tau = _case(name)
    X = np.column_stack((x, y, np.eye(dec.n)[2]))
    calls = {
        "pst_decide": (lambda d: pw.pst_decide(d, x, y), 0),
        "pst_partners": (lambda d: pw.pst_partners(d, X), 1),
        "pst_partner": (lambda d: pw.pst_partner(d, x), 0),
        "fidelity_scan": (lambda d: pw.fidelity_scan(d, x, y, 2.0 * tau, 50), 0),
        "support": (lambda d: pw.support(d, x), 0),
        "support_mask": (lambda d: pw.support_mask(d, X), 1),
        "check_strong_cospectrality": (lambda d: pw.check_strong_cospectrality(d, x, y), 0),
        "verify_pst_numeric": (lambda d: pw.verify_pst_numeric(d, x, y, tau), 0),
        "fidelity": (lambda d: pw.fidelity(d, tau, x, y), 0),
        "fidelity_derivatives": (lambda d: pw.fidelity_derivatives(d, x, y, tau), 0),
    }
    for call_name, (call, again) in calls.items():
        fresh = dataclasses.replace(dec)  # the same basis, an empty slot
        assert spy(lambda: call(fresh)) == (1, 0), call_name
        assert spy(lambda: call(fresh)) == (again, 0), call_name


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


def _decompositions():
    """(name, dec) over the dense, product, join, path and circulant bases."""
    return [("P7", pw.decompose(pw.hamiltonian(pw.build_path(7), pw.ADJACENCY))),
            ("Q8", pw.decompose(pw.hamiltonian(pw.build_hypercube(8), pw.LAPLACIAN))),
            ("K30vC40", pw.decompose(pw.hamiltonian(pw.join(pw.build_complete(30), pw.build_cycle(40)),
                                                    pw.LAPLACIAN))),
            ("P80", pw.decompose(pw.hamiltonian(pw.build_path(80), pw.ADJACENCY))),
            ("C90", pw.decompose(pw.hamiltonian(pw.build_cycle(90), pw.ADJACENCY)))]


@pytest.mark.parametrize("name,dec", _decompositions(), ids=lambda v: v if isinstance(v, str) else "")
def test_memo_hit_is_a_fresh_projection(spy, name, dec):
    rng = np.random.default_rng(5)
    x, y = rng.normal(size=dec.n), rng.normal(size=dec.n)
    fresh = Projection(dec, np.column_stack((x, y)))
    assert spy(lambda: Projection.of(dec, x, y)) == (1, 0)
    for states in ((x, y), (list(x), y.copy())):  # equal bytes, another container
        top, _ = spy(lambda: Projection.of(dec, *states))
        proj = Projection.of(dec, *states)
        assert top == 0 and proj.dec is dec
        assert proj.coef.tobytes() == fresh.coef.tobytes() and proj.states.tobytes() == fresh.states.tobytes()
        assert not proj.coef.flags.writeable and not proj.states.flags.writeable
    assert spy(lambda: Projection.of(dec, y, x)) == (1, 0)  # another tuple, another key
    assert spy(lambda: Projection.of(dec, x)) == (1, 0)


def test_memo_is_bounded(spy):
    """One slot: the newest tuple is kept, and the one before it projects again."""
    dec = pw.decompose(pw.hamiltonian(pw.build_hypercube(8), pw.ADJACENCY))
    x, y = np.random.default_rng(6).normal(size=(2, dec.n))
    assert spy(lambda: Projection.of(dec, x)) == (1, 0)
    assert spy(lambda: Projection.of(dec, y)) == (1, 0)
    assert dec._projection[0] == y.tobytes()
    assert spy(lambda: Projection.of(dec, y)) == (0, 0)
    assert spy(lambda: Projection.of(dec, x)) == (1, 0)
    assert spy(lambda: Projection.of(dec, y)) == (1, 0)


@pytest.mark.parametrize("name", ["P7", "Q8"])
def test_pair_op_sequence_projects_twice(spy, name):
    """The ops large-graph runs on one pair: pst_partner projects x, and
    pst_decide (x, y), which verify, scan and derivatives read back."""
    dec, x, _, _ = _case(name)
    dec = dataclasses.replace(dec)  # an empty slot

    def sequence():
        y = pw.pst_partner(dec, x)
        tau = pw.pst_decide(dec, x, y).tau_min
        assert pw.verify_pst_numeric(dec, x, y, tau).passed
        pw.fidelity_scan(dec, x, y, 2.0 * tau, 64)
        assert pw.fidelity_derivatives(dec, x, y, tau).bound_ok

    assert spy(sequence) == (2, 0)


@pytest.mark.parametrize("name,dec", _decompositions(), ids=lambda v: v if isinstance(v, str) else "")
def test_pipeline_leaves_no_reference_cycle(name, dec):
    """With the cyclic collector off, a decomposition that ran every stage
    dies on del: the slot holds arrays only."""
    dec = dataclasses.replace(dec)  # the parametrize list keeps the original
    x = pair_state(dec.n, 0, dec.n - 1, 1.0)
    gc.collect()
    gc.disable()
    try:
        y = pw.pst_partner(dec, x)
        y = pair_state(dec.n, 1, 2, 1.0) if y is None else y
        verdict = pw.pst_decide(dec, x, y)
        tau = verdict.tau_min or 1.0
        pw.verify_pst_numeric(dec, x, y, tau)
        pw.fidelity_scan(dec, x, y, 2.0 * tau, 32)
        if verdict.decision:
            pw.fidelity_derivatives(dec, x, y, tau)
        pw.evolve(dec, tau, x), pw.fidelity(dec, tau, x, y), pw.support(dec, x)
        pw.pst_partners(dec, np.column_stack((x, y))), pw.transition_matrix(dec, tau)
        assert dec._projection is not None
        ref = weakref.ref(dec)
        del dec, verdict
        assert ref() is None
    finally:
        gc.enable()


def test_replace_twin_projects_through_its_own_basis(spy):
    dec = pw.decompose(pw.hamiltonian(pw.build_path(7), pw.ADJACENCY))
    x, y = pair_state(7, 0, 6), pair_state(7, 1, 5)
    coef = Projection.of(dec, x, y).coef
    twin = dataclasses.replace(dec, basis=DenseBasis(-dec.basis.v))
    assert twin._projection is None and dec._projection[0] == np.array([x, y]).tobytes()
    assert spy(lambda: Projection.of(twin, x, y)) == (1, 0)
    assert np.array_equal(Projection.of(twin, x, y).coef, -coef)
    assert np.array_equal(Projection.of(dec, x, y).coef, coef)
