"""The route contract of decompose, as one table and the checks every route
shares. ROUTE_OF maps each input to the route of routes.ROUTES that must
take it (and so to its basis class, ROUTE_BASIS), and an input built to
differ from some route's structure in one place, or to sit just below
ROUTE_MIN_N, also to the route that must pass it on. The route files run
assert_matches_eigh on the rows their route takes and assert_declined on
the rows it passes on; test_routes.py runs them on the rows no route file
takes, and checks both sides of the gate."""

from functools import partial
from typing import Callable, NamedTuple

import numpy as np
import pytest

import pstwalk as pw
from pstwalk import spectral
from pstwalk.routes import FourierBasis, JoinBasis, KroneckerBasis, PathBasis
from pstwalk.spectral import DenseBasis
from conftest import NoFFT, heavy_end_edge, heavy_path_ends, route_calls, route_of, seeded_relabel
from oracles import eigh_decompose, expm_transfer, projector

ROUTE_BASIS = {"product": KroneckerBasis, "circulant": FourierBasis, "path": PathBasis, "join": JoinBasis,
               "eigh": DenseBasis}
DENSE_ROUTES = ("eigh",)  # the routes that read a Hamiltonian's matrix
KINDS = (pw.ADJACENCY, pw.LAPLACIAN)
LAP = pw.LAPLACIAN
K2 = pw.build_path(2)


class Row(NamedTuple):
    name: str
    build: Callable  # a fresh Hamiltonian on each call
    route: str       # the route decompose takes it by
    declines: str | None = None  # the route that passes it on
    shifted: bool = False        # 2.5 M + 0.75 I is one of its entries too


def circulant(n, weights):
    """The circulant graph on n vertices with weight w on every pair at
    circular distance d, for each d: w in weights (n/2 pairs at d = n/2)."""
    return pw.make_graph(n, [(i, (i + d) % n, w) for d, w in weights.items()
                             for i in range(n // 2 if 2 * d == n else n)])


def uniform_path(n, w, a, neumann):
    """tridiag(w, a, w) on build_path's labels, with ends a + w (Neumann) or a."""
    diagonal = np.full(n, a)
    diagonal[[0, -1]] = a + w if neumann else a
    return pw.Hamiltonian(pw.CUSTOM, pw.build_path(n), diagonal, np.full(n - 1, w))


def random_weighted():
    """A seeded G(70, 0.1) with weights in [1, 4): triangles and an uneven
    diagonal keep it on eigh."""
    rng = np.random.default_rng(70)
    u, v = np.triu_indices(70, 1)
    keep = rng.random(len(u)) < 0.1
    return pw.make_graph(70, [(a, b, w) for a, b, w in zip(u[keep].tolist(), v[keep].tolist(),
                                                          rng.uniform(1.0, 4.0, keep.sum()).tolist())])


def two_cycles(n):
    """Two disjoint n-cycles, the second on the vertices n..2n - 1."""
    return pw.make_graph(2 * n, [(i + a, (i + 1) % n + a, 1.0) for a in (0, n) for i in range(n)])


def q8_relabelled():
    return seeded_relabel(pw.build_hypercube(8), 8)


def box(*factors):
    """The box product of the factors, left to right, in cartesian_product's
    labelling."""
    out = factors[0]
    for g in factors[1:]:
        out = pw.cartesian_product(out, g)
    return out


P, C = pw.build_path, pw.build_cycle
# the grids and tori the product route takes at q > 2, by name
GRIDS = {"P8xP8": (P(8), P(8)), "C9xC9": (C(9), C(9)), "C16xP8": (C(16), P(8)), "P4xP4xP4": (P(4), P(4), P(4))}


def _reweighted(g, u, v, w):
    """g with the weight of its edge (u, v) set to w."""
    return pw.make_graph(g.n, [(a, b, w if (a, b) == (u, v) else x) for a, b, x in g.edges])


def _ham(g, kind=pw.ADJACENCY):
    return partial(pw.hamiltonian, g, kind)


def _custom(g, diagonal, values):
    return partial(pw.Hamiltonian, pw.CUSTOM, g, np.asarray(diagonal, dtype=float), np.asarray(values, dtype=float))


def _kinds(name, g, route, **fields):
    return [Row(f"{name}-{kind}", _ham(g, kind), route, **fields) for kind in KINDS]


def _taken():
    """The rows each route but eigh takes, and the bipartite patterns, the
    random graph and the edgeless graphs that eigh takes."""
    rows = []
    for name, g in [("C64", pw.build_cycle(64)), ("C65", pw.build_cycle(65)), ("C128", pw.build_cycle(128)),
                    ("C300", pw.build_cycle(300)), ("K64", pw.build_complete(64)),
                    ("K150", pw.build_complete(150)), ("circ97-125", circulant(97, {1: 1.0, 2: 0.5, 5: 2.25})),
                    ("C80-diameters", circulant(80, {1: 1.0, 40: 1.0}))]:
        rows += _kinds(name, g, "circulant", shifted=True)
    for n in (64, 65, 100, 127, 300):
        rows += _kinds(f"P{n}", pw.build_path(n), "path", shifted=True)
    rows += [Row(f"weighted90-{ends}", partial(uniform_path, 90, -0.7, 1.3, ends == "neumann"), "path", shifted=True)
             for ends in ("dirichlet", "neumann")]
    for name, g in ([(f"Q{d}", pw.build_hypercube(d)) for d in range(6, 11)]
                    + [(f"{name}xK2", pw.cartesian_product(g, K2)) for name, g in
                       (("P40", pw.build_path(40)), ("C32", pw.build_cycle(32)), ("C64", pw.build_cycle(64)),
                        ("P64", pw.build_path(64)))]):
        rows += _kinds(name, g, "product", shifted=True)
    for name, factors in GRIDS.items():
        rows += _kinds(name, box(*factors), "product", shifted=True)
    # H = C32 and P40, at q = 32 and 40
    rows += [Row("K2xC32-adjacency", _ham(pw.cartesian_product(K2, C(32))), "product", shifted=True),
             Row("K2xP40-laplacian", _ham(pw.cartesian_product(K2, P(40)), LAP), "product", shifted=True)]
    # H = C128 and P100, at q = 128 and 100, each on a route of its own
    rows += _kinds("K2xC128", pw.cartesian_product(K2, C(128)), "product", shifted=True)
    rows += _kinds("K2xP100", pw.cartesian_product(K2, P(100)), "product", shifted=True)
    empty, cycle, complete = pw.build_empty, pw.build_cycle, pw.build_complete
    for name, g in [("K30,50", pw.build_complete_bipartite(30, 50)),
                    ("K64,64", pw.build_complete_bipartite(64, 64)),
                    ("C40vK100", pw.join(cycle(40), complete(100))),
                    ("Q6vC70", pw.join(pw.build_hypercube(6), cycle(70))),
                    ("C60vC60", pw.join(cycle(60), cycle(60))), ("E40vK30", pw.join(empty(40), complete(30)))]:
        rows += _kinds(name, g, "join", shifted=True)
    rows.append(Row("2C20vC40-laplacian", _ham(pw.join(two_cycles(20), cycle(40)), LAP), "join", shifted=True))
    # bipartite patterns that no structure route takes
    rows += [Row(f"P{n}-heavy-adjacency", _ham(heavy_path_ends(pw.build_path(n))), "eigh")
             for n in (64, 65, 100, 300)]
    rows += [Row("C128-relabelled-laplacian", _ham(seeded_relabel(pw.build_cycle(128), 128), LAP), "eigh"),
             Row("Q8-relabelled-laplacian", _ham(q8_relabelled(), LAP), "eigh"),
             Row("K40,90-e-adjacency", _ham(pw.make_graph(130, pw.build_complete_bipartite(40, 90).edges[1:])),
                 "eigh"),
             *_kinds("random-weighted", random_weighted(), "eigh"),
             Row("edgeless-64", _ham(pw.build_empty(64)), "eigh"),
             Row("edgeless-200", _ham(pw.build_empty(200), LAP), "eigh")]
    return rows


def _gate():
    """Just below ROUTE_MIN_N, each passed on by the route its sibling at
    ROUTE_MIN_N takes, to eigh alone; and K_{32,32}, the join route's input
    at the gate, and with weight 2 on its edge (0, 63), which every route
    passes on to eigh (P64, C64, Q6, P8xP8 and the heavy-ended P64 are rows
    above).
    The P63 Laplacian and the C63 adjacency keep their short names."""
    p63, c63, heavy = pw.build_path(63), pw.build_cycle(63), heavy_path_ends(pw.build_path(63))
    return [
        Row("P63-adjacency", _ham(p63), "eigh", "path"),
        Row("P63", _ham(p63, LAP), "eigh", "path"),
        Row("C63", _ham(c63), "eigh", "circulant"),
        Row("C63-laplacian", _ham(c63, LAP), "eigh", "circulant"),
        *_kinds("K63", pw.build_complete(63), "eigh", declines="circulant"),
        Row("P63-heavy-adjacency", _ham(heavy), "eigh"),
        Row("P63-heavy-laplacian", _ham(heavy, LAP), "eigh"),
        *_kinds("K31,32", pw.build_complete_bipartite(31, 32), "eigh"),
        *_kinds("C31xK2", pw.cartesian_product(pw.build_cycle(31), K2), "eigh", declines="product"),
        *_kinds("K32,32", pw.build_complete_bipartite(32, 32), "join"),
        *_kinds("K32,32", heavy_end_edge(pw.build_complete_bipartite(32, 32)), "eigh"),
    ]


def _circulant_declines():
    """Each differs from a circulant in one place: the cycles and K64 by a
    weight, an edge, a potential or the labels, and the odd cycle C65 and
    K64 by weight 2 on the edge (0, n - 1)."""
    c64 = pw.build_cycle(64)
    potential = np.zeros(64)
    potential[9] = 0.5
    odd = heavy_end_edge(pw.build_cycle(65))
    return [
        Row("C64-one-weight", _custom(c64, np.zeros(64), np.r_[np.ones(5), 1.5, np.ones(58)]), "eigh"),
        Row("C64-chord", _ham(pw.make_graph(64, c64.edges + ((0, 7, 1.0),))), "eigh"),
        Row("C64-one-diameter", _ham(pw.make_graph(64, c64.edges + ((3, 35, 1.0),))), "eigh"),
        Row("C64-relabelled", _ham(seeded_relabel(c64, 64), LAP), "eigh"),
        Row("C64-potential", _custom(c64, potential, c64.w), "eigh"),
        # the empty K2 joined to K62
        Row("K64-minus-an-edge", _ham(pw.make_graph(64, pw.build_complete(64).edges[1:])), "join"),
        Row("odd-cycle", _ham(odd), "eigh"),
        Row("odd-cycle-lap", _ham(odd, LAP), "eigh"),
        Row("complete", _ham(heavy_end_edge(pw.build_complete(64))), "eigh"),
    ]


def _path_declines():
    """Each differs from a uniform path in one place."""
    n = 100
    p100 = pw.build_path(n)
    lap = pw.hamiltonian(p100, LAP)
    potential, signless, ulp = np.zeros(n), np.full(n, 2.0), lap.diagonal.copy()
    potential[0] = 0.5
    signless[[0, -1]] = 1.0
    ulp[[0, -1]] = np.nextafter(1.0, 2.0)
    return [
        Row("P100-relabelled", _ham(seeded_relabel(p100, n), LAP), "eigh"),
        Row("P100-one-weight", _custom(p100, np.zeros(n), np.r_[np.ones(40), 1.5, np.ones(58)]), "eigh"),
        Row("P100-one-end-potential", _custom(p100, potential, p100.w), "eigh"),
        Row("P100-signless", _custom(p100, signless, p100.w), "eigh"),
        Row("P100-chord", _ham(pw.make_graph(n, p100.edges + ((10, 30, 1.0),))), "eigh"),
        Row("P100-end-one-ulp-off", _custom(p100, ulp, lap.values), "eigh"),
        Row("path-lap", _ham(heavy_path_ends(pw.build_path(70)), LAP), "eigh"),
    ]


def _twisted(g, a, q):
    """g, a product in v = a q + b, with G's edge (a, a + 1) copied onto the
    columns b -> b + 1, (a q + b, (a + 1) q + b + 1), in place of b -> b:
    shifted along the columns like a copy of G, but off them."""
    cut = {(a * q + b, (a + 1) * q + b) for b in range(q)}
    return pw.make_graph(g.n, [e for e in g.edges if e[:2] not in cut]
                         + [(a * q + b, (a + 1) * q + b + 1, 1.0) for b in range(q)])


def _one_vertex_off(g, v):
    """g's Laplacian with 1 added to the diagonal at vertex v."""
    lap = pw.hamiltonian(g, LAP)
    diagonal = lap.diagonal.copy()
    diagonal[v] += 1.0
    return pw.Hamiltonian(pw.CUSTOM, g, diagonal, lap.values)


def _product_declines():
    """Each off M_G (x) I_q + I_p (x) M_H in v = a q + b, for every divisor
    q of n, by one change: at q = 2 (a K2 factor), and at q = 8 or 9 one
    copy's edge reweighted, one G edge's copies moved one column on, the
    diagonal split off by one on a single vertex, or the labels."""
    q7, c16p8, c9c9 = pw.build_hypercube(7), box(*GRIDS["C16xP8"]), box(*GRIDS["C9xC9"])
    return [
        Row("rung-weight", _ham(_reweighted(pw.build_hypercube(8), 4, 5, 2.0)), "eigh"),
        Row("one-copy-edge", _ham(_reweighted(pw.cartesian_product(pw.build_cycle(32), K2), 0, 2, 2.0)), "eigh"),
        # d(127) - d(126) is 1, every other d(2a + 1) - d(2a) 0
        Row("diagonal-split", _custom(q7, np.r_[np.zeros(127), 1.0], q7.w), "eigh"),
        Row("odd-n", _ham(pw.make_graph(65, pw.build_hypercube(6).edges + ((63, 64, 1.0),))), "eigh"),
        Row("Q8-relabelled", _ham(q8_relabelled()), "eigh"),
        Row("Q5", _ham(pw.build_hypercube(5)), "eigh"),  # below the gate
        # the edge (43, 44) of the copy of P8 on block 5
        Row("C16xP8-one-copy-edge", _ham(_reweighted(c16p8, 43, 44, 2.0)), "eigh"),
        # the edge (8, 16) of the copy of C16 on column 0
        Row("C16xP8-one-G-edge", _ham(_reweighted(c16p8, 8, 16, 2.0)), "eigh"),
        Row("C16xP8-twisted", _ham(_twisted(c16p8, 3, 8)), "eigh"),
        Row("C9xC9-diagonal-split", partial(_one_vertex_off, c9c9, 40), "eigh"),
        Row("P8xP8-relabelled", _ham(seeded_relabel(box(*GRIDS["P8xP8"]), 64)), "eigh"),
        Row("C9xC9-relabelled-laplacian", _ham(seeded_relabel(c9c9, 81), LAP), "eigh"),
    ]


def _join_declines():
    """Each off [[A, cJ], [cJ, B]] in join's labelling by one change: a
    missing or heavier cross edge, an irregular factor's adjacency, or the
    labels; K31,32, below the gate, is a row of _gate."""
    k3050 = pw.build_complete_bipartite(30, 50)
    missing = pw.make_graph(80, k3050.edges[:-1])
    p30c40 = pw.join(pw.build_path(30), pw.build_cycle(40))
    return [
        Row("K30,50-one-cross-edge-missing-adjacency", _ham(missing), "eigh"),
        Row("K30,50-one-cross-edge-missing-laplacian", _ham(missing, LAP), "eigh"),
        *_kinds("K30,50-one-cross-edge-weight-2", _reweighted(k3050, 10, 45, 2.0), "eigh"),
        Row("P30vC40-adjacency", _ham(p30c40), "eigh"),
        Row("K40,60-relabelled-adjacency", _ham(seeded_relabel(pw.build_complete_bipartite(40, 60), 100)), "eigh"),
    ]


def _declines(route, rows):
    return [row._replace(declines=route) for row in rows]


ROUTE_OF = (_taken() + _gate() + _declines("circulant", _circulant_declines())
            + _declines("path", _path_declines())
            + _declines("product", _product_declines())
            + _declines("join", _join_declines()))


def rows(route=None, declines=None):
    """The rows of ROUTE_OF that the route takes, or that declines passes on
    (declines=False: that no route passes on)."""
    return [row for row in ROUTE_OF if (route is None or row.route == route)
            and (declines is None or row.declines == (declines or None))]


def row(route, name):
    """The row of that name among those the route takes."""
    return next(r for r in ROUTE_OF if (r.route, r.name) == (route, name))


def assert_agrees(got, want, m, ulps=None, proj_atol=1e-12, ortho_atol=1e-12):
    """got, a decomposition of the matrix m, gives what eigh's want gives:
    the same multiplicities, offsets, scale and warnings, eigenvalues to
    ulps units of np.spacing(scale) (default 1e-12 * scale) and each
    cluster's projector to proj_atol; its V is orthonormal, and
    M V = V Lambda, to ortho_atol (times the scale)."""
    assert got.multiplicities == want.multiplicities
    assert np.array_equal(got.offsets, want.offsets)
    assert got.scale == want.scale
    assert got.warnings == want.warnings
    atol = 1e-12 * want.scale if ulps is None else ulps * np.spacing(got.scale)
    np.testing.assert_allclose(got.eigenvalues, want.eigenvalues, rtol=0, atol=atol)
    for j in range(want.k):
        np.testing.assert_allclose(projector(got, j), projector(want, j), rtol=0, atol=proj_atol)
    v = got.basis.dense()
    np.testing.assert_allclose(v.T @ v, np.eye(got.n), rtol=0, atol=ortho_atol)
    mat = np.asarray(m.matrix if isinstance(m, pw.Hamiltonian) else m)
    np.testing.assert_allclose(mat @ v, v * np.repeat(got.eigenvalues, got.multiplicities), rtol=0,
                               atol=ortho_atol * got.scale)


def assert_widths(dec):
    """Each cluster's width is read-only, 0 for a singleton and at most its
    links, multiplicity - 1, times the clustering threshold."""
    widths, counts = dec.widths, np.array(dec.multiplicities)
    assert widths.shape == (dec.k,) and not widths.flags.writeable
    assert (widths >= 0).all() and not widths[counts == 1].any()
    assert (widths <= (counts - 1) * pw.DEFAULT_TOLERANCES.tol_group * dec.scale).all()


def _assert_route(m, calls, dec, route, basis=None):
    """The route took m, as dec.route records, dec has its basis class (or
    basis) and its cluster widths (assert_widths), and a Hamiltonian m has
    built its matrix exactly when the route reads the dense M (eigh): m
    must not have built it before decompose."""
    assert route_of(calls) == dec.route == route and isinstance(dec.basis, basis or ROUTE_BASIS[route])
    assert_widths(dec)
    if isinstance(m, pw.Hamiltonian):
        assert ("matrix" in vars(m)) == (route in DENSE_ROUTES)


def assert_matches_eigh(monkeypatch, m, route, want=None, basis=None, **tolerances):
    """decompose(m) is taken by the route (_assert_route, with basis), and
    agrees (assert_agrees) with eigh's decomposition of m, want if given.
    Returns both."""
    got, calls = route_calls(monkeypatch, m)
    _assert_route(m, calls, got, route, basis)
    want = eigh_decompose(m) if want is None else want
    assert_agrees(got, want, m, **tolerances)
    return got, want


def assert_transfer(monkeypatch, dec, ref, ham, x):
    """x has a partner y on the route's decomposition dec, found, decided yes
    and verified with V never built; the partner and the verdict are those
    of eigh's decomposition ref, and the transfer holds under scipy's expm.
    Returns the verdict."""
    with monkeypatch.context() as patch:
        patch.setattr(type(dec.basis), "dense", lambda self: pytest.fail("vectors materialised"))
        y = pw.pst_partner(dec, x)
        verdict = pw.pst_decide(dec, x, y)
        check = pw.verify_pst_numeric(dec, x, y, verdict.tau_min)
    want = pw.pst_decide(ref, x, y)
    np.testing.assert_allclose(y, pw.pst_partner(ref, x), rtol=0, atol=1e-9)
    assert verdict.decision and check.passed
    assert (verdict.case, verdict.tau_symbolic) == (want.case, want.tau_symbolic)
    assert verdict.tau_min == pytest.approx(want.tau_min, rel=1e-12)
    assert expm_transfer(ham.matrix, x, y, verdict.tau_min) == pytest.approx(1.0, abs=1e-9)
    return verdict


def assert_declined(monkeypatch, m, route, taker):
    """decompose(m) calls the route and it declines m (below ROUTE_MIN_N,
    or with no edges, only eigh is called), with no np.fft reached; the
    route taker takes m (_assert_route) and gives eigh's multiplicities and
    eigenvalues to 1e-12 * scale. Returns the decomposition and eigh's."""
    with monkeypatch.context() as patch:
        patch.setattr(np, "fft", NoFFT())
        dec, calls = route_calls(monkeypatch, m)
    _assert_route(m, calls, dec, taker)
    form = spectral._edge_form(m)
    if form.n >= spectral.ROUTE_MIN_N and len(form.src):
        assert (route, False) in calls and (route, True) not in calls
    else:  # below the gate, or no edges: eigh alone
        assert calls == [("eigh", True)]
    ref = eigh_decompose(m)
    assert dec.multiplicities == ref.multiplicities
    np.testing.assert_allclose(dec.eigenvalues, ref.eigenvalues, rtol=0, atol=1e-12 * dec.scale)
    return dec, ref
