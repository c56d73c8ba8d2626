"""The product route of decompose: a matrix that is exactly
M_G (x) I_q + I_p (x) M_H in cartesian_product's labelling v = a q + b, for
some divisor q of n, from ROUTE_MIN_N on, takes its eigenpairs from its
factors' (routes._product_route), each from the route table and held in
its own basis, as a KroneckerBasis of the two. routes._box_split screens
the divisors on vertices 0 and 1 and tries those that pass from the most
balanced, and routes._box_factors detects the product at one q from the
edge form alone. On route_table.ROUTE_OF's product rows (the inputs of
scripts/decompose_digest.py that take it, Q6-Q10, P40xK2, C32xK2, C64xK2,
P8xP8, C9xC9 and C16xP8, and P64xK2, P4xP4xP4, K2xC32, K2xP40, K2xC128 and
K2xP100, as a Hamiltonian, a raw matrix and shifted and scaled), it must
give what np.linalg.eigh gives: the same multiplicities, eigenvalues to
1e-12 * scale and every cluster projector to 1e-12 (1e-10 where eigh's own
are off by more, PROJ_ATOL). A near product, ROUTE_OF's rows the route
passes on, is refused and decided as by eigh."""

import math
import tracemalloc

import numpy as np
import pytest

import pstwalk as pw
from pstwalk import graphs, routes, spectral
from conftest import (assert_same_outcome, assert_same_verdicts, decomposition_bytes, entries, load_package, outcome,
                      pair_state, relabelled)
from route_table import GRIDS, C, P, assert_declined, assert_matches_eigh, box, row, rows

DIGEST_PRODUCTS = [(r.name, r) for r in rows("product")]
# the rows whose H takes a route of its own, and the basis that route holds H in
H_BASIS = {"K2xC128": routes.FourierBasis, "K2xP100": routes.PathBasis}
# eigh's projectors miss the closed-form ones by 1.4e-12 on the K2 x P100
# Laplacian, whose spectrum 2 - 2 cos(pi k / 100) + {0, 2} has near
# coincidences (the route's by 7e-16): it is held to the join route's 1e-10
PROJ_ATOL = {"K2xP100-laplacian": 1e-10}


@pytest.mark.parametrize("name,r", DIGEST_PRODUCTS, ids=[c[0] for c in DIGEST_PRODUCTS])
def test_product_route_matches_eigh(monkeypatch, name, r):
    """Each entry: the Hamiltonian, its raw matrix (one eigh serves both),
    and 2.5 M + 0.75 I; an H on a route of its own keeps its basis."""
    stem, want = name.rsplit("-", 1)[0], None
    for entry, m in entries(r.build(), r.shifted):
        got, want = assert_matches_eigh(monkeypatch, m, "product", want=want if entry == "raw" else None,
                                        proj_atol=PROJ_ATOL.get(name, 1e-12))
        assert stem not in H_BASIS or isinstance(got.basis.h, H_BASIS[stem])


def _weighted_product(q):
    """A seeded weighted G on 40 vertices with a potential in quarters, times
    a seeded weighted H on q vertices with the potential 0, -1.5, ..., as a
    custom matrix: each d(a q + b) - d(a q) is exactly d(b) - d(0) (an
    inexact split would be no product to the detector, which is exact)."""
    rng = np.random.default_rng(40 + q)

    def weighted(n, pairs):
        m = np.zeros((n, n))
        for a, b in rng.choice(n, (pairs, 2)):
            if a != b:
                m[a, b] = m[b, a] = rng.uniform(-2.0, 2.0)
        return m

    g = weighted(40, 90) + np.diag(rng.integers(-8, 8, 40) / 4.0)
    h = weighted(q, q) + np.diag(-1.5 * np.arange(q))
    h[0, 1] = h[1, 0] = 0.7  # vertex 0's edge in H
    return np.kron(g, np.eye(q)) + np.kron(np.eye(40), h)


def test_weighted_product_with_a_potential(monkeypatch):
    """A signed weighted G with an uneven diagonal, times K2 or a weighted H
    on 5 vertices with an uneven one: the diagonal splits as d(a q) and
    d(a q + b) - d(a q) = -1.5 b."""
    for q in (2, 5):
        mat = _weighted_product(q)
        got, want = assert_matches_eigh(monkeypatch, mat, "product", proj_atol=1e-10)
        assert isinstance(got.basis.g, spectral.DenseBasis) and got.basis.h.n == q
        assert_same_verdicts(got, want, len(mat))
        x = pair_state(len(mat), 0, 1, 1.0)
        np.testing.assert_allclose(pw.evolve(got, 0.8, x), pw.evolve(want, 0.8, x), rtol=0, atol=1e-10)


NEAR_PRODUCTS = rows(declines="product")


@pytest.mark.parametrize("r", NEAR_PRODUCTS, ids=[r.name for r in NEAR_PRODUCTS])
def test_near_products_are_refused(monkeypatch, r):
    """Each is off M_G (x) I_q + I_p (x) M_H in v = a q + b by one change,
    or below the gate: the product route passes it on, and the route after
    it decides it as eigh does."""
    for _, m in entries(r.build(), r.shifted):
        got, want = assert_declined(monkeypatch, m, "product", r.route)
        assert not isinstance(got.basis, routes.KroneckerBasis)
        assert_same_verdicts(got, want, got.n)


# each near product past q = 2, with the product it is one change away from and its q
ONE_CHANGE = [("C16xP8-one-copy-edge", "C16xP8-adjacency", 8), ("C16xP8-one-G-edge", "C16xP8-adjacency", 8),
              ("C16xP8-twisted", "C16xP8-adjacency", 8), ("C9xC9-diagonal-split", "C9xC9-laplacian", 9)]


@pytest.mark.parametrize("near,product,q", ONE_CHANGE, ids=[c[0] for c in ONE_CHANGE])
def test_one_change_fails_the_detector(near, product, q):
    """The change sits past vertices 0 and 1, so the near product reaches
    the full check at its q, which refuses it; the product itself splits
    there into G on n / q vertices and H on q."""
    near_form = spectral._edge_form(next(r for r in NEAR_PRODUCTS if r.name == near).build())
    form = spectral._edge_form(row("product", product).build())
    assert routes._box_factors(near_form, q) is None and routes._box_split(near_form) is None
    g, h = routes._box_factors(form, q)
    assert (g.n, h.n) == (form.n // q, q)
    assert [f.n for f in routes._box_split(form)] == [g.n, h.n]


def _pairs(n, rng):
    """Seeded e_u +- e_v pairs, and each vertex's antipodal pair e_u +- e_{n-1-u}."""
    out = []
    for u in rng.choice(n // 2, 3, replace=False):
        out.append((int(u), n - 1 - int(u), 1.0))
        out.append((int(u), n - 1 - int(u), -1.0))
    for u, v in rng.choice(n, (4, 2), replace=False):
        out.append((int(u), int(v), float(rng.choice([-1.0, 1.0]))))
    return out


RELABELLED = [(r.name, r) for r in rows("product") if r.name.split("-")[0] in GRIDS]


@pytest.mark.parametrize("name,r", RELABELLED, ids=[c[0] for c in RELABELLED])
def test_verdicts_match_the_relabelled_graph(name, r):
    """The route's verdicts on a grid or torus against those on a relabelled
    copy, which the bipartite route or eigh takes: the same partner,
    decision, reason and case, and tau to 1e-12."""
    ham = r.build()
    other, p = relabelled(ham, 5)
    dec, ref = pw.decompose(ham), pw.decompose(other)
    assert dec.route == "product" and ref.route in ("bipartite", "eigh")
    n = ham.n
    for u, v, s in _pairs(n, np.random.default_rng(n)):
        x, y = pair_state(n, u, v, s), pair_state(n, (u + 1) % n, (v + 1) % n, s)
        px, py = np.empty(n), np.empty(n)
        px[p], py[p] = x, y
        assert_same_outcome(outcome(ref, px, py), outcome(dec, x, y), perm=p)


LARGE = [(name, box(*factors), kind) for name, factors in
         (("P45xP45", (P(45), P(45))), ("C41xC41", (C(41), C(41))), ("C32xP40", (C(32), P(40))),
          ("P30xC64", (P(30), C(64)))) for kind in (pw.ADJACENCY, pw.LAPLACIAN)]


@pytest.mark.parametrize("name,g,kind", LARGE, ids=[f"{c[0]}-{c[2]}" for c in LARGE])
def test_large_grids_and_tori(name, g, kind):
    """Grids and tori of 1681 to 2025 vertices take the product route from
    their edge arrays, the matrix never built, with G and H each to its
    own route or eigh: M V c = V Lambda c, the walk from the edges, and
    V^T V c = c on seeded c, to 1e-12 of the scale."""
    ham = pw.hamiltonian(g, kind)
    dec = pw.decompose(ham)
    assert dec.route == "product" and "matrix" not in vars(ham)
    c = np.random.default_rng(g.n).normal(size=(g.n, 3))
    v = dec.basis.lift(c)
    mv = ham.diagonal[:, None] * v
    np.add.at(mv, g.src, ham.values[:, None] * v[g.dst])
    np.add.at(mv, g.dst, ham.values[:, None] * v[g.src])
    lam = np.repeat(dec.eigenvalues, dec.multiplicities)[:, None]
    size = np.linalg.norm(c)
    np.testing.assert_allclose(mv, dec.basis.lift(lam * c), rtol=0, atol=1e-12 * dec.scale * size)
    np.testing.assert_allclose(dec.basis.project(v), c, rtol=0, atol=1e-12 * size)


@pytest.mark.parametrize("kind", [pw.ADJACENCY, pw.LAPLACIAN])
def test_large_h_keeps_its_own_basis(kind):
    """P2 x C2048 splits at q = 2048, with H = C2048 on the circulant route:
    decompose holds H's FourierBasis, with no 2048 x 2048 array of it (32
    MiB) at a traced peak under 4 MiB, and the universal pair is decided
    yes at pi/6."""
    ham = pw.hamiltonian(pw.cartesian_product(P(2), C(2048)), kind)
    load_package()
    tracemalloc.start()
    try:
        dec = pw.decompose(ham)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20
    assert dec.route == "product" and isinstance(dec.basis.h, routes.FourierBasis) and dec.basis.h.n == 2048
    u, v, tau = pw.universal_pst_pair(dec)
    verdict = pw.pst_decide(dec, u, v)
    assert tau == pytest.approx(math.pi / 6, rel=1e-12)
    assert verdict.decision and verdict.tau_min == pytest.approx(tau, rel=1e-12)


def test_factor_past_the_dense_guard(monkeypatch):
    """DENSE_GUARD refuses a graph's dense matrix, not a route's work: with
    it below Q6's factors Q3, which eigh reads, Q6 still decomposes from
    either entry, and a raw matrix off every other route goes to eigh."""
    ham = row("product", "Q6-adjacency").build()
    raw, off_route = entries(ham, False)[1][1], entries(row("eigh", "random-weighted-adjacency").build(), False)[1][1]
    monkeypatch.setattr(graphs, "DENSE_GUARD", 4)
    with pytest.raises(pw.InvalidSizeError):
        pw.hamiltonian(pw.build_hypercube(3), pw.ADJACENCY)
    got, _ = assert_matches_eigh(monkeypatch, raw, "product")
    dec = pw.decompose(ham)
    assert dec.route == "product" and "matrix" not in vars(ham)
    assert decomposition_bytes(dec) == decomposition_bytes(got)
    assert_matches_eigh(monkeypatch, off_route, "eigh")
