"""The bipartite route of decompose: for a matrix cI + [[0, B], [B^T, 0]] on
the parts P, Q of a bipartite pattern, routes._bipartite_eigh forms the
eigenpairs from np.linalg.svd of B. Called directly, so that small n is
covered as well, it must give what np.linalg.eigh gives: the same
multiplicities, eigenvalues to 1e-12 * scale, projectors to 1e-10, and the
same pst_decide and pst_partner verdicts. decompose takes it only from
ROUTE_MIN_N on, for an exactly symmetric matrix with one constant on its
diagonal and a bipartite, not complete bipartite, edge pattern that the
product, circulant and path routes before it pass on: routes._route_parts
decides, from the EdgeForm that decompose's door makes of a Hamiltonian's
edge arrays or of a raw matrix's nonzeros above the diagonal. Both routes
read only that form, so a Hamiltonian on either never builds its dense
matrix."""

import numpy as np
import pytest

import pstwalk as pw
from pstwalk import graphs, routes, spectral
from conftest import (assert_one_form, assert_same_form, assert_same_verdicts, decomposition_bytes, entries,
                      heavy_path_ends, route_calls, seeded_relabel, taken)
from oracles import eigh_decompose, forced_decompose
from route_table import (GRIDS, assert_agrees, assert_declined, box, q8_relabelled, random_weighted, rows,
                         split_labels)

MIN_N = spectral.ROUTE_MIN_N


def _graph_matrix(g, kind):
    return pw.hamiltonian(g, kind).matrix


def _bipartite_eigh(mat, p, q):
    """routes._bipartite_eigh on mat's edge form."""
    return routes._bipartite_eigh(spectral._edge_form(mat), p, q)


def _forced_parts(mat):
    """_route_parts of mat's edge form, at any n."""
    return routes._route_parts(spectral._edge_form(mat))


def _parts(n, p):
    p = np.asarray(p)
    return p, np.setdiff1d(np.arange(n), p)


def _cases():
    """(name, matrix, parts): parts None means the colouring's own parts."""
    cases = []
    for d in (3, 4, 6):
        for kind in (pw.ADJACENCY, pw.LAPLACIAN):
            cases.append((f"Q{d}-{kind}", _graph_matrix(pw.build_hypercube(d), kind), None))
    for n in (7, 8, 65):
        cases.append((f"P{n}", _graph_matrix(pw.build_path(n), pw.ADJACENCY), None))
    for n in (6, 8, 64):
        for kind in (pw.ADJACENCY, pw.LAPLACIAN):
            cases.append((f"C{n}-{kind}", _graph_matrix(pw.build_cycle(n), kind), None))
    # complete bipartite patterns: decompose leaves them to eigh, so their parts are given
    cases.append(("K2,5", _graph_matrix(pw.build_complete_bipartite(2, 5), pw.ADJACENCY), _parts(7, [0, 1])))
    cases.append(("K5,2", _graph_matrix(pw.build_complete_bipartite(5, 2), pw.ADJACENCY),
                  _parts(7, range(5))))
    cases.append(("K3,3-lap", _graph_matrix(pw.build_complete_bipartite(3, 3), pw.LAPLACIAN),
                  _parts(6, range(3))))
    star = pw.make_graph(7, [(0, j) for j in range(1, 7)])
    cases.append(("star7", _graph_matrix(star, pw.ADJACENCY), _parts(7, [0])))
    # P3 + P4 + an isolated vertex, and the edgeless graph
    split = pw.make_graph(8, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6)])
    cases.append(("P3+P4+K1", _graph_matrix(split, pw.ADJACENCY), None))
    cases.append(("edgeless", _graph_matrix(pw.make_graph(5, []), pw.ADJACENCY), None))
    # signed weights on a 6-cycle with a chord across it and a pendant vertex,
    # shifted by 0.75 I: parts of 3 and 4, so c is also the extra eigenvalue
    signed = 0.75 * np.eye(7)
    for u, v, w in ((0, 1, 2.0), (1, 2, -1.0), (2, 3, 0.5), (3, 4, -3.0), (4, 5, 1.5), (5, 0, -0.25),
                    (0, 3, 1.0), (5, 6, -2.0)):
        signed[u, v] = signed[v, u] = w
    cases.append(("signed", signed, None))
    cases.append(("shifted-edgeless", 2.5 * np.eye(4), None))
    # hypercubes as build_hypercube labels them and bipartite G x K2, which
    # decompose leaves to the product route: forced onto this one, an SVD
    for d in (7, 8, 9, 10):
        for kind in (pw.ADJACENCY, pw.LAPLACIAN):
            cases.append((f"Q{d}-{kind}", _graph_matrix(pw.build_hypercube(d), kind), None))
    k2 = pw.build_path(2)
    cases.append(("P40xK2", _graph_matrix(pw.cartesian_product(pw.build_path(40), k2), pw.ADJACENCY), None))
    for kind in (pw.ADJACENCY, pw.LAPLACIAN):
        cases.append((f"C32xK2-{kind}", _graph_matrix(pw.cartesian_product(pw.build_cycle(32), k2), kind),
                      None))
    cases.append(("signed-symmetric-block", _halves(_signed_block(), 0.75), None))
    # an upper triangular block: equal parts, B != B^T, so np.linalg.svd
    cases.append(("asymmetric-block", _halves(np.triu(np.arange(1.0, 37.0).reshape(6, 6)), -1.0), None))
    return cases


def _signed_block():
    """A signed symmetric 32 x 32 block whose spectrum has negative
    eigenvalues and the exact eigenvalue 0: signed weights on the band
    |i - j| in {1, 2} of 0..29 (its triangles tie the two copies of the
    pattern in [[0, B], [B, 0]] together), and leaves 30 and 31 on vertex 29
    with one weight, which make e_30 - e_31 a kernel vector. Seeded so that
    distinct |lambda| lie at least 0.04 apart: a nearly repeated singular
    value leaves the projectors of eigh and of the route alike
    ill-conditioned."""
    rng = np.random.default_rng(6)
    b = np.zeros((32, 32))
    for k, weights in ((1, [-3.0, -2.0, -1.0, 1.0, 2.0, 3.0]), (2, [-2.0, -1.0, 1.0, 2.0])):
        for i in range(30 - k):
            b[i, i + k] = b[i + k, i] = rng.choice(weights)
    b[29, 30] = b[30, 29] = b[29, 31] = b[31, 29] = 2.0
    return b


def _halves(b, c):
    """cI + [[0, B], [B^T, 0]], with parts 0..m-1 and m..2m-1."""
    m = len(b)
    mat = c * np.eye(2 * m)
    mat[:m, m:] = b
    mat[m:, :m] = b.T
    return mat


CASES = _cases()


def _route_decompose(mat, parts):
    """decompose with the route forced at every n on these parts, and the
    routes before it left out."""
    dec = forced_decompose(mat, "bipartite", gate=1, _route_parts=lambda form: parts)
    # a form with no edges goes straight to eigh
    assert isinstance(dec.basis, routes.BipartiteBasis) or not np.triu(mat, 1).any()
    return dec


@pytest.mark.parametrize("name,mat,parts", CASES, ids=[c[0] for c in CASES])
def test_route_matches_eigh(monkeypatch, name, mat, parts):
    if parts is None:
        parts = _forced_parts(mat)
        assert parts is not None
    else:
        assert _forced_parts(mat) is None  # complete bipartite: eigh
    w, _ = _bipartite_eigh(mat, *parts)
    assert np.all(np.diff(w) <= 0)
    got, want = _route_decompose(mat, parts), eigh_decompose(mat)
    assert_agrees(got, want, mat, proj_atol=1e-10)
    assert_same_verdicts(got, want, len(mat))


def _route_calls(monkeypatch, m):
    """How many times decompose(m) took the route."""
    return taken(route_calls(monkeypatch, m)[1], "bipartite")


def _heavy_path(n):
    """The n-path with heavy end edges: off the path route, which takes the
    uniform path."""
    return heavy_path_ends(pw.build_path(n))


def test_route_taken_from_the_crossover_on(monkeypatch):
    # a cycle relabelled off the circulant route
    for build, kind in ((_heavy_path, pw.ADJACENCY), (lambda n: seeded_relabel(pw.build_cycle(n), n), pw.LAPLACIAN)):
        assert _route_calls(monkeypatch, _graph_matrix(build(MIN_N), kind)) == 1
        assert _route_calls(monkeypatch, _graph_matrix(build(MIN_N - 2), kind)) == 0
    assert _route_calls(monkeypatch, _graph_matrix(_heavy_path(MIN_N - 1), pw.ADJACENCY)) == 0
    # a hypercube takes the product route first, one level down, to its halves' eigh; relabelled, this one
    for d in (7, 8, 9, 10):
        assert _route_calls(monkeypatch, _graph_matrix(pw.build_hypercube(d), pw.LAPLACIAN)) == 0
    assert _route_calls(monkeypatch, _graph_matrix(q8_relabelled(), pw.ADJACENCY)) == 1


def _half_block_cases():
    graphs = [(f"Q{d}", pw.build_hypercube(d)) for d in (7, 8, 9, 10)] + [
        ("P40xK2", pw.cartesian_product(pw.build_path(40), pw.build_path(2))),
        ("C32xK2", pw.cartesian_product(pw.build_cycle(32), pw.build_path(2))),
        *((name, box(*factors)) for name, factors in GRIDS.items()),
        ("Q8-relabelled", q8_relabelled()),  # B is not symmetric: np.linalg.svd
        ("split-labels", split_labels()),
    ]
    cases = [(f"{name}-{kind}", pw.hamiltonian(g, kind)) for name, g in graphs
             for kind in (pw.ADJACENCY, pw.LAPLACIAN)]
    # Q7 with zero values on the edges (0, 2) and (1, 3), which are the
    # entries (0, 1) and (1, 0) of its half block: that block is still
    # symmetric, and its zeros are no edges of it
    q7 = pw.build_hypercube(7)
    values = q7.w.copy()
    values[[1, 7]] = 0.0
    cases.append(("Q7-zero-values", pw.Hamiltonian(pw.ADJACENCY, q7, np.zeros(q7.n), values)))
    return cases


HALF_BLOCK_CASES = _half_block_cases()
NO_PRODUCT = {"Q8-relabelled-adjacency", "Q8-relabelled-laplacian", "split-labels-adjacency",
              "split-labels-laplacian"}
# Q7's factor has lost the rung (0, 1), so it is no product: the bipartite route takes it
BOTH_ROUTES = {"Q7-zero-values"}


def _dense_box_factors(form, q):
    """routes._box_factors from the dense M: M is M_G (x) I_q + I_p (x) M_H
    in the labelling v = a q + b when each q x q block M[a q:, a' q:] with
    a != a' is G[a, a'] I, G = M[0::q, 0::q], each diagonal block has block
    0's entries off its diagonal, and each d(a q + b) - d(a q) is
    d(b) - d(0); then G's form is the one the dense passes over G give, and
    H's those over block 0 with the diagonal d(b) - d(0)."""
    mat = form.dense()
    p = len(mat) // q
    blocks = mat.reshape(p, q, p, q).transpose(0, 2, 1, 3)  # blocks[a, a'] = M[a q:, a' q:], q x q
    g, eye, apart = mat[0::q, 0::q], np.eye(q, dtype=bool), ~np.eye(p, dtype=bool)
    d = mat.diagonal().reshape(p, q)
    h = np.where(eye, 0.0, blocks[0, 0])
    h[eye] = d[0] - d[0, 0]
    if not (np.array_equal(blocks[apart], g[apart][:, None, None] * eye)
            and np.array_equal(np.where(eye, 0.0, blocks[np.arange(p), np.arange(p)]), np.where(eye, 0.0, h)[None].repeat(p, 0))
            and np.array_equal(d - d[:, :1], (d[0] - d[0, 0])[None].repeat(p, 0))):
        return None
    forms = []
    for m in (g, h):
        edges = spectral._dense_edges(m)
        forms.append(spectral.EdgeForm(len(m), m.diagonal(), *edges, m[edges], None, lambda m=m: m))
    return tuple(forms)


@pytest.mark.parametrize("name,ham", HALF_BLOCK_CASES, ids=[c[0] for c in HALF_BLOCK_CASES])
def test_half_block_edges_come_from_the_parent(monkeypatch, name, ham):
    """At every level, the half block a route builds from its parent's edge
    form is the one the parent's dense M gives: the product route's factors
    G and H, at every divisor q it tries, whose forms are the dense passes
    over M[0::q, 0::q] and M's block 0, and the bipartite route's B, the
    gather M[P, Q] byte for byte. The decomposition, from either entry, is
    bit-identical to the one built on the dense passes."""
    seen = []
    real_eigh, real_factors = routes._bipartite_eigh, routes._box_factors

    def check_block(form, p, q):
        mat = graphs._dense(form.n, form.src, form.dst, form.diagonal, form.entries)
        i, k = routes._block_entries(form.n, p, q, form.src, form.dst)
        assert routes._dense_block((len(p), len(q)), i, k, form.entries).tobytes() == mat[np.ix_(p, q)].tobytes()
        seen.append("bipartite")
        return real_eigh(form, p, q)

    def check_factors(form, q):
        got, want = real_factors(form, q), _dense_box_factors(form, q)
        assert (got is None) == (want is None)
        if got is not None:
            for g, w in zip(got, want):
                assert_same_form(g, w)
            seen.append("product")
        return got

    with monkeypatch.context() as m:
        m.setattr(routes, "_bipartite_eigh", check_block)
        m.setattr(routes, "_box_factors", check_factors)
        got = [decomposition_bytes(pw.decompose(entry)) for entry in (ham, np.array(ham.matrix))]
    with monkeypatch.context() as m:
        m.setattr(routes, "_box_factors", _dense_box_factors)
        want = decomposition_bytes(pw.decompose(ham))
    assert got == [want, want]
    assert ("product" in seen) == (name not in NO_PRODUCT)
    assert ("bipartite" in seen) == (name in NO_PRODUCT | BOTH_ROUTES)


def _lazy_cases():
    k2 = pw.build_path(2)
    graphs = ([(f"Q{d}", pw.build_hypercube(d)) for d in range(6, 11)]
              + [(f"P{n}", _heavy_path(n)) for n in (64, 65, 100, 300)]
              + [(f"C{n}", pw.build_cycle(n)) for n in (64, 128, 300)]
              + [("P40xK2", pw.cartesian_product(pw.build_path(40), k2)),
                 ("C32xK2", pw.cartesian_product(pw.build_cycle(32), k2)),
                 ("C64xK2", pw.cartesian_product(pw.build_cycle(64), k2)),
                 ("Q8-relabelled", q8_relabelled()),  # B is not symmetric: np.linalg.svd
                 ("random-weighted", random_weighted())])
    return [(f"{name}-{kind}", g, kind) for name, g in graphs for kind in (pw.ADJACENCY, pw.LAPLACIAN)]


LAZY_CASES = _lazy_cases()
# the irregular path Laplacians (heavy ends keep them off the path route)
# and the random graph take eigh
OFF_ROUTE = {"P64-laplacian", "P65-laplacian", "P100-laplacian", "P300-laplacian",
             "random-weighted-adjacency", "random-weighted-laplacian"}


@pytest.mark.parametrize("name,g,kind", LAZY_CASES, ids=[c[0] for c in LAZY_CASES])
def test_route_never_builds_the_dense_matrix(name, g, kind):
    """A Hamiltonian on the product or the bipartite route is decomposed
    from its edge arrays alone: its dense matrix is not built, and the same
    matrix given as a raw ndarray passes the door into the same form. eigh
    still reads the matrix."""
    ham = pw.hamiltonian(g, kind)
    form = spectral._edge_form(ham)
    on_route = routes._box_split(form) is not None or routes._route_parts(form) is not None
    assert on_route == (name not in OFF_ROUTE)
    pw.decompose(ham)
    assert ("matrix" in vars(ham)) == (not on_route)
    assert_one_form(ham)


def test_box_product_needs_no_svd(monkeypatch):
    """Q8 and the G x K2 cases take the product route, whose factors here go
    to eigh. A relabelled Q8 and every half block the bipartite route is
    given, symmetric or not, go to the SVD."""
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.svd called")

    q8, relabelled = pw.build_hypercube(8), q8_relabelled()
    cases = {name: mat for name, mat, _ in CASES}
    with monkeypatch.context() as m:
        m.setattr(np.linalg, "svd", refuse)
        for kind in (pw.ADJACENCY, pw.LAPLACIAN):
            assert pw.decompose(pw.hamiltonian(q8, kind)).multiplicities == (1, 8, 28, 56, 70, 56, 28, 8, 1)
            with pytest.raises(AssertionError, match="svd called"):
                pw.decompose(pw.hamiltonian(relabelled, kind))
        for name in ("P40xK2", "C32xK2-adjacency", "C32xK2-laplacian", "Q8-adjacency", "Q10-laplacian"):
            pw.decompose(cases[name])
        for name in ("signed-symmetric-block", "asymmetric-block"):
            with pytest.raises(AssertionError, match="svd called"):
                _bipartite_eigh(cases[name], *_forced_parts(cases[name]))


DECLINED = rows(declines="bipartite")


@pytest.mark.parametrize("r", DECLINED, ids=[r.name for r in DECLINED])
def test_route_declined(monkeypatch, r):
    for _, m in entries(r.build(), r.shifted):
        dec, _ = assert_declined(monkeypatch, m, "bipartite", r.route)
        assert isinstance(dec.basis, spectral.DenseBasis)


@pytest.mark.parametrize("n", [MIN_N, 200])
@pytest.mark.parametrize("kind", [pw.ADJACENCY, pw.LAPLACIAN])
def test_edgeless_goes_to_eigh(monkeypatch, n, kind):
    """A form with no edges skips every route: no SVD of an (n, 0) block,
    one cluster on a dense basis."""
    dec, calls = route_calls(monkeypatch, pw.hamiltonian(pw.build_empty(n), kind))
    assert calls == [("eigh", True)]
    assert isinstance(dec.basis, spectral.DenseBasis) and dec.k == 1


def test_route_declines_a_matrix_that_is_not_exactly_symmetric(monkeypatch):
    mat = _graph_matrix(pw.build_path(MIN_N), pw.ADJACENCY).copy()
    mat[0, 1] += 1e-15  # inside decompose's symmetry tolerance
    assert _route_calls(monkeypatch, mat) == 0
    assert pw.decompose(mat).k == MIN_N


def test_colouring_finds_an_odd_cycle_anywhere():
    # the odd cycle sits in the last component, after a bipartite one
    g = pw.make_graph(9, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7), (7, 8), (8, 4)])
    assert _forced_parts(_graph_matrix(g, pw.ADJACENCY)) is None
    g = pw.make_graph(9, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7), (7, 4)])
    p, q = _forced_parts(_graph_matrix(g, pw.ADJACENCY))
    assert p.tolist() == [0, 2, 4, 6, 8] and q.tolist() == [1, 3, 5, 7]


def _k(p, q, shift=0):
    """The edges of K_{p,q} on the vertices shift .. shift + p + q - 1."""
    return [(shift + u, shift + p + v) for u in range(p) for v in range(q)]


def _components():
    """Two interleaved paths: 0, 2, ..., 78 and 3, 1, 5, 7, ..., 79. Coloured
    from its least vertex, each puts that vertex in P: 0, 4, 8, ... and the
    odd vertices at an even distance from 1."""
    odd = [3, 1] + list(range(5, 80, 2))
    edges = [(u, u + 2) for u in range(0, 78, 2)] + list(zip(odd, odd[1:]))
    p = list(range(0, 80, 4)) + [v for i, v in enumerate(odd) if (i - 1) % 2 == 0]
    return pw.make_graph(80, edges), sorted(p)


ROUTE_PARTS = [
    ("K64,96", pw.make_graph(160, _k(64, 96)), None),
    ("K96,64", pw.make_graph(160, _k(96, 64)), None),
    ("C65", pw.build_cycle(65), None),
    ("K1+K64,64", pw.make_graph(129, _k(64, 64, shift=1)), [0] + list(range(1, 65))),
    ("K64,64+K1", pw.make_graph(129, _k(64, 64)), list(range(64)) + [128]),
    ("K64,64-e", pw.make_graph(128, _k(64, 64)[1:]), list(range(64))),
    ("two-components", *_components()),
]


@pytest.mark.parametrize("name,g,p", ROUTE_PARTS, ids=[c[0] for c in ROUTE_PARTS])
@pytest.mark.parametrize("kind", [pw.ADJACENCY, pw.LAPLACIAN])
def test_route_parts_from_either_entry(monkeypatch, name, g, p, kind):
    """The parts from the form of a Hamiltonian, which its dense matrix
    shares (assert_one_form): None for a complete bipartite pattern (vertex
    0's edges decide) and an odd cycle; otherwise each component coloured
    from its least vertex, which lands in P. A Laplacian takes the route
    only when the graph is regular."""
    ham = pw.hamiltonian(g, kind)
    got = routes._route_parts(spectral._edge_form(ham))
    assert_one_form(ham)
    if p is None or not (kind == pw.ADJACENCY or g.is_regular()):
        assert got is None
        assert _route_calls(monkeypatch, ham) == 0
        return
    assert got[0].tolist() == p
    assert got[1].tolist() == sorted(set(range(g.n)) - set(p))
    assert _route_calls(monkeypatch, ham) >= 1


def _reference_clusters(evals, threshold):
    """The per-eigenvalue loop decompose used before its clustering was
    vectorised: the reference for bit equality."""
    clusters = [[0]]
    for i in range(1, len(evals)):
        if evals[i] - evals[i - 1] <= threshold:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    values = np.array([np.mean(evals[idx]) if len(idx) > 1 else evals[idx[0]] for idx in clusters])
    return [len(idx) for idx in clusters], values


def test_clusters_bit_identical_to_the_loop():
    rng = np.random.default_rng(7)
    q10 = np.linalg.eigvalsh(_graph_matrix(pw.build_hypercube(10), pw.LAPLACIAN))
    spectra = [q10, np.array([-0.0, -0.0, 0.0]), np.array([5.0])]
    for _ in range(50):
        sizes = rng.choice([1, 2, 3, 5, 7, 8, 9, 40], size=rng.integers(1, 12))
        centres = np.sort(rng.uniform(-1e3, 1e3, len(sizes)))
        spectra.append(np.sort(np.concatenate(
            [c + rng.uniform(-1e-9, 1e-9, s) for c, s in zip(centres, sizes)])))
    for evals in spectra:
        threshold = 1e-8 * max(1.0, np.abs(evals).max())
        bounds, values = spectral._clusters(evals, threshold)
        sizes, want = _reference_clusters(evals, threshold)
        assert np.diff(bounds).tolist() == sizes
        assert values.tobytes() == want.tobytes()
    assert 252 in np.diff(spectral._clusters(q10, 1e-8 * 20)[0])  # Q10's eigenvalue 0 (as 10)
