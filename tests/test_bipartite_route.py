"""The bipartite route of decompose: for a matrix cI + [[0, B], [B^T, 0]] on
the parts P, Q of a bipartite pattern, spectral._bipartite_eigh forms the
eigenpairs from an SVD of B, which an exactly symmetric square B takes from
its own eigenpairs by the same route (recursively) and any other B from
np.linalg.svd. Called directly, so that small n is covered as well, it must
give what np.linalg.eigh gives: the same multiplicities, eigenvalues to
1e-12 * scale, projectors to 1e-10, and the same pst_decide and pst_partner
verdicts. decompose takes it only from BIPARTITE_MIN_N on, for an exactly
symmetric matrix with one constant on its diagonal and a bipartite, not
complete bipartite, edge pattern: spectral._route_parts decides, from a
Hamiltonian's edge arrays or from a raw matrix's nonzeros above the
diagonal."""

import itertools

import numpy as np
import pytest

import pstwalk as pw
from pstwalk import spectral
from conftest import pair_state

MIN_N = spectral.BIPARTITE_MIN_N


def _graph_matrix(g, kind):
    return pw.hamiltonian(g, kind).matrix


def _edges(mat):
    """The nonzeros of mat above the diagonal, sorted by (row, column)."""
    return np.nonzero(np.triu(mat, 1))


def _forced_parts(mat):
    """_route_parts of mat, its edges the nonzeros above the diagonal, with
    the route allowed at every n."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(spectral, "BIPARTITE_MIN_N", 1)
        return spectral._route_parts(len(mat), mat.diagonal(), *_edges(mat))


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
    # hypercubes as build_hypercube labels them and bipartite G x K2: the
    # half block is exactly symmetric, and from Q7 on it takes the route again
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


def _route_decompose(monkeypatch, mat, parts):
    """decompose with the route forced at every n, on these parts for mat
    itself and on its own colouring for each half block it recurses into."""
    colouring = spectral._route_parts
    with monkeypatch.context() as m:
        m.setattr(spectral, "BIPARTITE_MIN_N", 1)
        m.setattr(spectral, "_route_parts", lambda n, *rest: parts if n == len(mat) else colouring(n, *rest))
        return pw.decompose(mat)


def _eigh_decompose(monkeypatch, mat):
    with monkeypatch.context() as m:
        m.setattr(spectral, "BIPARTITE_MIN_N", len(mat) + 1)
        return pw.decompose(mat)


def _test_states(n, rng):
    """Basis states and e_u +- e_v pairs: every pair for small n, a seeded
    sample of 12 otherwise."""
    pairs = list(itertools.combinations(range(n), 2))
    if len(pairs) > 12:
        pairs = [pairs[i] for i in rng.choice(len(pairs), 12, replace=False)]
    states = [np.eye(n)[u] for u in range(min(n, 4))]
    for u, v in pairs:
        states += [pair_state(n, u, v, 1.0), pair_state(n, u, v, -1.0)]
    return states


def _partner(dec, x):
    try:
        return pw.pst_partner(dec, x)
    except pw.FixedStateError:
        return "fixed"


@pytest.mark.parametrize("name,mat,parts", CASES, ids=[c[0] for c in CASES])
def test_route_matches_eigh(monkeypatch, name, mat, parts):
    if parts is None:
        parts = _forced_parts(mat)
        assert parts is not None
    else:
        assert _forced_parts(mat) is None  # complete bipartite: eigh
    p, q = parts
    n = len(mat)
    scale = max(np.linalg.norm(mat, np.inf), 1.0)

    w, v = spectral._bipartite_eigh(mat, p, q, *_edges(mat))
    assert np.all(np.diff(w) <= 0)
    np.testing.assert_allclose(w, np.linalg.eigvalsh(mat)[::-1], rtol=0, atol=1e-12 * scale)
    np.testing.assert_allclose(v.T @ v, np.eye(n), rtol=0, atol=1e-12)
    np.testing.assert_allclose(mat @ v, v * w, rtol=0, atol=1e-12 * scale)

    got = _route_decompose(monkeypatch, mat, parts)
    want = _eigh_decompose(monkeypatch, mat)
    assert got.multiplicities == want.multiplicities
    np.testing.assert_allclose(got.eigenvalues, want.eigenvalues, rtol=0, atol=1e-12 * scale)
    for j in range(want.k):
        np.testing.assert_allclose(got.projector(j), want.projector(j), rtol=0, atol=1e-10)
    assert got.warnings == want.warnings

    rng = np.random.default_rng(n)
    for x in _test_states(n, rng):
        y_got, y_want = _partner(got, x), _partner(want, x)
        if isinstance(y_want, str) or y_want is None:
            assert isinstance(y_got, type(y_want)) and y_got == y_want
            continue
        np.testing.assert_allclose(y_got, y_want, rtol=0, atol=1e-9)
        for y in (y_want, np.roll(x, 1)):
            a, b = pw.pst_decide(got, x, y), pw.pst_decide(want, x, y)
            assert (a.decision, a.reason, a.case) == (b.decision, b.reason, b.case)
            if b.decision:
                assert a.tau_min == pytest.approx(b.tau_min, rel=1e-12)
                assert a.tau_symbolic == b.tau_symbolic


def _route_calls(monkeypatch, mat):
    """How many times decompose(mat) ran the route."""
    calls = []
    real = spectral._bipartite_eigh

    def spy(*args):
        calls.append(1)
        return real(*args)

    with monkeypatch.context() as m:
        m.setattr(spectral, "_bipartite_eigh", spy)
        pw.decompose(mat)
    return len(calls)


def test_route_taken_from_the_crossover_on(monkeypatch):
    for build, kind in ((pw.build_path, pw.ADJACENCY), (pw.build_cycle, pw.LAPLACIAN)):
        assert _route_calls(monkeypatch, _graph_matrix(build(MIN_N), kind)) == 1
        assert _route_calls(monkeypatch, _graph_matrix(build(MIN_N - 2), kind)) == 0
    assert _route_calls(monkeypatch, _graph_matrix(pw.build_path(MIN_N - 1), pw.ADJACENCY)) == 0
    # Q7's 64 x 64 half block takes the route again; its 32 x 32 one goes to eigh
    assert _route_calls(monkeypatch, _graph_matrix(pw.build_hypercube(7), pw.LAPLACIAN)) == 2
    for d in (8, 9, 10):
        assert _route_calls(monkeypatch, _graph_matrix(pw.build_hypercube(d), pw.ADJACENCY)) == d - 5


def _q8_relabelled():
    q8 = pw.build_hypercube(8)
    p = np.random.default_rng(8).permutation(q8.n)
    return pw.make_graph(q8.n, [(int(p[a]), int(p[b]), w) for a, b, w in q8.edges])


def _split_labels():
    """P = {0, 65, ..., 127} and Q = {1, ..., 64} with the half block I + A,
    A the 64-cycle 0, 7, 14, ... (7j mod 64): B is symmetric, but M's edges,
    sorted by their least end (mostly in Q, so by B's column), do not list
    its entries in (row, column) order."""
    p, q = [0] + list(range(65, 128)), list(range(1, 65))
    cycle = [(7 * j % 64, 7 * (j + 1) % 64) for j in range(64)]
    pairs = [(i, i) for i in range(64)] + cycle + [(k, i) for i, k in cycle]
    return pw.make_graph(128, [(p[i], q[k]) for i, k in pairs])


def _half_block_cases():
    graphs = [(f"Q{d}", pw.build_hypercube(d)) for d in (7, 8, 9, 10)] + [
        ("P40xK2", pw.cartesian_product(pw.build_path(40), pw.build_path(2))),
        ("C32xK2", pw.cartesian_product(pw.build_cycle(32), pw.build_path(2))),
        ("Q8-relabelled", _q8_relabelled()),  # B is not symmetric: np.linalg.svd
        ("split-labels", _split_labels()),
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
NO_HALF_BLOCK_ROUTE = {"P40xK2-laplacian", "Q8-relabelled-adjacency", "Q8-relabelled-laplacian"}


def _dense_half_block_edges(b, *_):
    """The half block's symmetry and edges from b itself, by _asymmetry and
    the nonzero mask: the O(n^2) passes per level the edge arrays replace."""
    return spectral._dense_edges(b) if spectral._asymmetry(b) == 0 else None


def _bytes(dec):
    return (dec.eigenvalues.tobytes(), dec.offsets.tobytes(), dec.vectors.tobytes(), dec.scale,
            dec.multiplicities, dec.warnings)


@pytest.mark.parametrize("name,ham", HALF_BLOCK_CASES, ids=[c[0] for c in HALF_BLOCK_CASES])
def test_half_block_edges_come_from_the_parent(monkeypatch, name, ham):
    """At every level of the route, the half block's symmetry and edges, and
    so its parts, are what the dense passes over it give, and the
    decomposition, from either entry, is bit-identical to theirs."""
    seen = []
    real = spectral._half_block_edges

    def check(b, *rest):
        got, want = real(b, *rest), _dense_half_block_edges(b)
        assert (got is None) == (want is None)
        for a, w in zip(got or (), want or ()):
            assert a.dtype == w.dtype and np.array_equal(a, w)
        seen.append(got is not None)
        return got

    with monkeypatch.context() as m:
        m.setattr(spectral, "_half_block_edges", check)
        got = [_bytes(pw.decompose(entry)) for entry in (ham, np.array(ham.matrix))]
    with monkeypatch.context() as m:
        m.setattr(spectral, "_half_block_edges", _dense_half_block_edges)
        want = _bytes(pw.decompose(ham))
    assert got == [want, want]
    assert any(seen) == (name not in NO_HALF_BLOCK_ROUTE)


def test_symmetric_half_block_needs_no_svd(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.svd called")

    q8, relabelled = pw.build_hypercube(8), _q8_relabelled()
    cases = {name: mat for name, mat, _ in CASES}
    with monkeypatch.context() as m:
        m.setattr(np.linalg, "svd", refuse)
        for kind in (pw.ADJACENCY, pw.LAPLACIAN):
            assert pw.decompose(pw.hamiltonian(q8, kind)).multiplicities == (1, 8, 28, 56, 70, 56, 28, 8, 1)
            with pytest.raises(AssertionError, match="svd called"):
                pw.decompose(pw.hamiltonian(relabelled, kind))
        for name in ("P40xK2", "C32xK2-adjacency", "C32xK2-laplacian", "signed-symmetric-block"):
            spectral._bipartite_eigh(cases[name], *_forced_parts(cases[name]), *_edges(cases[name]))
        mat = cases["asymmetric-block"]
        with pytest.raises(AssertionError, match="svd called"):
            spectral._bipartite_eigh(mat, *_forced_parts(mat), *_edges(mat))


@pytest.mark.parametrize("mat", [
    _graph_matrix(pw.build_cycle(MIN_N + 1), pw.ADJACENCY),          # odd cycle
    _graph_matrix(pw.build_cycle(MIN_N + 1), pw.LAPLACIAN),
    _graph_matrix(pw.build_path(MIN_N + 6), pw.LAPLACIAN),           # degrees 1 and 2
    _graph_matrix(pw.build_complete_bipartite(30, 50), pw.ADJACENCY),
    _graph_matrix(pw.build_complete(MIN_N), pw.ADJACENCY),
], ids=["odd-cycle", "odd-cycle-lap", "path-lap", "complete-bipartite", "complete"])
def test_route_declined(monkeypatch, mat):
    assert _route_calls(monkeypatch, mat) == 0


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
    """The parts from a Hamiltonian's edge arrays and from its dense matrix
    agree: None for a complete bipartite pattern (vertex 0's edges decide)
    and an odd cycle; otherwise each component coloured from its least
    vertex, which lands in P. A Laplacian takes the route only when the
    graph is regular."""
    ham = pw.hamiltonian(g, kind)
    got = spectral._route_parts(g.n, ham.diagonal, g.src, g.dst)
    dense = spectral._route_parts(g.n, ham.matrix.diagonal(), *spectral._dense_edges(ham.matrix))
    if p is None or not (kind == pw.ADJACENCY or g.is_regular()):
        assert got is None and dense is None
        assert _route_calls(monkeypatch, ham) == 0
        return
    assert got[0].tolist() == dense[0].tolist() == p
    assert got[1].tolist() == dense[1].tolist() == sorted(set(range(g.n)) - set(p))
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
