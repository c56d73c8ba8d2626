"""The Hamiltonian as arrays: a diagonal and the values on its graph's edges,
with the dense matrix built from them. decompose's door reads the infinity
norm and the edge form from those arrays; given the same matrix as a raw
ndarray it must give the same EdgeForm, field by field, so that every route
reads the same and both decompose bit for bit alike. Degrees come from the
edge arrays too, and decide regularity for the adjacency join formulas."""

import numpy as np
import pytest

import pstwalk as pw
from pstwalk import spectral
from pstwalk.graphs import REGULAR_TOL
from conftest import assert_one_form, decomposition_bytes, random_tree


def _weighted(g, weights):
    """g with its edge weights replaced, in edge order."""
    return pw.make_graph(g.n, [(u, v, float(w)) for (u, v, _), w in zip(g.edges, weights)])


def _graphs():
    """Integer-weight graphs on both sides of ROUTE_MIN_N."""
    k2 = pw.build_path(2)
    c64k2 = pw.cartesian_product(pw.build_cycle(64), k2)
    k4090 = pw.build_complete_bipartite(40, 90)
    return [
        ("P7", pw.build_path(7)),
        ("C8", pw.build_cycle(8)),
        ("Q6", pw.build_hypercube(6)),
        ("Q7", pw.build_hypercube(7)),
        ("K40,90", k4090),
        ("K40,90-e", pw.make_graph(130, [(u, v) for u, v, _ in k4090.edges][1:])),
        ("C64xK2", c64k2),
        ("C64xK2-w", _weighted(c64k2, np.arange(len(c64k2.edges)) % 5 + 1)),
        ("P3+C4", pw.join(pw.build_path(3), pw.build_cycle(4))),
        ("C40+K30", pw.join(pw.build_cycle(40), pw.build_complete(30))),
        ("P70-w", _weighted(pw.build_path(70), np.arange(69) % 3 + 1)),
    ]


def _hamiltonians():
    out = []
    for name, g in _graphs():
        for kind in (pw.ADJACENCY, pw.LAPLACIAN):
            out.append((f"{name}-{kind}", pw.hamiltonian(g, kind)))
        a = pw.hamiltonian(g, pw.ADJACENCY).matrix
        # integer custom matrices: a constant diagonal (the route's shape) and a varying one
        out.append((f"{name}-custom", pw.load_custom(2.0 * a - 3.0 * np.eye(g.n), g)))
        out.append((f"{name}-custom-diag", pw.load_custom(-a + np.diag(np.arange(g.n) % 4), g)))
    out.append(("Q6+e03-zero", _zero_valued_edge()))
    return out


def _zero_valued_edge():
    """Q6 plus the edge (0, 3) with the value 0.0: the triangle 0-1-3 is no
    triangle of M, which is Q6's bipartite adjacency."""
    q6 = pw.build_hypercube(6)
    g = pw.make_graph(64, list(q6.edges) + [(0, 3)])
    values = g.w.copy()
    values[(g.src == 0) & (g.dst == 3)] = 0.0
    return pw.Hamiltonian(pw.ADJACENCY, g, np.zeros(64), values)


HAMILTONIANS = _hamiltonians()


@pytest.mark.parametrize("name,ham", HAMILTONIANS, ids=[h[0] for h in HAMILTONIANS])
def test_both_entries_decompose_alike(name, ham):
    assert not ham.matrix.flags.writeable
    assert_one_form(ham)
    assert pw.decompose(ham).scale == np.linalg.norm(np.array(ham.matrix), np.inf)


def _float_weighted():
    """Float-weighted Hamiltonians, whose row sums round: seeded random
    connected graphs of 4 to 19 vertices with weights uniform in [0.1, 3),
    and Q6 and P70 with such weights, on the bipartite route. Each kind,
    and a custom matrix with a varying diagonal."""
    rng = np.random.default_rng(20261019)
    graphs = []
    for i in range(24):
        n = int(rng.integers(4, 20))
        tree = [(u, v) for u, v, _ in random_tree(rng, n).edges]
        extra = [(int(u), int(v)) for u, v in rng.integers(0, n, size=(n, 2)) if u != v]
        edges = {(min(e), max(e)) for e in tree + extra}
        graphs.append((f"R{i}-{n}", pw.make_graph(n, [(u, v, float(rng.uniform(0.1, 3.0))) for u, v in sorted(edges)])))
    for name, g in (("Q6", pw.build_hypercube(6)), ("P70", pw.build_path(70))):
        graphs.append((f"{name}-f", _weighted(g, rng.uniform(0.1, 3.0, size=len(g.edges)))))
    out = []
    for name, g in graphs:
        out += [(f"{name}-{kind}", pw.hamiltonian(g, kind)) for kind in (pw.ADJACENCY, pw.LAPLACIAN)]
        a = pw.hamiltonian(g, pw.ADJACENCY).matrix
        out.append((f"{name}-custom-diag", pw.load_custom(0.3 * a + np.diag(rng.uniform(-1.0, 1.0, g.n)), g)))
    return out


FLOAT_WEIGHTED = _float_weighted()


@pytest.mark.parametrize("name,ham", FLOAT_WEIGHTED, ids=[h[0] for h in FLOAT_WEIGHTED])
def test_float_weighted_entries_share_one_form(name, ham):
    """The door test on float weights: an exactly symmetric raw matrix takes
    ||M||_inf from its edges, as its Hamiltonian does, not from numpy's
    pairwise row sums, so dec.scale, the clustering threshold and every
    byte of the decomposition agree between the entries."""
    assert_one_form(ham)
    assert decomposition_bytes(pw.decompose(ham)) == decomposition_bytes(pw.decompose(np.array(ham.matrix)))


def test_zero_valued_edge_takes_one_route():
    """A value of 0 is no entry of M: from the Hamiltonian, as from its dense
    matrix, whose nonzero mask never sees it, Q6 plus a zero-valued edge
    is Q5 x K2 to the product route, and both decompose bit for bit alike."""
    ham = _zero_valued_edge()
    decs = [pw.decompose(entry) for entry in (ham, np.array(ham.matrix))]
    assert [dec.route for dec in decs] == ["product", "product"]
    assert decomposition_bytes(decs[0]) == decomposition_bytes(decs[1])


def test_matrix_is_built_once_on_first_read():
    ham = pw.hamiltonian(pw.build_cycle(5), pw.LAPLACIAN)
    assert "matrix" not in vars(ham)
    m = ham.matrix
    assert ham.matrix is m and not m.flags.writeable
    assert m.tobytes() == pw.build_cycle(5).laplacian().tobytes()


def test_route_reached_from_both_entries(monkeypatch):
    # from n = 64 (Q6) on, the bipartite adjacencies, the regular Laplacians
    # and the custom matrices with a constant diagonal take the route, with
    # the routes before it left out; both entries give one form
    # (test_both_entries_decompose_alike)
    monkeypatch.setattr(spectral, "ROUTES", (spectral._bipartite_route, spectral._eigh_route))
    on_route = {name for name, ham in HAMILTONIANS if pw.decompose(ham).route == "bipartite"}
    bipartite = ("Q6", "Q7", "K40,90-e", "C64xK2", "C64xK2-w", "P70-w")
    want = {f"{name}-{kind}" for name in bipartite for kind in (pw.ADJACENCY, "custom")}
    # the regular Laplacians, and Q6 with a zero-valued edge
    assert on_route == want | {"Q6-laplacian", "Q7-laplacian", "C64xK2-laplacian", "Q6+e03-zero"}


def test_arrays_of_each_kind():
    g = pw.make_graph(4, [(0, 1, 2.0), (1, 2, 3.0), (0, 3, 0.5)])
    adj, lap = pw.hamiltonian(g, pw.ADJACENCY), pw.hamiltonian(g, pw.LAPLACIAN)
    assert adj.diagonal.tolist() == [0.0] * 4 and adj.values.tolist() == [2.0, 0.5, 3.0]
    assert lap.diagonal.tolist() == [2.5, 5.0, 3.0, 0.5] and lap.values.tolist() == [-2.0, -0.5, -3.0]
    m = np.array(lap.matrix) + np.diag([1.0, -2.0, 0.0, 4.0])
    custom = pw.load_custom(m, g)
    assert custom.kind == pw.CUSTOM
    assert custom.diagonal.tolist() == [3.5, 3.0, 3.0, 4.5] and custom.values.tolist() == [-2.0, -0.5, -3.0]
    assert custom.matrix.tobytes() == m.tobytes()
    for ham in (adj, lap, custom):
        assert not (ham.diagonal.flags.writeable or ham.values.flags.writeable or ham.matrix.flags.writeable)
    with pytest.raises(TypeError):
        pw.Hamiltonian(pw.CUSTOM, g, custom.diagonal, custom.values, m)  # matrix is derived


@pytest.mark.parametrize("name,g,degrees,regular", [
    ("C8", pw.build_cycle(8), [2.0] * 8, True),
    ("Q3", pw.build_hypercube(3), [3.0] * 8, True),
    ("P5", pw.build_path(5), [1.0, 2.0, 2.0, 2.0, 1.0], False),
    ("C8-3.7", _weighted(pw.build_cycle(8), [3.7] * 8), [7.4] * 8, True),
    ("K1", pw.build_empty(1), [0.0], True),
    ("K2+K1", pw.make_graph(3, [(0, 1)]), [1.0, 1.0, 0.0], False),
])
def test_degrees_and_regularity(name, g, degrees, regular):
    assert g.degrees().tolist() == degrees
    assert g.is_regular() == regular


def _near_cycle(delta):
    """C4 with one edge weighted 1 + delta: degrees 2 + delta, 2, 2, 2 + delta."""
    return _weighted(pw.build_cycle(4), [1.0, 1.0 + delta, 1.0, 1.0])


def test_regularity_tolerance():
    assert REGULAR_TOL == 1e-12
    near, far = _near_cycle(2e-13), _near_cycle(2e-11)  # 1e-13 and 1e-11 relative
    assert near.degrees().tolist() == [2.0 + 2e-13, 2.0, 2.0, 2.0 + 2e-13]
    assert near.is_regular() and not far.is_regular()
    x1 = np.array([1.0, -1.0, 1.0, -1.0])
    # the adjacency join formulas accept the near-regular factor and refuse the other
    u = pw.join_transition_matrix(near, pw.build_cycle(3), pw.ADJACENCY, 0.7)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(7), atol=1e-10)
    pw.join_pst(near, pw.build_cycle(3), pw.ADJACENCY, x1, x1, tau=1.0)
    for g in (far, pw.build_path(4)):
        with pytest.raises(pw.NotApplicableError, match="needs regular factors"):
            pw.join_transition_matrix(g, pw.build_cycle(3), pw.ADJACENCY, 0.7)
        with pytest.raises(pw.NotApplicableError, match="needs regular factors"):
            pw.join_pst(g, pw.build_cycle(3), pw.ADJACENCY, x1, x1, tau=1.0)


NON_FINITE = "matrix has a non-finite entry or infinity-norm"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("diagonal,values,message", [
    ([np.nan, 0.0, 0.0], [1.0, 1.0], NON_FINITE),
    ([0.0, np.inf, 0.0], [1.0, 1.0], NON_FINITE),
    ([0.0, 0.0, 0.0], [1.0, -np.inf], NON_FINITE),
    ([0.0, 0.0, 0.0], [np.nan, 1.0], NON_FINITE),
    ([0.0, 0.0, 0.0], [1e308, 1e308], NON_FINITE),           # vertex 1's row sum overflows
    ([-1e308, 0.0, 0.0], [1e308, 1.0], NON_FINITE),          # |d_0| + |v| overflows
    ([0.0, 0.0, 0.0], [1e308, 1.0], "matrix infinity-norm 1e+308 overflows eigenvalue differences"),
    ([1e308, 0.0, 0.0], [1.0, 1.0], "matrix infinity-norm 1e+308 overflows eigenvalue differences"),
])
def test_hand_built_hamiltonian_refused(diagonal, values, message):
    g = pw.build_path(3)
    ham = pw.Hamiltonian(pw.CUSTOM, g, np.array(diagonal), np.array(values))
    for m in (ham, np.array(ham.matrix)):  # both entries refuse with one message
        with pytest.raises(pw.NumericFailureError, match=f"^{message}$".replace("+", r"\+")):
            pw.decompose(m)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_huge_degrees_are_inf_without_a_warning():
    g = _weighted(pw.build_path(3), [1e308, 1e308])
    assert g.degrees().tolist() == [1e308, np.inf, 1e308]
    assert not g.is_regular()
    ham = pw.hamiltonian(g, pw.LAPLACIAN)
    assert ham.matrix[1, 1] == np.inf
    with pytest.raises(pw.NumericFailureError, match=NON_FINITE):
        pw.decompose(ham)


def test_laplacian_scale_is_twice_the_largest_degree():
    """A Laplacian's ||L||_inf is read off its diagonal as 2 max(d), bit for
    bit _edge_scale's over weights from 1e-300 to 1e300 (overflowing degrees
    included), and the raw matrix's form agrees where it is finite."""
    rng = np.random.default_rng(41)
    for trial in range(300):
        n = int(rng.integers(1, 30))
        keep = np.triu(rng.random((n, n)) < rng.uniform(0.1, 0.9), 1)
        u, v = np.nonzero(keep)
        weights = 10.0 ** rng.uniform(-300, 300, len(u))
        ham = pw.hamiltonian(pw.make_graph(n, zip(u.tolist(), v.tolist(), weights.tolist())), pw.LAPLACIAN)
        g = ham.graph
        want = spectral._edge_scale(n, ham.diagonal, g.src, g.dst, ham.values)
        got = 2.0 * float(ham.diagonal.max())
        assert np.array_equal(got, want)
        if np.isfinite(2.0 * want):
            assert spectral._edge_form(ham).scale == want
            if n <= 8:
                assert spectral._edge_form(np.array(ham.matrix)).scale == want


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("weights,message", [
    ([1e308, 1.0], NON_FINITE),                          # 2 d_max = 2e308 overflows, d_max does not
    ([6e307, 6e307], NON_FINITE),                        # d_1 = 1.2e308, twice it overflows
    ([5e307, 1.0], "matrix infinity-norm 1e+308 overflows eigenvalue differences"),
])
def test_laplacian_scale_overflow_is_refused(weights, message):
    ham = pw.hamiltonian(_weighted(pw.build_path(3), weights), pw.LAPLACIAN)
    assert np.isfinite(ham.diagonal).all()
    for m in (ham, np.array(ham.matrix)):
        with pytest.raises(pw.NumericFailureError, match=f"^{message}$".replace("+", r"\+")):
            pw.decompose(m)
