"""The mirror route of decompose: a symmetric M with JMJ = M, J the reversal
i -> n - 1 - i, has its eigenpairs from two eighs of about n/2
(spectral._mirror_eigh). decompose takes it from BIPARTITE_MIN_N on, where
the bipartite route declines, when spectral._mirrored finds the diagonal a
palindrome and the reversed edges, with their values, equal to the edges. It
must give what np.linalg.eigh gives: the same multiplicities, eigenvalues to
1e-12 * scale and projectors to 1e-10, and the same verdicts as a
relabelled copy of the graph, which takes eigh. The cycles and complete
graphs here carry weight 2 on their edge (0, n - 1), which J fixes, and the
paths weight 2 on both end edges, which J swaps: the circulant and the path
routes, before this one, take them unweighted."""

import numpy as np
import pytest

import pstwalk as pw
from pstwalk import spectral
from conftest import heavy_end_edge, heavy_path_ends, pair_state
from oracles import projector
from test_bipartite_route import _bytes, assert_same_verdicts

MIN_N = spectral.BIPARTITE_MIN_N


def _mirror_chain(n):
    """The Krawtchouk chain, weights sqrt((i + 1)(n - 1 - i)) (Kay, IJQI 8,
    2010), plus the potential |i - (n - 1)/2|: mirror symmetric, and off the
    bipartite route, which needs one constant on the diagonal. One well, so
    its eigenvalues stay 5e-3 apart (a well at each end would pair them up
    within 1e-5, and leave their projectors ill-conditioned)."""
    i = np.arange(n - 1)
    g = pw.make_graph(n, [(int(a), int(a) + 1, w) for a, w in zip(i, np.sqrt((i + 1.0) * (n - 1 - i)))])
    potential = np.abs(np.arange(n) - (n - 1) / 2)
    return pw.Hamiltonian(pw.CUSTOM, g, potential, g.w)


def _route_cases():
    cases = [(f"P{n}-laplacian", pw.hamiltonian(heavy_path_ends(pw.build_path(n)), pw.LAPLACIAN))
             for n in (64, 65, 101, 200, 300)]
    cases += [(f"C{n}-{kind}", pw.hamiltonian(heavy_end_edge(pw.build_cycle(n)), kind))
              for n in (65, 151, 299) for kind in (pw.ADJACENCY, pw.LAPLACIAN)]
    cases += [("K64-adjacency", pw.hamiltonian(heavy_end_edge(pw.build_complete(64)), pw.ADJACENCY)),
              ("K64-laplacian", pw.hamiltonian(heavy_end_edge(pw.build_complete(64)), pw.LAPLACIAN)),
              ("K150-adjacency", pw.hamiltonian(heavy_end_edge(pw.build_complete(150)), pw.ADJACENCY))]
    cases += [(f"K64,64-{kind}", pw.hamiltonian(pw.build_complete_bipartite(64, 64), kind))
              for kind in (pw.ADJACENCY, pw.LAPLACIAN)]
    cases += [(f"chain{n}", _mirror_chain(n)) for n in (64, 65)]
    return cases


ROUTE_CASES = _route_cases()


def _route_calls(monkeypatch, m):
    """decompose(m) and how many times it ran the mirror route."""
    calls = []
    real = spectral._mirror_eigh

    def spy(mat):
        calls.append(len(mat))
        return real(mat)

    with monkeypatch.context() as patch:
        patch.setattr(spectral, "_mirror_eigh", spy)
        dec = pw.decompose(m)
    return dec, len(calls)


def _eigh_decompose(monkeypatch, m):
    with monkeypatch.context() as patch:
        patch.setattr(spectral, "_mirrored", lambda *args: False)
        return pw.decompose(m)


@pytest.mark.parametrize("name,ham", ROUTE_CASES, ids=[c[0] for c in ROUTE_CASES])
def test_route_matches_eigh(monkeypatch, name, ham):
    mat = ham.matrix
    n = len(mat)
    assert np.array_equal(mat, mat[::-1, ::-1])
    got, calls = _route_calls(monkeypatch, ham)
    assert calls == 1
    want = _eigh_decompose(monkeypatch, ham)
    assert got.multiplicities == want.multiplicities
    np.testing.assert_allclose(got.eigenvalues, want.eigenvalues, rtol=0, atol=1e-12 * want.scale)
    for j in range(want.k):
        np.testing.assert_allclose(projector(got, j), projector(want, j), rtol=0, atol=1e-10)
    assert got.warnings == want.warnings
    v = got.basis.dense()
    np.testing.assert_allclose(v.T @ v, np.eye(n), rtol=0, atol=1e-12)
    # both entries reach the route through the same test, so the same bytes
    assert _bytes(pw.decompose(np.array(mat))) == _bytes(got)


def _relabelled(ham, seed):
    """ham on the vertices permuted by a seeded permutation p (vertex v becomes
    p[v]), and p."""
    g = ham.graph
    p = np.random.default_rng(seed).permutation(g.n)
    h = pw.make_graph(g.n, [(int(p[a]), int(p[b]), w) for a, b, w in g.edges])
    value = dict(zip(zip(g.src.tolist(), g.dst.tolist()), ham.values.tolist()))
    old = np.argsort(p)
    values = [value[min(a, b), max(a, b)] for a, b in zip(old[h.src].tolist(), old[h.dst].tolist())]
    diagonal = np.empty(g.n)
    diagonal[p] = ham.diagonal
    return pw.Hamiltonian(ham.kind, h, diagonal, np.array(values)), p


def _off_route_cases():
    cases = [(f"{build.__name__[6:]}63-{kind}", pw.hamiltonian(build(MIN_N - 1), kind))
             for build in (pw.build_path, pw.build_cycle, pw.build_complete)
             for kind in (pw.ADJACENCY, pw.LAPLACIAN)]
    cases += [(f"{name}-relabelled", _relabelled(ham, 3)[0]) for name, ham in ROUTE_CASES
              if name in ("P200-laplacian", "C151-adjacency", "chain65")]
    # mirror-symmetric edges, but a diagonal that is no palindrome
    p101 = pw.build_path(101)
    cases.append(("P101-ramp", pw.Hamiltonian(pw.CUSTOM, p101, np.arange(101.0), p101.w)))
    # mirror-symmetric pattern, but one value differs from its mirror image
    c151 = pw.build_cycle(151)
    values = c151.w.copy()
    values[0] = 2.0
    cases.append(("C151-one-weight", pw.Hamiltonian(pw.ADJACENCY, c151, np.zeros(151), values)))
    return cases


@pytest.mark.parametrize("name,ham", _off_route_cases(), ids=[c[0] for c in _off_route_cases()])
def test_off_the_route(monkeypatch, name, ham):
    mat = ham.matrix
    for entry in (ham, np.array(mat)):
        dec, calls = _route_calls(monkeypatch, entry)
        assert calls == 0
    # only the n = 63 graphs are mirror symmetric: the route starts at 64
    mirrored = spectral._mirrored(spectral._edge_form(ham))
    assert mirrored == np.array_equal(mat, mat[::-1, ::-1]) == (ham.n < MIN_N)
    np.testing.assert_allclose(np.repeat(dec.eigenvalues, dec.multiplicities),
                               np.linalg.eigvalsh(mat)[::-1], rtol=0, atol=1e-12 * dec.scale)


BIPARTITE_ROUTE = [
    ("P64-adjacency", pw.hamiltonian(pw.build_path(64), pw.ADJACENCY)),
    ("C64-adjacency", pw.hamiltonian(pw.build_cycle(64), pw.ADJACENCY)),
    ("C64-laplacian", pw.hamiltonian(pw.build_cycle(64), pw.LAPLACIAN)),
    ("Q7-adjacency", pw.hamiltonian(pw.build_hypercube(7), pw.ADJACENCY)),
    ("Q7-laplacian", pw.hamiltonian(pw.build_hypercube(7), pw.LAPLACIAN)),
    ("C32xK2-adjacency", pw.hamiltonian(pw.cartesian_product(pw.build_cycle(32), pw.build_path(2)),
                                        pw.ADJACENCY)),
]


@pytest.mark.parametrize("name,ham", BIPARTITE_ROUTE, ids=[c[0] for c in BIPARTITE_ROUTE])
def test_bipartite_route_comes_first(monkeypatch, name, ham):
    # each is mirror symmetric too, but a route before this one takes it:
    # the product route Q7 and C32 x K2, the circulant route C64, the path
    # route P64, else the bipartite route
    form = spectral._edge_form(ham)
    assert spectral._mirrored(form)
    assert spectral._route_parts(form) is not None
    _, calls = _route_calls(monkeypatch, ham)
    assert calls == 0


def _pairs(n, rng):
    """Seeded e_u +- e_v pairs, and each vertex's mirror pair e_u +- e_{n-1-u}."""
    out = []
    for u in rng.choice(n // 2, 3, replace=False):
        out.append((int(u), n - 1 - int(u), 1.0))
        out.append((int(u), n - 1 - int(u), -1.0))
    for u, v in rng.choice(n, (4, 2), replace=False):
        out.append((int(u), int(v), float(rng.choice([-1.0, 1.0]))))
    return out


METAMORPHIC = [c for c in ROUTE_CASES if c[0] in ("P64-laplacian", "P65-laplacian", "C65-adjacency",
                                                  "C151-laplacian", "K64-adjacency", "K64,64-laplacian",
                                                  "chain64", "chain65")]


@pytest.mark.parametrize("name,ham", METAMORPHIC, ids=[c[0] for c in METAMORPHIC])
def test_verdicts_match_the_relabelled_graph(monkeypatch, name, ham):
    """The route's verdicts against eigh's on a relabelled copy: the same
    decision and reason, and tau to 1e-12."""
    other, p = _relabelled(ham, 5)
    dec, calls = _route_calls(monkeypatch, ham)
    ref, ref_calls = _route_calls(monkeypatch, other)
    assert (calls, ref_calls) == (1, 0)
    n = ham.n
    for u, v, s in _pairs(n, np.random.default_rng(n)):
        x = pair_state(n, u, v, s)
        try:
            partner = pw.pst_partner(dec, x)
        except pw.FixedStateError:
            partner = None
        y = partner if partner is not None else pair_state(n, (u + 1) % n, (v + 1) % n, s)
        px, py = np.empty(n), np.empty(n)
        px[p], py[p] = x, y
        a, b = pw.pst_decide(dec, x, y), pw.pst_decide(ref, px, py)
        assert (a.decision, a.reason, a.case) == (b.decision, b.reason, b.case)
        if b.decision:
            assert a.tau_min == pytest.approx(b.tau_min, rel=1e-12)


def test_middle_row_of_an_odd_matrix():
    # the middle vertex of the odd chain couples to both halves: its entries
    # enter the symmetric block scaled by sqrt(2), and the antisymmetric
    # eigenvectors vanish on it
    ham = _mirror_chain(65)
    evals, vectors = spectral._mirror_eigh(ham.matrix)
    scale = np.linalg.norm(ham.matrix, np.inf)
    np.testing.assert_allclose(ham.matrix @ vectors, vectors * evals, rtol=0, atol=1e-12 * scale)
    assert not vectors[32, 33:].any()
    np.testing.assert_allclose(vectors[:32], vectors[:32:-1] * np.r_[np.ones(33), -np.ones(32)], rtol=0, atol=0)


K2 = pw.build_path(2)
HALF_BLOCKS = [(f"K{p},{p}xK2-{kind}",
                pw.hamiltonian(pw.cartesian_product(pw.build_complete_bipartite(p, p), K2), kind))
               for p in (32, 40) for kind in (pw.ADJACENCY, pw.LAPLACIAN)]


@pytest.mark.parametrize("name,ham", HALF_BLOCKS, ids=[c[0] for c in HALF_BLOCKS])
def test_half_block_takes_the_mirror_route(monkeypatch, name, ham):
    """K_{p,p} x K2 takes the product route, and its 2p x 2p half block,
    the factor K_{p,p} (plus I for the Laplacian), passes through the same
    route table: the bipartite route declines its complete pattern and the
    mirror route takes it. It
    must give what np.linalg.eigh of the whole matrix gives: the same
    multiplicities, eigenvalues to 1e-12 * scale, projectors to 1e-10, and
    the same pst_decide and pst_partner verdicts on pair states."""
    got, calls = _route_calls(monkeypatch, ham)
    assert calls == 1
    assert isinstance(got.basis, spectral.KroneckerBasis)  # the top level is the product route's
    with monkeypatch.context() as patch:
        patch.setattr(spectral, "BIPARTITE_MIN_N", ham.n + 1)
        want = pw.decompose(ham)
    assert isinstance(want.basis, spectral.DenseBasis)
    assert got.multiplicities == want.multiplicities
    np.testing.assert_allclose(got.eigenvalues, want.eigenvalues, rtol=0, atol=1e-12 * want.scale)
    for j in range(want.k):
        np.testing.assert_allclose(projector(got, j), projector(want, j), rtol=0, atol=1e-10)
    assert got.warnings == want.warnings
    assert_same_verdicts(got, want, ham.n)
