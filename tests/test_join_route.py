"""The join route of decompose: a join M = [[A, cJ], [cJ, B]] in join's
labelling, A and B with constant row sums alpha and beta, keeps each
factor's eigenpairs orthogonal to its ones vector, and takes the last two
from the quotient [[alpha, c sqrt(pq)], [c sqrt(pq), beta]] (Merris, Linear
Algebra Appl. 278, 1998). spectral._join_route reads the split from the
EdgeForm, sends each factor back through the route table, or gives an
edgeless one the basis I, and holds V as a JoinBasis. decompose takes it
from ROUTE_MIN_N on, after the product, circulant and path routes: K_{p,q}
of either kind, the adjacency of a join of regular graphs and the Laplacian
of any join. It must give what np.linalg.eigh gives: the same clusters and
multiplicities, eigenvalues to 1e-12 * scale and projectors to 1e-10; its
yes verdicts hold under scipy's expm; no eigh sees the join itself. The
inputs are route_table.ROUTE_OF's rows that the route takes or passes on,
and the shapes the large-graph workload decides."""

import numpy as np
import pytest

import pstwalk as pw
from pstwalk import spectral
from pstwalk.spectral import JoinBasis
from conftest import (assert_same_verdicts, check_basis, entries, pair_state, route_calls, route_of, taken)
from oracles import eigh_decompose
from route_table import KINDS, assert_declined, assert_matches_eigh, assert_transfer, row, rows

CASES = [(f"{r.name}-{entry}", m) for r in rows("join") for entry, m in entries(r.build(), r.shifted)]


@pytest.mark.parametrize("name,m", CASES, ids=[c[0] for c in CASES])
def test_route_matches_eigh(monkeypatch, name, m):
    assert_matches_eigh(monkeypatch, m, "join", proj_atol=1e-10)


@pytest.mark.parametrize("name", [r.name for r in rows("join")])
def test_basis_protocol(name):
    """project and lift against the dense V on b = 3, 1 and 0 columns, on a
    bool and an index cols, and the round trip; an edgeless factor (K_{p,q},
    the empty part of E40vK30) holds no basis of its own."""
    dec = pw.decompose(row("join", name).build())
    assert isinstance(dec.basis, JoinBasis)
    edgeless = name.startswith(("K", "E"))
    assert (dec.basis.sides[0][0] is None) == edgeless
    check_basis(dec, np.random.default_rng(dec.n))


DECLINED = rows(declines="join") + [row("eigh", f"K31,32-{kind}") for kind in KINDS]


@pytest.mark.parametrize("r", DECLINED, ids=[r.name for r in DECLINED])
def test_route_declined(monkeypatch, r):
    for _, m in entries(r.build(), r.shifted):
        assert_declined(monkeypatch, m, "join", r.route)


TRANSFERS = [("K30,50", KINDS, (0, 79, 1.0)), ("Q6vC70", KINDS, (0, 1, -1.0)),
             ("E40vK30", (pw.LAPLACIAN,), (0, 69, -1.0))]


@pytest.mark.parametrize("name,kind,pair", [(name, kind, pair) for name, kinds, pair in TRANSFERS for kind in kinds])
def test_transfer_holds_under_expm(monkeypatch, name, kind, pair):
    """A state with a partner on the route's decomposition: found, decided
    yes and verified with V never built, as on eigh's, and true under expm."""
    ham = row("join", f"{name}-{kind}").build()
    dec = pw.decompose(ham)
    x = pair_state(ham.n, *pair)
    if pw.pst_partner(dec, x) is None:
        pytest.fail(f"{name}-{kind}: no partner for {pair}")
    assert_transfer(monkeypatch, dec, eigh_decompose(ham), ham, x)


def _large_graph_shapes():
    """The join shapes the large-graph workload decides with n >= 64:
    K_{p,q} with p != q and p = q, 64 <= p + q <= 256, Q_d v C_b and
    C_a v K_b, with a factor on each side of ROUTE_MIN_N."""
    cycle, complete, hypercube = pw.build_cycle, pw.build_complete, pw.build_hypercube
    shapes = [(f"K{p},{q}", pw.build_complete_bipartite(p, q)) for p, q in ((16, 48), (40, 60), (88, 162),
                                                                            (32, 32), (100, 100), (128, 128))]
    shapes += [(f"Q{d}vC{b}", pw.join(hypercube(d), cycle(b))) for d, b in ((3, 61), (5, 40), (6, 136))]
    shapes += [(f"C{a}vK{b}", pw.join(cycle(a), complete(b))) for a, b in ((20, 44), (63, 100), (64, 136))]
    shapes += [("K40vC90", pw.join(complete(40), cycle(90)))]
    return [(f"{name}-{kind}", pw.hamiltonian(g, kind)) for name, g in shapes for kind in KINDS]


SHAPES = _large_graph_shapes()


@pytest.mark.parametrize("name,ham", SHAPES, ids=[c[0] for c in SHAPES])
def test_large_graph_shapes_take_the_route(monkeypatch, name, ham):
    """The guard on the gain: each shape takes the join route, and
    np.linalg.eigh sees only blocks below ROUTE_MIN_N (a factor's, or the
    2 x 2 quotient), never the join; K_{p,q}, of two edgeless factors,
    only the quotient's."""
    sizes = []
    eigh = np.linalg.eigh

    def spy(a, *args, **kwargs):
        sizes.append(len(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    dec, calls = route_calls(monkeypatch, ham)
    assert route_of(calls) == dec.route == "join"
    assert max(sizes) < spectral.ROUTE_MIN_N
    assert sizes.count(2) >= 1 and ("," not in name or sizes == [2])


K2 = pw.build_path(2)
HALF_BLOCKS = [(f"K{p},{p}xK2-{kind}",
                pw.hamiltonian(pw.cartesian_product(pw.build_complete_bipartite(p, p), K2), kind))
               for p in (32, 40) for kind in KINDS]


@pytest.mark.parametrize("name,ham", HALF_BLOCKS, ids=[c[0] for c in HALF_BLOCKS])
def test_half_block_takes_the_join_route(monkeypatch, name, ham):
    """K_{p,p} x K2 takes the product route, and its factor K_{p,p} passes
    through the same route table to the join route, whose edgeless parts
    need no eigh. It must give what np.linalg.eigh of the whole matrix
    gives, and the same pst_decide and pst_partner verdicts on pair states."""
    assert taken(route_calls(monkeypatch, ham)[1], "join") == 1
    got, want = assert_matches_eigh(monkeypatch, ham, "product", proj_atol=1e-10)
    assert isinstance(got.basis.g, JoinBasis)
    assert_same_verdicts(got, want, ham.n)
