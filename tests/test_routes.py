"""The route contract across the table of inputs, route_table.ROUTE_OF:
below ROUTE_MIN_N only eigh is called, and at it each route takes its own
input. The bipartite rows, and the rows eigh takes that no route passes on,
agree with eigh and keep the basis protocol here; the route files check
the other rows, each through assert_matches_eigh or assert_declined, which
also check the route, its basis class and when a Hamiltonian builds its
matrix. Every route returns its values sorted, in either direction, and
each cluster's width stays within its links to the clustering threshold."""

import importlib.util
from functools import wraps
from pathlib import Path

import numpy as np
import pytest

import pstwalk as pw
from pstwalk import routes, spectral
from pstwalk.routes import FourierBasis, PathBasis
from pstwalk.spectral import DenseBasis, _eigh_route
import census
from conftest import check_basis, entries, route_calls, set_routes
from route_table import KINDS, assert_matches_eigh, assert_widths, row, rows


def _entry(r, entry):
    """The row's entry, built afresh: a Hamiltonian that has not built its
    matrix yet."""
    ham = r.build()
    return ham if entry == "hamiltonian" else dict(entries(ham, r.shifted))[entry]


BELOW = ["P63-adjacency", "P63", "C63", "C63-laplacian", "P63-heavy-adjacency", "P63-heavy-laplacian",
         "K31,32-adjacency", "K31,32-laplacian", "C31xK2-adjacency", "C31xK2-laplacian"]
AT = [("path", "P64-adjacency"), ("path", "P64-laplacian"), ("circulant", "C64-adjacency"),
      ("circulant", "C64-laplacian"), ("product", "Q6-adjacency"), ("product", "Q6-laplacian"),
      ("product", "P8xP8-adjacency"), ("product", "P8xP8-laplacian"), ("join", "K32,32-adjacency"),
      ("join", "K32,32-laplacian"), ("bipartite", "P64-heavy-adjacency"), ("eigh", "K32,32-adjacency"),
      ("eigh", "K32,32-laplacian")]


@pytest.mark.parametrize("entry", ["hamiltonian", "raw"])
@pytest.mark.parametrize("name", BELOW)
def test_gate_below(monkeypatch, name, entry):
    """Just below ROUTE_MIN_N, the product, circulant, path, join and
    bipartite routes are never called: eigh alone decides."""
    m = _entry(row("eigh", name), entry)
    assert spectral._edge_form(m).n < spectral.ROUTE_MIN_N
    _, calls = route_calls(monkeypatch, m)
    assert calls == [("eigh", True)]


@pytest.mark.parametrize("entry", ["hamiltonian", "raw"])
@pytest.mark.parametrize("route,name", AT)
def test_gate_at(monkeypatch, route, name, entry):
    """At ROUTE_MIN_N each route takes its own input, the routes before it
    passing it on (a product's factors, G then H, go to eigh, below the
    gate)."""
    m = _entry(row(route, name), entry)
    assert spectral._edge_form(m).n == spectral.ROUTE_MIN_N
    _, calls = route_calls(monkeypatch, m)
    before = [spectral.route_name(r) for r in routes.ROUTES]
    before = before[:before.index(route)]
    factor = [("eigh", True)] * 2 if route == "product" else []
    assert calls == factor + [(r, False) for r in before] + [(route, True)]


# the rows no route file checks: the bipartite route's, and those eigh takes
# that no route passes on; and K2xC32, a product at q = 32 that the bipartite
# route took before the product route read q > 2, with the product route held
# off, so the bipartite route still meets a product of an even cycle
TAKEN = ([(f"{r.route}-{r.name}-{entry}", r.route, m, None)
          for r in rows("bipartite") + rows("eigh", declines=False) for entry, m in entries(r.build(), r.shifted)]
         + [(f"bipartite-K2xC32-{entry}", "bipartite", m, "product")
            for entry, m in entries(row("product", "K2xC32-adjacency").build(), shifted=False)])


@pytest.mark.parametrize("name,route,m,held_off", TAKEN, ids=[c[0] for c in TAKEN])
def test_route_matches_eigh(monkeypatch, name, route, m, held_off):
    """These rows agree with eigh, as the route files check theirs; a route
    held off is taken out of ROUTES first."""
    if held_off:
        set_routes(monkeypatch, tuple(r for r in routes.ROUTES if spectral.route_name(r) != held_off))
    got, _ = assert_matches_eigh(monkeypatch, m, route, proj_atol=1e-10)
    check_basis(got, np.random.default_rng(got.n))


def _plant(monkeypatch, planted):
    """ROUTES (set_routes) with the entry of planted's name replaced by planted."""
    set_routes(monkeypatch, tuple(planted if r.__name__ == planted.__name__ else r for r in routes.ROUTES))


def _swapped(route):
    """route with its first value swapped with the first that differs from
    it: sorted in neither direction."""
    @wraps(route)
    def planted(form):
        values, basis = route(form)
        j = np.flatnonzero(values != values[0])[0]
        values[[0, j]] = values[[j, 0]]
        return values, basis
    return planted


@wraps(routes._circulant_route)
def _ascending_circulant(form):
    """The circulant route with its values and its basis's order reversed."""
    pairs = routes._circulant_route(form)
    if pairs is None:
        return None
    values, basis = pairs
    return values[::-1], FourierBasis(form.n, basis.order[::-1])


@wraps(_eigh_route)
def _descending_eigh(form):
    """eigh with its values and its vectors reversed."""
    values, basis = _eigh_route(form)
    return values[::-1], DenseBasis(basis.v[:, ::-1])


@pytest.mark.parametrize("route,name", [("eigh", "P63"), ("eigh", "random-weighted-laplacian"),
                                        ("circulant", "C64-adjacency"), ("circulant", "circ97-125-laplacian")])
def test_unsorted_route_raises(monkeypatch, route, name):
    """A route whose values are sorted in neither direction is refused at
    once, never clustered."""
    _plant(monkeypatch, _swapped(getattr(routes, f"_{route}_route")))
    with pytest.raises(pw.NumericFailureError, match=f"the {route} route returned unsorted eigenvalues"):
        pw.decompose(row(route, name).build())


ASCENDING = ["C64-adjacency", "C65-laplacian", "K64-adjacency", "K64-laplacian", "circ97-125-adjacency",
             "C80-diameters-laplacian"]
DESCENDING = ["P63", "K63-adjacency", "K31,32-laplacian", "random-weighted-adjacency", "edgeless-64"]


@pytest.mark.parametrize("name", ASCENDING)
def test_ascending_factored_route(monkeypatch, name):
    """The circulant route planted ascending: decompose reads the order from
    its values and regroups the blocks through basis.dense(), so it keeps
    eigh's answer on a DenseBasis."""
    _plant(monkeypatch, _ascending_circulant)
    assert_matches_eigh(monkeypatch, row("circulant", name).build(), "circulant", basis=DenseBasis)


@pytest.mark.parametrize("name", DESCENDING)
def test_descending_eigh(monkeypatch, name):
    """eigh planted descending keeps its answer, with no regrouping, its V
    read-only as an ascending answer's is."""
    _plant(monkeypatch, _descending_eigh)
    got, _ = assert_matches_eigh(monkeypatch, row("eigh", name).build(), "eigh")
    assert not got.basis.v.flags.writeable


@pytest.mark.parametrize("name,route,basis", [("C64", "circulant", FourierBasis), ("P64", "path", PathBasis),
                                              ("P5", "eigh", DenseBasis)])
def test_tied_values_keep_their_basis(name, route, basis):
    """A Laplacian plus 1e20 I, whose values all round to 1e20: one cluster
    of width 0 on the route's own basis, not regrouped into a dense one;
    eigh's V is its own array, read-only."""
    g = pw.build_cycle(64) if name == "C64" else pw.build_path(int(name[1:]))
    m = np.array(pw.hamiltonian(g, pw.LAPLACIAN).matrix) + 1e20 * np.eye(g.n)
    dec = pw.decompose(m)
    assert (dec.route, type(dec.basis), dec.multiplicities) == (route, basis, (g.n,))
    assert dec.eigenvalues.tolist() == [1e20] and dec.widths.tolist() == [0.0]
    if basis is DenseBasis:
        assert np.array_equal(dec.basis.v, np.linalg.eigh(m)[1]) and not dec.basis.v.flags.writeable


@pytest.mark.parametrize("kind", KINDS)
def test_cluster_widths_on_the_census(kind):
    """The widths of every census graph with n <= 5, as _assert_route checks
    them on every row of ROUTE_OF."""
    for n in range(2, 6):
        for g in census.graphs(n):
            assert_widths(pw.decompose(pw.hamiltonian(g, kind)))


def test_digest_inputs_take_every_route():
    """scripts/decompose_digest.py decomposes inputs on every route, so its
    digests gate each route's bytes."""
    path = Path(__file__).resolve().parent.parent / "scripts" / "decompose_digest.py"
    spec = importlib.util.spec_from_file_location("decompose_digest", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    taken = {pw.decompose(m).route for _, m in script.inputs()}
    assert taken == {spectral.route_name(r) for r in routes.ROUTES}
