"""The route contract across the table of inputs, route_table.ROUTE_OF:
below ROUTE_MIN_N only eigh is called, and at it each route takes its own
input. The bipartite rows, and the rows eigh takes that no route passes on,
agree with eigh and keep the basis protocol here; the route files check
the other rows, each through assert_matches_eigh or assert_declined, which
also check the route, its basis class and when a Hamiltonian builds its
matrix."""

import numpy as np
import pytest

from pstwalk import spectral
from conftest import check_basis, entries, route_calls
from route_table import assert_matches_eigh, row, rows


def _entry(r, entry):
    """The row's entry, built afresh: a Hamiltonian that has not built its
    matrix yet."""
    ham = r.build()
    return ham if entry == "hamiltonian" else dict(entries(ham, r.shifted))[entry]


BELOW = ["P63-adjacency", "P63", "C63", "C63-laplacian", "P63-heavy-adjacency", "P63-heavy-laplacian",
         "K31,32-adjacency", "K31,32-laplacian", "C31xK2-adjacency", "C31xK2-laplacian"]
AT = [("path", "P64-adjacency"), ("path", "P64-laplacian"), ("circulant", "C64-adjacency"),
      ("circulant", "C64-laplacian"), ("product", "Q6-adjacency"), ("product", "Q6-laplacian"),
      ("bipartite", "P64-heavy-adjacency"), ("mirror", "K32,32-adjacency"), ("mirror", "K32,32-laplacian")]


@pytest.mark.parametrize("entry", ["hamiltonian", "raw"])
@pytest.mark.parametrize("name", BELOW)
def test_gate_below(monkeypatch, name, entry):
    """Just below ROUTE_MIN_N, the product, circulant, path, bipartite and
    mirror routes are never called: eigh alone decides."""
    m = _entry(row("eigh", name), entry)
    assert spectral._edge_form(m).n < spectral.ROUTE_MIN_N
    _, calls = route_calls(monkeypatch, m)
    assert calls == [("eigh", True)]


@pytest.mark.parametrize("entry", ["hamiltonian", "raw"])
@pytest.mark.parametrize("route,name", AT)
def test_gate_at(monkeypatch, route, name, entry):
    """At ROUTE_MIN_N each route takes its own input, the routes before it
    passing it on (a product's factor goes to eigh, below the gate)."""
    m = _entry(row(route, name), entry)
    assert spectral._edge_form(m).n == spectral.ROUTE_MIN_N
    _, calls = route_calls(monkeypatch, m)
    before = [r.__name__[1:-len("_route")] for r in spectral.ROUTES]
    before = before[:before.index(route)]
    factor = [("eigh", True)] if route == "product" else []
    assert calls == factor + [(r, False) for r in before] + [(route, True)]


# the rows no route file checks: the bipartite route's, and those eigh takes
# that no route passes on
TAKEN = [(f"{r.route}-{r.name}-{entry}", r.route, m) for r in rows("bipartite") + rows("eigh", declines=False)
         for entry, m in entries(r.build(), r.shifted)]


@pytest.mark.parametrize("name,route,m", TAKEN, ids=[c[0] for c in TAKEN])
def test_route_matches_eigh(monkeypatch, name, route, m):
    """These rows agree with eigh, as the route files check theirs."""
    got, _ = assert_matches_eigh(monkeypatch, m, route, proj_atol=1e-10)
    check_basis(got, np.random.default_rng(got.n))
