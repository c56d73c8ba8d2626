"""The spectral form read from the ratio table (periodicity.classify_form).

For a rational state of an integer Hamiltonian the support is closed under
conjugation, so it is periodic exactly when it is all integers or all
quadratic integers (a + b_j*sqrt(delta))/2 with one square-free delta
(Godsil, "Periodic graphs", EJC 18, 2011). The sweep checks that the form
read from the table agrees with the table's own periodicity verdict and
period on the supports of many small graphs.
"""

import math
from itertools import combinations

import numpy as np
import pytest

import pstwalk as pw
from conftest import random_tree
from pstwalk.periodicity import MAX_FORM_STEP, NonPeriodic, RatioTable


def _sweep_graphs():
    graphs = [pw.build_path(n) for n in range(2, 17)]
    graphs += [pw.build_cycle(n) for n in range(3, 17)]
    graphs += [pw.build_complete(n) for n in range(2, 17)]
    graphs += [pw.build_complete_bipartite(m, n) for m in range(1, 9) for n in range(m, 9)]
    graphs += [pw.build_hypercube(d) for d in range(2, 7)]
    graphs.append(pw.build_petersen())
    rng = np.random.default_rng(6)
    for _ in range(40):
        n = int(rng.integers(3, 13))
        edges = {(u, v) for u, v, _ in random_tree(rng, n).edges}  # connected
        edges |= {e for e in combinations(range(n), 2) if rng.random() < 0.25}
        graphs.append(pw.make_graph(n, sorted(edges)))
    return graphs


def _states(n):
    """Vertex states and every e_u + e_v, e_u - e_v as the columns of one matrix."""
    cols = [np.eye(n)]
    for s in (1.0, -1.0):
        pairs = np.zeros((n, n * (n - 1) // 2))
        for c, (u, v) in enumerate(combinations(range(n), 2)):
            pairs[u, c], pairs[v, c] = 1.0, s
        cols.append(pairs)
    return np.hstack(cols)


def test_godsil_invariant_over_graph_supports():
    counts = {"periodic": 0, "nonperiodic": 0}
    for g in _sweep_graphs():
        X = _states(g.n)
        for kind in (pw.ADJACENCY, pw.LAPLACIAN):
            for scale in (1.0, 3.0):
                dec = pw.decompose(scale * pw.hamiltonian(g, kind).matrix)
                mask = pw.support_mask(dec, X)
                for pattern in {col.tobytes(): col for col in mask.T}.values():
                    sup = dec.eigenvalues[pattern]
                    if len(sup) < 2:
                        continue
                    table = pw.ratio_condition(sup)
                    form = pw.classify_form(table)
                    where = (g.n, g.edges[:4], kind, scale, np.round(sup, 6))
                    if isinstance(table, NonPeriodic):
                        counts["nonperiodic"] += 1
                        assert form.variant == "nonperiodic", where
                        continue
                    counts["periodic"] += 1
                    assert form is not None and form.variant in ("integer", "quadratic"), where
                    values = (form.a + np.array(form.b) * math.sqrt(form.delta)) / 2.0
                    assert np.max(np.abs(values - sup)) <= 1e-9 * np.max(np.abs(sup)), where
                    closed = 2.0 * math.pi / (form.g * math.sqrt(form.delta))
                    assert closed == pytest.approx(table.period, rel=1e-9), where
    assert counts["periodic"] > 500 and counts["nonperiodic"] > 500, counts


def test_classify_form_reads_only_the_table():
    # a NonPeriodic table is the only source of the nonperiodic variant
    assert pw.classify_form(NonPeriodic(offending_index=2, ratio=0.3, residual=1e-3)).variant == "nonperiodic"
    # periodic tables with no integer/quadratic form: a step below one half
    # (1e-3 times the P7 end-pair support), one that is no g*sqrt(delta),
    # one past MAX_FORM_STEP, an integer step with a half-integer lam_1, and
    # quadratic steps whose a is not an integer or whose ratios are not
    # symmetric (no conjugate pairs)
    root2 = math.sqrt(2.0)
    for sup in ([1e-3 * root2, 0.0, -1e-3 * root2],
                [1.3, 0.0, -1.3],
                [MAX_FORM_STEP * root2, 0.0, -MAX_FORM_STEP * root2],
                [2.5, 0.5],
                [2 * root2, root2, 0.0],
                [3 / root2, 1 / root2, -3 / root2]):
        table = pw.ratio_condition(np.array(sup))
        assert isinstance(table, RatioTable)
        assert pw.classify_form(table) is None, sup
    # just below the step bound the form is still read
    big = 2.0**25
    form = pw.classify_form(pw.ratio_condition(np.array([big, 0.0, -big])))
    assert (form.variant, form.b, form.g) == ("integer", (2**26, 0, -(2**26)), 2**25)
    # two eigenvalues follow the same rule as larger supports
    form = pw.classify_form(pw.ratio_condition(np.array([root2, -root2])))
    assert (form.variant, form.a, form.b, form.delta, form.g) == ("quadratic", 0, (2, -2), 2, 2)


def test_classify_form_scales_with_the_table():
    # the form of c*M is read from the same ratios with the step scaled by c
    g = pw.build_path(7)
    x = np.zeros(7)
    x[0], x[6] = 1.0, -1.0
    for c, want in ((1.0, ("quadratic", 0, (2, 0, -2), 2, 1)),
                    (3.0, ("quadratic", 0, (6, 0, -6), 2, 3)),
                    (1e-3, None)):
        dec = pw.decompose(c * pw.hamiltonian(g, pw.ADJACENCY).matrix)
        table = pw.ratio_condition(pw.support(dec, x).eigenvalues)
        assert isinstance(table, RatioTable)
        form = pw.classify_form(table)
        got = None if form is None else (form.variant, form.a, form.b, form.delta, form.g)
        assert got == want, c

