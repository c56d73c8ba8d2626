"""Theorem census: the paper's results over every connected graph on n
vertices, both Hamiltonians, and every pair and plus state e_u -+ e_v.

The graphs are the connected keys of transfer._spread_classes
(61 at n = 5, 787 at n = 6, covering every isomorphism class). For each
(graph, kind) the census checks
- paper result (i): every periodic state that is not fixed has a
  pst_partners partner that pst_decide accepts, at pst_partners' tau, and
  that verify_pst_numeric confirms at that tau;
- paper result (ii): universal_pst_pair is decided yes at its tau and
  verified there;
- the extremal theorem: the largest spread lambda_max - lambda_min over
  the census graphs is the exhaustive spread oracle's max_spread
  (extremal_min_pst_search), within SPREAD_TIE, and is n for the
  Laplacian, whose joins attain the bound n.

census(n) returns the digest of one n, per kind, with the violations of
any of them. tests/golden/census.json holds the digests of n = 2..6;
tier-1 checks n <= 5 (test_census.py), and CI checks n = 6 with

    PYTHONPATH=src:tests python -c 'import census; census.check(6)'

record() rewrites the digest file from the library as it stands."""

import json
from collections import Counter
from pathlib import Path

import numpy as np

import pstwalk as pw
from pstwalk.tolerances import SPREAD_TIE
from pstwalk.transfer import _spread_classes

DIGEST = Path(__file__).parent / "golden" / "census.json"
KINDS = (pw.ADJACENCY, pw.LAPLACIAN)
ROUND = 1e-9  # how far a partner entry may sit from an integer and still read as one


def graphs(n: int):
    """The connected graphs among the degree-sorted keys on n vertices."""
    iu = np.transpose(np.triu_indices(n, 1))
    for key in _spread_classes(n, pw.LAPLACIAN)[0]:
        g = pw.make_graph(n, iu[(int(key) >> np.arange(len(iu))) & 1 == 1])
        if pw.is_connected(g):
            yield g


def states(n: int) -> np.ndarray:
    """Every pair state e_u - e_v and plus state e_u + e_v, u < v, as the
    columns of one (n, n (n - 1)) matrix."""
    cols = []
    for u in range(n):
        for v in range(u + 1, n):
            for s in (-1.0, 1.0):
                x = np.zeros(n)
                x[u], x[v] = 1.0, s
                cols.append(x)
    return np.column_stack(cols)


def shape(y: np.ndarray) -> str | None:
    """"pair" or "plus" when y is +-(e_a - e_b) or +-(e_a + e_b), else None."""
    r = np.round(y)
    if np.abs(y - r).max() > ROUND or sorted(np.abs(r[r != 0]).tolist()) != [1.0, 1.0]:
        return None
    a, b = r[r != 0]
    return "pair" if a != b else "plus"


def census(n: int) -> tuple[dict, list[str]]:
    """(digest, violations) over the census graphs on n vertices. The digest
    holds, per kind, the counts of graphs, states, fixed, nonperiodic
    (neither fixed nor found), found and yes states, the yes verdicts' cases
    (size2, 2a, 2b), the found partners of pair and plus shape, and the
    graphs whose universal pair is decided yes."""
    X = states(n)
    digest = {kind: Counter() for kind in KINDS}
    spread = dict.fromkeys(KINDS, -np.inf)
    violations = []
    for g in graphs(n):
        for kind in KINDS:
            row = digest[kind]
            where = f"n={n} {kind} edges={[e[:2] for e in g.edges]}"
            dec = pw.decompose(pw.hamiltonian(g, kind))
            spread[kind] = max(spread[kind], float(dec.eigenvalues[0] - dec.eigenvalues[-1]))
            partners, found, fixed, tau = pw.pst_partners(dec, X)
            row["graphs"] += 1
            row["states"] += X.shape[1]
            row["fixed"] += int(fixed.sum())
            row["nonperiodic"] += int((~found & ~fixed).sum())
            row["found"] += int(found.sum())
            for c in np.flatnonzero(found):
                x, y = X[:, c], partners[:, c]
                verdict = pw.pst_decide(dec, x, y)
                if not verdict.decision or verdict.tau_min != tau[c]:
                    violations.append(f"(i) {where} x={x.tolist()}: {verdict.reason}")
                    continue
                if not pw.verify_pst_numeric(dec, x, y, verdict.tau_min).passed:
                    violations.append(f"(i) {where} x={x.tolist()}: not verified")
                    continue
                row["yes"] += 1
                row[verdict.case] += 1
                kind_of = shape(y)
                if kind_of is not None:
                    row[f"{kind_of}_partners"] += 1
            u, v, t = pw.universal_pst_pair(dec)
            verdict = pw.pst_decide(dec, u, v)
            if not (verdict.decision and abs(verdict.tau_min - t) <= 1e-12 * t
                    and pw.verify_pst_numeric(dec, u, v, t).passed):
                violations.append(f"(ii) {where}: {verdict.reason}")
                continue
            row["universal_yes"] += 1
    for kind in KINDS:
        oracle = pw.extremal_min_pst_search(n, kind, exhaustive=True).oracle["max_spread"]
        if abs(spread[kind] - oracle) > SPREAD_TIE or (kind == pw.LAPLACIAN and abs(spread[kind] - n) > SPREAD_TIE):
            violations.append(f"(extremal) n={n} {kind}: largest spread {spread[kind]!r}, oracle {oracle!r}")
    keys = ("graphs", "states", "fixed", "nonperiodic", "found", "yes", "size2", "2a", "2b",
            "pair_partners", "plus_partners", "universal_yes")
    return {kind: {key: digest[kind][key] for key in keys} for kind in KINDS}, violations


def recorded(n: int) -> dict:
    """The committed digest of n."""
    return json.loads(DIGEST.read_text())[str(n)]


def check(n: int) -> None:
    """Run the census of n: SystemExit on a violation of any result or a
    digest that differs from the committed one."""
    digest, violations = census(n)
    if violations:
        raise SystemExit(f"census n={n}: {len(violations)} violations, first: {violations[0]}")
    if digest != recorded(n):
        raise SystemExit(f"census n={n}: digest {digest} differs from {recorded(n)}")
    print(f"census n={n}: {json.dumps(digest, sort_keys=True)}")


def record(ns=range(2, 7)) -> None:
    """Write the digests of ns to DIGEST, refusing if any result is violated."""
    out = {}
    for n in ns:
        digest, violations = census(n)
        if violations:
            raise SystemExit(f"census n={n}: {violations[0]}")
        out[str(n)] = digest
    DIGEST.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
