"""sha256 digests of the pair/plus catalogs, their partner passes and the
spread oracles, to check that a change keeps their bytes.

Usage, from the root of a checkout:

    PYTHONPATH=src python scripts/catalog_digest.py [--parent REV]

The inputs are every family, kind and size within CATALOG_GUARD: paths
P2-P30, cycles C3-C30, complete graphs K2-K30 and complete bipartite
graphs K_{m,n} with 1 <= m <= n and m + n <= 30, each with both kinds; and
the exhaustive spread oracle for n = 2..6 with both kinds. The digest of a
catalog input covers every pair_plus_catalog entry (its integers, tau by
repr and tau_symbolic) and the bytes of the four arrays pst_partners returns
for the catalog's state matrix of pair and plus states; that of an oracle
covers the repr of the dict _spread_oracle returns. The script prints the
digest of each input and one over all of them.

With --parent, the committed src/ of REV is exported (git archive) into a
temporary directory, this script runs again in a fresh interpreter that
imports pstwalk from there, and each input is reported as matching or
differing, as scripts/decompose_digest.py does; the exit status is 1 when
any input differs, else 0.
"""

import argparse
import hashlib

import numpy as np

import pstwalk as pw
from decompose_digest import report
from pstwalk.families import CATALOG_GUARD
from pstwalk.transfer import _spread_oracle


def sizes():
    """(family, sizes) of every catalog sweep within CATALOG_GUARD."""
    yield from (("path", (n,)) for n in range(2, CATALOG_GUARD + 1))
    yield from (("cycle", (n,)) for n in range(3, CATALOG_GUARD + 1))
    yield from (("complete", (n,)) for n in range(2, CATALOG_GUARD + 1))
    yield from (("complete-bipartite", (m, n)) for m in range(1, CATALOG_GUARD // 2 + 1)
                for n in range(m, CATALOG_GUARD - m + 1))


def pair_plus_states(n: int) -> np.ndarray:
    """The state matrix pair_plus_catalog builds on n vertices."""
    try:
        from pstwalk.families import _pair_plus_states
    except ImportError:
        # revisions from before the helper built the same matrix inline in
        # pair_plus_catalog; that committed code no longer changes
        u, v = np.repeat(np.triu_indices(n, 1), 2, axis=1)
        X = np.zeros((n, len(u)))
        X[u, np.arange(len(u))] = 1.0
        X[v, np.arange(len(u))] = np.tile([-1.0, 1.0], len(u) // 2)
        return X
    return _pair_plus_states(n)[3]


def catalog_digest(family: str, kind: str, params: tuple) -> str:
    h = hashlib.sha256()
    for e in pw.pair_plus_catalog(family, kind, *params):
        fields = (e.s, e.u, e.v, e.partner_s, e.partner_u, e.partner_v, repr(e.tau), e.tau_symbolic)
        h.update(repr(fields).encode())
    build = {"path": pw.build_path, "cycle": pw.build_cycle, "complete": pw.build_complete,
             "complete-bipartite": pw.build_complete_bipartite}[family]
    g = build(*params)
    dec = pw.decompose(pw.hamiltonian(g, kind))
    for arr in pw.pst_partners(dec, pair_plus_states(g.n)):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", help="git revision whose catalogs to compare against")
    args = ap.parse_args()
    found = {}
    for family, params in sizes():
        for kind in (pw.ADJACENCY, pw.LAPLACIAN):
            name = f"{family}-{'x'.join(map(str, params))}-{kind}"
            found[name] = catalog_digest(family, kind, params)
    for n in range(2, 7):
        for kind in (pw.ADJACENCY, pw.LAPLACIAN):
            found[f"oracle-{n}-{kind}"] = hashlib.sha256(repr(_spread_oracle(n, kind)).encode()).hexdigest()
    report(found, args.parent, __file__)


if __name__ == "__main__":
    main()
