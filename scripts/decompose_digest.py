"""sha256 digests of 168 decompositions, to check that a change keeps their bytes.

Usage, from the root of a checkout:

    PYTHONPATH=src python scripts/decompose_digest.py [--parent REV]

The inputs are Q6-Q10, P64, P65, P100, P300, C64, C128, C300, P40xK2,
C32xK2, C64xK2, the grid P8xP8 (at the routes' size gate), the tori C9xC9
and C16xP8, a seeded relabelled Q8, K32,32, K50,80, C40vK100, Q6vC70 and
E50vK30 (the empty graph joined to K30), which the factored routes take,
and P40 and C40 (below the size gate), a seeded random weighted graph on
100 vertices and K32,32 with weight 2 on its edge (0, 63), which eigh
takes (the last took the mirror route until that route was deleted); each
with both kinds, and each kind decomposed as a Hamiltonian h, as the raw
matrix np.array(h.matrix) and as 2.5 M + 0.75 I. The digest of one
decomposition covers its eigenvalues, offsets, dense V (its basis's
dense()), scale, multiplicities and warnings. The script prints the digest
of each input, with the class of its basis (a KroneckerBasis with both
factors' as one token, as KroneckerBasis(FourierBasis,DenseBasis), an H
held as a dense array named ndarray), which names the route it took and,
for a product, its split, and one digest over all of them.

With --parent, the committed src/ of REV is exported (git archive) into a
temporary directory, this script runs again in a fresh interpreter that
imports pstwalk from there, and each input is reported as matching or
differing, a differing one with REV's basis class where it changed. Only
runs on one machine can be compared: LAPACK's last bits depend on the CPU.
Both sides run here on one machine, so a difference is a real change: the
exit status is 1 when any input differs, else 0.
"""

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import pstwalk as pw

ROOT = Path(__file__).resolve().parent.parent


def random_weighted():
    """A seeded G(100, 0.1) with weights in [1, 4): its triangles and uneven
    degrees leave it to eigh."""
    rng = np.random.default_rng(100)
    u, v = np.triu_indices(100, 1)
    keep = rng.random(len(u)) < 0.1
    return pw.make_graph(100, list(zip(u[keep].tolist(), v[keep].tolist(),
                                       rng.uniform(1.0, 4.0, keep.sum()).tolist())))


def inputs():
    """(name, Hamiltonian or raw matrix) for the 168 decompositions."""
    q8 = pw.build_hypercube(8)
    p = np.random.default_rng(8).permutation(q8.n)
    k2, k3232 = pw.build_path(2), pw.build_complete_bipartite(32, 32)
    graphs = ([(f"Q{d}", pw.build_hypercube(d)) for d in range(6, 11)]
              + [(f"P{n}", pw.build_path(n)) for n in (64, 65, 100, 300)]
              + [(f"C{n}", pw.build_cycle(n)) for n in (64, 128, 300)]
              + [("P40xK2", pw.cartesian_product(pw.build_path(40), k2)),
                 ("C32xK2", pw.cartesian_product(pw.build_cycle(32), k2)),
                 ("C64xK2", pw.cartesian_product(pw.build_cycle(64), k2)),
                 ("P8xP8", pw.cartesian_product(pw.build_path(8), pw.build_path(8))),
                 ("C9xC9", pw.cartesian_product(pw.build_cycle(9), pw.build_cycle(9))),
                 ("C16xP8", pw.cartesian_product(pw.build_cycle(16), pw.build_path(8))),
                 ("Q8-relabelled", pw.make_graph(q8.n, [(int(p[a]), int(p[b]), w) for a, b, w in q8.edges])),
                 ("P40", pw.build_path(40)), ("C40", pw.build_cycle(40)),
                 ("random-weighted100", random_weighted()), ("K32,32", k3232),
                 ("K32,32-heavy", pw.make_graph(64, [(u, v, 2.0 if (u, v) == (0, 63) else w)
                                                     for u, v, w in k3232.edges])),
                 ("K50,80", pw.build_complete_bipartite(50, 80)),
                 ("C40vK100", pw.join(pw.build_cycle(40), pw.build_complete(100))),
                 ("Q6vC70", pw.join(pw.build_hypercube(6), pw.build_cycle(70))),
                 ("E50vK30", pw.join(pw.build_empty(50), pw.build_complete(30)))])
    for name, g in graphs:
        for kind in (pw.ADJACENCY, pw.LAPLACIAN):
            h = pw.hamiltonian(g, kind)
            yield f"{name}-{kind}-hamiltonian", h
            yield f"{name}-{kind}-raw", np.array(h.matrix)
            yield f"{name}-{kind}-shifted", 2.5 * h.matrix + 0.75 * np.eye(g.n)


def digest(dec) -> str:
    h = hashlib.sha256()
    for arr in (dec.eigenvalues, dec.offsets, dec.basis.dense()):
        h.update(np.ascontiguousarray(arr).tobytes())
    h.update(repr((dec.scale, dec.multiplicities, dec.warnings)).encode())
    return h.hexdigest()


def basis_class(dec) -> str:
    """The class of dec's basis, a KroneckerBasis's with its two factors',
    as KroneckerBasis(DenseBasis,DenseBasis), so that a changed split
    shows; a revision that held H as an array names it ndarray."""
    basis = dec.basis
    name = type(basis).__name__
    return f"{name}({type(basis.g).__name__},{type(basis.h).__name__})" if hasattr(basis, "g") else name


def parent_digests(rev: str, script: str) -> dict:
    """name -> value (a digest and any notes after it), as `script` prints
    them for REV's committed src/."""
    with tempfile.TemporaryDirectory(prefix="digest-parent-") as tmp:
        archive = subprocess.run(["git", "archive", rev, "src"], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        env = {**os.environ, "PYTHONPATH": str(Path(tmp) / "src")}
        lines = subprocess.run([sys.executable, script], env=env, check=True, capture_output=True,
                               text=True).stdout.splitlines()
    return dict(line.split(None, 1) for line in lines)


def report(found: dict, rev: str | None, script: str) -> None:
    """Print each input's value, a digest and any notes after it, and one
    digest over all the digests; with a revision, mark each as matching or
    differing in its digest from `script` run on REV's src/, one whose notes
    changed with REV's notes, and exit with status 1 when any input
    differs."""
    digest_of = {name: value.split()[0] for name, value in found.items()}
    found["overall"] = digest_of["overall"] = hashlib.sha256("".join(digest_of.values()).encode()).hexdigest()
    want = {name: value.split() for name, value in parent_digests(rev, script).items()} if rev else {}
    for name, value in found.items():
        status = ""
        if want:
            was = want.get(name, [None])
            status = "  match" if was[0] == digest_of[name] else "  DIFFERS"
            if was[1:] and was[1:] != value.split()[1:]:
                status += f" (was {' '.join(was[1:])})"
        print(f"{name:40s} {value}{status}")
    if want:
        same = sum(want.get(name, [None])[0] == digest_of[name] for name in found if name != "overall")
        print(f"{same} of {len(found) - 1} inputs byte-identical to {rev}")
        if same < len(found) - 1:
            sys.exit(1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", help="git revision whose decompositions to compare against")
    args = ap.parse_args()
    found = {}
    for name, m in inputs():
        dec = pw.decompose(m)
        found[name] = f"{digest(dec)} {basis_class(dec)}"
    report(found, args.parent, __file__)


if __name__ == "__main__":
    main()
