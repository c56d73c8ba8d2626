"""Fidelity scan of the plus-state transfer on the 8-cycle.

Usage: python scripts/scan_demo.py [--out scan.csv] [--steps N]

Writes the sampled fidelity series and reports the located peak against the
decision procedure's transfer time. Exits 1 when the peak lies more than
1e-12 * tau from tau, so the script doubles as a check of the peak refinement.
"""

import argparse
import math
import sys

import numpy as np

import pstwalk as pw


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default=None)
    ap.add_argument("--steps", type=int, default=800)
    args = ap.parse_args()

    g = pw.build_cycle(8)
    dec = pw.decompose(pw.hamiltonian(g, pw.ADJACENCY))
    x = np.zeros(8)
    y = np.zeros(8)
    x[0] = x[4] = 1.0
    y[2] = y[6] = 1.0

    verdict = pw.pst_decide(dec, x, y)
    print(f"decision: {verdict.decision}, tau_min = {verdict.tau_min:.12f} "
          f"({verdict.tau_symbolic})")
    scan = pw.fidelity_scan(dec, x, y, 2.0 * verdict.tau_min, args.steps)
    print(f"scan peak {scan.peak_value:.12f} at t = {scan.peak_time:.12f} "
          f"(expected near {math.pi / 2:.12f})")
    error = abs(scan.peak_time - verdict.tau_min)
    if error > 1e-12 * verdict.tau_min:
        print(f"peak time is {error / verdict.tau_min:.2e} * tau from tau", file=sys.stderr)
        return 1
    if args.out:
        rows = ["t,fidelity"] + [f"{t!r},{v!r}" for t, v in zip(scan.times, scan.values)]
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("\n".join(rows) + "\n")
        print(f"series written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
