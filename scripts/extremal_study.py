"""Sweep the least minimum transfer time over graph sizes.

Usage: python scripts/extremal_study.py [--nmax 12] [--exhaustive]

Prints one row per size with the extremal time for both walk Hamiltonians;
with --exhaustive both claims are verified against every connected graph
for sizes up to six, and the Laplacian and adjacency oracle maxima are
printed side by side.
"""

import argparse
import math

import pstwalk as pw


def _oracle(rep):
    if rep.oracle is None:
        return ""
    return (f"{rep.oracle['max_spread']:.6f} over "
            f"{rep.oracle['connected_graphs']} connected graphs")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--nmax", type=int, default=12)
    ap.add_argument("--exhaustive", action="store_true")
    args = ap.parse_args()

    print(f"{'n':>3}  {'lap tau':>12}  {'adj tau':>12}  {'adj tau (symbolic)':>20}  "
          f"{'lap oracle max spread':<40}  adj oracle max spread")
    for n in range(2, args.nmax + 1):
        exhaustive = args.exhaustive and n <= 6
        lap = pw.extremal_min_pst_search(n, pw.LAPLACIAN, exhaustive=exhaustive)
        adj = pw.extremal_min_pst_search(n, pw.ADJACENCY, exhaustive=exhaustive)
        print(f"{n:>3}  {lap.tau:>12.8f}  {adj.tau:>12.8f}  "
              f"{str(adj.tau_symbolic):>20}  {_oracle(lap):<40}  {_oracle(adj)}".rstrip())
        assert lap.verdict.decision and adj.verdict.decision
        if exhaustive:
            assert abs(lap.oracle["max_spread"] - n) <= 1e-9
            assert adj.optimality.startswith("verified"), adj.optimality
    print()
    print("Laplacian extremal time is pi/n exactly; the adjacency split graph")
    print(f"approaches pi*sqrt(3)/(2n): at n={args.nmax} the ratio to pi/n is "
          f"{adj.tau / (math.pi / args.nmax):.4f}")


if __name__ == "__main__":
    main()
