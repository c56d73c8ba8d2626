"""Record paired parent/change runs of perfbench/run.py in BENCH_<label>.json.

Usage, from the root of a checkout:

    python3 scripts/bench_record.py --parent REV --label L \
        [--seeds 1 2 3] [--workloads catalog large-graph cli-cold] [--seconds 15]

The committed files of REV are exported (git archive) into a temporary
directory. For every seed and workload, `perfbench/run.py --trace 0` runs
once on that copy and once on this working tree, one after the other; the
side that runs first alternates from seed to seed, so that a drift in
machine speed does not favour one side. The last stdout line of each run is
its result and the line before it its report.

BENCH_<L>.json holds, per workload and end-to-end metric, the parent's and
the change's median and interquartile range over the seeds, the ratio of
the medians, and the pairs (one per seed) with the change's wins among
them: a win is a pair where the change is better in the metric's
`better` direction in BENCHMARK.json, and a tie counts for neither side;
per run, attempted, failed, correct and the verdict digest; the seeds and
seconds; the parent commit, the working tree's HEAD, whether the tree
differs from it and a digest of its src/ files; and the machine block
(nproc, python, numpy, scipy, BLAS) of the first report.
"""

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("catalog", "large-graph", "cli-cold")


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def src_digest(root: Path) -> str:
    """sha256 (first 16 hex digits) over the paths and bytes of src/**/*.py."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, check=True, capture_output=True, text=True)
    report_line, result_line = proc.stdout.strip().splitlines()[-2:]
    result = json.loads(result_line)
    result["report"] = json.loads(report_line)["report"]
    return result


def directions() -> dict:
    """metric name -> "higher" or "lower", from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}


def wins(parent: list[float], change: list[float], better: str | None) -> dict:
    """The pairs, and those the change wins in the better direction (None
    without one); a tie counts for neither side."""
    sign = {"higher": 1, "lower": -1}.get(better)
    won = None if sign is None else sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    return {"wins": won, "pairs": len(parent)}


def summary(values: list[float]) -> dict:
    # quantiles needs two points; one run repeated gives its own value thrice
    q1, median, q3 = statistics.quantiles(values * 2 if len(values) == 1 else values,
                                          n=4, method="inclusive")
    return {"median": median, "iqr": q3 - q1, "values": values}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision to compare against")
    ap.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    ap.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    ap.add_argument("--seconds", type=float, default=15.0)
    args = ap.parse_args()

    parent = git("rev-parse", "--verify", args.parent + "^{commit}")
    better = directions()
    runs = {w: {"parent": [], "change": []} for w in args.workloads}
    machine = None
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        archive = subprocess.run(["git", "archive", parent], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        roots = {"parent": Path(tmp), "change": ROOT}
        for i, seed in enumerate(args.seeds):
            for workload in args.workloads:
                sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in sides:
                    result = run_once(roots[side], workload, seed, args.seconds)
                    machine = machine or {k: v for k, v in result["report"]["machine"].items()
                                          if k != "seed"}
                    runs[workload][side].append({
                        "seed": seed,
                        "attempted": result["attempted"],
                        "failed": result["failed"],
                        "correct": result["correct"],
                        "sha256_16": result["report"]["verdict_digest"]["sha256_16"],
                        "metrics": {k: m["value"] for k, m in result["metrics"].items()},
                    })
                    print(f"{workload} seed {seed} {side}: "
                          f"ops_per_s {result['metrics']['ops_per_s']['value']:.4g}", file=sys.stderr)

    workloads = {}
    for workload, sides in runs.items():
        names = sides["parent"][0]["metrics"].keys()
        metrics = {}
        for name in names:
            p = summary([r["metrics"][name] for r in sides["parent"]])
            c = summary([r["metrics"][name] for r in sides["change"]])
            metrics[name] = {"parent": p, "change": c,
                             "ratio": c["median"] / p["median"] if p["median"] else None,
                             **wins(p["values"], c["values"], better.get(name))}
        digests_match = all(a["sha256_16"] == b["sha256_16"]
                            for a, b in zip(sides["parent"], sides["change"]))
        workloads[workload] = {"metrics": metrics, "digests_match": digests_match, "runs": sides}

    head = git("rev-parse", "HEAD")
    doc = {
        "label": args.label,
        "seeds": args.seeds,
        "seconds": args.seconds,
        "parent": parent,
        "change": {"head": head, "dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
                   "src_sha256_16": src_digest(ROOT)},
        "machine": machine,
        "workloads": workloads,
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out.name}", file=sys.stderr)


if __name__ == "__main__":
    main()
