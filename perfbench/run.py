"""Layered benchmark for pstwalk.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {catalog,large-graph,cli-cold} \
        --seed N --seconds S --trace {0,1}

The library is imported from the checkout's `src/`; nothing is installed.
Every workload is a closed loop: one client in this process sends the next
operation when the previous one has returned.

--trace 0 runs a fixed list of operations: the seed's first R rounds (see
workloads.py), R chosen from S so that the list holds at least MIN_OPS
operations, so that the 90th percentile has ten samples beyond it, and at
least S seconds of work at the workload's NOMINAL_ROUND_S. The same seed and
S always give the same operations, so `attempted`, `failed` and the verdict
digest repeat exactly.

The machine this runs on is shared, and its speed drifts by up to 1.9x over
seconds to minutes. So the timings are normalised: a fixed probe computation
(SpeedProbe, which runs no library code; each workload's PROBE mixes the
pieces of its own hot paths) is timed before every operation and after the
last, and each operation's wall time is scaled by the workload's ref_s over
the median of the PROBE_WINDOW probes on each side of it. A normalised
second is a second on a machine that runs the probe in ref_s; a change to
the library moves normalised and wall time alike, machine drift moves only
the wall time. This process and the CLI processes it starts are pinned to
one CPU, so that the probe and the operations run on the same one. The
report line gives the raw wall-time figures and the probe's median beside
them, and the per-operation latencies go to .perfbench_out/. The end-to-end
metrics, all normalised except peak_rss_mb:

  ops_per_s      operations per normalised second of operation time
  latency_p50_s  median operation latency
  latency_p90_s  90th percentile latency (sample count in the report); both
                 are Harrell-Davis estimates, a weighted mean of the order
                 statistics around the percentile, which do not jump across
                 the gaps that the mix of operation kinds leaves between
                 neighbouring latencies
  states_per_s   states decided per normalised second of the operations
                 deciding them; a catalog sweep of an n-vertex graph counts
                 its n(n-1) pair/plus states, other operations their one
                 input state
  peak_rss_mb    peak RSS of this process over the loop, the probe's array
                 included; for cli-cold, the largest peak RSS of any CLI
                 process (started from spawner.py, so that this process's
                 own RSS does not count)
  setup_s        median over SETUP_REPEATS fresh processes of importing the
                 library, generating the inputs and warming up, each scaled
                 by the probes just before and after it (the probe mix of a
                 new process, workloads.NEW_PROCESS_PROBE)

The failure rate (operations that raised, exited nonzero or were refuted by
the check, over operations attempted) is printed in the report line; it is
not a gated metric because it is zero on most workloads.

--trace 1 runs the seed's first round of operations three times (untraced,
traced, untraced again) and prints the per-layer metrics, named
`<module>.<group>.<qty>`, and the tracing overhead. Running a fixed operation
list makes every count repeat exactly for a seed. Self times are summed over
the traced pass; a layer the workload never calls reads 0. Besides the
groups of spans.WRAPPED:

  spectral.eigh_floor_s    bare numpy.linalg.eigh on every decomposed matrix
  spectral.retained_bytes  computed, not measured: the largest sum of
                           ndarray nbytes held by one returned decomposition
  cli.python_startup_s     bare interpreter start-up; cli.import_s adds
                           `import pstwalk.cli` on top of it
  <module>.errors          exceptions leaving the module's wrapped functions
  trace.slowdown           untraced over traced operations per second
  trace.self_coverage      share of operation wall time covered by spans

After the operations, every output is re-checked independently (checks.py)
outside the timed region. The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics. `failed` counts operations
that raised, exited nonzero or were refuted; `correct` is false when an
output was refuted or the checker failed its own self-check (a planted wrong
partner and a planted wrong tau must both be refuted). The line before it is
a report with machine facts, sample counts, failures by exception type, and
a verdict digest of every operation run and of the seed's first round (the
only one a traced run has), which are identical across runs and commits
whenever the verdicts are.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
MIN_OPS = 100
SETUP_REPEATS = 5
PROBE_WINDOW = 4        # probes on each side of an operation whose median scales it
STARTUP_REPEATS = 3
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def limit_threads() -> int:
    """Run BLAS on one thread and pin this process to one CPU; must run
    before numpy is imported, and children inherit both. At these matrix
    sizes a second BLAS thread added run-to-run noise and no speed (measured
    on a shared 2-vCPU VM). Returns the number of CPUs this process had."""
    for var in BLAS_VARS:
        os.environ[var] = "1"
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    return len(cpus)


NPROC = limit_threads()

import numpy as np  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def import_pstwalk():
    if not (SRC / "pstwalk" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no pstwalk sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import pstwalk

    if Path(pstwalk.__file__).resolve().parent != (SRC / "pstwalk").resolve():
        raise SystemExit(f"perfbench: imported pstwalk from {pstwalk.__file__}, not {SRC}")
    return pstwalk


class SpeedProbe:
    """A fixed computation whose wall time tracks the machine's current speed
    for one workload's hot paths, without running any of the library's code:
    `fractions` calls of Fraction.limit_denominator, `eigh_reps` numpy eighs
    of an eigh_n x eigh_n matrix, and the page faults and memory traffic of
    a fresh array of `array_len` floats. Each workload sets the mix in its
    PROBE, with `ref_s`, the probe time that defines a normalised second."""

    def __init__(self, ref_s: float, fractions: int = 0, eigh_n: int = 0, eigh_reps: int = 0,
                 array_len: int = 0):
        rng = np.random.default_rng(0)
        self.ref_s = ref_s
        self.xs = [float(v) for v in rng.random(fractions)]
        a = rng.random((eigh_n, eigh_n))
        self.a, self.eigh_reps = a + a.T, eigh_reps
        self.array_len = array_len

    def __call__(self) -> float:
        start = time.perf_counter()
        for x in self.xs:
            Fraction(x).limit_denominator(10**6)
        for _ in range(self.eigh_reps):
            np.linalg.eigh(self.a)
        if self.array_len:
            np.ones(self.array_len).sum()
        return time.perf_counter() - start


def scales(probes: list[float], ref_s: float) -> list[float]:
    """Normalising factor of each operation; probes[i] ran just before
    operation i and probes[i + 1] just after it."""
    return [ref_s / statistics.median(probes[max(0, i + 1 - PROBE_WINDOW):i + 1 + PROBE_WINDOW])
            for i in range(len(probes) - 1)]


def set_up(wl, seed: int) -> list[dict]:
    """Build the workload's inputs and warm it up: the set-up after import.
    Returns the first round."""
    if isinstance(wl, workloads.CliCold):
        wl.prepare(seed)
    first_round = wl.round(seed, 0)
    wl.warmup()
    return first_round


def operations(wl, seed: int, seconds: float, per_round: int) -> list[dict]:
    """The fixed operation list of a run (see the module docstring)."""
    rounds = max(math.ceil(MIN_OPS / per_round), math.ceil(seconds / wl.NOMINAL_ROUND_S))
    return [spec for r in range(rounds) for spec in wl.round(seed, r)]


class Failure(NamedTuple):
    kind: str
    message: str


def run_ops(wl, specs, tracer=None, probe=None):
    """Run each spec once, timing it; an exception is the operation's result.
    With a probe, also returns its times: before each operation and after
    the last."""
    outcomes, probes = [], []
    for i, spec in enumerate(specs):
        if tracer is not None:
            tracer.op_id = i
        if probe is not None:
            probes.append(probe())
        start = time.perf_counter()
        try:
            out, err = wl.run(spec), None
        except Exception as exc:  # the operation failed; record and go on
            # keep no traceback: its frames would hold the operation's arrays
            out, err = None, Failure(type(exc).__name__, str(exc)[:200])
        outcomes.append((spec, out, err, time.perf_counter() - start))
    if probe is not None:
        probes.append(probe())
    return outcomes, probes


def verify(wl, outcomes):
    """Independent check of every output; returns refutations and the first
    accepted transfer (for the checker's self-check)."""
    refuted, accepted = [], None
    for i, (spec, out, err, _) in enumerate(outcomes):
        if err is not None:
            continue
        try:
            items = list(wl.check(spec, out))
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            items = [f"unreadable output: {exc!r}"[:200]]
        for item in items:
            if isinstance(item, str):
                refuted.append((i, item))
            elif item is not None and accepted is None:
                accepted = item
    if accepted is None:
        h, x, y, tau = checks.known_transfer()
    else:
        x, y, tau, h = accepted
    return refuted, checks.self_check(h, x, y, tau)


def digest(wl, outcomes) -> str:
    items = []
    for spec, out, err, _ in outcomes:
        if err is not None:
            items.append(("error", err.kind))
            continue
        try:
            items.extend(wl.digest(spec, out))
        except (KeyError, TypeError, ValueError, IndexError):
            items.append(("unreadable",))
    return hashlib.sha256(json.dumps(items).encode()).hexdigest()[:16]


def blas_facts() -> dict:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {"name": blas.get("name"), "version": blas.get("version"),
            "threads": int(os.environ["OPENBLAS_NUM_THREADS"])}


def machine_facts(seed: int) -> dict:
    import scipy

    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_facts(),
        "seed": seed,
    }


def failure_summary(outcomes, refuted) -> dict:
    errors = [err for _, _, err, _ in outcomes if err is not None]
    first = {}
    for err in errors:
        first.setdefault(err.kind, err.message)
    return {
        "by_exception": dict(Counter(err.kind for err in errors)),
        "first_message": first,
        "refuted": [{"op": i, "reason": r} for i, r in refuted[:20]],
        "refuted_count": len(refuted),
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def setup_seconds(args) -> tuple[float, float]:
    """Median set-up time of SETUP_REPEATS fresh processes, normalised and
    raw; each is scaled by the median of the probes just before and after."""
    probe = SpeedProbe(**workloads.NEW_PROCESS_PROBE)
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    env = workloads.child_env(SRC)
    normalised, raw = [], []
    for _ in range(SETUP_REPEATS):
        before = [probe() for _ in range(PROBE_WINDOW)]
        wall = workloads.measure_subprocess(cmd, env, ROOT, 1)
        after = [probe() for _ in range(PROBE_WINDOW)]
        raw.append(wall)
        normalised.append(wall * probe.ref_s / statistics.median(before + after))
    return statistics.median(normalised), statistics.median(raw)


def timing_metrics(latencies, states, n_ops) -> dict:
    # imported here, after the loop, so that it never weighs on peak RSS
    from scipy.stats.mstats import hdquantiles

    p50, p90 = (float(q) for q in hdquantiles(np.asarray(latencies), prob=(0.5, 0.9)))
    return {
        "ops_per_s": n_ops / sum(latencies),
        "latency_p50_s": p50,
        "latency_p90_s": p90,
        "states_per_s": sum(states) / sum(lat for c, lat in zip(states, latencies) if c),
    }


def untraced(args, wl, specs):
    probe = SpeedProbe(**wl.PROBE)
    outcomes, probes = run_ops(wl, specs, probe=probe)
    if isinstance(wl, workloads.CliCold):
        peak_kb = wl.child_rss_kb
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    setup_s, setup_raw = setup_seconds(args)
    raw = [lat for *_, lat in outcomes]
    normalised = [lat * k for lat, k in zip(raw, scales(probes, probe.ref_s))]
    states = [wl.states(spec) for spec, *_ in outcomes]
    units = {"ops_per_s": "1/s", "latency_p50_s": "s", "latency_p90_s": "s", "states_per_s": "1/s"}
    metrics = {k: metric(v, units[k]) for k, v in timing_metrics(normalised, states, len(specs)).items()}
    metrics["peak_rss_mb"] = metric(peak_kb / 1024.0, "MB")
    metrics["setup_s"] = metric(setup_s, "s")
    p90 = metrics["latency_p90_s"]["value"]
    samples = {
        "latency": len(normalised),
        "beyond_p90": sum(lat > p90 for lat in normalised),
        "rounds": len(specs) // len(wl.round(args.seed, 0)),
        "setup": SETUP_REPEATS,
        "probes": len(probes),
        "states": sum(states),
    }
    raw_metrics = timing_metrics(raw, states, len(specs))
    raw_metrics["setup_s"] = setup_raw
    latency_file = OUT / f"latency-{args.workload}-seed{args.seed}.json"
    with open(latency_file, "w", encoding="utf-8") as fh:
        json.dump({"op": [spec["op"] for spec in specs], "raw_s": raw, "normalised_s": normalised,
                   "probe_s": probes}, fh)
    extra = {"raw_wall_metrics": raw_metrics, "wall_s": sum(raw),
             "probe_median_s": statistics.median(probes), "probe_ref_s": probe.ref_s,
             "latency_file": str(latency_file.relative_to(ROOT))}
    return outcomes, metrics, samples, extra


def layer_metrics(agg: dict, ops_untraced: float, ops_traced: float, op_wall: float,
                  startup: tuple[float, float]) -> dict:
    calls, self_s, errors = agg["calls"], agg["self_s"], agg["errors"]
    ratio_calls = calls.get("periodicity.ratio", 0)
    states = agg["catalog_states"]
    m = {}

    def group(name, *qty):
        for q in qty:
            if q == "calls":
                m[f"{name}.calls"] = metric(calls.get(name, 0), "count")
            else:
                m[f"{name}.self_s"] = metric(self_s.get(name, 0.0), "s")

    group("arith.reconstruct", "calls", "self_s")
    group("periodicity.ratio", "calls", "self_s")
    m["periodicity.ratio.nonperiodic_ratio"] = metric(
        agg["nonperiodic"] / ratio_calls if ratio_calls else 0.0, "ratio")
    group("periodicity.classify", "self_s")
    group("states.support", "calls", "self_s")
    group("states.cospectrality", "self_s")
    group("transfer.partner", "self_s")
    group("transfer.decide", "self_s")
    group("families.catalog", "self_s")
    m["families.catalog.states"] = metric(states, "count")
    m["families.catalog.hit_ratio"] = metric(agg["catalog_entries"] / states if states else 0.0, "ratio")
    group("transfer.extremal", "self_s")
    group("spectral.decompose", "calls", "self_s")
    m["spectral.eigh_floor_s"] = metric(agg["eigh_floor_s"], "s")
    m["spectral.retained_bytes"] = metric(agg["retained_bytes_max"], "bytes")
    for name in ("spectral.evolve", "transfer.verify", "transfer.scan", "sensitivity.derivatives",
                 "constructions.join", "graphs.build", "graphs.hamiltonian"):
        group(name, "self_s")
    m["cli.python_startup_s"] = metric(startup[0], "s")
    m["cli.import_s"] = metric(startup[1] - startup[0], "s")
    group("cli.main", "self_s")
    group("serialize.dumps", "self_s")
    m["serialize.bytes_out"] = metric(agg["bytes_out"], "bytes")
    for module in spans.MODULES:
        m[f"{module}.errors"] = metric(errors.get(module, 0), "count")
    m["trace.ops_per_s"] = metric(ops_traced, "1/s")
    m["trace.untraced_ops_per_s"] = metric(ops_untraced, "1/s")
    m["trace.slowdown"] = metric(ops_untraced / ops_traced, "ratio")
    m["trace.self_coverage"] = metric(agg["covered_s"] / op_wall, "ratio")
    return m


def traced(args, wl, specs, workdir):
    """Untraced, traced, untraced again over the same specs; the two
    untraced passes bracket the traced one so that drift in machine speed
    does not read as tracing overhead."""
    wall_untraced = 0.0
    start = time.perf_counter()
    run_ops(wl, specs)
    wall_untraced += time.perf_counter() - start

    tracer = spans.Tracer()
    if isinstance(wl, workloads.CliCold):
        wl.trace_child = Path(__file__).resolve().parent / "cli_child.py"
        wl.child_traces = []
    else:
        tracer.install()
    start = time.perf_counter()
    try:
        outcomes, _ = run_ops(wl, specs, tracer)
    finally:
        tracer.uninstall()
    wall_traced = time.perf_counter() - start
    if isinstance(wl, workloads.CliCold):
        wl.trace_child = None
    start = time.perf_counter()
    run_ops(wl, specs)
    wall_untraced += time.perf_counter() - start

    agg = tracer.aggregates()
    all_spans = list(tracer.spans)
    for op_id, child in enumerate(getattr(wl, "child_traces", [])):
        spans.merge(agg, child["aggregates"])
        base = len(all_spans)
        all_spans += [(g, s, e, p + base if p >= 0 else -1, op_id) for g, s, e, p, _ in child["spans"]]
    env = workloads.child_env(SRC)
    startup = (
        workloads.measure_subprocess([sys.executable, "-c", "pass"], env, workdir, STARTUP_REPEATS),
        workloads.measure_subprocess([sys.executable, "-c", "import pstwalk.cli"], env, workdir,
                                     STARTUP_REPEATS),
    )
    op_wall = sum(lat for *_, lat in outcomes)
    metrics = layer_metrics(agg, 2 * len(specs) / wall_untraced, len(specs) / wall_traced, op_wall,
                            startup)
    trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    with open(trace_file, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["group", "start", "end", "parent", "op"], "spans": all_spans,
                   "op_latency_s": [lat for *_, lat in outcomes]}, fh)
    extra = {"absent": agg["absent"], "unobserved": agg.get("unobserved", {}),
             "decompositions": agg["decompositions"], "spans": len(all_spans),
             "trace_file": str(trace_file.relative_to(ROOT)),
             "retained_bytes": "computed: largest sum of ndarray nbytes of one decomposition"}
    return outcomes, metrics, {"traced_ops": len(specs)}, extra


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only set the workload up (import, inputs, warm-up) and exit")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    pw = import_pstwalk()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    wl = workloads.WORKLOADS[args.workload](pw, workdir)
    try:
        first_round = set_up(wl, args.seed)
        if args.setup_probe:
            return 0
        if args.trace:
            outcomes, metrics, samples, extra = traced(args, wl, first_round, workdir)
        else:
            specs = operations(wl, args.seed, args.seconds, len(first_round))
            outcomes, metrics, samples, extra = untraced(args, wl, specs)
        refuted, self_check = verify(wl, outcomes)
    finally:
        wl.close()
        shutil.rmtree(workdir, ignore_errors=True)

    failed_ops = {i for i, (_, _, err, _) in enumerate(outcomes) if err is not None}
    failed_ops |= {i for i, _ in refuted}
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "machine": machine_facts(args.seed),
        "samples": samples,
        "failure_rate": len(failed_ops) / len(outcomes),
        "failures": failure_summary(outcomes, refuted),
        "self_check": self_check,
        "verdict_digest": {"ops": len(outcomes), "sha256_16": digest(wl, outcomes),
                           "first_round_sha256_16": digest(wl, outcomes[:len(first_round)])},
        **extra,
    }
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not refuted and all(self_check.values()),
        "attempted": len(outcomes),
        "failed": len(failed_ops),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
