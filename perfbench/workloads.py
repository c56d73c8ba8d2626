"""The three workloads: their seeded inputs, one operation each, and the
independent check and verdict digest of each operation's output.

Inputs come in rounds. A round is a fixed multiset of operation kinds and
size strata; the seed picks the sizes inside each stratum (see SizePicker),
the vertex pairs, weights and times, and the order. Fixing the strata keeps
the cost of a round nearly the same for every seed, so that the draw adds
little to the run-to-run spread.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks

ADJ, LAP = "adjacency", "laplacian"
KIND_FLAG = {ADJ: "adj", LAP: "lap"}


def tau9(value) -> str | None:
    return None if value is None else f"{float(value):.9g}"


def pair_state(n: int, u: int, v: int, s: float) -> np.ndarray:
    x = np.zeros(n)
    x[u] = 1.0
    x[v] = s
    return x


# -- edge lists built by the benchmark itself ---------------------------------

def path_edges(n):
    return [(i, i + 1, 1.0) for i in range(n - 1)]


def cycle_edges(n):
    return path_edges(n) + [(0, n - 1, 1.0)]


def complete_edges(n):
    return [(u, v, 1.0) for u, v in itertools.combinations(range(n), 2)]


def bipartite_edges(m, n):
    return [(i, m + j, 1.0) for i in range(m) for j in range(n)]


def hypercube_edges(d):
    n = 1 << d
    return [(u, u ^ (1 << b), 1.0) for u in range(n) for b in range(d) if u < u ^ (1 << b)]


def star_edges(n):
    return [(0, j, 1.0) for j in range(1, n)]


def join_edges(m, g_edges, n, h_edges):
    return (list(g_edges) + [(m + a, m + b, w) for a, b, w in h_edges]
            + [(i, m + j, 1.0) for i in range(m) for j in range(n)])


def random_connected_edges(rng, n):
    """Random spanning tree plus n//2 extra edges, weights in [0.5, 2]."""
    pairs = {(int(rng.integers(0, i)), i) for i in range(1, n)}
    while len(pairs) < n - 1 + n // 2:
        u, v = sorted(int(a) for a in rng.choice(n, size=2, replace=False))
        pairs.add((u, v))
    return [(u, v, float(rng.uniform(0.5, 2.0))) for u, v in sorted(pairs)]


GRAPH_EDGES = {
    "path": path_edges,
    "cycle": cycle_edges,
    "complete": complete_edges,
    "complete-bipartite": bipartite_edges,
    "hypercube": hypercube_edges,
}


def graph_size(family, params):
    if family == "complete-bipartite":
        return params[0] + params[1]
    if family == "hypercube":
        return 1 << params[0]
    return params[0]


def spec_edges(graph):
    """Edges of a graph spec {'family', 'params'[, 'edges']}."""
    if graph["family"] == "random":
        return graph["edges"]
    return GRAPH_EDGES[graph["family"]](*graph["params"])


def build_graph(pw, graph):
    """The same graph through pstwalk's public builders."""
    family, params = graph["family"], graph["params"]
    if family == "random":
        return pw.make_graph(params[0], graph["edges"])
    builder = {
        "path": pw.build_path,
        "cycle": pw.build_cycle,
        "complete": pw.build_complete,
        "complete-bipartite": pw.build_complete_bipartite,
        "hypercube": pw.build_hypercube,
    }[family]
    return builder(*params)


def spec_hamiltonian(graph, kind):
    n = graph_size(graph["family"], graph["params"])
    return checks.hamiltonian(n, spec_edges(graph), kind)


def shuffled(rng, specs):
    return [specs[i] for i in rng.permutation(len(specs))]


def strata(lo, hi, width):
    return [(a, min(a + width - 1, hi)) for a in range(lo, hi + 1, width)]


GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class SizePicker:
    """Sizes for round r: slot i of every round steps through its stratum of
    w sizes from a seeded start, by a stride near w times the golden ratio
    and prime to w. So any w consecutive rounds draw each size once, and a
    few rounds already spread over the stratum, whatever the seed."""

    def __init__(self, seed: int, r: int):
        self.seed, self.r, self.slot = seed, r, 0

    def __call__(self, lo: int, hi: int) -> int:
        w = hi - lo + 1
        start = int(np.random.default_rng([self.seed, 1 << 20, self.slot]).integers(w))
        self.slot += 1
        stride = max(1, round(w * GOLDEN))
        while math.gcd(stride, w) != 1:
            stride += 1
        return lo + (start + self.r * stride) % w


def round_rng(seed: int, r: int):
    return np.random.default_rng([seed, r]), SizePicker(seed, r)


# The speed probe (run.SpeedProbe) for work done by a new Python process:
# some of everything, and fresh pages. Each workload sets its own in PROBE.
NEW_PROCESS_PROBE = {"ref_s": 0.003, "fractions": 60, "eigh_n": 40, "eigh_reps": 2,
                     "array_len": 1 << 19}


# ============================================================================
# catalog: pair/plus catalog sweeps plus a few exhaustive spread oracles

CATALOG_FAMILIES = ("path", "cycle", "complete", "complete-bipartite")
CATALOG_STRATA = strata(4, 30, 3)       # n <= 30, the library's catalog guard
EXTREMAL_SIZES = (4, 5, 6)              # one n = 6 oracle (~1.7 s) per round


class Catalog:
    """Pair/plus catalog sweeps of the closed-form families (n <= 30, adjacency
    and Laplacian) plus the exhaustive Laplacian spread oracle for each n in
    EXTREMAL_SIZES. Each decomposition serves hundreds of states, so the
    per-state pipeline (support, ratio reconstruction, partner, decide)
    dominates and decompose is minor."""

    name = "catalog"
    NOMINAL_ROUND_S = 7.0   # normalised seconds one round takes at the seed commit
    # Fraction.limit_denominator does most of this workload's work
    PROBE = {"ref_s": 0.003, "fractions": 150}

    def __init__(self, pw, workdir: Path):
        self.pw = pw

    def round(self, seed: int, r: int) -> list[dict]:
        rng, size = round_rng(seed, r)
        specs = []
        for family in CATALOG_FAMILIES:
            for kind in (ADJ, LAP):
                for lo, hi in CATALOG_STRATA:
                    n = size(lo, hi)
                    if family == "complete-bipartite":
                        m = int(rng.integers(1, n // 2 + 1))
                        params = (m, n - m)
                    else:
                        params = (n,)
                    specs.append({"op": "catalog", "family": family, "kind": kind, "params": params})
        specs += [{"op": "extremal", "n": n} for n in EXTREMAL_SIZES]
        return shuffled(rng, specs)

    def close(self):
        pass

    def warmup(self):
        self.pw.pair_plus_catalog("cycle", ADJ, 8)
        self.pw.extremal_min_pst_search(4, LAP, exhaustive=True)

    def states(self, spec) -> int:
        if spec["op"] != "catalog":
            return 0
        n = graph_size(spec["family"], spec["params"])
        return n * (n - 1)

    def run(self, spec):
        pw = self.pw
        if spec["op"] == "catalog":
            entries = pw.pair_plus_catalog(spec["family"], spec["kind"], *spec["params"])
            return [(e.s, e.u, e.v, e.partner_s, e.partner_u, e.partner_v, e.tau) for e in entries]
        rep = pw.extremal_min_pst_search(spec["n"], LAP, exhaustive=True)
        return {
            "decision": bool(rep.verdict.decision),
            "reason": rep.verdict.reason,
            "tau": rep.tau,
            "tau_min": rep.verdict.tau_min,
            "edges": [(u, v, w) for u, v, w in rep.graph.edges],
            "x": np.asarray(rep.x, dtype=float),
            "y": np.asarray(rep.y, dtype=float),
            "max_spread": None if rep.oracle is None else rep.oracle["max_spread"],
        }

    def digest(self, spec, out) -> list:
        if spec["op"] == "catalog":
            return [("entry", s, u, v, ps, pu, pv, tau9(t)) for s, u, v, ps, pu, pv, t in out]
        return [(out["decision"], out["reason"], tau9(out["tau"]))]

    def check(self, spec, out):
        """Yields (x, y, tau, h) of each accepted transfer, or a refutation string."""
        if spec["op"] == "catalog":
            n = graph_size(spec["family"], spec["params"])
            h = checks.hamiltonian(n, GRAPH_EDGES[spec["family"]](*spec["params"]), spec["kind"])
            for s, u, v, ps, pu, pv, tau in out:
                x, y = pair_state(n, u, v, s), pair_state(n, pu, pv, ps)
                yield checks.claim(h, x, y, tau)
            return
        n = spec["n"]
        star = star_edges(n)
        if sorted(out["edges"]) != star:
            yield "extremal graph is not the star"
            return
        if not out["decision"]:
            yield f"extremal pair refused ({out['reason']})"
            return
        if abs(out["tau_min"] - out["tau"]) > 1e-9 * out["tau"]:
            yield f"verdict tau {out['tau_min']} differs from reported {out['tau']}"
        if abs(out["max_spread"] - n) > 1e-9 * n:
            yield f"spread oracle {out['max_spread']} != n = {n}"
        h = checks.hamiltonian(n, star, LAP)
        yield checks.claim(h, out["x"], out["y"], out["tau"])


# ============================================================================
# large-graph: one pair per large graph, decided from a full decomposition

MANY_STRATA = strata(100, 300, 67)      # n in 100..300, three strata
OVERFLOW_PATHS = (280, 300)             # adjacency paths, end-pair state
HYPERCUBE_DIMS = (8, 9, 10)
BIPARTITE_STRATA = ((64, 160), (161, 256))
SCAN_STEPS = 256


class LargeGraph:
    """One seeded pair per graph, through build, hamiltonian, decompose,
    partner, decide, verify and derivatives (on yes) and a fidelity scan.
    Graphs with many distinct eigenvalues (paths, cycles, random weighted
    graphs, n 100-300) and with few (hypercubes Q8-Q10, complete bipartite);
    four join operations per round read full projectors. decompose and its
    (k, n, n) projector tensor dominate."""

    name = "large-graph"
    NOMINAL_ROUND_S = 3.5   # normalised seconds one round takes at the seed commit
    # decompose: an eigh, then building a large tensor in fresh memory
    PROBE = {"ref_s": 0.009, "eigh_n": 150, "eigh_reps": 1, "array_len": 1 << 21}

    def __init__(self, pw, workdir: Path):
        self.pw = pw

    def _decide_spec(self, rng, graph, kind, x, y0):
        return {"op": "decide", "graph": graph, "kind": kind, "x": x, "y0": y0,
                "t_max": float(rng.uniform(2.0, 10.0)), "probe": int(rng.integers(SCAN_STEPS))}

    def round(self, seed: int, r: int) -> list[dict]:
        rng, size = round_rng(seed, r)
        specs = []
        for family in ("path", "cycle", "random"):
            for kind in (ADJ, LAP):
                for lo, hi in MANY_STRATA:
                    if family == "path" and kind == ADJ and hi == 300:
                        # known defect kept visible: the end pair overflows today
                        n = size(*OVERFLOW_PATHS)
                        specs.append(self._decide_spec(
                            rng, {"family": "path", "params": (n,)}, kind,
                            (0, n - 1, -1.0), (1, n - 2, -1.0)))
                        continue
                    n = size(lo, hi)
                    s = float(rng.choice([-1.0, 1.0]))
                    if family == "path":
                        u, u2 = (int(a) for a in rng.choice(n // 2, size=2, replace=False))
                        x, y0 = (u, n - 1 - u, s), (u2, n - 1 - u2, s)
                        graph = {"family": "path", "params": (n,)}
                    elif family == "cycle":
                        u, k = int(rng.integers(n)), int(rng.integers(1, n // 2))
                        shift = int(rng.integers(1, n))
                        x, y0 = (u, (u + k) % n, s), ((u + shift) % n, (u + k + shift) % n, s)
                        graph = {"family": "cycle", "params": (n,)}
                    else:
                        a, b, c, d = (int(v) for v in rng.choice(n, size=4, replace=False))
                        x, y0 = (a, b, s), (c, d, s)
                        graph = {"family": "random", "params": (n,),
                                 "edges": random_connected_edges(rng, n)}
                    specs.append(self._decide_spec(rng, graph, kind, x, y0))
        for d in HYPERCUBE_DIMS:
            n = 1 << d
            u = int(rng.integers(n))
            v = u ^ int(rng.integers(1, n - 1))   # neither u nor its antipode
            s = float(rng.choice([-1.0, 1.0]))
            kind = ADJ if rng.random() < 0.5 else LAP
            specs.append(self._decide_spec(
                rng, {"family": "hypercube", "params": (d,)}, kind,
                (u, v, s), (u ^ (n - 1), v ^ (n - 1), s)))
        for lo, hi in BIPARTITE_STRATA:
            total = size(lo, hi)
            m = int(rng.integers(total // 4, total // 2 + 1))
            u, u2 = (int(a) for a in rng.choice(m, size=2, replace=False))
            v, v2 = (m + int(a) for a in rng.choice(total - m, size=2, replace=False))
            s = float(rng.choice([-1.0, 1.0]))
            kind = ADJ if rng.random() < 0.5 else LAP
            specs.append(self._decide_spec(
                rng, {"family": "complete-bipartite", "params": (m, total - m)}, kind,
                (u, v, s), (u2, v2, s)))
        for op in ("join-matrix", "join-matrix", "join-pst", "join-pst"):
            specs.append(self._join_spec(rng, op))
        return shuffled(rng, specs)

    def _join_spec(self, rng, op):
        kind = ADJ if rng.random() < 0.5 else LAP
        b = int(rng.integers(40, 137))
        h = {"family": "cycle" if rng.random() < 0.5 else "complete", "params": (b,)}
        if op == "join-matrix":
            a = int(rng.integers(20, 65))
            g = {"family": "cycle" if rng.random() < 0.5 else "complete", "params": (a,)}
            return {"op": op, "g": g, "h": h, "kind": kind, "t": float(rng.uniform(0.1, 3.0))}
        d = int(rng.integers(3, 7))
        n = 1 << d
        u = int(rng.integers(n))
        v = u ^ int(rng.integers(1, n - 1))   # neither u nor its antipode
        return {"op": op, "g": {"family": "hypercube", "params": (d,)}, "h": h, "kind": kind,
                "x1": (u, v), "y1": (u ^ (n - 1), v ^ (n - 1))}

    def close(self):
        pass

    def warmup(self):
        rng = np.random.default_rng(0)
        self.run(self._decide_spec(rng, {"family": "hypercube", "params": (4,)}, ADJ,
                                   (0, 1, 1.0), (15, 14, 1.0)))
        self.run({"op": "join-matrix", "g": {"family": "cycle", "params": (5,)},
                  "h": {"family": "complete", "params": (4,)}, "kind": LAP, "t": 0.7})

    def states(self, spec) -> int:
        return 0 if spec["op"] == "join-matrix" else 1

    def run(self, spec):
        pw = self.pw
        if spec["op"] == "join-matrix":
            g, h = build_graph(pw, spec["g"]), build_graph(pw, spec["h"])
            return {"u": pw.join_transition_matrix(g, h, spec["kind"], spec["t"])}
        if spec["op"] == "join-pst":
            g, h = build_graph(pw, spec["g"]), build_graph(pw, spec["h"])
            x1 = pair_state(g.n, *spec["x1"], -1.0)
            y1 = pair_state(g.n, *spec["y1"], -1.0)
            jv = pw.join_pst(g, h, spec["kind"], x1, y1)
            return {"decision": bool(jv.decision), "reason": jv.reason, "tau": jv.tau,
                    "agree": jv.agree, "x": np.asarray(jv.x), "y": np.asarray(jv.y)}
        g = build_graph(pw, spec["graph"])
        dec = pw.decompose(pw.hamiltonian(g, spec["kind"]))
        x = pair_state(g.n, *spec["x"])
        partner = pw.pst_partner(dec, x)
        y = partner if partner is not None else pair_state(g.n, *spec["y0"])
        verdict = pw.pst_decide(dec, x, y)
        out = {"partner": partner is not None, "x": x, "y": y,
               "decision": bool(verdict.decision), "reason": verdict.reason,
               "tau": verdict.tau_min, "verified": None, "d2": None}
        if verdict.decision:
            out["verified"] = bool(pw.verify_pst_numeric(dec, x, y, verdict.tau_min).passed)
        scan = pw.fidelity_scan(dec, x, y, spec["t_max"], SCAN_STEPS)
        i = spec["probe"]
        out["scan"] = (float(scan.times[i]), float(scan.values[i]), float(scan.peak_value))
        if verdict.decision:
            out["d2"] = float(pw.fidelity_derivatives(dec, x, y, verdict.tau_min).d2)
        return out

    def digest(self, spec, out) -> list:
        if spec["op"] == "join-matrix":
            return [("matrix", tau9(out["u"][0, 0].real), tau9(out["u"][0, 0].imag))]
        return [(out["decision"], out["reason"], tau9(out["tau"]))]

    @staticmethod
    def _join_hamiltonian(spec):
        g, h = spec["g"], spec["h"]
        m, n = graph_size(g["family"], g["params"]), graph_size(h["family"], h["params"])
        return checks.hamiltonian(m + n, join_edges(m, spec_edges(g), n, spec_edges(h)), spec["kind"])

    def check(self, spec, out):
        if spec["op"] == "join-matrix":
            hj = self._join_hamiltonian(spec)
            err = float(np.max(np.abs(out["u"] - checks.operator(hj, spec["t"]))))
            yield f"join operator off by {err:.3e}" if err > 1e-8 else None
            return
        if spec["op"] == "join-pst":
            hj = self._join_hamiltonian(spec)
            if out["agree"] is False:
                yield "join verdict disagrees with its own numeric check"
            if out["decision"]:
                yield checks.claim(hj, out["x"], out["y"], out["tau"])
            return
        h = spec_hamiltonian(spec["graph"], spec["kind"])
        x, y = out["x"], out["y"]
        if out["partner"] and not out["decision"]:
            yield f"returned partner refused by pst_decide ({out['reason']})"
        if out["decision"]:
            if out["verified"] is False:
                yield "yes verdict failed the library's own numeric verification"
            claimed = checks.claim(h, x, y, out["tau"])
            yield claimed
            if not isinstance(claimed, str):
                ref = checks.second_derivative(h, x, y, out["tau"])
                if abs(ref - out["d2"]) > 1e-5 * max(1.0, abs(ref)):
                    yield f"f''(tau) {out['d2']:.9g} vs finite difference {ref:.9g}"
        t, value, peak = out["scan"]
        ref = checks.fidelity(h, t, x, y)
        if abs(ref - value) > 1e-8 or peak > 1.0 + 1e-9:
            yield f"fidelity scan {value:.12g} at t={t:.9g}, expected {ref:.12g}"


# ============================================================================
# cli-cold: fresh `python -m pstwalk` processes on small inputs

CLI_ROUNDS = 10       # distinct rounds of input files written at set-up
FAMILY_NAMES = ("complete", "cycle", "path-adj", "path-lap",
                "complete-bipartite-adj", "complete-bipartite-lap")
FAMILY_STRATA = ((6, 9), (10, 13), (14, 16))
FAMILY_GRAPH = {
    "complete": ("complete", ADJ), "cycle": ("cycle", ADJ),
    "path-adj": ("path", ADJ), "path-lap": ("path", LAP),
    "complete-bipartite-adj": ("complete-bipartite", ADJ),
    "complete-bipartite-lap": ("complete-bipartite", LAP),
}


def _write_json(path: Path, doc) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


class CliCold:
    """Fresh `python -m pstwalk` processes, one at a time, over all eight
    subcommands on small inputs written at set-up. Interpreter start-up and
    import dominate, as for one-shot CLI users; scan and family stress
    serialize and the catalog through the CLI layer."""

    name = "cli-cold"
    NOMINAL_ROUND_S = 3.2   # normalised seconds one round takes at the seed commit
    PROBE = NEW_PROCESS_PROBE

    def __init__(self, pw, workdir: Path):
        self.pw = pw
        self.workdir = workdir
        self.env = child_env(Path(pw.__file__).resolve().parent.parent)
        self.rounds: list[list[dict]] = []
        self.child_rss_kb = 0
        self.spawner = None         # started on the first operation, see spawner.py
        self.trace_child = None     # set to the bootstrap script for traced runs
        self.child_traces: list[dict] = []

    # -- inputs ------------------------------------------------------------
    def _graph(self, tag, graph):
        n = graph_size(graph["family"], graph["params"])
        edges = [[u, v, w] for u, v, w in spec_edges(graph)]
        return _write_json(self.workdir / f"{tag}-graph.json", {"n": n, "edges": edges})

    def _state(self, tag, name, x):
        return _write_json(self.workdir / f"{tag}-{name}.json", [float(v) for v in x])

    def _make(self, tag, cmd, argv, states=1, **info):
        return {"op": cmd, "tag": tag, "argv": [cmd, *argv], "states": states, **info}

    def _write_round(self, seed: int, r: int) -> list[dict]:
        rng, size = round_rng(seed, r)
        specs = []
        make_tag = (f"r{r}c{i}" for i in itertools.count())

        def small_graph():
            family = "path" if rng.random() < 0.5 else "cycle"
            return {"family": family, "params": (int(rng.integers(6, 31)),)}

        def small_pair(n):
            u, v = (int(a) for a in rng.choice(n, size=2, replace=False))
            return pair_state(n, u, v, float(rng.choice([-1.0, 1.0])))

        def cube_pair(d):
            """A vertex of Q_d and its antipode."""
            n = 1 << d
            u = int(rng.integers(n))
            return np.eye(n)[u], np.eye(n)[u ^ (n - 1)]

        # analyze: a small path/cycle pair state, and a hypercube vertex
        for on_cube in (False, True):
            tag = next(make_tag)
            kind = ADJ if rng.random() < 0.5 else LAP
            if on_cube:
                graph = {"family": "hypercube", "params": (int(rng.integers(3, 5)),)}
                x = cube_pair(graph["params"][0])[0]
            else:
                graph = small_graph()
                x = small_pair(graph["params"][0])
            specs.append(self._make(tag, "analyze",
                                    [self._graph(tag, graph), self._state(tag, "x", x),
                                     "--kind", KIND_FLAG[kind]],
                                    graph=graph, kind=kind, x=x))
        # pst: a hypercube antipodal pair (yes) and a random small pair
        for yes in (True, False):
            tag = next(make_tag)
            kind = ADJ if rng.random() < 0.5 else LAP
            if yes:
                graph = {"family": "hypercube", "params": (int(rng.integers(2, 5)),)}
                x, y = cube_pair(graph["params"][0])
            else:
                graph = small_graph()
                x, y = small_pair(graph["params"][0]), small_pair(graph["params"][0])
                while np.allclose(np.abs(x), np.abs(y)):
                    y = small_pair(graph["params"][0])
            specs.append(self._make(tag, "pst",
                                    [self._graph(tag, graph), self._state(tag, "x", x),
                                     self._state(tag, "y", y), "--kind", KIND_FLAG[kind]],
                                    graph=graph, kind=kind, x=x, y=y))
        # partner: a path/cycle pair state and a complete-bipartite cross pair
        for bipartite in (False, True):
            tag = next(make_tag)
            kind = ADJ if rng.random() < 0.5 else LAP
            if bipartite:
                m, n = int(rng.integers(2, 7)), int(rng.integers(2, 15))
                graph = {"family": "complete-bipartite", "params": (m, n)}
                x = pair_state(m + n, int(rng.integers(m)), m + int(rng.integers(n)),
                               float(rng.choice([-1.0, 1.0])))
            else:
                graph = small_graph()
                x = small_pair(graph["params"][0])
            specs.append(self._make(tag, "partner",
                                    [self._graph(tag, graph), self._state(tag, "x", x),
                                     "--kind", KIND_FLAG[kind]],
                                    graph=graph, kind=kind, x=x))
        # synthesize
        tag = next(make_tag)
        n = int(rng.integers(4, 11))
        x, y = rng.normal(size=n), rng.normal(size=n)
        y *= np.linalg.norm(x) / np.linalg.norm(y)
        tau = float(rng.uniform(0.5, 2.0))
        m1, m2 = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        specs.append(self._make(tag, "synthesize",
                                [self._state(tag, "x", x), self._state(tag, "y", y),
                                 "--tau", repr(tau), "--m1", str(m1), "--m2", str(m2)],
                                x=x, y=y, tau=tau))
        # family: two closed-form families with their s-pair catalogs; the
        # names cycle so that every three rounds cover all six, and a name's
        # k-th turn takes its size from FAMILY_STRATA[k], so that every name
        # meets every size stratum whatever the seed
        first = (np.random.default_rng(seed).integers(len(FAMILY_NAMES)) + 2 * r) % len(FAMILY_NAMES)
        for name in (FAMILY_NAMES[first], FAMILY_NAMES[(first + 1) % len(FAMILY_NAMES)]):
            tag = next(make_tag)
            n = size(*FAMILY_STRATA[(r // 3) % len(FAMILY_STRATA)])
            if name.startswith("complete-bipartite"):
                a = int(rng.integers(1, n // 2 + 1))
                params = (a, n - a)
            else:
                params = (n,)
            specs.append(self._make(tag, "family", [str(name), *map(str, params),
                                                    "--seed", str(int(rng.integers(1000)))],
                                    states=n * (n - 1), name=str(name), params=params))
        # scan: many steps on a hypercube antipodal pair
        tag = next(make_tag)
        graph = {"family": "hypercube", "params": (int(rng.integers(3, 5)),)}
        x, y = cube_pair(graph["params"][0])
        steps = int(rng.integers(2000, 4001))
        specs.append(self._make(tag, "scan",
                                [self._graph(tag, graph), self._state(tag, "x", x),
                                 self._state(tag, "y", y), "--tmax", repr(float(rng.uniform(4, 12))),
                                 "--steps", str(steps)],
                                graph=graph, kind=ADJ, x=x, y=y,
                                probes=[int(i) for i in rng.choice(steps, size=3, replace=False)]))
        # sensitivity at the hypercube transfer time
        tag = next(make_tag)
        graph = {"family": "hypercube", "params": (int(rng.integers(2, 5)),)}
        kind = ADJ if rng.random() < 0.5 else LAP
        x, y = cube_pair(graph["params"][0])
        specs.append(self._make(tag, "sensitivity",
                                [self._graph(tag, graph), self._state(tag, "x", x),
                                 self._state(tag, "y", y), "--kind", KIND_FLAG[kind]],
                                graph=graph, kind=kind, x=x, y=y))
        # extremal: exhaustive Laplacian oracle or the adjacency split graph
        tag = next(make_tag)
        if rng.random() < 0.5:
            n = int(rng.integers(3, 6))
            specs.append(self._make(tag, "extremal", [str(n), "--kind", "lap", "--exhaustive"],
                                    n=n, kind=LAP))
        else:
            n = int(rng.integers(4, 13))
            specs.append(self._make(tag, "extremal", [str(n), "--kind", "adj"], n=n, kind=ADJ))
        return shuffled(rng, specs)

    def prepare(self, seed: int) -> None:
        """Write CLI_ROUNDS rounds of input files; the run cycles over them."""
        self.rounds = [self._write_round(seed, r) for r in range(CLI_ROUNDS)]

    def round(self, seed: int, r: int) -> list[dict]:
        return self.rounds[r % len(self.rounds)]

    def warmup(self):
        self.run(self.rounds[0][0])

    def states(self, spec) -> int:
        return spec["states"]

    # -- one operation -------------------------------------------------------
    def _spawn(self, cmd, out_path, err_path) -> int:
        """Run cmd to completion through the spawner; returns its exit code."""
        if self.spawner is None:
            self.spawner = subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve().parent / "spawner.py")],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=self.env, text=True)
        request = {"cmd": cmd, "cwd": str(self.workdir), "stdout": str(out_path),
                   "stderr": str(err_path)}
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        line = self.spawner.stdout.readline()
        if not line:
            raise RuntimeError("spawner exited")
        reply = json.loads(line)
        self.child_rss_kb = max(self.child_rss_kb, reply["maxrss_kb"])
        return reply["code"]

    def close(self) -> None:
        """Stop the spawner and wait for it."""
        if self.spawner is not None:
            self.spawner.stdin.close()
            self.spawner.wait()
            self.spawner.stdout.close()
            self.spawner = None

    def run(self, spec):
        out_path = self.workdir / "stdout.txt"
        err_path = self.workdir / "stderr.txt"
        if self.trace_child is None:
            cmd = [sys.executable, "-m", "pstwalk", *spec["argv"]]
        else:
            trace_path = self.workdir / "child-trace.json"
            trace_path.unlink(missing_ok=True)
            cmd = [sys.executable, str(self.trace_child), str(trace_path), *spec["argv"]]
        code = self._spawn(cmd, out_path, err_path)
        if self.trace_child is not None:
            self.child_traces.append(json.loads(trace_path.read_text(encoding="utf-8")))
        if code != 0:
            last = (err_path.read_text(encoding="utf-8", errors="replace").strip().splitlines() or [""])[-1]
            raise CliFailure(f"exit {code}: {last[:200]}")
        return json.loads(out_path.read_text(encoding="utf-8"))

    def digest(self, spec, doc) -> list:
        op = spec["op"]
        if op == "analyze":
            return [(op, doc["class"], doc["periodic"], tau9(doc["rho"]))]
        if op == "pst":
            return [(op, doc["decision"], doc["reason"], tau9(doc["tau_min"]))]
        if op == "partner":
            return [(op, doc["reason"], tau9(doc["tau"]))]
        if op == "synthesize":
            return [(op, doc["n"])]
        if op == "family":
            return [(op, len(doc["pst_pairs"]))] + [
                ("entry", e["s"], e["u"], e["v"], e["partner_s"], e["partner_u"], e["partner_v"],
                 tau9(e["tau"])) for e in doc["pair_plus_catalog"]]
        if op == "scan":
            return [(op, tau9(doc["peak_time"]), tau9(doc["peak_value"]))]
        if op == "sensitivity":
            return [(op, doc["pass"], tau9(doc["tau"]), tau9(doc["d2"]))]
        return [(op, doc["decision"], tau9(doc["tau"]))]

    def check(self, spec, doc):
        op = spec["op"]
        if op in ("analyze", "pst", "partner", "scan", "sensitivity"):
            h = spec_hamiltonian(spec["graph"], spec["kind"])
        if op == "analyze":
            if doc["periodic"] and doc["rho"] is not None:
                yield checks.transfer(h, spec["x"], spec["x"], doc["rho"])
        elif op == "pst":
            if doc["decision"] == "yes":
                yield checks.claim(h, spec["x"], spec["y"], doc["tau_min"])
        elif op == "partner":
            if doc["partner"] is not None:
                y = np.asarray(doc["partner"], dtype=float)
                yield checks.claim(h, spec["x"], y, doc["tau"])
        elif op == "synthesize":
            m = np.asarray(doc["rows"], dtype=float)
            if np.max(np.abs(m - m.T)) > 1e-9 * max(1.0, float(np.abs(m).max())):
                yield "synthesized matrix is not symmetric"
            else:
                yield checks.transfer(m, spec["x"], spec["y"], spec["tau"])
        elif op == "family":
            family, kind = FAMILY_GRAPH[spec["name"]]
            params = spec["params"]
            n = sum(params)
            h = checks.hamiltonian(n, GRAPH_EDGES[family](*params), kind)
            for pair in doc["pst_pairs"]:
                x, y = np.asarray(pair["x"]), np.asarray(pair["y"])
                yield checks.claim(h, x, y, pair["tau"])
            for e in doc["pair_plus_catalog"]:
                x = pair_state(n, e["u"], e["v"], e["s"])
                y = pair_state(n, e["partner_u"], e["partner_v"], e["partner_s"])
                yield checks.claim(h, x, y, e["tau"])
        elif op == "scan":
            values = doc["values"]
            if doc["peak_value"] > 1.0 + 1e-9 or doc["peak_value"] < max(values) - 1e-12:
                yield f"scan peak {doc['peak_value']} inconsistent with its samples"
            for i in spec["probes"]:
                ref = checks.fidelity(h, doc["times"][i], spec["x"], spec["y"])
                if abs(ref - values[i]) > 1e-8:
                    yield f"scan value {values[i]:.12g} at t={doc['times'][i]:.9g}, expected {ref:.12g}"
        elif op == "sensitivity":
            if not doc["pass"]:
                yield "sensitivity bound reported as failed"
            ref = checks.second_derivative(h, spec["x"], spec["y"], doc["tau"])
            if abs(ref - doc["d2"]) > 1e-5 * max(1.0, abs(ref)):
                yield f"f''(tau) {doc['d2']:.9g} vs finite difference {ref:.9g}"
        else:
            n = spec["n"]
            if spec["kind"] == LAP:
                edges = star_edges(n)
            else:
                a = math.ceil(n / 3)
                edges = join_edges(a, [], n - a, complete_edges(n - a))
            got = sorted((u, v, float(w)) for u, v, w in doc["graph"]["edges"])
            if got != sorted(edges):
                yield "extremal graph differs from the expected construction"
                return
            if doc["decision"] != "yes":
                yield "extremal pair refused"
                return
            if doc["oracle"] is not None and abs(doc["oracle"]["max_spread"] - n) > 1e-9 * n:
                yield f"spread oracle {doc['oracle']['max_spread']} != n = {n}"
            h = checks.hamiltonian(n, edges, spec["kind"])
            x, y = np.asarray(doc["x"]), np.asarray(doc["y"])
            yield checks.claim(h, x, y, doc["tau"])


class CliFailure(Exception):
    """A CLI process exited with a nonzero code."""


def child_env(src: Path) -> dict:
    """This process's environment with `src` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
    return env


def measure_subprocess(cmd, env, cwd, repeats: int) -> float:
    """Median wall time of running cmd to completion."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=cwd, check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return sorted(times)[len(times) // 2]


WORKLOADS = {w.name: w for w in (Catalog, LargeGraph, CliCold)}
