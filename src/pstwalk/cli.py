"""Command-line front end: analyze | pst | partner | synthesize | family |
scan | sensitivity | extremal.

Each invocation prints exactly one JSON document on stdout (a yes or a no is
still exit 0) and a one-line human summary on stderr. Exit codes: 2 for I/O
or parse failures (a document of the wrong shape included), 3 for numerical
failures and memory exhaustion, 4 for invalid requests.

Imports: at module level only what reading the inputs and `main` need
(errors, graphs, serialize, spectral, tolerances). Each handler imports its
own stages as its first statement, so a cold process loads only the modules
its subcommand runs (and spectral's route table, routes, only for a matrix
of ROUTE_MIN_N vertices or more); `main` likewise adds arguments to the
invoked subcommand's parser alone.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import serialize
from .errors import FixedStateError, MalformedDocumentError, NumericFailureError, PstwalkError
from .graphs import ADJACENCY, CUSTOM, LAPLACIAN, check_dense, hamiltonian, load_custom
from .spectral import Projection, decompose
from .tolerances import DEFAULT_TOLERANCES, ToleranceConfig

KINDS = {"adj": ADJACENCY, "lap": LAPLACIAN, "custom": CUSTOM}
# family subcommand name: (pair_plus_catalog family, Hamiltonian kind)
FAMILIES = {
    "complete": ("complete", ADJACENCY),
    "cycle": ("cycle", ADJACENCY),
    "path-adj": ("path", ADJACENCY),
    "path-lap": ("path", LAPLACIAN),
    "complete-bipartite-adj": ("complete-bipartite", ADJACENCY),
    "complete-bipartite-lap": ("complete-bipartite", LAPLACIAN),
}
RANDOM_DRAWS = 64  # random states tried for a complete or complete bipartite pair


def _add_common(p: argparse.ArgumentParser, kind: bool = True, tolerances: bool = True) -> None:
    if kind:
        p.add_argument("--kind", choices=sorted(KINDS), default="adj")
        p.add_argument("--custom-matrix", help="matrix JSON for --kind custom")
    if tolerances:  # --tol-group, --tol-supp, --tol-phase, --q-max, --int-tol
        for f in dataclasses.fields(ToleranceConfig):
            p.add_argument("--" + f.name.replace("_", "-"), type=type(f.default))
    p.add_argument("--out", help="also write the result to this path")


def _config(args) -> ToleranceConfig:
    overrides = {f.name: getattr(args, f.name) for f in dataclasses.fields(ToleranceConfig)
                 if getattr(args, f.name, None) is not None}
    return dataclasses.replace(DEFAULT_TOLERANCES, **overrides)


def _inputs(args, *state_names: str) -> tuple:
    """(cfg, dec, *states) for a graph subcommand: the tolerances, the
    decomposed --kind Hamiltonian of the graph file, and the state file
    named by each of state_names, checked against the graph's size. Inputs
    are read in that order, so the first bad one is the one reported."""
    cfg = _config(args)
    g = serialize.graph_from_doc(serialize.load_json(args.graph))
    kind = KINDS[args.kind]
    if kind != CUSTOM:
        ham = hamiltonian(g, kind)
    elif args.custom_matrix:
        ham = load_custom(serialize.matrix_from_doc(serialize.load_json(args.custom_matrix)), g)
    else:
        raise PstwalkError("--kind custom needs --custom-matrix")
    states = []
    for name in state_names:
        path = getattr(args, name)
        x = serialize.state_from_doc(serialize.load_json(path))
        if len(x) != g.n:
            raise PstwalkError(f"state in {path} has length {len(x)}, graph has {g.n} vertices")
        states.append(x)
    return (cfg, decompose(ham, cfg), *states)


def cmd_analyze(args) -> tuple[dict, str]:
    from .arith import symbolic_pi_multiple
    from .periodicity import NonPeriodic, classify_form, ratio_condition
    from .states import FIXED, support

    cfg, dec, x = _inputs(args, "state")
    prof = support(dec, x, cfg)
    doc = {
        "support": [float(v) for v in prof.eigenvalues],
        "class": prof.kind,
        "periodic": None,
        "rho": None,
        "rho_symbolic": None,
        "spectral_form": None,
    }
    if prof.kind == FIXED:
        doc["periodic"] = True  # trivially: the state only acquires a phase
        summary = "fixed state"
    else:
        table = ratio_condition(prof.eigenvalues, cfg)
        if isinstance(table, NonPeriodic):
            doc["periodic"] = False
            summary = "not periodic"
        else:
            rho = table.period
            doc["periodic"] = True
            doc["rho"] = rho
            doc["rho_symbolic"] = symbolic_pi_multiple(rho)
            summary = f"periodic with rho={rho:.12g}"
        if prof.size >= 3:
            form = classify_form(table, cfg)
            doc["spectral_form"] = None if form is None else dataclasses.asdict(form)
    return doc, f"support size {prof.size} ({prof.kind}); {summary}"


def cmd_pst(args) -> tuple[dict, str]:
    from .transfer import pst_decide, verify_pst_numeric

    cfg, dec, x, y = _inputs(args, "x", "y")
    verdict = pst_decide(dec, x, y, cfg)
    doc = verdict.to_dict()
    if verdict.decision:
        check = verify_pst_numeric(dec, x, y, verdict.tau_min, cfg)
        doc["fidelity"] = check.fidelity
        summary = f"yes at tau={verdict.tau_min:.12g} ({verdict.tau_symbolic})"
    else:
        summary = f"no ({verdict.reason})"
    return doc, summary


def cmd_partner(args) -> tuple[dict, str]:
    from .arith import symbolic_pi_multiple
    from .transfer import _partners

    cfg, dec, x = _inputs(args, "x")
    partners, found, fixed, taus, refused = _partners(Projection(dec, x[:, None]), cfg)
    if fixed[0]:
        raise FixedStateError("fixed states admit no transfer")
    if not found[0]:
        reason = "ambiguous-clustering" if refused[0] else "not-periodic"
        doc = {"partner": None, "tau": None, "tau_symbolic": None, "reason": reason}
        return doc, f"no partner ({reason.replace('-', ' ')})"
    tau = float(taus[0])
    doc = {
        "partner": serialize.state_to_doc(partners[:, 0]),
        "tau": tau,
        "tau_symbolic": symbolic_pi_multiple(tau),
        "reason": None,
    }
    return doc, f"partner found, tau={tau:.12g}"


def cmd_synthesize(args) -> tuple[dict, str]:
    from .synthesis import SynthesisRequest, synthesize

    x = serialize.state_from_doc(serialize.load_json(args.x))
    y = serialize.state_from_doc(serialize.load_json(args.y))
    m = synthesize(SynthesisRequest(x=x, y=y, tau=args.tau, m1=args.m1, m2=args.m2))
    doc = serialize.matrix_to_doc(m)
    return doc, f"synthesized {len(x)}x{len(x)} Hamiltonian for tau={args.tau:.12g}"


def _family_pairs(family: str, kind: str, sizes: list[int], cfg, rng) -> list[tuple]:
    """(x, y, tau, provenance) transfer pairs of a closed-form family: for
    complete and complete bipartite graphs the partner of the first of
    RANDOM_DRAWS random states that is not fixed (none if all are), for
    cycles and paths one sample of each case."""
    from .families import (complete_bipartite_pst, complete_graph_pst, cycle_pst_families,
                           path_pst_families)

    if family in ("complete", "complete-bipartite"):
        check_dense(sum(sizes))  # before a draw of that length
        for _ in range(RANDOM_DRAWS):
            x = rng.normal(size=sum(sizes))
            got = (complete_graph_pst(*sizes, x, cfg) if family == "complete"
                   else complete_bipartite_pst(*sizes, kind, x, cfg))
            if got is not None:
                return [(x, *got, "random-state")]
        return []
    cases = cycle_pst_families(*sizes) if family == "cycle" else path_pst_families(*sizes, kind)
    samples = [case.sample(rng, min_coef=0.2) for case in cases]
    return [(s.x, s.y, s.tau, s.case) for s in samples]


def cmd_family(args) -> tuple[dict, str]:
    from .arith import symbolic_pi_multiple
    from .families import CATALOG_GUARD, pair_plus_catalog

    cfg = _config(args)
    rng = np.random.default_rng(args.seed)
    family, kind = FAMILIES[args.name]
    sizes = [int(p) for p in args.params]
    arity = 2 if family == "complete-bipartite" else 1
    if len(sizes) != arity:
        raise PstwalkError(f"family {args.name} takes {arity} size(s), got {len(sizes)}")
    pairs = [
        {
            "x": serialize.state_to_doc(x),
            "y": serialize.state_to_doc(y),
            "tau": tau,
            "tau_symbolic": symbolic_pi_multiple(tau),
            "provenance": provenance,
        }
        for x, y, tau, provenance in _family_pairs(family, kind, sizes, cfg, rng)
    ]
    catalog = []
    if sum(sizes) <= CATALOG_GUARD:
        catalog = [dataclasses.asdict(e) for e in pair_plus_catalog(family, kind, *sizes, cfg=cfg)]
    doc = {
        "family": args.name,
        "parameters": sizes,
        "pst_pairs": pairs,
        "pair_plus_catalog": catalog,
    }
    return doc, f"{len(pairs)} family pair(s), {len(catalog)} catalog entrie(s)"


def cmd_scan(args) -> tuple[dict, str]:
    from .transfer import fidelity_scan

    _, dec, x, y = _inputs(args, "x", "y")
    result = fidelity_scan(dec, x, y, args.tmax, args.steps)
    doc = {
        "peak_time": result.peak_time,
        "peak_value": result.peak_value,
        "times": result.times,
        "values": result.values,
    }
    if args.out:
        rows = map(",".join, zip(serialize.float_texts(result.times), serialize.float_texts(result.values)))
        serialize.write_text(args.out, "\n".join(["t,fidelity", *rows]) + "\n")
    return doc, f"peak {result.peak_value:.9f} near t={result.peak_time:.9g}"


def cmd_sensitivity(args) -> tuple[dict, str]:
    from .sensitivity import fidelity_derivatives
    from .transfer import pst_decide

    cfg, dec, x, y = _inputs(args, "x", "y")
    if args.tau is not None:
        tau = args.tau
    else:
        verdict = pst_decide(dec, x, y, cfg)
        if not verdict.decision:
            raise PstwalkError(f"pair does not transfer ({verdict.reason}); pass --tau explicitly")
        tau = verdict.tau_min
    report = fidelity_derivatives(dec, x, y, tau, k_max=2, cfg=cfg)
    doc = {
        "tau": report.tau,
        "d2": report.d2,
        "bound_lo": report.bound_lo,
        "pass": report.bound_ok,
        "odd_max_abs": report.odd_max_abs,
        "near_zero": report.near_zero,
    }
    return doc, f"f''({tau:.9g}) = {report.d2:.9g} (lower bound {report.bound_lo:.9g})"


def cmd_extremal(args) -> tuple[dict, str]:
    from .transfer import extremal_min_pst_search

    cfg = _config(args)
    kind = KINDS[args.kind]
    if kind == CUSTOM:
        raise PstwalkError("extremal search supports --kind adj or lap")
    rep = extremal_min_pst_search(args.n, kind, cfg, exhaustive=args.exhaustive)
    doc = {
        "kind": rep.kind,
        "n": rep.n,
        "graph": serialize.graph_to_doc(rep.graph),
        "x": serialize.state_to_doc(rep.x),
        "y": serialize.state_to_doc(rep.y),
        "tau": rep.tau,
        "tau_symbolic": rep.tau_symbolic,
        "optimality": rep.optimality,
        "decision": "yes" if rep.verdict.decision else "no",
        "oracle": rep.oracle,
    }
    return doc, f"extremal tau={rep.tau:.12g} ({rep.tau_symbolic})"


_TIME = {"type": float, "required": True}
_SIZE = {"type": int, "required": True}
# subcommand: (help, arguments before the common options as (name,
# add_argument keywords), _add_common keywords); its handler is cmd_<name>,
# read when the parser is built. A graph subcommand's positionals are the
# graph and the states its handler passes to _inputs
COMMANDS = {
    "analyze": ("support and periodicity of a state",
                [("graph", {}), ("state", {})], {}),
    "pst": ("decide transfer between two states",
            [("graph", {}), ("x", {}), ("y", {})], {}),
    "partner": ("unique transfer partner of a state",
                [("graph", {}), ("x", {})], {}),
    "synthesize": ("Hamiltonian realizing a prescribed transfer",
                   [("x", {}), ("y", {}), ("--tau", _TIME), ("--m1", _SIZE), ("--m2", _SIZE)],
                   {"kind": False, "tolerances": False}),
    "family": ("closed-form family pairs and s-pair catalog",
               [("name", {"choices": list(FAMILIES)}), ("params", {"nargs": "+"}),
                ("--seed", {"type": int, "default": 0})],
               {"kind": False}),
    "scan": ("fidelity series over a time window",
             [("graph", {}), ("x", {}), ("y", {}), ("--tmax", _TIME),
              ("--steps", {"type": int, "default": 400})], {}),
    "sensitivity": ("readout-time sensitivity of a transfer pair",
                    [("graph", {}), ("x", {}), ("y", {}), ("--tau", {"type": float})], {}),
    "extremal": ("least minimum transfer time at a given size",
                 [("n", {"type": int}), ("--exhaustive", {"action": "store_true"})], {}),
}


def build_parser(command: str | None) -> argparse.ArgumentParser:
    """The parser with every subcommand's name and help, and the arguments
    and handler of the named one alone (none for None): the others are never
    parsed in that process (in-process, one core: 0.7 ms for one, 1.6 ms for
    all eight, and more in a cold process)."""
    parser = argparse.ArgumentParser(
        prog="pstwalk",
        description="Decide, construct, and verify perfect state transfer between real pure states",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, arguments, common) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if name != command:
            continue
        for arg, options in arguments:
            p.add_argument(arg, **options)
        _add_common(p, **common)
        p.set_defaults(func=globals()[f"cmd_{name}"])
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # the subcommand is the first word that is not an option: the top-level
    # parser has no option that takes a value
    command = next((a for a in argv if not a.startswith("-")), None)
    args = build_parser(command).parse_args(argv)
    try:
        doc, summary = args.func(args)
        text = serialize.dumps(doc)
        if getattr(args, "out", None) and args.func is not cmd_scan:
            serialize.write_text(args.out, text + "\n")
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (KeyError, IndexError, MalformedDocumentError) as exc:
        print(f"error: malformed input document ({exc})", file=sys.stderr)
        return 2
    except (NumericFailureError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3
    except (PstwalkError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    print(text)
    print(summary, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
