"""Command-line front end: analyze | pst | partner | synthesize | family |
scan | sensitivity | extremal.

Each invocation prints exactly one JSON document on stdout (a yes or a no is
still exit 0) and a one-line human summary on stderr. Exit codes: 2 for I/O
or parse failures, 3 for numerical failures, 4 for invalid requests.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import serialize
from .arith import symbolic_pi_multiple
from .errors import FixedStateError, NumericFailureError, PstwalkError
from .families import (
    complete_bipartite_pst,
    complete_graph_pst,
    cycle_pst_families,
    pair_plus_catalog,
    path_pst_families,
)
from .graphs import ADJACENCY, LAPLACIAN, hamiltonian, load_custom
from .periodicity import NonPeriodic, classify_form, ratio_condition
from .sensitivity import fidelity_derivatives
from .spectral import DEFAULT_TOLERANCES, ToleranceConfig, decompose
from .states import FIXED, support
from .synthesis import SynthesisRequest, synthesize
from .transfer import (
    extremal_min_pst_search,
    fidelity_scan,
    pst_decide,
    pst_partners,
    verify_pst_numeric,
)

KINDS = {"adj": ADJACENCY, "lap": LAPLACIAN, "custom": "custom"}


def _add_common(p: argparse.ArgumentParser, kind: bool = True, tolerances: bool = True) -> None:
    if kind:
        p.add_argument("--kind", choices=sorted(KINDS), default="adj")
        p.add_argument("--custom-matrix", help="matrix JSON for --kind custom")
    if tolerances:  # --tol-group, --tol-supp, --tol-phase, --q-max, --int-tol
        for f in dataclasses.fields(ToleranceConfig):
            p.add_argument("--" + f.name.replace("_", "-"), type=type(f.default))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="also write the result to this path")


def _config(args) -> ToleranceConfig:
    overrides = {f.name: getattr(args, f.name) for f in dataclasses.fields(ToleranceConfig)
                 if getattr(args, f.name, None) is not None}
    return dataclasses.replace(DEFAULT_TOLERANCES, **overrides)


def _load_hamiltonian(args):
    g = serialize.graph_from_doc(serialize.load_json(args.graph))
    kind = KINDS[args.kind]
    if kind == "custom":
        if not args.custom_matrix:
            raise PstwalkError("--kind custom needs --custom-matrix")
        return load_custom(serialize.matrix_from_doc(serialize.load_json(args.custom_matrix)), g)
    return hamiltonian(g, kind)


def _load_state(path: str, n: int) -> np.ndarray:
    x = serialize.state_from_doc(serialize.load_json(path))
    if len(x) != n:
        raise PstwalkError(f"state in {path} has length {len(x)}, graph has {n} vertices")
    return x


def _form_doc(form) -> dict | None:
    if form is None:
        return None
    return {
        "variant": form.variant,
        "a": form.a,
        "b": None if form.b is None else list(form.b),
        "delta": form.delta,
        "g": form.g,
    }


def cmd_analyze(args) -> tuple[dict, str]:
    cfg = _config(args)
    ham = _load_hamiltonian(args)
    x = _load_state(args.state, ham.n)
    dec = decompose(ham, cfg)
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
            doc["spectral_form"] = _form_doc(classify_form(table, cfg))
    return doc, f"support size {prof.size} ({prof.kind}); {summary}"


def cmd_pst(args) -> tuple[dict, str]:
    cfg = _config(args)
    ham = _load_hamiltonian(args)
    x = _load_state(args.x, ham.n)
    y = _load_state(args.y, ham.n)
    dec = decompose(ham, cfg)
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
    cfg = _config(args)
    ham = _load_hamiltonian(args)
    x = _load_state(args.x, ham.n)
    dec = decompose(ham, cfg)
    partners, found, fixed, taus = pst_partners(dec, x[:, None], cfg)
    if fixed[0]:
        raise FixedStateError("fixed states admit no transfer")
    if not found[0]:
        return {"partner": None, "tau": None, "tau_symbolic": None,
                "reason": "not-periodic"}, "no partner (not periodic)"
    tau = float(taus[0])
    doc = {
        "partner": serialize.state_to_doc(partners[:, 0]),
        "tau": tau,
        "tau_symbolic": symbolic_pi_multiple(tau),
        "reason": None,
    }
    return doc, f"partner found, tau={tau:.12g}"


def cmd_synthesize(args) -> tuple[dict, str]:
    x = serialize.state_from_doc(serialize.load_json(args.x))
    y = serialize.state_from_doc(serialize.load_json(args.y))
    m = synthesize(SynthesisRequest(x=x, y=y, tau=args.tau, m1=args.m1, m2=args.m2))
    doc = serialize.matrix_to_doc(m)
    return doc, f"synthesized {len(x)}x{len(x)} Hamiltonian for tau={args.tau:.12g}"


def _family_pairs(args, cfg, rng):
    name = args.name
    params = [int(p) for p in args.params]
    pairs = []
    catalog_args = None
    if name == "complete":
        (n,) = params
        x = rng.normal(size=n)
        got = complete_graph_pst(n, x, cfg)
        while got is None:
            x = rng.normal(size=n)
            got = complete_graph_pst(n, x, cfg)
        y, tau = got
        pairs.append((x, y, tau, "random-state"))
        catalog_args = ("complete", ADJACENCY, (n,))
    elif name == "cycle":
        (n,) = params
        for case in cycle_pst_families(n):
            sample = case.sample(rng, min_coef=0.2)
            pairs.append((sample.x, sample.y, sample.tau, case.case))
        catalog_args = ("cycle", ADJACENCY, (n,))
    elif name in ("path-adj", "path-lap"):
        (n,) = params
        kind = ADJACENCY if name.endswith("adj") else LAPLACIAN
        for case in path_pst_families(n, kind):
            sample = case.sample(rng, min_coef=0.2)
            pairs.append((sample.x, sample.y, sample.tau, case.case))
        catalog_args = ("path", kind, (n,))
    elif name in ("complete-bipartite-adj", "complete-bipartite-lap"):
        m, n = params
        kind = ADJACENCY if name.endswith("adj") else LAPLACIAN
        for _ in range(64):
            x = rng.normal(size=m + n)
            got = complete_bipartite_pst(m, n, kind, x, cfg)
            if got is not None:
                pairs.append((x, got[0], got[1], "random-state"))
                break
        catalog_args = ("complete-bipartite", kind, (m, n))
    else:
        raise PstwalkError(f"unknown family {name!r}")
    return pairs, catalog_args


def cmd_family(args) -> tuple[dict, str]:
    cfg = _config(args)
    rng = np.random.default_rng(args.seed)
    pairs, catalog_args = _family_pairs(args, cfg, rng)
    doc_pairs = []
    for x, y, tau, provenance in pairs:
        doc_pairs.append(
            {
                "x": serialize.state_to_doc(x),
                "y": serialize.state_to_doc(y),
                "tau": tau,
                "tau_symbolic": symbolic_pi_multiple(tau),
                "provenance": provenance,
            }
        )
    catalog_doc = []
    family, kind, sizes = catalog_args
    if sum(sizes) <= 30:
        for entry in pair_plus_catalog(family, kind, *sizes, cfg=cfg):
            catalog_doc.append(
                {
                    "s": entry.s, "u": entry.u, "v": entry.v,
                    "partner_s": entry.partner_s,
                    "partner_u": entry.partner_u, "partner_v": entry.partner_v,
                    "tau": entry.tau, "tau_symbolic": entry.tau_symbolic,
                }
            )
    doc = {
        "family": args.name,
        "parameters": [int(p) for p in args.params],
        "pst_pairs": doc_pairs,
        "pair_plus_catalog": catalog_doc,
    }
    return doc, f"{len(doc_pairs)} family pair(s), {len(catalog_doc)} catalog entrie(s)"


def cmd_scan(args) -> tuple[dict, str]:
    cfg = _config(args)
    ham = _load_hamiltonian(args)
    x = _load_state(args.x, ham.n)
    y = _load_state(args.y, ham.n)
    dec = decompose(ham, cfg)
    result = fidelity_scan(dec, x, y, args.tmax, args.steps)
    doc = {
        "peak_time": result.peak_time,
        "peak_value": result.peak_value,
        "times": [float(t) for t in result.times],
        "values": [float(v) for v in result.values],
    }
    if args.out:
        rows = ["t,fidelity"]
        rows += [
            f"{serialize.format_float(t)},{serialize.format_float(v)}"
            for t, v in zip(result.times, result.values)
        ]
        serialize.write_text(args.out, "\n".join(rows) + "\n")
    return doc, f"peak {result.peak_value:.9f} near t={result.peak_time:.9g}"


def cmd_sensitivity(args) -> tuple[dict, str]:
    cfg = _config(args)
    ham = _load_hamiltonian(args)
    x = _load_state(args.x, ham.n)
    y = _load_state(args.y, ham.n)
    dec = decompose(ham, cfg)
    if args.tau is not None:
        tau = args.tau
    else:
        verdict = pst_decide(dec, x, y, cfg)
        if not verdict.decision:
            raise PstwalkError(f"pair does not transfer ({verdict.reason}); pass --tau explicitly")
        tau = verdict.tau_min
    report = fidelity_derivatives(dec, x, y, tau, k_max=4, cfg=cfg)
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
    cfg = _config(args)
    kind = KINDS[args.kind]
    if kind == "custom":
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pstwalk",
        description="Decide, construct, and verify perfect state transfer between real pure states",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="support and periodicity of a state")
    p.add_argument("graph")
    p.add_argument("state")
    _add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("pst", help="decide transfer between two states")
    p.add_argument("graph")
    p.add_argument("x")
    p.add_argument("y")
    _add_common(p)
    p.set_defaults(func=cmd_pst)

    p = sub.add_parser("partner", help="unique transfer partner of a state")
    p.add_argument("graph")
    p.add_argument("x")
    _add_common(p)
    p.set_defaults(func=cmd_partner)

    p = sub.add_parser("synthesize", help="Hamiltonian realizing a prescribed transfer")
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--m1", type=int, required=True)
    p.add_argument("--m2", type=int, required=True)
    _add_common(p, kind=False, tolerances=False)
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("family", help="closed-form family pairs and s-pair catalog")
    p.add_argument(
        "name",
        choices=[
            "complete", "cycle", "path-adj", "path-lap",
            "complete-bipartite-adj", "complete-bipartite-lap",
        ],
    )
    p.add_argument("params", nargs="+")
    _add_common(p, kind=False)
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("scan", help="fidelity series over a time window")
    p.add_argument("graph")
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("--tmax", type=float, required=True)
    p.add_argument("--steps", type=int, default=400)
    _add_common(p)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("sensitivity", help="readout-time sensitivity of a transfer pair")
    p.add_argument("graph")
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("--tau", type=float)
    _add_common(p)
    p.set_defaults(func=cmd_sensitivity)

    p = sub.add_parser("extremal", help="least minimum transfer time at a given size")
    p.add_argument("n", type=int)
    p.add_argument("--exhaustive", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_extremal)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        doc, summary = args.func(args)
        text = serialize.dumps(doc)
        if getattr(args, "out", None) and args.func is not cmd_scan:
            serialize.write_text(args.out, text + "\n")
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (KeyError, IndexError) as exc:
        print(f"error: malformed input document ({exc})", file=sys.stderr)
        return 2
    except NumericFailureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (PstwalkError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    print(text)
    print(summary, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
