"""Span tracing of pstwalk's public functions from outside the library.

`Tracer.install()` replaces each function named in WRAPPED with a timing
wrapper, in its defining module and under every name another pstwalk module
imported it as (for example `pstwalk.periodicity.reconstruct_fraction`), so
nested calls get their own spans. `uninstall()` puts the originals back. A
name missing from the library is listed in `absent` and otherwise ignored.

Each span is (group, start, end, parent span index, operation id). A group's
self time is the sum over its spans of the span's duration minus the time
covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# (module, function, group); several functions may share one group.
WRAPPED = (
    ("arith", "reconstruct_fraction", "arith.reconstruct"),
    ("periodicity", "ratio_condition", "periodicity.ratio"),
    ("periodicity", "classify_form", "periodicity.classify"),
    ("states", "support", "states.support"),
    ("states", "check_strong_cospectrality", "states.cospectrality"),
    ("transfer", "pst_partner", "transfer.partner"),
    ("transfer", "pst_decide", "transfer.decide"),
    ("transfer", "verify_pst_numeric", "transfer.verify"),
    ("transfer", "fidelity_scan", "transfer.scan"),
    ("transfer", "extremal_min_pst_search", "transfer.extremal"),
    ("transfer", "_laplacian_spread_oracle", "transfer.extremal"),
    ("families", "pair_plus_catalog", "families.catalog"),
    ("spectral", "decompose", "spectral.decompose"),
    ("spectral", "evolve", "spectral.evolve"),
    ("spectral", "fidelity", "spectral.evolve"),
    ("spectral", "transition_matrix", "spectral.evolve"),
    ("sensitivity", "fidelity_derivatives", "sensitivity.derivatives"),
    ("sensitivity", "finite_difference_oracle", "sensitivity.derivatives"),
    ("constructions", "join_transition_matrix", "constructions.join"),
    ("constructions", "join_pst", "constructions.join"),
    ("graphs", "make_graph", "graphs.build"),
    ("graphs", "build_path", "graphs.build"),
    ("graphs", "build_cycle", "graphs.build"),
    ("graphs", "build_complete", "graphs.build"),
    ("graphs", "build_complete_bipartite", "graphs.build"),
    ("graphs", "build_empty", "graphs.build"),
    ("graphs", "build_hypercube", "graphs.build"),
    ("graphs", "cartesian_product", "graphs.build"),
    ("graphs", "join", "graphs.build"),
    ("graphs", "hamiltonian", "graphs.hamiltonian"),
    ("cli", "main", "cli.main"),
    ("serialize", "dumps", "serialize.dumps"),
)

MODULES = tuple(dict.fromkeys(module for module, _, _ in WRAPPED))


def _matrix_of(arg) -> np.ndarray:
    return np.asarray(getattr(arg, "matrix", arg), dtype=float)


def _ndarray_bytes(obj) -> int:
    fields = getattr(obj, "__dict__", {})
    return sum(v.nbytes for v in fields.values() if isinstance(v, np.ndarray))


class Tracer:
    """In-memory span recorder with per-group aggregates."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.op_id: int | None = None
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.errors: Counter = Counter()
        self.absent: list[str] = []
        self.unobserved: Counter = Counter()
        # observations made at particular boundaries
        self.nonperiodic = 0
        self.catalog_states = 0
        self.catalog_entries = 0
        self.decomposed: list[np.ndarray] = []   # matrices, for the eigh floor
        self.retained_bytes_max = 0
        self.bytes_out = 0
        self._stack: list[list] = []
        self._installed: list[tuple] = []

    # -- recording -------------------------------------------------------
    def _wrap(self, module: str, group: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1][1] if tracer._stack else -1
            span_id = len(tracer.spans)
            tracer.spans.append(None)
            frame = [0.0, span_id]  # time covered by child spans, own id
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.errors[module] += 1
                raise
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                duration = end - start
                tracer.self_s[group] += duration - frame[0]
                tracer.calls[group] += 1
                if tracer._stack:
                    tracer._stack[-1][0] += duration
                tracer.spans[span_id] = (group, start, end, parent, tracer.op_id)
            try:
                tracer._observe(group, args, result)
            except (TypeError, ValueError, IndexError, AttributeError):
                tracer.unobserved[group] += 1  # signature changed at this commit
            return result

        return wrapper

    def _observe(self, group: str, args: tuple, result) -> None:
        if group == "periodicity.ratio" and type(result).__name__ == "NonPeriodic":
            self.nonperiodic += 1
        elif group == "families.catalog":
            sizes = [int(s) for s in args[2:]]
            n = sizes[0] if args[0] != "complete-bipartite" else sizes[0] + sizes[1]
            self.catalog_states += n * (n - 1)
            self.catalog_entries += len(result)
        elif group == "spectral.decompose":
            self.decomposed.append(_matrix_of(args[0]))
            self.retained_bytes_max = max(self.retained_bytes_max, _ndarray_bytes(result))
        elif group == "serialize.dumps":
            self.bytes_out += len(result.encode("utf-8"))

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        """Wrap every WRAPPED function of the pstwalk modules."""
        for module in MODULES:
            try:
                importlib.import_module(f"pstwalk.{module}")
            except ModuleNotFoundError:
                pass  # its functions are reported as absent below
        loaded = [m for name, m in list(sys.modules.items())
                  if m is not None and (name == "pstwalk" or name.startswith("pstwalk."))]
        for module, name, group in WRAPPED:
            mod = sys.modules.get(f"pstwalk.{module}")
            original = getattr(mod, name, None) if mod is not None else None
            if original is None:
                self.absent.append(f"{module}.{name}")
                continue
            wrapper = self._wrap(module, group, original)
            for m in loaded:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        self._installed.append((m, attr, original))

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._installed):
            setattr(m, attr, original)
        self._installed.clear()

    # -- results -----------------------------------------------------------
    def covered_s(self) -> float:
        """Wall time covered by top-level spans, i.e. the sum of self times."""
        return sum(end - start for _, start, end, parent, _ in self.spans if parent < 0)

    def aggregates(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "errors": dict(self.errors),
            "nonperiodic": self.nonperiodic,
            "catalog_states": self.catalog_states,
            "catalog_entries": self.catalog_entries,
            "retained_bytes_max": self.retained_bytes_max,
            "eigh_floor_s": eigh_floor_s(self.decomposed),
            "decompositions": len(self.decomposed),
            "bytes_out": self.bytes_out,
            "covered_s": self.covered_s(),
            "absent": list(self.absent),
            "unobserved": dict(self.unobserved),
        }


def eigh_floor_s(matrices: list[np.ndarray]) -> float:
    """Time bare numpy.linalg.eigh on each matrix once, summed."""
    total = 0.0
    for m in matrices:
        start = time.perf_counter()
        np.linalg.eigh(m)
        total += time.perf_counter() - start
    return total


def merge(into: dict, part: dict) -> None:
    """Add one aggregates() dict into another (used for CLI child processes)."""
    for key in ("calls", "self_s", "errors"):
        bucket = into.setdefault(key, {})
        for k, v in part[key].items():
            bucket[k] = bucket.get(k, 0) + v
    for key in ("nonperiodic", "catalog_states", "catalog_entries", "decompositions",
                "bytes_out", "covered_s", "eigh_floor_s"):
        into[key] = into.get(key, 0) + part[key]
    into["retained_bytes_max"] = max(into.get("retained_bytes_max", 0), part["retained_bytes_max"])
    into["absent"] = sorted(set(into.get("absent", [])) | set(part["absent"]))
    unobserved = into.setdefault("unobserved", {})
    for k, v in part["unobserved"].items():
        unobserved[k] = unobserved.get(k, 0) + v
