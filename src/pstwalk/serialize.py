"""Deterministic JSON for graphs, states, matrices, and reports.

Floats are written with 17 significant digits so every value round-trips
bit-exactly through decimal text; documents contain no timestamps, making
repeated runs byte-identical.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import GraphError
from .graphs import Graph, make_graph


def format_float(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("cannot serialize non-finite float")
    return format(x, ".17g")


def dumps(obj) -> str:
    """Serialize dicts/lists/scalars deterministically (insertion order kept)."""
    pieces: list[str] = []
    _emit(obj, pieces)
    return "".join(pieces)


def _emit(obj, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format_float(float(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, np.ndarray):
        _emit(obj.tolist(), out)
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(", ")
            _emit(item, out)
        out.append("]")
    elif isinstance(obj, dict):
        out.append("{")
        for i, (key, value) in enumerate(obj.items()):
            if i:
                out.append(", ")
            out.append(json.dumps(str(key)))
            out.append(": ")
            _emit(value, out)
        out.append("}")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def graph_to_doc(g: Graph) -> dict:
    return {"n": g.n, "edges": [[u, v, w] for u, v, w in g.edges]}


def _integer(value, what: str) -> int:
    """A vertex count or index from JSON: an integer or an integral float. A
    boolean, a string or a non-integral number is refused, not converted."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise GraphError(f"{what} must be an integer, got {value!r}")


def graph_from_doc(doc) -> Graph:
    edges = []
    for item in doc.get("edges", []):
        if len(item) == 2:
            u, v = item
            w = 1.0
        else:
            u, v, w = item
        edges.append((_integer(u, "edge endpoint"), _integer(v, "edge endpoint"), float(w)))
    return make_graph(_integer(doc["n"], "vertex count n"), edges)


def state_to_doc(x) -> list:
    return [float(v) for v in np.asarray(x, dtype=float)]


def state_from_doc(doc) -> np.ndarray:
    return np.asarray([float(v) for v in doc], dtype=float)


def matrix_to_doc(m) -> dict:
    m = np.asarray(m, dtype=float)
    return {"n": int(m.shape[0]), "rows": [[float(v) for v in row] for row in m]}


def matrix_from_doc(doc) -> np.ndarray:
    m = np.asarray([[float(v) for v in row] for row in doc["rows"]], dtype=float)
    if m.shape != (int(doc["n"]), int(doc["n"])):
        raise ValueError("matrix rows do not match the declared size")
    return m


def load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
