"""Deterministic JSON for graphs, states, matrices, and reports.

Floats are written with 17 significant digits so every value round-trips
bit-exactly through decimal text; documents contain no timestamps, making
repeated runs byte-identical.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import MalformedDocumentError
from .graphs import Graph, _integer, make_graph


def format_float(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("cannot serialize non-finite float")
    return format(x, ".17g")


def float_texts(values: np.ndarray) -> list[str]:
    """format_float of each entry of a float array, in one pass: one
    isfinite check for the array, then format(v, ".17g") over tolist()."""
    if not np.isfinite(values).all():  # format_float's check, once for the array
        raise ValueError("cannot serialize non-finite float")
    return [format(v, ".17g") for v in values.tolist()]


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
    elif isinstance(obj, np.ndarray) and obj.dtype.kind == "f" and obj.ndim == 1:
        out.append("[" + ", ".join(float_texts(obj)) + "]")
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


def _numbers(items, what: str) -> list[float]:
    """A flat JSON list of numbers (booleans are not numbers), as floats."""
    if not isinstance(items, list) or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in items):
        raise MalformedDocumentError(f"{what} must be a flat list of numbers")
    return [float(v) for v in items]


def graph_from_doc(doc) -> Graph:
    """A graph from {"n": n, "edges": [[u, v], [u, v, w], ...]}. A document of
    another shape is a MalformedDocumentError; make_graph refuses its values
    (a non-integral n or endpoint, a weight that is not a number, ...)."""
    items = doc.get("edges", []) if isinstance(doc, dict) else None
    if not isinstance(items, list) or not all(
        isinstance(item, list) and len(item) in (2, 3) for item in items
    ):
        raise MalformedDocumentError(
            "a graph document must be an object whose edges are [u, v] or [u, v, w] lists"
        )
    return make_graph(doc["n"], items)


def state_to_doc(x) -> list:
    return [float(v) for v in np.asarray(x, dtype=float)]


def state_from_doc(doc) -> np.ndarray:
    return np.asarray(_numbers(doc, "a state document"), dtype=float)


def matrix_to_doc(m) -> dict:
    m = np.asarray(m, dtype=float)
    return {"n": int(m.shape[0]), "rows": [[float(v) for v in row] for row in m]}


def matrix_from_doc(doc) -> np.ndarray:
    if not isinstance(doc, dict) or not isinstance(doc["rows"], list):
        raise MalformedDocumentError("a matrix document must be an object whose rows are lists")
    m = np.asarray([_numbers(row, "a matrix row") for row in doc["rows"]], dtype=float)
    n = _integer(doc["n"], "matrix size n")
    if m.shape != (n, n):
        raise ValueError("matrix rows do not match the declared size")
    return m


def load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
