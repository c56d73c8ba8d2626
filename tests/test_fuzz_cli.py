"""Fuzz of the graph, state and matrix JSON formats and of the numeric
command-line arguments through `cli.main`.

Random documents, mostly close to valid ones, go through `analyze`, `pst`
and `partner` with `--kind adj`, `lap` or `custom`. Valid documents go
through every graph command and `synthesize` with extreme numeric
arguments. Whatever the input, a run must end in exit 0, 2, 3 or 4, print
exactly one line on stderr, print one JSON document on stdout only on
success, and raise no RuntimeWarning.

Each example starts from valid documents for a graph on 1 to 6 vertices and
replaces or deletes up to three parts of them, a whole document included.
So it draws documents of the wrong type or nesting; a boolean, fractional,
string, null or non-positive `n`; edge items of the wrong length or type;
weights and state or matrix entries that are zero, negative, subnormal,
1e200, 1e308, NaN or infinite, or not numbers; and states and matrix rows
of the wrong length.
"""

import contextlib
import copy
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from pstwalk.cli import main

# values put in place of any part of a document, or of a whole document
EXTREMES = [0.0, -1.0, 5e-324, 1e-310, 1e200, 1e308, math.inf, -math.inf, math.nan]
JUNK = [True, False, None, 2.5, 3.0, 7, -1, "3", [], {}, [5], [[1, 0]], [0, 1, 2, 3],
        {"n": 2}, "DELETE"]


def _slots(doc, parent, key):
    """(container, key) of doc and of every value nested in it."""
    yield parent, key
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for k, v in list(items):
        yield from _slots(v, doc, k)


@st.composite
def documents(draw, changes=3):
    """[graph, state x, state y, matrix] JSON values: valid documents for one
    graph on 1 to 6 vertices, with up to `changes` parts replaced or deleted."""
    n = draw(st.integers(1, 6))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [[u, v] if draw(st.booleans()) else [u, v, draw(st.sampled_from([1.0, 2.0, 0.5, 3]))]
             for (u, v), keep in zip(pairs, chosen) if keep]
    rows = [[0.0] * n for _ in range(n)]
    for u, v, *w in edges:
        rows[u][v] = rows[v][u] = w[0] if w else 1.0
    for u in range(n):
        rows[u][u] = draw(st.sampled_from([0.0, 1.0, -2.0]))
    entries = st.sampled_from([0.0, 0.0, 1.0, -1.0, 0.5]) | st.floats(-1e6, 1e6)
    state = st.lists(entries, min_size=n, max_size=n)
    docs = [{"n": n, "edges": edges}, draw(state), draw(state), {"n": n, "rows": rows}]
    for _ in range(draw(st.integers(0, changes))):
        slots = [slot for i, doc in enumerate(docs) for slot in _slots(doc, docs, i)]
        parent, key = draw(st.sampled_from(slots))
        value = draw(st.sampled_from(EXTREMES + JUNK))
        if value != "DELETE":
            parent[key] = copy.deepcopy(value)
        elif parent is not docs:
            del parent[key]
    return docs


def _check_run(docs, argv):
    """Run argv, with G, X, Y and M standing for the paths of docs, and
    check the exit contract."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, doc in zip("GXYM", docs):
            paths[name] = str(Path(tmp) / f"{name}.json")
            Path(paths[name]).write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error", RuntimeWarning)
            code = main([paths.get(arg, arg) for arg in argv])
    assert code in (0, 2, 3, 4)
    assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
    if code == 0:
        assert isinstance(json.loads(out.getvalue()), dict)
    else:
        assert out.getvalue() == "" and err.getvalue().startswith("error: ")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(documents(), st.sampled_from(["analyze", "pst", "partner"]),
       st.sampled_from(["adj", "lap", "custom"]))
def test_json_documents_exit_cleanly(docs, command, kind):
    argv = [command, "G", "X"] + (["Y"] if command == "pst" else []) + ["--kind", kind]
    if kind == "custom":
        argv += ["--custom-matrix", "M"]
    _check_run(docs, argv)


# numeric option values, valid ones first, passed as --flag=value so that
# "-inf" is no option
FLOATS = ["1.0", "0.5", "3.0"] + [repr(v) for v in EXTREMES]
COUNTS = ["2", "3", "50", "1", "0", "-1"]
TOLERANCES = ["--tol-group", "--tol-supp", "--tol-phase", "--int-tol"]


@st.composite
def numeric_arguments(draw):
    """argv of one graph command or of `synthesize`, its numeric options
    drawn from FLOATS and COUNTS; a graph command's with at most one
    tolerance flag, drawn from FLOATS, 0 and -1."""
    command = draw(st.sampled_from(["analyze", "pst", "partner", "scan", "sensitivity",
                                    "synthesize"]))
    floats, counts = st.sampled_from(FLOATS), st.sampled_from(COUNTS)
    if command == "synthesize":
        return ["synthesize", "X", "Y", f"--tau={draw(floats)}",
                f"--m1={draw(counts)}", f"--m2={draw(counts)}"]
    argv = [command, "G", "X"] + (["Y"] if command in ("pst", "scan", "sensitivity") else [])
    argv += ["--kind", draw(st.sampled_from(["adj", "lap"]))]
    if command == "scan":
        argv += [f"--tmax={draw(floats)}", f"--steps={draw(counts)}"]
    if command == "sensitivity" and draw(st.booleans()):
        argv.append(f"--tau={draw(floats)}")
    if draw(st.booleans()):
        tolerance = draw(st.sampled_from(FLOATS + ["0", "-1"]))
        argv.append(f"{draw(st.sampled_from(TOLERANCES))}={tolerance}")
    return argv


@settings(max_examples=300, deadline=None, derandomize=True)
@given(documents(changes=0), numeric_arguments(), st.booleans())
def test_numeric_arguments_exit_cleanly(docs, argv, mirror):
    if mirror:  # y is x reversed: a pair of equal norms, a transfer pair on some graphs
        docs[2] = docs[1][::-1]
    _check_run(docs, argv)
