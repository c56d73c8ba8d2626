"""Module budget of a cold process: `import pstwalk` loads no module of the
package, and each CLI subcommand loads only the modules it runs, and never
`fractions`, `decimal`, `numpy.fft` or the route table `routes`, which
`spectral` loads only for a matrix of ROUTE_MIN_N vertices or more.

Each case runs in a fresh interpreter on the golden inputs and reports the
`pstwalk.*` entries of `sys.modules` after the run, with `fractions`,
`decimal` and `numpy.fft` where loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pstwalk
from test_golden import CASES as GOLDEN_CASES

INPUTS = Path(__file__).parent / "golden" / "inputs"
SRC = Path(pstwalk.__file__).resolve().parent.parent

# print the pstwalk.* modules, and fractions, decimal and numpy.fft, loaded
# after running the CLI on argv, if any
CHILD = """
import json, sys
import pstwalk
if len(sys.argv) > 1:
    from pstwalk.cli import main
    code = main(sys.argv[1:])
    assert code == 0, code
print(json.dumps(sorted(m for m in sys.modules
                        if m.startswith("pstwalk.") or m in ("fractions", "decimal", "numpy.fft"))))
"""

# every golden CLI case, in one process: each with its exit code and its
# output swallowed; then the pstwalk.* modules loaded
GOLDEN_CHILD = """
import contextlib, io, json, sys
from pstwalk.cli import main
for argv, code in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == code, argv
print(json.dumps(sorted(m for m in sys.modules if m.startswith("pstwalk."))))
"""

# whether routes is loaded after importing spectral, then after decomposing
# P63 (below ROUTE_MIN_N) and P64 (at it)
SPECTRAL_CHILD = """
import json, sys
from pstwalk import spectral
from pstwalk.graphs import ADJACENCY, build_path, hamiltonian
loaded = ["pstwalk.routes" in sys.modules]
for n in (spectral.ROUTE_MIN_N - 1, spectral.ROUTE_MIN_N):
    spectral.decompose(hamiltonian(build_path(n), ADJACENCY))
    loaded.append("pstwalk.routes" in sys.modules)
print(json.dumps(loaded))
"""

# the rational arithmetic runs on plain ints; fractions imports decimal; numpy
# loads numpy.fft on first access, which only the circulant and path routes'
# bases make, from n = 64 on, as routes is loaded only from there
NEVER = {"fractions", "decimal", "numpy.fft", "routes"}
CATALOG = {"families", "constructions", "sensitivity", "synthesis"} | NEVER
GRAPH_PAIR = ["p7.json", "p7_x.json", "p7_y.json"]

# (argv with input file names relative to INPUTS, modules it must not load)
CASES = [
    (["pst", *GRAPH_PAIR], CATALOG),
    (["partner", "p7.json", "p7_x.json"], CATALOG),
    (["analyze", "p7.json", "p7_x.json"], CATALOG),
    (["scan", *GRAPH_PAIR, "--tmax", "3", "--steps", "40"], CATALOG),
    (["synthesize", "p7_x.json", "p7_y.json", "--tau", "1.25", "--m1", "2", "--m2", "2"],
     CATALOG - {"synthesis"} | {"transfer", "periodicity"}),
    (["family", "cycle", "8", "--seed", "1"], CATALOG - {"families"}),
    (["sensitivity", *GRAPH_PAIR], CATALOG - {"sensitivity"}),
    (["extremal", "5", "--kind", "adj", "--exhaustive"], CATALOG),
]


def _resolve(argv: list[str]) -> list[str]:
    return [str(INPUTS / a) if a.endswith(".json") else a for a in argv]


def _child(code: str, *args: str):
    """The JSON of the last stdout line of code run in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def loaded_after(argv: list[str]) -> set[str]:
    return {m.removeprefix("pstwalk.") for m in _child(CHILD, *_resolve(argv))}


def test_import_pstwalk_loads_no_module():
    assert loaded_after([]) == set()


@pytest.mark.parametrize("argv,unloaded", CASES, ids=[c[0][0] for c in CASES])
def test_subcommand_loads_only_what_it_runs(argv, unloaded):
    loaded = loaded_after(argv)
    assert "cli" in loaded  # the run reached the command
    assert not loaded & unloaded, sorted(loaded & unloaded)


def test_no_golden_case_loads_the_route_table():
    """Every golden input is below ROUTE_MIN_N, so no golden CLI run compiles
    the route table."""
    cases = [(_resolve(argv), code) for _, argv, code in GOLDEN_CASES]
    loaded = {m.removeprefix("pstwalk.") for m in _child(GOLDEN_CHILD, json.dumps(cases))}
    assert "cli" in loaded and "spectral" in loaded and "routes" not in loaded, sorted(loaded)


def test_spectral_loads_the_route_table_at_the_gate():
    """import pstwalk.spectral does not load routes, nor does a decomposition
    just below ROUTE_MIN_N; one at it does."""
    assert _child(SPECTRAL_CHILD) == [False, False, True]
