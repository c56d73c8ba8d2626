"""Module budget of a cold process: `import pstwalk` loads no module of the
package, and each CLI subcommand loads only the modules it runs, and never
`fractions`, `decimal` or `numpy.fft`.

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

# the rational arithmetic runs on plain ints; fractions imports decimal; numpy
# loads numpy.fft on first access, which only the circulant and path routes'
# bases make, from n = 64 on
NEVER = {"fractions", "decimal", "numpy.fft"}
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


def loaded_after(argv: list[str]) -> set[str]:
    args = [str(INPUTS / a) if a.endswith(".json") else a for a in argv]
    proc = subprocess.run([sys.executable, "-c", CHILD, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, check=True)
    return {m.removeprefix("pstwalk.") for m in json.loads(proc.stdout.splitlines()[-1])}


def test_import_pstwalk_loads_no_module():
    assert loaded_after([]) == set()


@pytest.mark.parametrize("argv,unloaded", CASES, ids=[c[0][0] for c in CASES])
def test_subcommand_loads_only_what_it_runs(argv, unloaded):
    loaded = loaded_after(argv)
    assert "cli" in loaded  # the run reached the command
    assert not loaded & unloaded, sorted(loaded & unloaded)
