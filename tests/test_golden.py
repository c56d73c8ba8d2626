"""Golden CLI outputs: each invocation's stdout must match the recorded bytes.

The recorded files live in tests/golden/<name>.out; the graph and state
documents they read are in tests/golden/inputs/. A deliberate change of
output means re-recording the affected files and saying why in the change.
"""

from pathlib import Path

import pytest

from pstwalk.cli import main

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"

# (name, argv with input file names relative to INPUTS, expected exit code)
CASES = [
    ("analyze-p7-pair", ["analyze", "p7.json", "p7_x.json"], 0),
    ("pst-p7-pair", ["pst", "p7.json", "p7_x.json", "p7_y.json"], 0),
    ("partner-p7-pair", ["partner", "p7.json", "p7_x.json"], 0),
    ("partner-p7-vertex", ["partner", "p7.json", "p7_e0.json"], 0),
    ("analyze-c8-plus", ["analyze", "c8.json", "c8_x.json"], 0),
    ("pst-c8-plus", ["pst", "c8.json", "c8_x.json", "c8_y.json"], 0),
    ("partner-c8-plus", ["partner", "c8.json", "c8_x.json"], 0),
    ("analyze-c8-plus-lap", ["analyze", "c8.json", "c8_x.json", "--kind", "lap"], 0),
    ("partner-c8-plus-lap", ["partner", "c8.json", "c8_x.json", "--kind", "lap"], 0),
    ("partner-c8-fixed", ["partner", "c8.json", "c8_ones.json"], 4),
    ("family-complete-4", ["family", "complete", "4", "--seed", "1"], 0),
    ("family-cycle-8", ["family", "cycle", "8", "--seed", "1"], 0),
    ("family-cycle-12", ["family", "cycle", "12", "--seed", "1"], 0),
    ("family-path-adj-7", ["family", "path-adj", "7", "--seed", "1"], 0),
    ("family-path-lap-4", ["family", "path-lap", "4", "--seed", "1"], 0),
    ("family-path-lap-12", ["family", "path-lap", "12", "--seed", "1"], 0),
    ("family-complete-bipartite-adj-4-4",
     ["family", "complete-bipartite-adj", "4", "4", "--seed", "1"], 0),
    ("family-complete-bipartite-lap-2-8",
     ["family", "complete-bipartite-lap", "2", "8", "--seed", "1"], 0),
    ("analyze-c8-fixed", ["analyze", "c8.json", "c8_ones.json"], 0),
    ("pst-p7-not-cospectral", ["pst", "p7.json", "p7_x.json", "p7_e01.json"], 0),
    ("extremal-6-lap-exhaustive", ["extremal", "6", "--kind", "lap", "--exhaustive"], 0),
    ("extremal-6-adj-exhaustive", ["extremal", "6", "--kind", "adj", "--exhaustive"], 0),
    # the P6 adjacency with edge (0, 1) at weight 1e8: x = e2 + e5 is periodic,
    # but its phase spread at tau is 1.405, so all three refuse it as ambiguous-clustering
    ("pst-p6-heavy", ["pst", "p6_heavy.json", "p6_heavy_x.json", "p6_heavy_y.json"], 0),
    ("partner-p6-heavy", ["partner", "p6_heavy.json", "p6_heavy_x.json"], 0),
    ("analyze-p6-heavy", ["analyze", "p6_heavy.json", "p6_heavy_x.json"], 0),
    # x = e0 + e1 on P7 is not periodic
    ("partner-p7-nonperiodic", ["partner", "p7.json", "p7_e0p1.json"], 0),
    ("analyze-p7-nonperiodic", ["analyze", "p7.json", "p7_e0p1.json"], 0),
]


def resolve(argv):
    return [str(INPUTS / a) if a.endswith(".json") else a for a in argv]


@pytest.mark.parametrize("name,argv,code", CASES, ids=[c[0] for c in CASES])
def test_golden_stdout(name, argv, code, capsys):
    assert main(resolve(argv)) == code
    expected = (GOLDEN / f"{name}.out").read_text()
    assert capsys.readouterr().out == expected
