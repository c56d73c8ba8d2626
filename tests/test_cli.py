import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import pstwalk as pw
from conftest import basis_state, pair_state
from pstwalk import cli, periodicity, serialize
from pstwalk.cli import build_parser, main
from pstwalk.families import _pair_plus_states
from pstwalk.periodicity import Ambiguous, support_period

GOLDEN_INPUTS = Path(__file__).parent / "golden" / "inputs"


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(serialize.dumps(doc))
    return str(path)


def _graph_file(tmp_path, name, graph):
    return _write(tmp_path, name, serialize.graph_to_doc(graph))


def _state_file(tmp_path, name, x):
    return _write(tmp_path, name, serialize.state_to_doc(x))


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    doc = json.loads(captured.out) if captured.out.strip() else None
    return code, doc, captured.err


def test_analyze_c4_vertex(tmp_path, capsys):
    g = _graph_file(tmp_path, "c4.json", pw.build_cycle(4))
    s = _state_file(tmp_path, "x.json", basis_state(4, 0))
    code, doc, _ = _run(capsys, ["analyze", g, s, "--kind", "adj"])
    assert code == 0
    assert doc["periodic"] is True
    assert doc["rho"] == pytest.approx(math.pi)
    assert doc["spectral_form"]["variant"] == "integer"


def test_analyze_fixed_and_nonperiodic(tmp_path, capsys):
    g5 = _graph_file(tmp_path, "k5.json", pw.build_complete(5))
    ones = _state_file(tmp_path, "ones.json", np.ones(5))
    code, doc, _ = _run(capsys, ["analyze", g5, ones])
    assert code == 0 and doc["class"] == "fixed"

    c5 = _graph_file(tmp_path, "c5.json", pw.build_cycle(5))
    e0 = _state_file(tmp_path, "e0.json", basis_state(5, 0))
    code, doc, _ = _run(capsys, ["analyze", c5, e0])
    assert code == 0 and doc["periodic"] is False


def test_pst_p7_pair(tmp_path, capsys):
    g = _graph_file(tmp_path, "p7.json", pw.build_path(7))
    x = _state_file(tmp_path, "x.json", pair_state(7, 0, 6))
    y = _state_file(tmp_path, "y.json", pair_state(7, 2, 4))
    code, doc, err = _run(capsys, ["pst", g, x, y])
    assert code == 0
    assert doc["decision"] == "yes"
    assert doc["tau_symbolic"] == "pi/sqrt(2)"
    assert doc["fidelity"] >= 1.0 - 1e-8
    # a no is still exit code zero
    z = _state_file(tmp_path, "z.json", pair_state(7, 0, 1))
    code, doc, _ = _run(capsys, ["pst", g, x, z])
    assert code == 0 and doc["decision"] == "no" and doc["reason"]


def test_partner_roundtrip(tmp_path, capsys):
    g = _graph_file(tmp_path, "c8.json", pw.build_cycle(8))
    x = _state_file(tmp_path, "x.json", basis_state(8, 0, 4))
    code, doc, _ = _run(capsys, ["partner", g, x])
    assert code == 0
    partner = np.array(doc["partner"])
    assert min(np.linalg.norm(partner - basis_state(8, 2, 6)),
               np.linalg.norm(partner + basis_state(8, 2, 6))) <= 1e-8
    assert doc["tau_symbolic"] == "pi/2"


def test_synthesize_then_pst(tmp_path, capsys):
    rng = np.random.default_rng(5)
    x = rng.normal(size=5)
    y = rng.normal(size=5)
    y *= np.linalg.norm(x) / np.linalg.norm(y)
    xf = _state_file(tmp_path, "x.json", x)
    yf = _state_file(tmp_path, "y.json", y)
    code, doc, _ = _run(capsys, [
        "synthesize", xf, yf, "--tau", "1.25", "--m1", "2", "--m2", "2",
    ])
    assert code == 0
    matrix = serialize.matrix_from_doc(doc)
    dec = pw.decompose(matrix)
    verdict = pw.pst_decide(dec, x, y)
    assert verdict.decision and verdict.tau_min == pytest.approx(1.25, rel=1e-9)


def test_family_bipartite_catalog(tmp_path, capsys):
    code, doc, _ = _run(capsys, ["family", "complete-bipartite-lap", "2", "8"])
    assert code == 0
    pair_entries = [e for e in doc["pair_plus_catalog"] if e["s"] == -1 and e["partner_s"] == -1]
    assert pair_entries, "pair transfers must appear in the catalog"
    assert all(e["tau_symbolic"] == "pi/2" for e in pair_entries)
    # the catalog pairs each part-of-size-two vertex with the other across a
    # shared opposite-part vertex
    assert any(e["u"] == 0 and e["partner_u"] == 1 and e["v"] == e["partner_v"]
               for e in pair_entries)


def test_scan_no_pair(tmp_path, capsys):
    g = _graph_file(tmp_path, "c5.json", pw.build_cycle(5))
    x = _state_file(tmp_path, "x.json", basis_state(5, 0))
    y = _state_file(tmp_path, "y.json", basis_state(5, 1))
    out = tmp_path / "series.csv"
    code, doc, _ = _run(capsys, [
        "scan", g, x, y, "--tmax", "50", "--steps", "500", "--out", str(out),
    ])
    assert code == 0
    assert doc["peak_value"] < 1.0 - 1e-3
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,fidelity"
    assert len(lines) == 501


def test_scan_csv_is_the_per_value_text(tmp_path, capsys):
    """A 3000-step scan's CSV, written from one pass over each array, holds
    byte for byte the rows of two format_float calls per time, and its
    JSON the same floats."""
    g = _graph_file(tmp_path, "p3.json", pw.build_path(3))
    x = _state_file(tmp_path, "x.json", basis_state(3, 0))
    y = _state_file(tmp_path, "y.json", basis_state(3, 2))
    out = tmp_path / "series.csv"
    code, doc, _ = _run(capsys, ["scan", g, x, y, "--tmax", "40", "--steps", "3000", "--out", str(out)])
    assert code == 0 and len(doc["times"]) == 3000
    rows = [f"{serialize.format_float(t)},{serialize.format_float(v)}" for t, v in zip(doc["times"], doc["values"])]
    assert out.read_text() == "\n".join(["t,fidelity", *rows]) + "\n"


def test_sensitivity_command(tmp_path, capsys):
    g = _graph_file(tmp_path, "c8.json", pw.build_cycle(8))
    x = _state_file(tmp_path, "x.json", basis_state(8, 0, 4))
    y = _state_file(tmp_path, "y.json", basis_state(8, 2, 6))
    code, doc, _ = _run(capsys, ["sensitivity", g, x, y])
    assert code == 0
    assert doc["pass"] is True
    assert doc["d2"] < 0.0
    assert doc["bound_lo"] <= doc["d2"]


def test_sensitivity_at_tau_refuses_y_equal_to_x(tmp_path, capsys):
    # pst refuses the pair e0, e0 on P2; so does sensitivity with --tau
    g = _graph_file(tmp_path, "p2.json", pw.build_path(2))
    x = _state_file(tmp_path, "x.json", basis_state(2, 0))
    for command in (["pst", g, x, x], ["sensitivity", g, x, x, "--tau", repr(math.pi)]):
        code, doc, err = _run(capsys, command)
        assert (code, doc) == (4, None)
        assert err == "error: y must differ from both x and -x\n"


def test_extremal_command(capsys):
    code, doc, _ = _run(capsys, ["extremal", "9", "--kind", "adj"])
    assert code == 0
    assert doc["tau_symbolic"] == "pi/sqrt(97)"
    assert doc["decision"] == "yes"
    code, doc, _ = _run(capsys, ["extremal", "6", "--kind", "lap"])
    assert code == 0 and doc["tau_symbolic"] == "pi/6"


def test_exit_codes(tmp_path, capsys):
    # parse failure: 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    g = _graph_file(tmp_path, "p3.json", pw.build_path(3))
    code, _, _ = _run(capsys, ["analyze", str(bad), str(bad)])
    assert code == 2
    # missing file: 2
    code, _, _ = _run(capsys, ["analyze", str(tmp_path / "absent.json"), str(bad)])
    assert code == 2
    # invalid request: 4 (state length mismatch)
    s = _state_file(tmp_path, "short.json", np.ones(2))
    code, _, _ = _run(capsys, ["analyze", g, s])
    assert code == 4
    # zero state: 4
    z = _state_file(tmp_path, "zero.json", np.zeros(3))
    code, _, _ = _run(capsys, ["analyze", g, z])
    assert code == 4


def test_custom_kind(tmp_path, capsys):
    g = pw.build_path(3)
    gf = _graph_file(tmp_path, "p3.json", g)
    m = np.array([[0.0, 2.0, 0.0], [2.0, 1.0, 0.5], [0.0, 0.5, 0.0]])
    mf = _write(tmp_path, "m.json", serialize.matrix_to_doc(m))
    s = _state_file(tmp_path, "x.json", basis_state(3, 0))
    code, doc, _ = _run(capsys, [
        "analyze", gf, s, "--kind", "custom", "--custom-matrix", mf,
    ])
    assert code == 0
    assert len(doc["support"]) >= 2


def test_determinism(tmp_path, capsys):
    g = _graph_file(tmp_path, "c8.json", pw.build_cycle(8))
    x = _state_file(tmp_path, "x.json", basis_state(8, 0, 4))
    y = _state_file(tmp_path, "y.json", basis_state(8, 2, 6))
    outputs = []
    for _ in range(2):
        code = main(["pst", g, x, y])
        assert code == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    for _ in range(2):
        code = main(["family", "cycle", "12", "--seed", "7"])
        assert code == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[2] == outputs[3]


@pytest.mark.parametrize("argv", [
    ["analyze", "g", "x"], ["pst", "g", "x", "y"], ["partner", "g", "x"],
    ["synthesize", "x", "y", "--tau", "1", "--m1", "1", "--m2", "1"], ["scan", "g", "x", "y", "--tmax", "1"],
    ["sensitivity", "g", "x", "y"], ["extremal", "5"],
], ids=lambda argv: argv[0])
def test_seed_only_where_it_is_read(argv):
    """family alone draws random states, so it alone takes --seed; each
    parser is built for the subcommand it parses, as main builds it."""
    assert build_parser(argv[0]).parse_known_args(argv + ["--seed", "1"])[1] == ["--seed", "1"]
    assert build_parser("family").parse_args(["family", "cycle", "8", "--seed", "3"]).seed == 3


def test_parser_builds_only_the_invoked_subcommand(capsys):
    """A parser built for one subcommand keeps the others' names and help
    alone: they take no arguments."""
    with pytest.raises(SystemExit) as exc:
        build_parser("pst").parse_args(["analyze", "g", "x"])
    assert exc.value.code == 2 and "unrecognized arguments: g x" in capsys.readouterr().err


def test_float_round_trip():
    values = [1.0 / 3.0, math.pi, 1e-17, -2.5, 123456789.123456789]
    for v in values:
        assert float(serialize.format_float(v)) == v


def test_float_array_is_written_as_its_floats():
    """A 1-D float array is written in one pass, byte for byte as the list of
    its floats, and one with a non-finite entry is refused as a float is."""
    x = np.array([1.0 / 3.0, -0.0, 5e-324, 1.7976931348623157e308, 2.0, -1e-300])
    for arr in (x, x[::-2], np.array([0.1, -0.0, 3.0], dtype=np.float32), np.array([]), x.reshape(2, 3)):
        assert serialize.dumps({"a": arr}) == serialize.dumps({"a": arr.tolist()})
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="cannot serialize non-finite float"):
            serialize.dumps(np.array([0.0, bad]))


def test_graph_and_state_json_round_trip():
    g = pw.make_graph(4, [(0, 1, 1.0 / 3.0), (1, 2, math.pi), (2, 3, 0.1)])
    back = serialize.graph_from_doc(json.loads(serialize.dumps(serialize.graph_to_doc(g))))
    assert back.edges == g.edges  # weights survive bit-exactly
    # a two-entry edge defaults to unit weight
    assert serialize.graph_from_doc({"n": 2, "edges": [[0, 1]]}).edges == ((0, 1, 1.0),)
    x = np.array([1.0 / 7.0, -math.sqrt(2.0), 3e-17])
    back_x = serialize.state_from_doc(json.loads(serialize.dumps(serialize.state_to_doc(x))))
    assert np.array_equal(back_x, x)


def test_tolerance_overrides(tmp_path, capsys):
    from pstwalk.cli import _config, build_parser

    g = _graph_file(tmp_path, "p7.json", pw.build_path(7))
    x = _state_file(tmp_path, "x.json", pair_state(7, 0, 6))
    args = build_parser("analyze").parse_args(["analyze", g, x, "--tol-supp", "1e-7", "--q-max", "100"])
    assert _config(args) == pw.ToleranceConfig(tol_supp=1e-7, q_max=100)
    assert _config(build_parser("analyze").parse_args(["analyze", g, x])) == pw.ToleranceConfig()
    # --tol-proj set a threshold nothing read; it is now a usage error
    with pytest.raises(SystemExit) as exc:
        main(["analyze", g, x, "--tol-proj", "1e-9"])
    assert exc.value.code == 2


def test_partner_two_eigenvalue_state_without_cospectral_margin(tmp_path, capsys, monkeypatch):
    # the partner differs from x by 6e-8, under the margin pst_decide asks of
    # a pair; the partner command reads tau from the same partner pass
    monkeypatch.setattr(pw.transfer, "pst_decide", None)
    v1 = np.array([1.0, 1.0]) / math.sqrt(2.0)
    v2 = np.array([1.0, -1.0]) / math.sqrt(2.0)
    g = _graph_file(tmp_path, "p2.json", pw.build_path(2))
    x = _state_file(tmp_path, "x.json", v1 + 3e-8 * v2)
    code, doc, err = _run(capsys, ["partner", g, x])
    assert code == 0
    assert doc["tau"] == math.pi / 2.0 and doc["tau_symbolic"] == "pi/2"
    assert np.max(np.abs(np.array(doc["partner"]) - (v1 - 3e-8 * v2))) <= 1e-15
    assert err.startswith("partner found")


def test_p280_end_pair_is_not_periodic(tmp_path, capsys):
    g = _graph_file(tmp_path, "p280.json", pw.build_path(280))
    x = _state_file(tmp_path, "x.json", pair_state(280, 0, 279))
    code, doc, _ = _run(capsys, ["analyze", g, x])
    assert code == 0 and doc["periodic"] is False and doc["rho"] is None
    code, doc, _ = _run(capsys, ["partner", g, x])
    assert code == 0 and doc["partner"] is None and doc["reason"] == "not-periodic"


def test_partner_refuses_a_wide_cluster(tmp_path, capsys):
    """The star K_{1,4} Laplacian plus 1e8 I with x = e0 - e1: the partner
    command refuses, as pst does, with the reason ambiguous-clustering, no
    partner and exit 0; pst refuses the pair with the unshifted star's
    partner e0 + (e1 - e2 - e3 - e4) / 2 alike."""
    star = pw.join(pw.build_empty(1), pw.build_empty(4))
    g = _graph_file(tmp_path, "star.json", star)
    m = _write(tmp_path, "m.json", serialize.matrix_to_doc(star.laplacian() + 1e8 * np.eye(5)))
    x = _state_file(tmp_path, "x.json", pair_state(5, 0, 1))
    code, doc, err = _run(capsys, ["partner", g, x, "--kind", "custom", "--custom-matrix", m])
    assert code == 0 and doc == {"partner": None, "tau": None, "tau_symbolic": None,
                                 "reason": "ambiguous-clustering"}
    assert err.startswith("no partner (ambiguous clustering)")
    y = _state_file(tmp_path, "y.json", np.array([1.0, 0.5, -0.5, -0.5, -0.5]))
    code, doc, _ = _run(capsys, ["pst", g, x, y, "--kind", "custom", "--custom-matrix", m])
    assert code == 0 and (doc["decision"], doc["reason"]) == ("no", "ambiguous-clustering")


def _wide_cluster_cases(tmp_path):
    """(graph, state, options) of the two wide-cluster inputs: the star
    K_{1,4} Laplacian plus 1e8 I with x = e0 - e1, and P6 with weights
    (1e8, 1, 1, 1, 1) with x = e2 + e3."""
    star = pw.join(pw.build_empty(1), pw.build_empty(4))
    m = _write(tmp_path, "m.json", serialize.matrix_to_doc(star.laplacian() + 1e8 * np.eye(5)))
    p6 = pw.make_graph(6, [(0, 1, 1e8), (1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1)])
    return [(_graph_file(tmp_path, "star.json", star), _state_file(tmp_path, "x.json", pair_state(5, 0, 1)),
             ["--kind", "custom", "--custom-matrix", m]),
            (_graph_file(tmp_path, "p6.json", p6), _state_file(tmp_path, "x23.json", basis_state(6, 2, 3)), [])]


def test_analyze_refuses_a_wide_cluster(tmp_path, capsys):
    """analyze applies the width check of pst and partner: on both inputs
    periodic, rho, rho_symbolic and spectral_form are null, and partner
    still refuses with ambiguous-clustering."""
    for g, x, options in _wide_cluster_cases(tmp_path):
        code, doc, err = _run(capsys, ["analyze", g, x, *options])
        assert code == 0 and doc["class"] == "size2" and len(doc["support"]) == 2
        assert [doc[key] for key in ("periodic", "rho", "rho_symbolic", "spectral_form")] == [None] * 4
        assert err == "support size 2 (size2); ambiguous clustering\n"
        code, doc, _ = _run(capsys, ["partner", g, x, *options])
        assert code == 0 and doc["reason"] == "ambiguous-clustering"


def test_analyze_refuses_where_partners_refuse(tmp_path, capsys):
    """On the pair and plus states of the mixed-weight P6, analyze reports
    periodic null exactly where pst_partners refuses a periodic support as
    ambiguous-clustering, and true or false elsewhere."""
    p6 = pw.make_graph(6, [(0, 1, 1e8), (1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1)])
    g = _graph_file(tmp_path, "p6.json", p6)
    X = _pair_plus_states(6)[3]
    dec = pw.decompose(pw.hamiltonian(p6, pw.ADJACENCY))
    supports = [np.flatnonzero(column) for column in pw.support_mask(dec, X).T]
    refused = np.array([len(idx) > 1 and isinstance(support_period(dec, idx), Ambiguous) for idx in supports])
    assert X.shape[1] == 30 and 0 < refused.sum() < 30
    for c, column in enumerate(X.T):
        code, doc, _ = _run(capsys, ["analyze", g, _state_file(tmp_path, "x.json", column)])
        assert code == 0 and (doc["periodic"] is None) == refused[c], c


def test_planted_width_rule_reaches_every_surface(monkeypatch, capsys):
    """pst, partner and analyze read the width check from periodicity alone:
    lifted to infinity, the heavy-end P6 golden state (spread 1.405) is
    decided yes, given a partner and a period, all at one time; at -1 every
    periodic support is refused, the P7 golden pair on all three."""
    heavy = [str(GOLDEN_INPUTS / name) for name in ("p6_heavy.json", "p6_heavy_x.json", "p6_heavy_y.json")]
    p7 = [str(GOLDEN_INPUTS / name) for name in ("p7.json", "p7_x.json", "p7_y.json")]
    monkeypatch.setattr(periodicity, "CLUSTER_SPREAD", math.inf)
    _, verdict, _ = _run(capsys, ["pst", *heavy])
    _, partner, _ = _run(capsys, ["partner", *heavy[:2]])
    _, analysis, _ = _run(capsys, ["analyze", *heavy[:2]])
    assert verdict["decision"] == "yes" and partner["partner"] is not None and analysis["periodic"] is True
    assert verdict["tau_min"] == partner["tau"] == analysis["rho"] / 2.0
    monkeypatch.setattr(periodicity, "CLUSTER_SPREAD", -1.0)
    assert _run(capsys, ["pst", *p7])[1]["reason"] == "ambiguous-clustering"
    assert _run(capsys, ["partner", *p7[:2]])[1]["reason"] == "ambiguous-clustering"
    assert _run(capsys, ["analyze", *p7[:2]])[1]["periodic"] is None


@pytest.mark.parametrize("weight,kind,code,message", [
    # finite weights whose Laplacian degree or adjacency norm overflows
    ("1e308", "lap", 3, "matrix has a non-finite entry or infinity-norm"),
    ("1e308", "adj", 3, "matrix has a non-finite entry or infinity-norm"),
    # 1e400 parses to inf
    ("1e400", "lap", 4, "edge (0,1) has non-finite weight inf"),
    ("1e400", "adj", 4, "edge (0,1) has non-finite weight inf"),
])
def test_overflowing_weights_exit_cleanly(tmp_path, capsys, weight, kind, code, message):
    g = tmp_path / "g.json"
    g.write_text('{"n": 3, "edges": [[0, 1, %s], [1, 2, %s]]}' % (weight, weight))
    x = _state_file(tmp_path, "x.json", np.array([1.0, 0.0, -1.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got, doc, err = _run(capsys, ["analyze", str(g), x, "--kind", kind])
    assert (got, doc) == (code, None)
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("doc,message", [
    ('{"n": 3.5, "edges": [[0, 1], [1, 2]]}', "vertex count n must be an integer, got 3.5"),
    ('{"n": true, "edges": []}', "vertex count n must be an integer, got True"),
    ('{"n": 3, "edges": [[0, 1.5], [1, 2]]}', "edge endpoint must be an integer, got 1.5"),
    ('{"n": 3, "edges": [[0, true], [1, 2]]}', "edge endpoint must be an integer, got True"),
    ('{"n": "3", "edges": [[0, 1], [1, 2]]}', "vertex count n must be an integer, got '3'"),
    ('{"n": 3, "edges": [[0, 1e400], [1, 2]]}', "edge endpoint must be an integer, got inf"),
])
def test_loader_refuses_non_integral_sizes_and_endpoints(tmp_path, capsys, doc, message):
    g = tmp_path / "g.json"
    g.write_text(doc)
    x = _state_file(tmp_path, "x.json", np.array([1.0, 0.0, 0.0]))
    code, out, err = _run(capsys, ["analyze", str(g), x])
    assert (code, out) == (4, None)
    assert err == f"error: {message}\n"
    # an integral float is still a valid size and index
    assert serialize.graph_from_doc({"n": 3.0, "edges": [[0, 1.0]]}) == pw.make_graph(3, [(0, 1)])


def test_serialization_and_out_failures_are_handled(tmp_path, capsys, monkeypatch):
    g = _graph_file(tmp_path, "p3.json", pw.build_path(3))
    x = _state_file(tmp_path, "x.json", basis_state(3, 0))
    # a document that cannot be written is an invalid request, not a traceback
    monkeypatch.setattr(cli, "cmd_analyze", lambda args: ({"rho": math.inf}, "summary"))
    code, doc, err = _run(capsys, ["analyze", g, x])
    assert (code, doc, err) == (4, None, "error: cannot serialize non-finite float\n")
    monkeypatch.undo()
    # an --out path that cannot be written is an I/O failure
    code, doc, err = _run(capsys, ["analyze", g, x, "--out", str(tmp_path / "absent" / "o.json")])
    assert (code, doc) == (2, None)
    assert err.startswith("error: ") and err.count("\n") == 1


def test_analyze_form_agrees_with_periodic(tmp_path, capsys):
    # Laplacian support {1e5, 1, 0}: all integers, but not periodic
    g = _write(tmp_path, "g.json", {"n": 4, "edges": [[0, 1, 5e4], [2, 3, 0.5]]})
    x = _state_file(tmp_path, "x.json", basis_state(4, 0, 2))
    code, doc, _ = _run(capsys, ["analyze", g, x, "--kind", "lap"])
    assert code == 0 and doc["periodic"] is False
    assert doc["spectral_form"]["variant"] == "nonperiodic"

    # 1e-3 times P7 with the end pair: periodic, with no integer or quadratic
    # form at this scale, and the period rendered from its surd
    g = _graph_file(tmp_path, "p7.json", pw.build_path(7))
    m = _write(tmp_path, "m.json", serialize.matrix_to_doc(1e-3 * pw.build_path(7).adjacency()))
    x = _state_file(tmp_path, "x.json", pair_state(7, 0, 6))
    code, doc, _ = _run(capsys, ["analyze", g, x, "--kind", "custom", "--custom-matrix", m])
    assert code == 0 and doc["periodic"] is True
    assert doc["rho"] == pytest.approx(2000 * math.pi / math.sqrt(2.0), rel=1e-12)
    assert doc["rho_symbolic"] == "2000*pi/sqrt(2)"
    assert doc["spectral_form"] is None

    # P3 with weight 1e200: periodic, and no integer form with 200-digit b
    g = _write(tmp_path, "g.json", {"n": 3, "edges": [[0, 1, 1e200], [1, 2, 1e200]]})
    x = _state_file(tmp_path, "x.json", basis_state(3, 0))
    code, doc, _ = _run(capsys, ["analyze", g, x])
    assert code == 0 and doc["periodic"] is True
    assert doc["spectral_form"] is None


@pytest.mark.parametrize("command", ["analyze", "partner", "pst"])
def test_subnormal_period_is_a_numeric_failure(tmp_path, capsys, command):
    # P3 with weights 1e-310: the eigenvalue gap is subnormal and 2*pi/gap
    # overflows, so the period is refused rather than printed as inf
    g = _write(tmp_path, "g.json", {"n": 3, "edges": [[0, 1, 1e-310], [1, 2, 1e-310]]})
    x = _state_file(tmp_path, "x.json", basis_state(3, 0))
    y = _state_file(tmp_path, "y.json", basis_state(3, 2))
    argv = [command, g, x] + ([y] if command == "pst" else [])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, doc, err = _run(capsys, argv)
    assert (code, doc) == (3, None)
    assert err == "error: minimum period overflows: eigenvalue gap 1.41e-310 is too small\n"


def test_extremal_exhaustive_guard_holds_for_both_kinds(capsys):
    for kind in ("adj", "lap"):
        code, doc, err = _run(capsys, ["extremal", "7", "--kind", kind, "--exhaustive"])
        assert (code, doc) == (4, None)
        assert err == "error: exhaustive search is guarded to 2 <= n <= 6\n"
        code, doc, _ = _run(capsys, ["extremal", "7", "--kind", kind])
        assert code == 0 and doc["oracle"] is None


@pytest.mark.parametrize("kind", ["adj", "lap"])
@pytest.mark.parametrize("flags,message", [
    ([], f"{10**20} vertices exceed the dense limit of 4096"),
    (["--exhaustive"], "exhaustive search is guarded to 2 <= n <= 6"),
], ids=["plain", "exhaustive"])
def test_extremal_refuses_a_huge_n_before_building_a_graph(capsys, kind, flags, message):
    # 10**20 does not fit a C long: any graph built first would fail on that
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, doc, err = _run(capsys, ["extremal", "--kind", kind, *flags, "--", str(10**20)])
    assert (code, doc) == (4, None)
    assert err == f"error: {message}\n"


P3_DOC = '{"n": 3, "edges": [[0, 1], [1, 2]]}'
STATE_SHAPE = "a state document must be a flat list of numbers"
GRAPH_SHAPE = "a graph document must be an object whose edges are [u, v] or [u, v, w] lists"
MATRIX_SHAPE = "a matrix document must be an object whose rows are lists"


@pytest.mark.parametrize("command,graph,state,matrix,message", [
    ("analyze", P3_DOC, "5", None, STATE_SHAPE),
    ("analyze", P3_DOC, "[[1, 0, 0]]", None, STATE_SHAPE),
    ("analyze", P3_DOC, '[1, "0", 0]', None, STATE_SHAPE),
    ("analyze", P3_DOC, "[1, true, 0]", None, STATE_SHAPE),
    ("synthesize", None, "5", None, STATE_SHAPE),
    ("analyze", "[]", "[1, 0, 0]", None, GRAPH_SHAPE),
    ("analyze", '{"n": 3, "edges": 5}', "[1, 0, 0]", None, GRAPH_SHAPE),
    ("analyze", '{"n": 3, "edges": [5]}', "[1, 0, 0]", None, GRAPH_SHAPE),
    ("analyze", '{"n": 3, "edges": [[0, 1, 1, 1]]}', "[1, 0, 0]", None, GRAPH_SHAPE),
    ("analyze", P3_DOC, "[1, 0, 0]", '{"n": 3, "rows": 7}', MATRIX_SHAPE),
    ("analyze", P3_DOC, "[1, 0, 0]", "[[0, 1, 0], [1, 0, 1], [0, 1, 0]]", MATRIX_SHAPE),
    ("analyze", P3_DOC, "[1, 0, 0]", '{"n": 3, "rows": [[0, 1, 0], [1, 0, null], [0, 1, 0]]}',
     "a matrix row must be a flat list of numbers"),
])
def test_malformed_documents_exit_2(tmp_path, capsys, command, graph, state, matrix, message):
    x = tmp_path / "x.json"
    x.write_text(state)
    if command == "synthesize":
        argv = ["synthesize", str(x), str(x), "--tau", "1", "--m1", "1", "--m2", "1"]
    else:
        g = tmp_path / "g.json"
        g.write_text(graph)
        argv = ["analyze", str(g), str(x)]
        if matrix is not None:
            m = tmp_path / "m.json"
            m.write_text(matrix)
            argv += ["--kind", "custom", "--custom-matrix", str(m)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, doc, err = _run(capsys, argv)
    assert (code, doc) == (2, None)
    assert err == f"error: malformed input document ({message})\n"


@pytest.mark.parametrize("graph,matrix,message", [
    ('{"n": 3, "edges": [[0, 1, "1.5"], [1, 2]]}', None, "edge weight must be a number, got '1.5'"),
    ('{"n": 3, "edges": [[0, 1, null], [1, 2]]}', None, "edge weight must be a number, got None"),
    ('{"n": 3, "edges": [[0, 1, true], [1, 2]]}', None, "edge weight must be a number, got True"),
    (P3_DOC, '{"n": 3.5, "rows": [[0, 1, 0], [1, 0, 1], [0, 1, 0]]}',
     "matrix size n must be an integer, got 3.5"),
])
def test_loader_refuses_non_numeric_weights_and_matrix_sizes(tmp_path, capsys, graph, matrix,
                                                           message):
    g = _write(tmp_path, "g.json", json.loads(graph))
    x = _state_file(tmp_path, "x.json", basis_state(3, 0))
    argv = ["analyze", g, x]
    if matrix is not None:
        argv += ["--kind", "custom", "--custom-matrix", _write(tmp_path, "m.json", json.loads(matrix))]
    code, doc, err = _run(capsys, argv)
    assert (code, doc) == (4, None)
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("command,flag,message", [
    ("synthesize", "--tau", "invalid-request: tau must be positive and finite"),
    ("scan", "--tmax", "t_max must be finite"),
    ("sensitivity", "--tau", "tau must be positive and finite"),
    # a NaN tolerance once passed the `<= 0` test and split C8's double eigenvalue
    ("pst", "--tol-group", "tol_group must be positive and finite"),
])
def test_non_finite_times_exit_4(tmp_path, capsys, command, flag, value, message):
    x = _state_file(tmp_path, "x.json", basis_state(8, 0, 4))
    y = _state_file(tmp_path, "y.json", basis_state(8, 2, 6))
    if command == "synthesize":
        argv = [command, x, y, "--m1", "1", "--m2", "1"]
    else:
        argv = [command, _graph_file(tmp_path, "c8.json", pw.build_cycle(8)), x, y]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, doc, err = _run(capsys, argv + [f"{flag}={value}"])
    assert (code, doc) == (4, None)
    assert err == f"error: {message}\n"


def test_spread_overflowing_matrix_is_a_numeric_failure(tmp_path, capsys):
    # ||A||_inf = 1e308 is finite, but the spread 2e308 of P2 is not
    g = _write(tmp_path, "g.json", {"n": 2, "edges": [[0, 1, 1e308]]})
    x = _state_file(tmp_path, "x.json", basis_state(2, 0))
    y = _state_file(tmp_path, "y.json", basis_state(2, 1))
    for argv in (["analyze", g, x], ["partner", g, x], ["pst", g, x, y]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, doc, err = _run(capsys, argv)
        assert (code, doc) == (3, None)
        assert err == "error: matrix infinity-norm 1e+308 overflows eigenvalue differences\n"


@pytest.mark.parametrize("argv,message", [
    (["family", "complete", "4", "5"], "family complete takes 1 size(s), got 2"),
    (["family", "cycle", "8", "2"], "family cycle takes 1 size(s), got 2"),
    (["family", "complete-bipartite-adj", "4"], "family complete-bipartite-adj takes 2 size(s), got 1"),
])
def test_family_refuses_a_wrong_number_of_sizes(capsys, argv, message):
    code, doc, err = _run(capsys, argv)
    assert (code, doc) == (4, None)
    assert err == f"error: {message}\n"


def test_family_random_draws_are_bounded(capsys, monkeypatch):
    # a complete-graph state that is never accepted ends the draws after 64
    calls = []

    def never(n, x, cfg):
        calls.append(x)
        assert len(calls) <= 1000, "the random draws do not stop"

    monkeypatch.setattr(pw.families, "complete_graph_pst", never)
    code, doc, _ = _run(capsys, ["family", "complete", "4"])
    assert code == 0 and doc["pst_pairs"] == [] and len(calls) == cli.RANDOM_DRAWS == 64
    assert len(doc["pair_plus_catalog"]) > 0


def _p2(tmp_path, weight):
    """Files of P2 with the given edge weight and of the states e0 and e1."""
    x = _state_file(tmp_path, "x.json", basis_state(2, 0))
    y = _state_file(tmp_path, "y.json", basis_state(2, 1))
    return _write(tmp_path, "g.json", {"n": 2, "edges": [[0, 1, weight]]}), x, y


@pytest.mark.parametrize("command,key", [("pst", "tau_symbolic"), ("partner", "tau_symbolic"),
                                         ("analyze", "rho_symbolic")])
def test_time_beyond_any_symbolic_form_is_numeric_only(tmp_path, capsys, command, key):
    # P2 with weight 1e-200 transfers at pi/2e-200; squaring tau/pi overflowed
    g, x, y = _p2(tmp_path, 1e-200)
    argv = [command, g, x, y] if command == "pst" else [command, g, x]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, doc, err = _run(capsys, argv)
    assert code == 0 and doc[key] is None
    assert len(err.splitlines()) == 1
    dec = pw.decompose(pw.hamiltonian(pw.make_graph(2, [(0, 1, 1e-200)]), pw.ADJACENCY))
    verdict = pw.pst_decide(dec, basis_state(2, 0), basis_state(2, 1))
    assert verdict.decision and verdict.tau_symbolic is None
    assert verdict.tau_min == pytest.approx(math.pi / 2e-200)


def test_sensitivity_at_large_scale_runs_clean(tmp_path, capsys):
    # only the second moment is printed; the fourth overflowed at weight 1e100
    g, x, y = _p2(tmp_path, 1e100)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, doc, err = _run(capsys, ["sensitivity", g, x, y])
    assert code == 0 and doc["d2"] == pytest.approx(-2e200) and doc["pass"] is True
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("weight,argv,code,message", [
    # t * lambda reaches 1e400
    (1e100, ["scan", "--tmax", "1e300"], 3, "walk phase t*lambda is not finite for |t| up to 1e+300"),
    # f''(tau) = -2e-400 rounds to -0
    (1e-200, ["sensitivity"], 3, "f''(tau) leaves the float range at matrix scale 1e-200"),
    # pi / tau is not finite
    (None, ["synthesize", "--tau", "1e-320", "--m1", "1", "--m2", "1"], 4,
     "invalid-request: tau 1e-320 is too small: pi/(g*tau) overflows"),
    # t_max * lambda is finite, but the grid's last time 3 * (t_max / 3) is not
    (1.0, ["scan", "--tmax", "1.7976931348623157e308", "--steps", "4"], 3,
     "walk phase t*lambda is not finite for |t| up to inf"),
])
def test_extreme_finite_scales_exit_cleanly(tmp_path, capsys, weight, argv, code, message):
    g, x, y = _p2(tmp_path, weight)
    files = [x, y] if weight is None else [g, x, y]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, doc, err = _run(capsys, argv[:1] + files + argv[1:])
    assert (got, doc) == (code, None)
    assert err == f"error: {message}\n"


def test_scan_up_to_the_float_maximum_runs_clean(tmp_path, capsys):
    # the grid's times 0 and t_max are finite, and so is every refinement time
    g, x, y = _p2(tmp_path, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, doc, err = _run(capsys, ["scan", g, x, y, "--tmax", "1.7976931348623157e308", "--steps", "2"])
    assert code == 0 and doc["times"] == [0.0, 1.7976931348623157e308]
    assert 0.0 <= doc["peak_time"] <= 1.7976931348623157e308
    assert len(err.splitlines()) == 1


def test_graph_above_the_dense_limit_exits_4(tmp_path, capsys):
    g = _write(tmp_path, "g.json", {"n": 1000000, "edges": [[0, 1]]})
    x = _state_file(tmp_path, "x.json", basis_state(2, 0))
    code, doc, err = _run(capsys, ["analyze", g, x])
    assert (code, doc) == (4, None)
    assert err == "error: 1000000 vertices exceed the dense limit of 4096\n"
    code, doc, err = _run(capsys, ["family", "path-adj", "5000"])
    assert (code, doc) == (4, None)
    assert err == "error: 5000 vertices exceed the dense limit of 4096\n"
    # the cycle eigenbasis checks the limit before its first allocation
    code, doc, err = _run(capsys, ["family", "cycle", str(10**20)])
    assert (code, doc) == (4, None)
    assert err == f"error: {10**20} vertices exceed the dense limit of 4096\n"
    # the complete families refuse the size before drawing a random state of it
    for argv, n in ((["family", "complete", str(10**20)], 10**20),
                    (["family", "complete-bipartite-adj", str(10**20), "3"], 10**20 + 3)):
        code, doc, err = _run(capsys, argv)
        assert (code, doc) == (4, None)
        assert err == f"error: {n} vertices exceed the dense limit of 4096\n"


@pytest.mark.parametrize("exc,line", [
    (MemoryError(), "error: out of memory\n"),
    (MemoryError("Unable to allocate 7.28 TiB"), "error: Unable to allocate 7.28 TiB\n"),
])
def test_memory_exhaustion_exits_3(tmp_path, capsys, monkeypatch, exc, line):
    def exhausted(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_analyze", exhausted)
    g = _graph_file(tmp_path, "p3.json", pw.build_path(3))
    x = _state_file(tmp_path, "x.json", basis_state(3, 0))
    code, doc, err = _run(capsys, ["analyze", g, x])
    assert (code, doc, err) == (3, None, line)
