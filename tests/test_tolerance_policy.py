"""The tolerance policy: every threshold below 1e-2 lives in
pstwalk/tolerances.py, the exactness tests scale with the matrix, and one
pair rule decides for every consumer of a state pair."""

import ast
import dataclasses
import inspect
import io
import math
import tokenize
from pathlib import Path

import numpy as np
import pytest

import pstwalk as pw
from pstwalk import states

PACKAGE = Path(pw.__file__).parent
RULE_MESSAGES = ("states must have equal norms", "y must differ from both x and -x")


def _small_float_literals(source: bytes) -> list[tuple[int, str]]:
    """(line, text) of every numeric literal with 0 < |value| < 1e-2, in
    exponent or decimal form; comments and strings are not numbers."""
    found = []
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type == tokenize.NUMBER and 0 < abs(ast.literal_eval(tok.string)) < 1e-2:
            found.append((tok.start[0], tok.string))
    return found


def test_scanner_finds_both_literal_forms():
    source = b"a = 1e-3\nb = 0.001\nc = 5e-2  # 1e-9\nd = '1e-9'\ne = 2.5E-4j\nf = 10**-4\n"
    assert _small_float_literals(source) == [(1, "1e-3"), (2, "0.001"), (5, "2.5E-4j")]


def test_no_threshold_outside_the_tolerance_block():
    offenders = {path.name: found for path in sorted(PACKAGE.glob("*.py"))
                 if path.name != "tolerances.py"
                 and (found := _small_float_literals(path.read_bytes()))}
    assert offenders == {}


def test_tolerance_block_is_a_leaf():
    tree = ast.parse((PACKAGE / "tolerances.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0 and not (node.module or "").startswith("pstwalk")
        elif isinstance(node, ast.Import):
            assert not any(alias.name.startswith("pstwalk") for alias in node.names)


def test_no_tolerance_knob_beside_the_config():
    assert [f.name for f in dataclasses.fields(pw.ToleranceConfig)] == [
        "tol_group", "tol_supp", "tol_phase", "q_max", "int_tol"]
    assert list(inspect.signature(pw.symbolic_pi_multiple).parameters) == ["tau"]
    assert list(inspect.signature(pw.covering_radius).parameters) == ["g", "x"]
    min_coef = inspect.signature(pw.FamilyCase.sample).parameters["min_coef"]
    assert min_coef.default is inspect.Parameter.empty


def _triangle(weights):
    return pw.make_graph(3, [(0, 1, weights[0]), (1, 2, weights[1]), (0, 2, weights[2])])


def _symmetric(m) -> bool:
    try:
        pw.decompose(m)
    except pw.InvalidStateError as exc:
        assert "symmetric" in str(exc)
        return False
    return True


@pytest.mark.parametrize("name, verdict, expected", [
    ("asymmetric by 1e-10", lambda c: _symmetric(c * np.array([[0.0, 1.0], [1.0 + 1e-10, 0.0]])), False),
    ("asymmetric by 1e-13", lambda c: _symmetric(c * np.array([[0.0, 1.0], [1.0 + 1e-13, 0.0]])), True),
    ("one weight 1e-9 off", lambda c: _triangle([c, c, c * (1.0 + 1e-9)]).is_regular(), False),
    ("one weight 1e-13 off", lambda c: _triangle([c, c, c * (1.0 + 1e-13)]).is_regular(), True),
])
def test_exactness_verdicts_do_not_move_with_scale(name, verdict, expected):
    # the symmetry and regularity tests are relative to ||M||_inf and |d_0|
    # with no floor, so scaling by c > 0 keeps the verdict on either side
    assert [verdict(c) for c in (1.0, 1e-4, 1e-6, 1e4)] == [expected] * 4


X = np.array([1.0, 0.0])
E1 = np.array([0.0, 1.0])
# (y, coincident with +-x, equal norms), around PAIR_TOL = 1e-10 on either side
PAIRS = [
    (X * (1.0 + 5e-11), True, True),
    (X * (1.0 - 5e-11), True, True),
    (X * (1.0 + 2e-10), False, False),
    (X * (1.0 - 2e-10), False, False),
    (-X + 5e-11 * E1, True, True),
    (-X + 2e-10 * E1, False, True),
]


def _refused_by_rule(call) -> bool:
    try:
        call()
    except pw.InvalidPairError as exc:
        return str(exc) in RULE_MESSAGES
    except pw.PstwalkError:
        pass  # refused later, by another check
    return False


@pytest.mark.parametrize("y, coincident, equal_norms", PAIRS)
def test_one_pair_rule_for_every_consumer(y, coincident, equal_norms):
    p2 = pw.build_path(2)
    dec = pw.decompose(pw.hamiltonian(p2, pw.ADJACENCY))
    refused = coincident or not equal_norms
    assert states.coincident(X, y) is coincident
    assert _refused_by_rule(lambda: pw.check_strong_cospectrality(dec, X, y)) is refused
    assert _refused_by_rule(lambda: pw.fidelity_derivatives(dec, X, y, math.pi)) is refused
    request = pw.SynthesisRequest(x=X, y=y, tau=1.0, m1=1, m2=1)
    if coincident:
        with pytest.raises(pw.SynthesisError, match="degenerate-pair"):
            pw.synthesize(request)
    elif not equal_norms:
        with pytest.raises(pw.InvalidPairError, match="equal norms"):
            pw.synthesize(request)
    else:
        assert pw.synthesize(request).shape == (2, 2)
    witness = pw.product_pst(p2, p2, pw.ADJACENCY, X, E1, X, y, math.pi / 2)
    assert witness.mode == ("pst-periodic" if coincident else "pst-pst")
