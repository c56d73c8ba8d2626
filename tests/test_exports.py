"""The package's export contract: `pstwalk.<name>` is the defining module's
object for each exported name, resolved on every access."""

import importlib

import pytest

import pstwalk as pw

EXPORTED = [
    "ADJACENCY", "CUSTOM", "CatalogEntry", "CospectralityCertificate", "DEFAULT_TOLERANCES",
    "ExtremalReport", "FamilyCase", "FamilyPair", "FixedStateError", "Graph", "GraphError",
    "Hamiltonian", "InvalidPairError", "InvalidSizeError", "InvalidStateError", "JoinPstVerdict",
    "LAPLACIAN", "MalformedDocumentError", "NonPeriodic", "NotApplicableError", "NotCospectral",
    "NumericFailureError", "PatternMismatchError", "ProductPstWitness", "PstVerdict",
    "PstVerification", "PstwalkError", "RatioTable", "ScanResult", "SensitivityReport",
    "SpectralDecomposition", "SpectralForm", "SupportProfile", "SynthesisError",
    "SynthesisRequest", "ToleranceConfig", "as_state", "build_complete",
    "build_complete_bipartite", "build_cycle", "build_empty", "build_hypercube", "build_path",
    "build_petersen", "cartesian_product", "check_strong_cospectrality", "classify_form",
    "complete_bipartite_pst", "complete_graph_pst", "covering_radius", "cycle_eigenbasis",
    "cycle_family_match", "cycle_pst_families", "decompose", "evolve", "extremal_min_pst_search",
    "fidelity", "fidelity_derivatives", "fidelity_scan", "finite_difference_oracle",
    "hamiltonian", "is_connected", "join", "join_pst", "join_transition_matrix", "load_custom",
    "make_graph", "pair_plus_catalog", "path_adj_eigenbasis", "path_family_match",
    "path_lap_eigenbasis", "path_least_pst_time", "path_pst_families", "product_pst",
    "pst_decide", "pst_partner", "pst_partners", "ratio_condition", "support", "support_mask",
    "symbolic_pi_multiple", "synthesize", "transition_matrix", "two_adic_valuation",
    "universal_pst_pair", "verify_pst_numeric",
]
# exported values that do not name their module
CONSTANTS = {"ADJACENCY": "pstwalk.graphs", "CUSTOM": "pstwalk.graphs",
             "LAPLACIAN": "pstwalk.graphs", "DEFAULT_TOLERANCES": "pstwalk.tolerances"}


def test_all_is_the_frozen_export_list():
    assert len(EXPORTED) == 86
    assert sorted(pw.__all__) == EXPORTED
    assert set(EXPORTED) <= set(dir(pw))


@pytest.mark.parametrize("name", EXPORTED)
def test_name_is_the_defining_modules_object(name):
    obj = getattr(pw, name)
    home = CONSTANTS.get(name) or obj.__module__
    assert getattr(importlib.import_module(home), name) is obj


def test_star_import_binds_every_name():
    ns = {}
    exec("from pstwalk import *", ns)
    assert all(ns[name] is getattr(pw, name) for name in EXPORTED)


def test_module_reached_as_attribute(monkeypatch):
    # the import system binds `spectral` once the module is loaded; without
    # that binding, as after a bare `import pstwalk`, __getattr__ resolves it
    monkeypatch.delattr(pw, "spectral", raising=False)
    assert pw.spectral is importlib.import_module("pstwalk.spectral")
    assert pw.spectral.decompose is pw.decompose


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        pw.no_such_name


def test_patched_function_shows_through(monkeypatch):
    original = pw.transfer.pst_decide

    def patched(*args):
        return "patched"

    monkeypatch.setattr(pw.transfer, "pst_decide", patched)
    assert pw.pst_decide is patched
    monkeypatch.undo()
    assert pw.pst_decide is original
    assert "pst_decide" not in vars(pw)  # resolved, never copied into the package
