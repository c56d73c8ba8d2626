"""Perfect state transfer between real pure states in continuous quantum
walks on weighted graphs: spectral decision procedures, constructive
partners, Hamiltonian synthesis, closed-form family catalogs, and
readout-time sensitivity.

Importing the package imports none of its modules. An exported name, or a
module such as `pstwalk.spectral`, is resolved on each access (PEP 562), so
the first access imports its module, and `pstwalk.<name>` is always the
defining module's current object: nothing is copied into this namespace.
"""

import importlib

__version__ = "0.1.0"

# module: the names the package exports from it
_EXPORTS = {
    "arith": ("symbolic_pi_multiple", "two_adic_valuation"),
    "constructions": ("JoinPstVerdict", "ProductPstWitness", "join_pst", "join_transition_matrix",
                      "product_pst"),
    "errors": ("FixedStateError", "GraphError", "InvalidPairError", "InvalidSizeError",
               "InvalidStateError", "MalformedDocumentError", "NotApplicableError",
               "NumericFailureError", "PatternMismatchError", "PstwalkError", "SynthesisError"),
    "families": ("CatalogEntry", "FamilyCase", "FamilyPair", "complete_bipartite_pst",
                 "complete_graph_pst", "cycle_eigenbasis", "cycle_family_match",
                 "cycle_pst_families", "pair_plus_catalog", "path_adj_eigenbasis",
                 "path_family_match", "path_lap_eigenbasis", "path_least_pst_time",
                 "path_pst_families"),
    "graphs": ("ADJACENCY", "CUSTOM", "LAPLACIAN", "Graph", "Hamiltonian", "build_complete",
               "build_complete_bipartite", "build_cycle", "build_empty", "build_hypercube",
               "build_path", "build_petersen", "cartesian_product", "covering_radius",
               "hamiltonian", "is_connected", "join", "load_custom", "make_graph"),
    "periodicity": ("NonPeriodic", "RatioTable", "SpectralForm", "classify_form",
                    "ratio_condition"),
    "sensitivity": ("SensitivityReport", "fidelity_derivatives", "finite_difference_oracle"),
    "spectral": ("SpectralDecomposition", "as_state", "decompose", "evolve", "fidelity",
                 "transition_matrix"),
    "states": ("CospectralityCertificate", "NotCospectral", "SupportProfile",
               "check_strong_cospectrality", "support", "support_mask"),
    "synthesis": ("SynthesisRequest", "synthesize"),
    "tolerances": ("DEFAULT_TOLERANCES", "ToleranceConfig"),
    "transfer": ("ExtremalReport", "PstVerdict", "PstVerification", "ScanResult",
                 "extremal_min_pst_search", "fidelity_scan", "pst_decide", "pst_partner",
                 "pst_partners", "universal_pst_pair", "verify_pst_numeric"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
