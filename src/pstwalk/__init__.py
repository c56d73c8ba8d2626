"""Perfect state transfer between real pure states in continuous quantum
walks on weighted graphs: spectral decision procedures, constructive
partners, Hamiltonian synthesis, closed-form family catalogs, and
readout-time sensitivity."""

from .arith import symbolic_pi_multiple, two_adic_valuation
from .constructions import (
    JoinPstVerdict,
    ProductPstWitness,
    join_pst,
    join_transition_matrix,
    product_pst,
)
from .errors import (
    FixedStateError,
    GraphError,
    InvalidPairError,
    InvalidSizeError,
    InvalidStateError,
    MalformedDocumentError,
    NotApplicableError,
    NumericFailureError,
    PatternMismatchError,
    PstwalkError,
    SynthesisError,
)
from .families import (
    CatalogEntry,
    FamilyCase,
    FamilyPair,
    complete_bipartite_pst,
    complete_graph_pst,
    cycle_eigenbasis,
    cycle_family_match,
    cycle_pst_families,
    pair_plus_catalog,
    path_adj_eigenbasis,
    path_family_match,
    path_lap_eigenbasis,
    path_least_pst_time,
    path_pst_families,
)
from .graphs import (
    ADJACENCY,
    CUSTOM,
    LAPLACIAN,
    Graph,
    Hamiltonian,
    build_complete,
    build_complete_bipartite,
    build_cycle,
    build_empty,
    build_hypercube,
    build_path,
    build_petersen,
    cartesian_product,
    covering_radius,
    hamiltonian,
    is_connected,
    join,
    load_custom,
    make_graph,
)
from .periodicity import (
    NonPeriodic,
    RatioTable,
    SpectralForm,
    classify_form,
    ratio_condition,
)
from .sensitivity import (
    SensitivityReport,
    fidelity_derivatives,
    finite_difference_oracle,
)
from .spectral import (
    SpectralDecomposition,
    as_state,
    decompose,
    evolve,
    fidelity,
    transition_matrix,
)
from .states import (
    CospectralityCertificate,
    NotCospectral,
    SupportProfile,
    check_strong_cospectrality,
    support,
    support_mask,
)
from .synthesis import SynthesisRequest, synthesize
from .tolerances import DEFAULT_TOLERANCES, ToleranceConfig
from .transfer import (
    ExtremalReport,
    PstVerdict,
    PstVerification,
    ScanResult,
    extremal_min_pst_search,
    fidelity_scan,
    pst_decide,
    pst_partner,
    pst_partners,
    universal_pst_pair,
    verify_pst_numeric,
)

__version__ = "0.1.0"
