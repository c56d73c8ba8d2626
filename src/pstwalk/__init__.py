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
    AmbiguousCospectralityError,
    FixedStateError,
    GraphError,
    InvalidAutomorphismError,
    InvalidPairError,
    InvalidSizeError,
    InvalidStateError,
    MalformedDocumentError,
    NotApplicableError,
    NotCospectralError,
    NumericFailureError,
    PatternMismatchError,
    PstwalkError,
    SynthesisError,
    TooManyPartitionsError,
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
    CoveringRadiusReport,
    NonPeriodic,
    RatioTable,
    SpectralForm,
    classify_form,
    closed_form_period,
    covering_radius_bound_check,
    is_conjugate_closed,
    ratio_condition,
    spectral_gap_check,
)
from .sensitivity import (
    ExtremalSensitivity,
    SensitivityReport,
    fidelity_derivatives,
    finite_difference_oracle,
    sensitivity_extremal,
)
from .spectral import (
    DEFAULT_TOLERANCES,
    SpectralDecomposition,
    ToleranceConfig,
    as_state,
    decompose,
    evolve,
    fidelity,
    transition_matrix,
)
from .states import (
    CospectralityCertificate,
    SupportProfile,
    automorphism_fix_check,
    check_strong_cospectrality,
    enumerate_partners,
    involution_from_partition,
    moment_check,
    support,
    support_mask,
)
from .synthesis import SynthesisRequest, involution_certificate, synthesize
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
