"""Arc-reversal Grover-coin quantum walks on regular graphs.

Builds the walk operator on arcs, derives its spectral projections from
the adjacency idempotents, evolves vertex states in integer or real time,
checks strong cospectrality by two independent routes, and certifies
local or simultaneous epsilon-uniform mixing through Hadamard sign
patterns and integer-relation phase conditions.
"""

from .graphs import (
    COMPLETE,
    NOT_SRG,
    Graph,
    SRGParams,
    complement,
    complete_graph,
    cycle_graph,
    from_edge_list,
    graph_from_adjacency,
    parse_edge_list,
    petersen_graph,
    read_edge_list,
    rook_graph,
    srg_from_regular_hadamard,
    validate_srg,
    write_edge_list,
)
from .spectra import (
    DecompositionError,
    SpectralDecomposition,
    decomposition_residuals,
    eigendecompose_symmetric,
    eigenvalue_support,
    eigenvalue_supports,
    srg_decomposition,
)
from .walk import (
    ArcSpace,
    State,
    WalkSpectrum,
    WalkSpectrumError,
    arc_distribution,
    build_arc_space,
    check_closed_form,
    check_type_closed_form,
    coin_unitarity,
    entry_formula,
    evolve,
    evolve_by_projections,
    evolve_operator,
    flat_arc_state,
    flatness_deficit,
    imaginary_flatness_deficit,
    initial_state,
    probe_block,
    realness_deficit,
    state_to_json,
    walk_spectrum,
    walk_spectrum_residuals,
)
from .cospec import (
    NOT_COSPECTRAL,
    CospectralityWitness,
    DirectWitness,
    check_strong_cospectrality,
    check_strong_cospectrality_direct,
)
from .mixing import (
    BUDGET_EXHAUSTED,
    FamilyParity,
    HadamardCertificate,
    KroneckerVerdict,
    MixingReport,
    NO_FLAT_TARGET,
    PHASE_OBSTRUCTION,
    SUCCESS,
    SignPattern,
    TAU_FLAT,
    TimeSearchResult,
    family_parity_check,
    hadamard_search,
    local_mixing_report,
    phase_alignment_deficit,
    phase_condition_check,
    simultaneous_mixing_check,
    time_search,
)

__version__ = "0.1.0"
