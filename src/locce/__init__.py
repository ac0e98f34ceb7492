"""Local state discrimination with entanglement resources.

A dense-linear-algebra toolkit for building multipartite state
ensembles, executing LOCC protocols as measurement trees, and checking
protocol fidelities against the exact bounds that constrain them.
"""

from .tensor import (
    TOL,
    Operator,
    SchmidtData,
    StateVector,
    entanglement_entropy,
    kron,
    partial_trace,
    schmidt,
    schmidt_measure_bounds,
)
from .families import (
    Ensemble,
    Graph,
    PartyLayout,
    bell_basis,
    coarsen,
    ghz_basis,
    ghz_state,
    graph_state_basis,
    lattice_basis,
    parametric_basis,
)
from .fidelity import (
    GuessStrategy,
    Povm,
    average_fidelity,
    computational_povm,
    entropy_bound_check,
    global_optimum_orthonormal,
    mes_bound,
    mixed_strategy_fidelity,
    optimal_guess,
    separable_bound,
    vidal_conversion_probability,
)
from .protocols import (
    Instrument,
    JointProblem,
    Leaf,
    Round,
    attach_resource,
    flatten_to_povm,
    run_protocol,
    tree_from_json,
    tree_to_json,
    validate_one_way,
)
from .zoo import (
    computational_protocol,
    ghz_subset_bell_protocol,
    graph_decode_protocol,
    lattice_partial_teleport,
    partitioned_ghz_protocol,
    sequential_bell_protocol,
    standard_zoo,
    teleportation_protocol,
    vidal_then_fallback,
)
from .oneway import (
    MatrixRep,
    ResourceSpectrum,
    feasibility_search,
    orthogonality_residual,
    rk_structure_check,
    teleportation_certificate,
    to_matrix_rep,
)

__version__ = "0.1.0"
