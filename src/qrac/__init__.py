"""Random access codes on a single qubit, with shared randomness.

Encode an n-bit string into one qubit so that any single bit, chosen after
the fact, can be recovered with good probability.  The package provides the
exact classical baseline, optimal encodings for arbitrary measurement sets,
upper and lower bounds, the known explicit constructions, a numerical
search, an exact treatment of two-outcome POVMs, and a protocol simulator,
all surfaced through the `qrac` command-line tool.
"""

from .bloch import (
    BlochVector,
    Measurement,
    QubitState,
    bloch_from_state,
    outcome_probabilities,
    state_from_bloch,
    transition_probability,
    uniform_directions,
)
from .bounds import (
    WalkEstimate,
    best_axis_split,
    lattice_walk_distance,
    orthogonal_lower_bound,
    random_lower_bound_asymptotic,
    random_walk_distance_mc,
)
from .classical import (
    BitString,
    PureClassicalStrategy,
    brute_force_optimal,
    classical_asymptotic,
    classical_bounds,
    counting_identity_check,
    majority_strategy_probability,
    optimal_classical_probability,
)
from .codes import (
    CodeReport,
    QracCode,
    classical_comparison_scan,
    evaluate,
    neutral_strings,
    optimal_code,
    optimal_encoding,
    parallelogram_check,
    s_value,
    upper_bound,
)
from .constructions import (
    CONSTRUCTIONS,
    GreatCircleArrangement,
    NamedConstruction,
    classify_string,
    construction_names,
    count_sphere_regions,
    encoding_polynomial_check,
    known_code,
    known_construction,
    polyhedron_names,
    polyhedron_vertices,
)
from .errors import CostLimitError
from .optimizer import (
    OptimizationReport,
    OptimizerConfig,
    RestartTrace,
    optimize,
    polish,
)
from .povm import (
    EnhancedMixture,
    Povm2,
    decompose_povm,
    mixture_outcome_probs,
    povm_outcome_probs,
)
from .sim import SimReport, simulate_code

__version__ = "1.0.0"

__all__ = [
    "BitString",
    "BlochVector",
    "CONSTRUCTIONS",
    "CodeReport",
    "CostLimitError",
    "EnhancedMixture",
    "GreatCircleArrangement",
    "Measurement",
    "NamedConstruction",
    "OptimizationReport",
    "OptimizerConfig",
    "Povm2",
    "PureClassicalStrategy",
    "QracCode",
    "QubitState",
    "RestartTrace",
    "SimReport",
    "WalkEstimate",
    "best_axis_split",
    "bloch_from_state",
    "brute_force_optimal",
    "classical_asymptotic",
    "classical_bounds",
    "classical_comparison_scan",
    "classify_string",
    "construction_names",
    "count_sphere_regions",
    "counting_identity_check",
    "decompose_povm",
    "encoding_polynomial_check",
    "evaluate",
    "known_code",
    "known_construction",
    "lattice_walk_distance",
    "majority_strategy_probability",
    "mixture_outcome_probs",
    "neutral_strings",
    "optimal_classical_probability",
    "optimal_code",
    "optimal_encoding",
    "optimize",
    "orthogonal_lower_bound",
    "outcome_probabilities",
    "parallelogram_check",
    "polish",
    "polyhedron_names",
    "polyhedron_vertices",
    "povm_outcome_probs",
    "random_lower_bound_asymptotic",
    "random_walk_distance_mc",
    "s_value",
    "simulate_code",
    "state_from_bloch",
    "transition_probability",
    "uniform_directions",
    "upper_bound",
]
