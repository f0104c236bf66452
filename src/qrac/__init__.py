"""Random access codes on a single qubit, with shared randomness.

Encode an n-bit string into one qubit so that any single bit, chosen after
the fact, can be recovered with good probability.  The package provides the
exact classical baseline, optimal encodings for arbitrary measurement sets,
upper and lower bounds, the known explicit constructions, a numerical
search, an exact treatment of two-outcome POVMs, and a protocol simulator,
all surfaced through the `qrac` command-line tool.

This namespace holds the surface the README's quick tour and CLI use; the
rest is imported from the submodules listed in the README's module map
(`qrac.bloch`, `qrac.classical`, `qrac.codes`, ...).
"""

from .bloch import BlochVector, Measurement, uniform_directions
from .bounds import (
    best_axis_split,
    lattice_walk_distance,
    orthogonal_lower_bound,
    random_walk_distance_mc,
)
from .classical import optimal_classical_probability
from .codes import (
    CodeReport,
    QracCode,
    evaluate,
    optimal_code,
    parallelogram_check,
    s_value,
    upper_bound,
)
from .constructions import (
    GreatCircleArrangement,
    count_sphere_regions,
    known_code,
    known_construction,
)
from .errors import CostLimitError
from .optimizer import optimize, polish
from .povm import Povm2, decompose_povm
from .sim import simulate_code

__version__ = "1.0.0"

__all__ = [
    "BlochVector",
    "CodeReport",
    "CostLimitError",
    "GreatCircleArrangement",
    "Measurement",
    "Povm2",
    "QracCode",
    "best_axis_split",
    "count_sphere_regions",
    "decompose_povm",
    "evaluate",
    "known_code",
    "known_construction",
    "lattice_walk_distance",
    "optimal_classical_probability",
    "optimal_code",
    "optimize",
    "orthogonal_lower_bound",
    "parallelogram_check",
    "polish",
    "random_walk_distance_mc",
    "s_value",
    "simulate_code",
    "uniform_directions",
    "upper_bound",
]
