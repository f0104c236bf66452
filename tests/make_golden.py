"""Write tests/golden.json: SHA-256 digests of outputs whose bits must not change.

Each digest covers one function over a range of arguments, one line per
argument: the argument, then the result written exactly (a Fraction or a
bool by str, a float by float.hex, an axis split after its probability).
These outputs have the same bits on every OpenBLAS kernel tried (ROADMAP
item 2).  classical_bounds is left out: its math.exp is the host libm's.

Run `PYTHONPATH=src python tests/make_golden.py` to rewrite the file.  A
change that moves a digest rewrites the file and names every moved digest,
and why, in CHANGES.md; tests/test_golden.py recomputes and compares.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from qrac.bounds import best_axis_split, orthogonal_lower_bound, random_lower_bound_asymptotic
from qrac.classical import (
    classical_asymptotic,
    counting_identity_check,
    majority_strategy_probability,
    optimal_classical_probability,
)
from qrac.codes import upper_bound

GOLDEN = Path(__file__).resolve().parent / "golden.json"


def _axis(result: tuple[float, tuple[int, int, int]]) -> str:
    probability, (x, y, z) = result
    return f"{probability.hex()} {x} {y} {z}"


#: name -> (function, arguments, how one result is written)
CASES = {
    "optimal_classical_probability": (optimal_classical_probability, range(1, 200), str),
    # the majority strategy is optimal, so this digest equals the one above
    "majority_strategy_probability": (majority_strategy_probability, range(1, 200), str),
    "counting_identity_check": (counting_identity_check, range(1, 201), str),
    "upper_bound": (upper_bound, range(1, 200), float.hex),
    "classical_asymptotic": (classical_asymptotic, range(1, 200), float.hex),
    "random_lower_bound_asymptotic": (random_lower_bound_asymptotic, range(1, 200), float.hex),
    "orthogonal_lower_bound": (orthogonal_lower_bound, range(1, 61), _axis),
    "best_axis_split": (best_axis_split, range(1, 61), _axis),
}


def digest(name: str) -> str:
    """SHA-256 of one case's lines, joined by newlines."""
    function, arguments, write = CASES[name]
    text = "\n".join(f"{argument} {write(function(argument))}" for argument in arguments)
    return hashlib.sha256(text.encode()).hexdigest()


def main() -> None:
    golden = {
        name: {"arguments": f"{arguments.start}..{arguments.stop - 1}", "sha256": digest(name)}
        for name, (_, arguments, _) in CASES.items()
    }
    GOLDEN.write_text(json.dumps(golden, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
