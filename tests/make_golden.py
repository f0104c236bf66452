"""Write tests/golden.json: SHA-256 digests of outputs whose bits must not change.

Each digest covers one function over a sequence of arguments, one line per
argument: the argument, then the result written exactly (a Fraction or a
bool by str, a float by float.hex, an axis split after its probability, an
array by the SHA-256 of its bytes, printed text by repr).  These outputs
have the same bits on every OpenBLAS kernel tried (ROADMAP item 2).
classical_bounds is left out: its math.exp is the host libm's.

The direction sets are the named constructions and, for each n = 1..18, n
uniform directions from a generator seeded with n; their sines and cosines
come from numpy's own loops, which the host's CPU features pick.  The
`qrac optimize` lines are printed to six decimals, which matched on every
kernel tried, though the see-saw's last bits are the kernel's.

Run `PYTHONPATH=src python tests/make_golden.py` to rewrite the file.  A
change that moves a digest rewrites the file and names every moved digest,
and why, in CHANGES.md; tests/test_golden.py recomputes and compares.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np

from qrac import cli
from qrac.bloch import uniform_directions
from qrac.bounds import best_axis_split, orthogonal_lower_bound, random_lower_bound_asymptotic
from qrac.classical import (
    classical_asymptotic,
    counting_identity_check,
    majority_strategy_probability,
    optimal_classical_probability,
)
from qrac.codes import optimal_code, s_value, upper_bound
from qrac.constructions import construction_names, known_construction

GOLDEN = Path(__file__).resolve().parent / "golden.json"


def _axis(result: tuple[float, tuple[int, int, int]]) -> str:
    probability, (x, y, z) = result
    return f"{probability.hex()} {x} {y} {z}"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


#: the named constructions, then "uniform<n>" for n = 1..18
DIRECTION_SETS = construction_names() + tuple(f"uniform{n}" for n in range(1, 19))


def _directions(name: str) -> np.ndarray:
    """A named construction's directions, or for "uniform<n>" n uniform ones seeded with n."""
    if name.startswith("uniform"):
        n = int(name.removeprefix("uniform"))
        return uniform_directions(n, np.random.default_rng(n))
    return known_construction(name).measurements


def _optimize_stdout(n: int) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(["optimize", "--n", str(n), "--restarts", "8", "--seed", "0"])
    return out.getvalue()


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
    "s_value": (lambda name: s_value(_directions(name)), DIRECTION_SETS, float.hex),
    "optimal_code": (
        lambda name: optimal_code(_directions(name)).encodings.tobytes(), DIRECTION_SETS, _sha256
    ),
    "optimize_stdout": (_optimize_stdout, range(2, 10), repr),
}


def digest(name: str) -> str:
    """SHA-256 of one case's lines, joined by newlines."""
    function, arguments, write = CASES[name]
    text = "\n".join(f"{argument} {write(function(argument))}" for argument in arguments)
    return _sha256(text.encode())


def _label(arguments) -> str:
    """A range as "first..last", any other sequence as its items joined by spaces."""
    if isinstance(arguments, range):
        return f"{arguments[0]}..{arguments[-1]}"
    return " ".join(map(str, arguments))


def main() -> None:
    golden = {
        name: {"arguments": _label(arguments), "sha256": digest(name)}
        for name, (_, arguments, _) in CASES.items()
    }
    GOLDEN.write_text(json.dumps(golden, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
