"""Write tests/golden.json: SHA-256 digests of outputs whose bits must not change.

Each digest covers one function over a sequence of arguments, one line per
argument: the argument, then the result written exactly (a Fraction or a
bool by str, a float by float.hex, an axis split after its probability, an
array by the SHA-256 of its bytes, printed text by repr).  These outputs
have the same bits on every OpenBLAS kernel tried.  CI runs tier-1, and so
these digests, on the default, Haswell and Nehalem kernels (README, Tests):
they are its check that the printed lines of `qrac optimize` and `code show`
and the simulator's frequencies do not change with the kernel.
classical_bounds is left out: its math.exp is the host libm's.

The simulator's frequencies and p0 thresholds, and the Monte Carlo walk, use
no BLAS.  The walk reads 2n - 3 words per trial in its rotated frame (step 1
e_z, step 2 in the xz half-plane), and its exact mean is an integer
Fraction.  `qrac code show` prints `evaluate`'s cells, whose last bits are
the kernel's, to six decimals, which matched on every kernel tried.

The direction sets are the named constructions and, for each n = 1..18, n
uniform directions from a generator seeded with n; their sines and cosines
come from numpy's own loops, which the host's CPU features pick.  The
`qrac optimize` lines, at 8 restarts and at the CLI's default 50
(optimize_stdout_restarts50), are printed to six decimals, which matched on
every kernel tried, though the see-saw's last bits are the kernel's.

Run `PYTHONPATH=src python tests/make_golden.py` to rewrite the file.  A
change that moves a digest rewrites the file and names every moved digest,
and why, in CHANGES.md; tests/test_golden.py recomputes and compares.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
from pathlib import Path

import numpy as np

from qrac import cli
from qrac.bloch import uniform_directions
from qrac.bounds import (
    best_axis_split,
    orthogonal_lower_bound,
    random_lower_bound_asymptotic,
    random_walk_distance,
    random_walk_distance_mc,
)
from qrac.classical import (
    classical_asymptotic,
    counting_identity_check,
    majority_strategy_probability,
    optimal_classical_probability,
)
from qrac.codes import optimal_code, s_value, upper_bound
from qrac.constructions import construction_names, known_code, known_construction
from qrac.sim import _thresholds, simulate_code

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


def _stdout(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(argv)
    return out.getvalue()


def _optimize_stdout(n: int, restarts: int) -> str:
    return _stdout(["optimize", "--n", str(n), "--restarts", str(restarts), "--seed", "0"])


#: (code, trials, seed, randomize) for every named code with n <= 9
SIMULATIONS = tuple(
    itertools.product(
        (name for name in construction_names() if known_construction(name).n <= 9),
        (1, 7),
        (0, 2**64 - 1),
        (False, True),
    )
)


def _frequencies(case: tuple[str, int, int, bool]) -> bytes:
    name, trials, seed, randomize = case
    return simulate_code(known_code(name), trials, seed, randomize).frequencies.tobytes()


#: (n, trials) on both sides of an n = 2 sub-block (2^15 floats) and a block (2^18 rows)
WALKS = tuple(itertools.product((2, 3, 8), (1, 2**14 - 1, 2**14 + 1, 2**18, 2**18 + 1)))


def _walk(case: tuple[int, int]) -> str:
    """The estimate at seed 0 as "mean std_error"."""
    estimate = random_walk_distance_mc(*case, 0)
    return f"{estimate.mean_distance.hex()} {estimate.std_error.hex()}"


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
    "optimize_stdout": (lambda n: _optimize_stdout(n, 8), range(2, 10), repr),
    "optimize_stdout_restarts50": (lambda n: _optimize_stdout(n, 50), range(2, 10), repr),
    "simulate_code": (_frequencies, SIMULATIONS, _sha256),
    "thresholds": (lambda name: _thresholds(known_code(name)).tobytes(), construction_names(), _sha256),
    "random_walk_distance_mc": (_walk, WALKS, str),
    "random_walk_distance": (random_walk_distance, range(2, 61), str),
    "code_show_stdout": (
        lambda name: _stdout(["code", "show", "--name", name]), construction_names(), repr
    ),
}


def digest(name: str) -> str:
    """SHA-256 of one case's lines, joined by newlines."""
    function, arguments, write = CASES[name]
    text = "\n".join(f"{argument} {write(function(argument))}" for argument in arguments)
    return _sha256(text.encode())


def _label(arguments) -> str:
    """A range as "first..last", any other sequence as its items joined by spaces.

    A tuple item is written with its fields joined by "/".
    """
    if isinstance(arguments, range):
        return f"{arguments[0]}..{arguments[-1]}"
    return " ".join("/".join(map(str, a)) if isinstance(a, tuple) else str(a) for a in arguments)


def main() -> None:
    golden = {
        name: {"arguments": _label(arguments), "sha256": digest(name)}
        for name, (_, arguments, _) in CASES.items()
    }
    GOLDEN.write_text(json.dumps(golden, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
