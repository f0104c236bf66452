"""Command-line surface: tables, code exchange as JSON, geometry export.

Exit codes: 0 on success, 2 on usage or validation errors, 3 when a request
exceeds a hard cost guard.  All randomness is seeded through flags, so every
command is deterministic given its arguments.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections.abc import Callable, Sequence
from fractions import Fraction
from functools import cache

import numpy as np

from .bloch import MIN_NORMALIZABLE_LENGTH, UNIT_TOLERANCE
from .bounds import (
    ASYMPTOTIC_VALID_FROM,
    orthogonal_lower_bound,
    random_lower_bound_asymptotic,
)
from .classical import (
    classical_asymptotic,
    classical_bounds,
    optimal_classical_probability,
)
from .codes import CodeReport, QracCode, _key_indices, _norms, bit_text, evaluate, optimal_code, upper_bound
from .constructions import (
    GreatCircleArrangement,
    construction_names,
    count_sphere_regions,
    known_code,
    known_construction,
)
from .errors import CostLimitError
from .optimizer import optimize
from .sim import simulate_code

#: Version stamp written into every JSON document this tool produces.
SCHEMA_VERSION = 1

#: Vectors further than this from unit norm are rejected on load; those within
#: UNIT_TOLERANCE, which QracCode accepts as they are, are stored verbatim.
_REJECT_NORM = 1e-9


def _format_probability(value: float) -> str:
    """Fixed 6 decimals with trailing zeros trimmed: 0.75, 0.686973, 1."""
    text = f"{value:.6f}".rstrip("0").rstrip(".")
    return text if text else "0"


def code_document(
    code: QracCode, name: str | None = None, expected_probability: float | None = None
) -> dict:
    """JSON-ready form of a code; bit-string keys are written x1 leftmost."""
    document: dict = {
        "schema_version": SCHEMA_VERSION,
        "n": code.n,
        "measurements": code.measurements.tolist(),
        "encodings": {bit_text(i, code.n): row for i, row in enumerate(code.encodings.tolist())},
    }
    metadata: dict = {}
    if name is not None:
        metadata["name"] = name
    if expected_probability is not None:
        metadata["expected_probability"] = expected_probability
    if metadata:
        document["metadata"] = metadata
    return document


def _coordinates(raw: object) -> tuple[float, float, float] | None:
    """The three coordinates of a JSON 3-vector as floats, or None for anything else."""
    # bool is refused too, though float() would make true and false 1.0 and 0.0
    if isinstance(raw, (list, tuple)) and len(raw) == 3 and bool not in map(type, raw):
        try:  # null, a list, a non-numeric string or an int beyond float range
            return tuple(map(float, raw))
        except (TypeError, ValueError, OverflowError):
            pass
    return None


def _checked_json_rows(raw_rows: list, name: Callable, accepts: Callable, refusal: Callable) -> tuple:
    """(rows, norms) if every row is a 3-vector whose norm `accepts` passes.

    Else a ValueError names the first row that is not, in list order, as name(i),
    and says why: not a 3-vector, or refusal(norm).  A row that is not a 3-vector,
    or holds a bool or a null, reads as NaN, which every caller's norm rule refuses.
    """
    try:
        rows = np.array(raw_rows, dtype=float)
    except (TypeError, ValueError, OverflowError):
        rows = np.empty(0)
    if rows.shape == (len(raw_rows), 3):
        # a bool converts to exactly 0.0 or 1.0, so only rows holding one need a type
        # scan; one test over the whole array spares the row search when none does
        exact = rows == 0.0
        exact |= rows == 1.0
        suspects = np.flatnonzero(exact.any(axis=1)).tolist() if exact.any() else []
        rows[[i for i in suspects if bool in map(type, raw_rows[i])]] = math.nan
    else:
        rows = np.array([_coordinates(raw) or (math.nan,) * 3 for raw in raw_rows]).reshape(-1, 3)
    with np.errstate(over="ignore"):  # a norm beyond float range is inf, and refused
        norms = _norms(rows)
    first = next(iter(np.flatnonzero(~accepts(norms)).tolist()), None)
    if first is not None:
        raw = raw_rows[first]
        reason = refusal(float(norms[first])) if _coordinates(raw) else f"expected a 3-vector, got {raw!r}"
        raise ValueError(f"{name(first)}: {reason}")
    return rows, norms


def _unit_json_rows(raw_rows: list, name: Callable[[int], str]) -> np.ndarray:
    """Rows within UNIT_TOLERANCE of unit norm as they are, those within _REJECT_NORM divided by it."""
    far = "vector norm {!r} is too far from 1".format
    rows, norms = _checked_json_rows(raw_rows, name, lambda r: np.abs(r - 1.0) <= _REJECT_NORM, far)
    rescale = np.abs(norms - 1.0) > UNIT_TOLERANCE
    rows[rescale] /= norms[rescale, None]
    return rows


def code_from_document(document: dict) -> tuple[QracCode, dict]:
    """Rebuild a code from its JSON form; returns (code, metadata).

    The encoding keys may come in any order.  The first malformed key or
    row in document order is the one a ValueError names.  A metadata name,
    if present and not null, must be a string.
    """
    if not isinstance(document, dict):
        raise ValueError("code document must be a JSON object")
    version = document.get("schema_version")
    if isinstance(version, bool) or version != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {version!r}, expected {SCHEMA_VERSION}")
    n = document.get("n")
    measurements_raw = document.get("measurements")
    encodings_raw = document.get("encodings")
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    if not isinstance(measurements_raw, list) or len(measurements_raw) != n:
        raise ValueError(f"expected {n} measurement vectors")
    if not isinstance(encodings_raw, dict) or len(encodings_raw) != 1 << n:
        raise ValueError(f"expected {1 << n} encodings for n = {n}")
    measurements = _unit_json_rows(measurements_raw, lambda i: f"measurement {i + 1}")
    keys = list(encodings_raw)
    def encoding(position: int) -> str:
        _key_indices(keys[: position + 1], n, "encoding key")  # a bad key up to the row comes first
        return f"encoding {keys[position]!r}"
    rows = _unit_json_rows(list(encodings_raw.values()), encoding)
    points = np.empty((1 << n, 3))
    points[_key_indices(keys, n, "encoding key")] = rows  # 2^n distinct n-bit keys: every row
    metadata = {} if document.get("metadata") is None else document["metadata"]
    if not isinstance(metadata, dict):
        raise ValueError("metadata must be a JSON object")
    if not isinstance(metadata.get("name"), (str, type(None))):
        raise ValueError(f"metadata name must be a string or null, got {metadata['name']!r}")
    # rows kept are within UNIT_TOLERANCE and rescaled ones a few ulp from 1,
    # so QracCode's own norm check could not fail
    measurements.setflags(write=False)
    points.setflags(write=False)
    return QracCode(measurements, points, _checked=True), metadata


def _load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _write_json(path: str, document: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")


def _print_code_report(name: str | None, code: QracCode, report: CodeReport) -> None:
    neutral = ", ".join(report.neutral_strings) or "(none)"
    print(f"name: {name if name else '-'}")
    print(f"n: {code.n}")
    print(f"average: {_format_probability(report.average)}")
    print(f"worst_case: {_format_probability(report.worst_case)}")
    print(f"randomized_worst_case: {_format_probability(report.randomized_worst_case)}")
    print(f"s_value: {report.s_value:.6f}")
    print(f"neutral_strings: {neutral}")


def _angles(x: float, y: float, z: float) -> tuple[float, float]:
    theta = math.acos(min(1.0, max(-1.0, z)))
    phi = math.atan2(y, x) % (2.0 * math.pi)
    return theta, phi


def _cmd_classical(args: argparse.Namespace) -> int:
    n = args.n
    exact: Fraction = optimal_classical_probability(n)
    if args.exact:
        try:
            text = str(exact)
        except ValueError:  # the denominator, the larger term, exceeds the int-to-str limit
            digits = int(math.log10(exact.denominator)) + 1
            cost = f"the exact fraction for n = {n} has a {digits}-digit denominator"
            limit = sys.get_int_max_str_digits()
            raise CostLimitError(cost, "printed digits", digits, limit) from None
        print(text)
        return 0
    asymptotic = classical_asymptotic(n)
    if n >= 2:
        lower, upper = classical_bounds(n)
        bracket = (_format_probability(lower), _format_probability(upper))
    else:
        bracket = ("-", "-")
    fields = (
        _format_probability(float(exact)),
        _format_probability(asymptotic),
        bracket[0],
        bracket[1],
    )
    print("\t".join(fields))
    return 0


def _cmd_bound(args: argparse.Namespace) -> int:
    n = args.n
    if args.kind == "upper":
        print(_format_probability(upper_bound(n)))
    elif args.kind == "random-asymptotic":
        value = random_lower_bound_asymptotic(n)  # an invalid n is refused before the note
        if n < ASYMPTOTIC_VALID_FROM:
            print(
                f"note: the asymptotic form is derived for large n; "
                f"for n = {n} < {ASYMPTOTIC_VALID_FROM} treat it as an approximation",
                file=sys.stderr,
            )
        print(_format_probability(value))
    else:
        probability, split = orthogonal_lower_bound(n)
        print(f"{_format_probability(probability)} ({split[0]},{split[1]},{split[2]})")
    return 0


def _cmd_code(args: argparse.Namespace) -> int:
    if args.code_command == "show":
        construction = known_construction(args.name)
        code = known_code(args.name)
        report = evaluate(code)
        _print_code_report(args.name, code, report)
        if args.json:
            _write_json(
                args.json,
                code_document(code, name=args.name, expected_probability=construction.expected_probability),
            )
        return 0
    code, metadata = code_from_document(_load_json(args.json))
    report = evaluate(code)
    _print_code_report(metadata.get("name"), code, report)
    return 0


def _cmd_optimize(args: argparse.Namespace) -> int:
    measurements, probability, report = optimize(args.n, restarts=args.restarts, seed=args.seed)
    print(f"probability: {_format_probability(probability)}")
    print(f"restarts: {args.restarts}")
    print(f"best_restart: {report.best_restart}")
    for index, direction in enumerate(measurements.tolist(), start=1):
        theta, phi = _angles(*direction)
        print(f"direction {index}: theta={theta:.6f} phi={phi:.6f}")
    if args.json:
        code = optimal_code(measurements)
        _write_json(
            args.json,
            code_document(code, name=f"optimized-n{args.n}", expected_probability=probability),
        )
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    code, _ = code_from_document(_load_json(args.json))
    report = simulate_code(code, args.trials, args.seed, randomize=args.randomize)
    print(f"n: {report.n}")
    print(f"trials_per_input: {report.trials_per_input}")
    print(f"seed: {report.seed}")
    print(f"randomize: {'on' if report.randomized else 'off'}")
    print(f"average: {_format_probability(report.average)}")
    print(f"worst_case: {_format_probability(report.worst_case)}")
    print(f"spread: {_format_probability(report.spread)}")
    return 0


def _circles_from_file(path: str) -> np.ndarray:
    raw = _load_json(path)
    if isinstance(raw, dict):
        raw = raw.get("circles")
    if not isinstance(raw, list) or not raw:
        raise ValueError("expected a JSON array of 3-vectors (or an object with a 'circles' array)")
    rule = lambda r: (r >= MIN_NORMALIZABLE_LENGTH) & (r < math.inf)  # as in BlochVector.normalized
    short = "cannot normalize a vector of length {!r}".format
    rows, norms = _checked_json_rows(raw, lambda i: f"circle {i + 1}", rule, short)
    return rows / norms[:, None]


def _cmd_regions(args: argparse.Namespace) -> int:
    if args.name:
        normals = known_construction(args.name).measurements
        code = known_code(args.name)
        points = [
            {"label": f"v{i + 1}", "vec": row, "kind": "measurement"}
            for i, row in enumerate(normals.tolist())
        ] + [
            {"label": bit_text(i, code.n), "vec": row, "kind": "encoding"}
            for i, row in enumerate(code.encodings.tolist())
        ]
    else:
        normals = _circles_from_file(args.circles)
        points = []
    arrangement = GreatCircleArrangement(normals)
    print(count_sphere_regions(arrangement))
    if args.export:
        _write_json(
            args.export,
            {
                "schema_version": SCHEMA_VERSION,
                "circles": arrangement.normals.tolist(),
                "points": points,
            },
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qrac",
        description="Random access codes on a single qubit: exact values, bounds, search, and simulation.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    classical = commands.add_parser(
        "classical",
        help="best classical single-bit strategy: probability, asymptote, and bracket (tab-separated)",
    )
    classical.add_argument("--n", type=int, required=True, help="number of encoded bits")
    classical.add_argument(
        "--exact", action="store_true", help="print only the exact probability as a fraction"
    )
    classical.set_defaults(handler=_cmd_classical)

    bound = commands.add_parser("bound", help="probability bounds for n-bit codes")
    bound.add_argument(
        "--kind",
        choices=("upper", "random-asymptotic", "orthogonal"),
        required=True,
        help="which bound to print",
    )
    bound.add_argument("--n", type=int, required=True, help="number of encoded bits")
    bound.set_defaults(handler=_cmd_bound)

    code = commands.add_parser("code", help="inspect built-in or serialized codes")
    code_commands = code.add_subparsers(dest="code_command", required=True)
    show = code_commands.add_parser("show", help="report on a named construction")
    show.add_argument(
        "--name", required=True, choices=construction_names(), help="construction name"
    )
    show.add_argument("--json", help="also write the code document to this path")
    code_eval = code_commands.add_parser("eval", help="report on a code document")
    code_eval.add_argument("--json", required=True, help="code document to evaluate")
    code.set_defaults(handler=_cmd_code)

    optimize_cmd = commands.add_parser("optimize", help="search for good measurement directions")
    optimize_cmd.add_argument("--n", type=int, required=True, help="number of encoded bits")
    optimize_cmd.add_argument("--restarts", type=int, default=50, help="random restarts (default 50)")
    optimize_cmd.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    optimize_cmd.add_argument("--json", help="write the best code document to this path")
    optimize_cmd.set_defaults(handler=_cmd_optimize)

    simulate = commands.add_parser("simulate", help="Monte Carlo protocol run on a code document")
    simulate.add_argument("--json", required=True, help="code document to simulate")
    simulate.add_argument("--trials", type=int, required=True, help="trials per (input, position)")
    simulate.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    simulate.add_argument(
        "--randomize", action="store_true", help="mask inputs with shared randomness"
    )
    simulate.set_defaults(handler=_cmd_simulate)

    regions = commands.add_parser(
        "regions", help="count the regions measurement great circles cut the sphere into"
    )
    source = regions.add_mutually_exclusive_group(required=True)
    source.add_argument("--name", choices=construction_names(), help="construction name")
    source.add_argument("--circles", help="JSON file with circle normal vectors")
    regions.add_argument("--export", help="write plot-ready geometry JSON to this path")
    regions.set_defaults(handler=_cmd_regions)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser main uses, built once: each build leaves hundreds of cyclic objects."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.handler(args)
    except CostLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
