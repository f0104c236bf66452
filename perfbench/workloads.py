"""The benchmark's workloads: job lists built from a seed, each job checked.

A workload builds its inputs once from `--seed` (directions, circle normals,
CLI arguments, documents to read back) and returns them as a fixed list of
jobs that every pass replays.  Every job checks its own output and returns the number of JSON
bytes the CLI read or wrote for it.  The checks use only values and
tolerances that `tests/test_acceptance.py` and the unit tests already assert.

Each workload ends with one refusal job that passes only when the request is
refused with exit code 3 or `CostLimitError`.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import qrac
import qrac.cli

#: Best known search probabilities for n = 2..9 (acceptance criterion 7).
SEARCH_TARGETS = {
    2: 0.853553,
    3: 0.788675,
    4: 0.741481,
    5: 0.713578,
    6: 0.694046,
    7: 0.678638,
    8: 0.666633,
    9: 0.656893,
}

#: Criterion 7 accepts a search result this far below its target.
SEARCH_TOLERANCE = 1e-3

#: Region counts of the named measurement sets (acceptance criterion 8).
NAMED_REGIONS = {
    "qrac3": 8,
    "sym4": 14,
    "qrac5": 16,
    "qrac6": 24,
    "sym6": 32,
    "sym9": 48,
    "sym15": 120,
}

#: Slack of the worst <= average <= upper bound sandwich (criterion 6).
SANDWICH = 1e-12

#: The CLI prints probabilities to 6 decimals, so a printed value may differ
#: from the exact one by half a unit in the last place.
PRINTED = 5e-7

#: Monte Carlo and simulator estimates must fall within this many standard
#: errors of the exact value (criterion 4 and the simulator tests).
SIGMAS = 4.0

#: Exit code the CLI uses for a request that exceeds a cost guard.
EXIT_COST_LIMIT = 3


@dataclass(frozen=True)
class Scale:
    """Sizes of one workload pass; `FULL` is measured, `TINY` self-tests."""

    search_ns: tuple[int, ...]
    restarts: int
    s_value_calls: dict[int, int]
    code_ns: tuple[int, ...]
    round_trip_ns: tuple[int, ...]
    region_ks: tuple[int, ...]
    named_regions: tuple[str, ...]
    axis_ns: tuple[int, ...]
    walk_trials: int
    sim_code: str
    sim_trials: int


FULL = Scale(
    search_ns=tuple(range(2, 10)),
    restarts=8,
    s_value_calls={5: 400, 9: 100, 12: 20},
    code_ns=(14, 16, 18),
    round_trip_ns=(14, 16),
    region_ks=(10, 20, 30, 40),
    named_regions=tuple(NAMED_REGIONS),
    axis_ns=(30, 45, 60),
    walk_trials=1_000_000,
    sim_code="qrac9",
    sim_trials=500,
)

TINY = Scale(
    search_ns=(2, 3),
    restarts=3,
    s_value_calls={5: 3, 9: 2, 12: 1},
    code_ns=(6, 8),
    round_trip_ns=(8,),
    region_ks=(5, 8),
    named_regions=("qrac3", "sym4"),
    axis_ns=(9,),
    walk_trials=10_000,
    sim_code="qrac3",
    sim_trials=200,
)

SCALES = {"full": FULL, "tiny": TINY}


class CheckFailed(Exception):
    """A job's output disagreed with the value the acceptance gate asserts."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


Job = tuple[str, Callable[[], int]]


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Run `qrac.cli.main` with stdout and stderr captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = qrac.cli.main(argv)
    return code, out.getvalue()


def printed_field(output: str, key: str) -> float:
    """Value of a `key: value` line of CLI output."""
    for line in output.splitlines():
        name, _, value = line.partition(": ")
        if name == key:
            return float(value)
    raise CheckFailed(f"CLI output has no {key!r} line")


def measurements(rows: np.ndarray) -> tuple[qrac.Measurement, ...]:
    return tuple(qrac.Measurement(qrac.BlochVector.from_array(row)) for row in rows)


def probability(s: float, n: int) -> float:
    """Optimally encoded average from the sign-pattern norm sum s."""
    return 0.5 * (1.0 + s / (n * (1 << n)))


def check_sandwich(report: qrac.CodeReport, n: int) -> None:
    check(
        report.worst_case <= report.average + SANDWICH
        and report.average <= qrac.upper_bound(n) + SANDWICH,
        f"n={n}: worst {report.worst_case} <= average {report.average} <= upper bound fails",
    )


def refused(call: Callable[[], object]) -> int:
    try:
        call()
    except qrac.CostLimitError:
        return 0
    raise CheckFailed("request was not refused with CostLimitError")


def _seed_for(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31))


# --- search -----------------------------------------------------------------


def search(seed: int, scale: Scale, workdir: Path) -> list[Job]:
    """CLI optimize for each n, then polish and evaluate the written result."""
    rng = np.random.default_rng(seed)
    jobs: list[Job] = []
    for n in scale.search_ns:
        path = workdir / f"optimize-n{n}.json"
        argv = [
            "optimize", "--n", str(n), "--restarts", str(scale.restarts),
            "--seed", str(_seed_for(rng)), "--json", str(path),
        ]
        jobs.append((f"optimize.n{n}", lambda n=n, argv=argv, path=path: _search_one(n, argv, path)))
    probes = {n: measurements(qrac.uniform_directions(n, rng)) for n in scale.s_value_calls}
    jobs.append(("s_value", lambda: _s_value_probe(probes, scale.s_value_calls)))
    jobs.append(("refuse.optimize.n13", _refuse_optimize))
    return jobs


def _search_one(n: int, argv: list[str], path: Path) -> int:
    code, output = run_cli(argv)
    check(code == 0, f"optimize --n {n} exited {code}")
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    found = document["metadata"]["expected_probability"]
    check(abs(printed_field(output, "probability") - found) <= PRINTED, f"n={n}: printed probability")
    polished, polished_probability = qrac.polish(
        tuple(qrac.Measurement(qrac.BlochVector(*row)) for row in document["measurements"])
    )
    report = qrac.evaluate(qrac.optimal_code(polished))
    check(polished_probability >= found - SANDWICH, f"n={n}: polish lowered the probability")
    check(abs(polished_probability - report.average) <= 1e-10, f"n={n}: polish and evaluate disagree")
    check(
        report.average >= SEARCH_TARGETS[n] - SEARCH_TOLERANCE,
        f"n={n}: {report.average} misses target {SEARCH_TARGETS[n]}",
    )
    check_sandwich(report, n)
    return path.stat().st_size


def _s_value_probe(probes: dict[int, tuple[qrac.Measurement, ...]], calls: dict[int, int]) -> int:
    for n, ms in probes.items():
        values = {qrac.s_value(ms) for _ in range(calls[n])}
        check(len(values) == 1, f"n={n}: s_value is not deterministic")
        average = probability(values.pop(), n)
        check(0.5 <= average <= qrac.upper_bound(n) + SANDWICH, f"n={n}: s_value out of range")
    return 0


def _refuse_optimize() -> int:
    code, _ = run_cli(["optimize", "--n", "13"])
    check(code == EXIT_COST_LIMIT, f"optimize --n 13 exited {code}, expected {EXIT_COST_LIMIT}")
    return 0


# --- large_codes ------------------------------------------------------------


def large_codes(seed: int, scale: Scale, workdir: Path) -> list[Job]:
    """Random direction sets at large n, scored and read back through the CLI."""
    rng = np.random.default_rng(seed)
    jobs: list[Job] = []
    for n in scale.code_ns:
        ms = measurements(qrac.uniform_directions(n, rng))
        path = None
        if n in scale.round_trip_ns:
            path = workdir / f"code-n{n}.json"
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(qrac.cli.code_document(qrac.optimal_code(ms)), handle)
        jobs.append((f"code.n{n}", lambda n=n, ms=ms, path=path: _score_one(n, ms, path)))
    too_many = measurements(qrac.uniform_directions(25, rng))
    jobs.append(("refuse.s_value.n25", lambda: refused(lambda: qrac.s_value(too_many))))
    return jobs


def _score_one(n: int, ms: tuple[qrac.Measurement, ...], path: Path | None) -> int:
    s = qrac.s_value(ms)
    report = qrac.evaluate(qrac.optimal_code(ms))
    check(abs(report.average - probability(s, n)) <= 1e-12, f"n={n}: average != (1 + s/(n 2^n))/2")
    check(qrac.parallelogram_check(ms), f"n={n}: squared-norm identity fails")
    check_sandwich(report, n)
    if path is None:
        return 0
    code, output = run_cli(["code", "eval", "--json", str(path)])
    check(code == 0, f"code eval at n={n} exited {code}")
    check(abs(printed_field(output, "average") - report.average) <= PRINTED, f"n={n}: printed average")
    return path.stat().st_size


# --- geometry_sim -----------------------------------------------------------


def geometry_sim(seed: int, scale: Scale, workdir: Path) -> list[Job]:
    """Region counts, axis splits, the two-step walk and the protocol simulator."""
    rng = np.random.default_rng(seed)
    jobs: list[Job] = []
    for k in scale.region_ks:
        normals = tuple(qrac.BlochVector.from_array(r) for r in qrac.uniform_directions(k, rng))
        arrangement = qrac.GreatCircleArrangement(normals)
        jobs.append((f"regions.k{k}", lambda k=k, a=arrangement: _regions(a, k * (k - 1) + 2)))
    named = [
        (qrac.GreatCircleArrangement(qrac.known_construction(name).measurements), NAMED_REGIONS[name])
        for name in scale.named_regions
    ]
    jobs.append(("regions.named", lambda: sum(_regions(a, count) for a, count in named)))
    for n in scale.axis_ns:
        jobs.append((f"axis_split.n{n}", lambda n=n: _axis_split(n)))
    walk_seed = _seed_for(rng)
    jobs.append(("walk.n2", lambda: _walk(scale.walk_trials, walk_seed)))
    code = qrac.known_code(scale.sim_code)
    exact = qrac.evaluate(code)
    sim_seed = _seed_for(rng)
    for randomize in (False, True):
        jobs.append((
            f"simulate.{'randomized' if randomize else 'plain'}",
            lambda r=randomize: _simulate(code, exact, scale.sim_trials, sim_seed, r),
        ))
    jobs.append(("refuse.lattice_walk.61", lambda: refused(lambda: qrac.lattice_walk_distance(61, 0, 0))))
    return jobs


def _regions(arrangement: qrac.GreatCircleArrangement, expected: int) -> int:
    count = qrac.count_sphere_regions(arrangement)
    check(count == expected, f"{len(arrangement.normals)} circles: {count} regions, expected {expected}")
    return 0


def _axis_split(n: int) -> int:
    best, _ = qrac.best_axis_split(n)
    orthogonal, _ = qrac.orthogonal_lower_bound(n)
    check(orthogonal <= best + SANDWICH, f"n={n}: even split beats the best split")
    check(best <= qrac.upper_bound(n) + SANDWICH, f"n={n}: axis split above the upper bound")
    return 0


def _walk(trials: int, seed: int) -> int:
    estimate = qrac.random_walk_distance_mc(2, trials, seed)
    check(
        abs(estimate.mean_distance - 4.0 / 3.0) < SIGMAS * estimate.std_error,
        f"two-step walk mean {estimate.mean_distance} not within {SIGMAS} sigma of 4/3",
    )
    return 0


def _simulate(
    code: qrac.QracCode, exact: qrac.CodeReport, trials: int, seed: int, randomize: bool
) -> int:
    report = qrac.simulate_code(code, trials, seed, randomize=randomize)
    cells = exact.per_input.size
    if randomize:
        # every cell is a binomial draw at the deterministic code's average
        variance = cells * exact.average * (1.0 - exact.average)
    else:
        variance = float((exact.per_input * (1.0 - exact.per_input)).sum())
    sigma = math.sqrt(variance / trials) / cells
    check(
        abs(report.average - exact.average) <= SIGMAS * sigma,
        f"simulated average {report.average} not within {SIGMAS} sigma of {exact.average}",
    )
    return 0


WORKLOADS: dict[str, Callable[[int, Scale, Path], list[Job]]] = {
    "search": search,
    "large_codes": large_codes,
    "geometry_sim": geometry_sim,
}
