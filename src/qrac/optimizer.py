"""Numerical search for measurement directions with maximal norm sum.

The objective s = sum over all 2^n sign patterns x of |S_x|, with
S_x = sum_i (-1)^(x_i) v_i, is equivalent to maximizing the optimally-encoded
average success probability.  It is the best value of the bilinear form
sum_x sum_i (-1)^(x_i) r_x . v_i over unit encodings r_x, so the search
alternates the two closed-form best responses (the see-saw iteration):
r_x = S_x / |S_x| for fixed directions, then v_i = normalize(sum_x
(-1)^(x_i) r_x) for fixed encodings.  Neither step lowers s.

All restarts run as one stacked (R, n, 3) array, in blocks of at most
codes._CHUNK sign-pattern rows, so memory is bounded for any restart count.
Stacked matmul makes one GEMM call per restart, so every result is
bit-identical to running the restarts one at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bloch import uniform_directions
from .codes import _CHUNK, NEUTRAL_CUTOFF, _norms, sign_matrix
from .codes import _norm_sum_and_neutral, _unit_rows, probability_from_s_value
from .errors import CostLimitError

#: Search is limited to this range: each see-saw step costs O(n * 2^n).
MIN_OPTIMIZE_N = 2
MAX_OPTIMIZE_N = 12


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs for the random-restart see-saw search.

    Each restart stops at the first see-saw step that raises the norm-sum
    objective s by less than `tolerance`, or after `max_iterations` steps.
    """

    restarts: int = 50
    max_iterations: int = 4000
    seed: int = 0
    tolerance: float = 1e-10

    def __post_init__(self) -> None:
        if self.restarts < 1:
            raise ValueError(f"restarts must be at least 1, got {self.restarts}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be at least 1, got {self.max_iterations}")
        if not self.tolerance > 0.0:
            raise ValueError(f"tolerance must be positive, got {self.tolerance}")


@dataclass(frozen=True)
class RestartTrace:
    """Outcome of one random start: best objective found and how it ended.

    `iterations` counts see-saw steps; `converged` is False when the restart
    was cut off by `max_iterations` instead of stalling below `tolerance`.
    """

    restart: int
    s_value: float
    probability: float
    iterations: int
    converged: bool


@dataclass(frozen=True)
class OptimizationReport:
    """All restart traces plus which one produced the returned directions."""

    n: int
    config: OptimizerConfig
    traces: tuple[RestartTrace, ...]
    best_restart: int


def _seesaw(
    dirs: np.ndarray, config: OptimizerConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """See-saw from a stack of R starts (R, n, 3): (directions, s, steps, converged).

    Runs over the sign patterns with x_n = 0 only; the complements add the
    same amounts.  All restarts step together; a step that gains less than
    `tolerance` is discarded and takes its restart out of the stack, so a
    converged result is a fixed point of the next call.  Each restart's
    result is bit-identical to running it alone.
    """
    count, n, _ = dirs.shape
    half = sign_matrix(n, 0, 1 << (n - 1))
    final_dirs, final_s, active = np.empty_like(dirs), np.empty(count), np.arange(count)
    steps, converged = np.full(count, config.max_iterations), np.zeros(count, dtype=bool)
    sums = half @ dirs
    norms = _norms(sums)
    s = 2.0 * norms.sum(axis=-1)
    for step in range(1, config.max_iterations + 1):
        encodings = sums / np.where(norms < NEUTRAL_CUTOFF, np.inf, norms)[..., None]
        pulls = half.T @ encodings
        lengths = _norms(pulls)[..., None]
        moved = np.divide(pulls, lengths, out=dirs.copy(), where=lengths > 0.0)
        moved_sums = half @ moved
        moved_norms = _norms(moved_sums)
        moved_s = 2.0 * moved_norms.sum(axis=-1)
        stalled = moved_s - s < config.tolerance
        if stalled.any():
            done = active[stalled]
            final_dirs[done], final_s[done] = dirs[stalled], s[stalled]
            steps[done], converged[done] = step, True
            going = ~stalled
            active = active[going]
            moved, moved_sums, moved_norms, moved_s = (
                moved[going], moved_sums[going], moved_norms[going], moved_s[going]
            )
            if active.size == 0:
                return final_dirs, final_s, steps, converged
        dirs, sums, norms, s = moved, moved_sums, moved_norms, moved_s
    final_dirs[active], final_s[active] = dirs, s
    return final_dirs, final_s, steps, converged


def _check_size(n: int) -> None:
    if n > MAX_OPTIMIZE_N:
        raise CostLimitError("each see-saw step costs O(n*2^n)", "n", n, MAX_OPTIMIZE_N)


def optimize(
    n: int, config: OptimizerConfig | None = None
) -> tuple[np.ndarray, float, OptimizationReport]:
    """Search for the best n measurement directions from random starts.

    Each start is n uniform directions drawn from one seeded generator
    (bloch.uniform_directions), improved by the see-saw iteration, and the
    restarts are reduced by taking the best final objective; ties keep the
    earliest restart.  The restarts run as one stacked array, in blocks of at
    most codes._CHUNK sign-pattern rows whose starts are drawn just before the
    block runs, in restart order; every trace is bit-identical to running the
    restarts one at a time.  The returned directions, a read-only (n, 3)
    array, are canonicalized to the upper hemisphere (rows with negative z are
    negated, which never changes the objective) and rescored, so the returned
    probability matches the returned directions exactly.
    """
    if config is None:
        config = OptimizerConfig()
    if n < MIN_OPTIMIZE_N:
        raise ValueError(f"n must be at least {MIN_OPTIMIZE_N}, got {n}")
    _check_size(n)
    rng = np.random.default_rng(config.seed)
    block = max(1, _CHUNK >> (n - 1))  # restarts per block
    traces: list[RestartTrace] = []
    best_s = -np.inf
    for first in range(0, config.restarts, block):
        starts = [uniform_directions(n, rng) for _ in range(min(block, config.restarts - first))]
        dirs, s_values, steps, converged = _seesaw(np.stack(starts), config)
        traces.extend(
            RestartTrace(
                first + k, s, probability_from_s_value(s, n), int(steps[k]), bool(converged[k])
            )
            for k, s in enumerate(s_values.tolist())
        )
        k = int(np.argmax(s_values))  # the first maximum: ties keep the earliest restart
        if s_values[k] > best_s:
            best_dirs, best_s, best_restart = dirs[k], s_values[k], first + k
    best_dirs = np.where(best_dirs[:, 2:] < 0.0, -best_dirs, best_dirs)
    best_dirs.setflags(write=False)
    report = OptimizationReport(n=n, config=config, traces=tuple(traces), best_restart=best_restart)
    return best_dirs, probability_from_s_value(_norm_sum_and_neutral(best_dirs)[0], n), report


def polish(
    measurements: np.typing.ArrayLike, config: OptimizerConfig | None = None
) -> tuple[np.ndarray, float]:
    """Refine a direction set, (n, 3) unit rows, by the see-saw seeded at it.

    Returns a read-only (n, 3) array: the checked copy of the input unless the
    search raises the norm-sum objective by more than max(tolerance, 1e-12), so
    a local optimum keeps its frame and a polished set polishes to itself.  The
    returned probability never falls below the input's by more than 1e-12.
    """
    if config is None:
        config = OptimizerConfig()
    dirs = _unit_rows(measurements)
    n = len(dirs)
    _check_size(n)
    if n == 1:
        return dirs, 1.0
    start_s = _norm_sum_and_neutral(dirs)[0]
    stack, s_values, _, _ = _seesaw(dirs[None], config)
    if float(s_values[0]) - start_s <= max(config.tolerance, 1e-12):
        return dirs, probability_from_s_value(start_s, n)
    polished = stack[0]
    polished.setflags(write=False)
    return polished, probability_from_s_value(_norm_sum_and_neutral(polished)[0], n)
