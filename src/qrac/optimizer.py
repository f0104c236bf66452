"""Numerical search for measurement directions with maximal norm sum.

The objective is the total norm of signed direction sums over all 2^n sign
patterns, which is equivalent to maximizing the optimally-encoded average
success probability.  It is continuous but only piecewise smooth (kinks
where a signed sum vanishes), so the search uses a derivative-free downhill
simplex from many random starts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np
from scipy.optimize import minimize

from .bloch import BlochVector, Measurement
from .codes import probability_from_s_value, sign_matrix
from .errors import CostLimitError

#: Search is limited to this range: each objective evaluation costs O(n * 2^n).
MIN_OPTIMIZE_N = 2
MAX_OPTIMIZE_N = 12

#: Rounds of simplex descent per start, with the step shrunk each round.
_MAX_ROUNDS = 8
_STEP_SHRINK = 0.3
_XATOL = 1e-9


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs for the random-restart simplex search.

    `tolerance` is measured on the norm-sum objective; `initial_step` is the
    simplex edge length in radians.
    """

    restarts: int = 50
    max_iterations: int = 4000
    seed: int = 0
    tolerance: float = 1e-10
    initial_step: float = 0.35

    def __post_init__(self) -> None:
        if self.restarts < 1:
            raise ValueError(f"restarts must be at least 1, got {self.restarts}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be at least 1, got {self.max_iterations}")
        if not self.tolerance > 0.0:
            raise ValueError(f"tolerance must be positive, got {self.tolerance}")
        if not self.initial_step > 0.0:
            raise ValueError(f"initial_step must be positive, got {self.initial_step}")


@dataclass(frozen=True)
class RestartTrace:
    """Outcome of one random start: best objective found and how it ended."""

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


def _norm_sum(dirs: np.ndarray, signs: np.ndarray) -> float:
    return float(np.linalg.norm(signs @ dirs, axis=1).sum())


def _directions_gauged(params: np.ndarray, n: int) -> np.ndarray:
    """Directions from gauge-fixed angles [t2, t3, p3, t4, p4, ...].

    Direction 1 is pinned to (0, 0, 1) and direction 2 to the xz half-plane,
    removing the global rotation freedom; 2n - 3 parameters remain.
    """
    dirs = np.empty((n, 3))
    dirs[0] = (0.0, 0.0, 1.0)
    dirs[1] = (math.sin(params[0]), 0.0, math.cos(params[0]))
    for i in range(2, n):
        theta = params[2 * i - 3]
        phi = params[2 * i - 2]
        sin_theta = math.sin(theta)
        dirs[i] = (sin_theta * math.cos(phi), sin_theta * math.sin(phi), math.cos(theta))
    return dirs


def _directions_full(params: np.ndarray, n: int) -> np.ndarray:
    """Directions from unconstrained angles [t1, p1, t2, p2, ...]."""
    thetas = params[0::2]
    phis = params[1::2]
    sin_thetas = np.sin(thetas)
    return np.column_stack(
        (sin_thetas * np.cos(phis), sin_thetas * np.sin(phis), np.cos(thetas))
    )


def _descend(objective, start: np.ndarray, config: OptimizerConfig) -> tuple[np.ndarray, float, int, bool]:
    """Repeated simplex descent with a shrinking initial step.

    The incumbent is replaced only on strict improvement, so the result never
    scores worse than the starting point.
    """
    best_x = np.array(start, dtype=float)
    best_f = float(objective(best_x))
    dim = best_x.size
    iterations = 0
    converged = False
    step = config.initial_step
    for _ in range(_MAX_ROUNDS):
        simplex = np.vstack((best_x, best_x + step * np.eye(dim)))
        result = minimize(
            objective,
            best_x,
            method="Nelder-Mead",
            options={
                "initial_simplex": simplex,
                "maxiter": config.max_iterations,
                "maxfev": 2 * config.max_iterations,
                "xatol": _XATOL,
                "fatol": config.tolerance,
            },
        )
        iterations += int(result.nit)
        improvement = best_f - float(result.fun)
        if improvement > 0.0:
            best_x = np.array(result.x, dtype=float)
            best_f = float(result.fun)
        step *= _STEP_SHRINK
        if improvement < config.tolerance:
            converged = True
            break
    return best_x, best_f, iterations, converged


def optimize(
    n: int, config: OptimizerConfig | None = None
) -> tuple[tuple[Measurement, ...], float, OptimizationReport]:
    """Search for the best n measurement directions from random starts.

    Starts are drawn from one seeded generator (per restart: polar angles
    first, then azimuths), descended independently, and reduced by taking the
    best final objective; ties keep the earliest restart.  The returned
    directions are canonicalized to the upper hemisphere (rows with negative
    z are negated, which never changes the objective) and rescored, so the
    returned probability matches the returned directions exactly.
    """
    if config is None:
        config = OptimizerConfig()
    if n < MIN_OPTIMIZE_N:
        raise ValueError(f"n must be at least {MIN_OPTIMIZE_N}, got {n}")
    if n > MAX_OPTIMIZE_N:
        raise CostLimitError(
            f"each objective evaluation costs O(n*2^n); n = {n} exceeds the limit {MAX_OPTIMIZE_N}"
        )
    signs = sign_matrix(n)

    def objective(params: np.ndarray) -> float:
        return -_norm_sum(_directions_gauged(params, n), signs)

    rng = np.random.default_rng(config.seed)
    dim = 2 * n - 3
    traces: list[RestartTrace] = []
    best_params: np.ndarray | None = None
    best_f = math.inf
    best_restart = 0
    for restart in range(config.restarts):
        thetas = rng.uniform(0.0, math.pi, n - 1)
        phis = rng.uniform(0.0, 2.0 * math.pi, n - 2)
        start = np.empty(dim)
        start[0] = thetas[0]
        start[1::2] = thetas[1:]
        start[2::2] = phis
        params, f, iterations, converged = _descend(objective, start, config)
        traces.append(
            RestartTrace(
                restart=restart,
                s_value=-f,
                probability=probability_from_s_value(-f, n),
                iterations=iterations,
                converged=converged,
            )
        )
        if f < best_f:
            best_f = f
            best_params = params
            best_restart = restart
    assert best_params is not None
    dirs = _directions_gauged(best_params, n)
    dirs[dirs[:, 2] < 0.0] *= -1.0
    norms = np.linalg.norm(dirs, axis=1)
    dirs /= norms[:, None]
    s = _norm_sum(dirs, signs)
    measurements = tuple(Measurement(BlochVector.from_array(row)) for row in dirs)
    report = OptimizationReport(
        n=n, config=config, traces=tuple(traces), best_restart=best_restart
    )
    return measurements, probability_from_s_value(s, n), report


def polish(
    measurements: Sequence[Measurement], config: OptimizerConfig | None = None
) -> tuple[tuple[Measurement, ...], float]:
    """Refine a given measurement set by local search seeded at the input.

    All 2n angles are free (no gauge fixing), so an input already at a local
    optimum keeps its frame.  The input is returned verbatim unless the
    search improves the norm-sum objective by more than the configured
    tolerance; either way the returned probability never falls below the
    input's by more than 1e-12.
    """
    if config is None:
        config = OptimizerConfig()
    n = len(measurements)
    if n < 1:
        raise ValueError("need at least one measurement")
    if n > MAX_OPTIMIZE_N:
        raise CostLimitError(
            f"each objective evaluation costs O(n*2^n); n = {n} exceeds the limit {MAX_OPTIMIZE_N}"
        )
    measurements = tuple(measurements)
    signs = sign_matrix(n)
    dirs = np.array([(m.direction.x, m.direction.y, m.direction.z) for m in measurements])
    start_s = _norm_sum(dirs, signs)
    if n == 1:
        return measurements, 1.0

    def objective(params: np.ndarray) -> float:
        return -_norm_sum(_directions_full(params, n), signs)

    start = np.empty(2 * n)
    start[0::2] = np.arccos(np.clip(dirs[:, 2], -1.0, 1.0))
    start[1::2] = np.mod(np.arctan2(dirs[:, 1], dirs[:, 0]), 2.0 * math.pi)
    params, f, _, _ = _descend(objective, start, config)
    improvement = -f - start_s
    if improvement <= max(config.tolerance, 1e-12):
        return measurements, probability_from_s_value(start_s, n)
    out = _directions_full(params, n)
    out /= np.linalg.norm(out, axis=1)[:, None]
    polished = tuple(Measurement(BlochVector.from_array(row)) for row in out)
    return polished, probability_from_s_value(_norm_sum(out, signs), n)
