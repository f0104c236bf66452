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
bit-identical to running the restarts one at a time.  Those bits are the host
BLAS kernel's, as `evaluate`'s cells are (codes names those no kernel changes):
each kernel adds the 2^(n-1) rows of the pull product in its own blocked order,
and OpenBLAS kernels differ in the last bits of a step, while the six printed
decimals of `qrac optimize --n 2..9` matched on every kernel tried.

`optimize` takes the restart count and the seed as keyword arguments, which
errors._at_least reads as it reads every count in the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bloch import uniform_directions
from .codes import _CHUNK, NEUTRAL_CUTOFF, _norms, _sign_rows
from .codes import _norm_sum_and_neutral, _unit_rows, probability_from_s_value
from .errors import CostLimitError, _at_least

#: Search is limited to this range: each see-saw step costs O(n * 2^n).
MIN_OPTIMIZE_N = 2
MAX_OPTIMIZE_N = 12

#: A see-saw step is kept only if it raises s by at least this much.  Every
#: kept step gains, so s never falls, and a set the see-saw stalls on comes
#: back bit for bit: a converged polish polishes to itself.
STALL_TOLERANCE = 1e-10

#: A restart that has not stalled after this many see-saw steps is cut off.
MAX_ITERATIONS = 4000


@dataclass(frozen=True)
class RestartTrace:
    """Outcome of one random start: best objective found and how it ended.

    `iterations` counts see-saw steps; `converged` is False when the restart hit
    the cap MAX_ITERATIONS, a module constant.
    """

    restart: int
    s_value: float
    probability: float
    iterations: int
    converged: bool


@dataclass(frozen=True)
class OptimizationReport:
    """Every restart's trace, in restart order (one per restart), and the index of the best."""

    n: int
    traces: tuple[RestartTrace, ...]
    best_restart: int


def _seesaw(dirs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """See-saw from a stack of R starts (R, n, 3): (directions, s, steps, converged).

    Runs over the sign patterns with x_n = 0 only; the complements add the
    same amounts.  All restarts step together; a step that gains less than
    STALL_TOLERANCE is discarded and takes its restart out of the stack, so a
    converged result is a fixed point of the next call.  Each restart's
    result is bit-identical to running it alone.  A restart is cut off after
    MAX_ITERATIONS steps; both stop rules are read from the module per call.

    A step is the two GEMMs and 15 other numpy calls, all writing into
    buffers allocated once per stack; when restarts leave, the others move to
    the leading rows and the steps go on in leading slices.  The
    neutral-sum `where` and the vanished-pull `where=` run only on a step whose
    min() finds a row that needs them.  The loop keeps half of each s, the sum
    over x_n = 0, and stalls on a half gain below STALL_TOLERANCE / 2.  That is
    the full test exactly, since doubling is exact: 2a - 2b < T exactly when
    a - b < T / 2.  A restart's s is doubled once, when it leaves the stack.
    """
    count, n, _ = dirs.shape
    half = _sign_rows(n, 1 << (n - 1))
    signs, least = half.T, np.minimum.reduce
    final_dirs, final_s, active = np.empty_like(dirs), np.empty(count), np.arange(count)
    steps, converged = np.full(count, MAX_ITERATIONS), np.zeros(count, dtype=bool)
    dirs = dirs.copy()  # becomes a buffer of later steps
    sums = half @ dirs
    norms = _norms(sums)
    s = norms.sum(axis=-1)  # half of each restart's s
    spare = [np.empty_like(dirs), np.empty_like(sums), np.empty_like(norms)]
    encodings, pulls, squares = np.empty_like(sums), np.empty_like(dirs), np.empty_like(dirs)
    lengths = np.empty(dirs.shape[:2])
    for step in range(1, MAX_ITERATIONS + 1):
        moved, moved_sums, moved_norms = spare
        denominators = norms
        if not least(norms, None) >= NEUTRAL_CUTOFF:  # a NaN norm takes this path too
            denominators = np.where(norms < NEUTRAL_CUTOFF, np.inf, norms)
        # coordinate-major views and order="C" give the divide long inner loops
        np.divide(sums.transpose(2, 0, 1), denominators, out=encodings.transpose(2, 0, 1), order="C")
        np.matmul(signs, encodings, out=pulls)
        _norms(pulls, lengths, squares)
        if least(lengths, None) > 0.0:
            np.divide(pulls, lengths[..., None], out=moved)
        else:  # a vanished pull keeps its direction
            np.copyto(moved, dirs)
            np.divide(pulls, lengths[..., None], out=moved, where=lengths[..., None] > 0.0)
        np.matmul(half, moved, out=moved_sums)
        _norms(moved_sums, moved_norms, encodings)
        moved_s = np.add.reduce(moved_norms, axis=-1)
        gains = moved_s - s
        # a NaN gain makes the min() NaN, which fails >= and takes the mask
        if not least(gains) >= STALL_TOLERANCE / 2 and (stalled := gains < STALL_TOLERANCE / 2).any():
            done = active[stalled]
            final_dirs[done], final_s[done] = dirs[stalled], 2.0 * s[stalled]
            steps[done], converged[done] = step, True
            going = ~stalled
            active = active[going]
            size = active.size
            if size == 0:
                return final_dirs, final_s, steps, converged
            # the going restarts move to the leading rows of the free buffers,
            # and the shrunk stack works on leading slices of every buffer
            for moved_part, free in zip(spare, (dirs, sums, norms)):
                np.compress(going, moved_part, axis=0, out=free[:size])
            spare = [moved[:size], moved_sums[:size], moved_norms[:size]]
            dirs, sums, norms, s = dirs[:size], sums[:size], norms[:size], moved_s[going]
            encodings, pulls, squares, lengths = encodings[:size], pulls[:size], squares[:size], lengths[:size]
        else:
            spare = [dirs, sums, norms]
            dirs, sums, norms, s = moved, moved_sums, moved_norms, moved_s
    final_dirs[active], final_s[active] = dirs, 2.0 * s
    return final_dirs, final_s, steps, converged


def _check_size(n: int) -> None:
    if n > MAX_OPTIMIZE_N:
        raise CostLimitError("each see-saw step costs O(n*2^n)", "n", n, MAX_OPTIMIZE_N)


def optimize(n: int, *, restarts: int = 50, seed: int = 0) -> tuple[np.ndarray, float, OptimizationReport]:
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

    `restarts` (at least 1) and `seed` (at least 0, for numpy's default
    generator) are keyword-only, and read like `n` by errors._at_least: a
    bool or a float, such as `optimize(3.0)` or `restarts=2.0`, is a
    TypeError.  Each restart stops at its first see-saw step that raises s by
    less than STALL_TOLERANCE, or after MAX_ITERATIONS steps.
    """
    n = _at_least(n, MIN_OPTIMIZE_N, "n")
    restarts, seed = _at_least(restarts, 1, "restarts"), _at_least(seed, 0, "seed")
    _check_size(n)
    rng = np.random.default_rng(seed)
    block = max(1, _CHUNK >> (n - 1))  # restarts per block
    traces: list[RestartTrace] = []
    best_s = -np.inf
    for first in range(0, restarts, block):
        starts = [uniform_directions(n, rng) for _ in range(min(block, restarts - first))]
        dirs, s_values, steps, converged = _seesaw(np.stack(starts))
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
    report = OptimizationReport(n=n, traces=tuple(traces), best_restart=best_restart)
    return best_dirs, probability_from_s_value(_norm_sum_and_neutral(best_dirs)[0], n), report


def polish(measurements: np.typing.ArrayLike) -> tuple[np.ndarray, float]:
    """Refine a direction set, (n, 3) unit rows, by the see-saw seeded at it.

    Returns the see-saw's own result: a read-only (n, 3) array and the
    probability of its s.  The see-saw keeps only steps that raise s by at
    least STALL_TOLERANCE, so the probability never falls below the input's,
    and a set it stalls on, such as a converged polish, comes back bit for bit.
    It runs at most MAX_ITERATIONS steps and takes only the directions.
    """
    dirs = _unit_rows(measurements)
    n = len(dirs)
    _check_size(n)
    if n == 1:
        return dirs, 1.0
    stack, s_values, _, _ = _seesaw(dirs[None])
    polished = stack[0]
    polished.setflags(write=False)
    return polished, probability_from_s_value(float(s_values[0]), n)
