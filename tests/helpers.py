"""Shared helpers for the test suite."""

from __future__ import annotations

import math

import numpy as np

from qrac.bloch import BlochVector, uniform_directions
from qrac.classical import BitString
from qrac.codes import (
    NEUTRAL_CUTOFF,
    QracCode,
    _norm_sum_and_neutral,
    probability_from_s_value,
    sign_matrix,
)
from qrac.optimizer import OptimizerConfig, RestartTrace


def random_measurements(n: int, rng: np.random.Generator) -> tuple[BlochVector, ...]:
    """n measurement directions drawn uniformly on the sphere."""
    return tuple(BlochVector.from_array(row) for row in uniform_directions(n, rng))


def signed_direction_sum(dirs: np.ndarray, x: BitString) -> np.ndarray:
    """Sum of the (n, 3) direction rows with sign (-1)^(x_i) on the i-th term.

    The per-string reference for the sign-pattern kernel.  Terms are added one
    by one in position order from +0.0: the order in which an OpenBLAS matrix
    product over many sign rows accumulates each row, so the two agree bit for
    bit.
    """
    if len(dirs) != len(x):
        raise ValueError(f"string length {len(x)} does not match measurement count {len(dirs)}")
    total = np.zeros(3)
    for bit, direction in zip(x, dirs):
        total = total - direction if bit else total + direction
    return total


def reference_evaluate(
    code: QracCode,
) -> tuple[np.ndarray, float, float, float, tuple[BitString, ...]]:
    """The dense scoring that the blockwise evaluate replaced.

    Builds the whole (2^n, n) table at once and returns (per_input, average,
    worst_case, s_value, neutral_strings), the average as per_input.mean().
    """
    dirs = code.measurements
    s, neutral = _norm_sum_and_neutral(dirs)
    per_input = 0.5 * (1.0 + sign_matrix(code.n) * (code.encodings @ dirs.T))
    np.clip(per_input, 0.0, 1.0, out=per_input)
    return per_input, float(per_input.mean()), float(per_input.min()), s, neutral


def reference_plain_p0(code: QracCode) -> np.ndarray:
    """The per-cell loop that built the plain-mode p0 table, in cell order x * n + i."""
    points, dirs = code.encodings, code.measurements
    return np.array([0.5 * (1.0 + float(point @ v)) for point in points for v in dirs])


def bloch_from_angles(theta: float, phi: float) -> BlochVector:
    """Unit vector at polar angle theta in [0, pi] and azimuth phi in [0, 2*pi)."""
    if not 0.0 <= theta <= math.pi:
        raise ValueError(f"theta must lie in [0, pi], got {theta}")
    if not 0.0 <= phi < 2.0 * math.pi:
        raise ValueError(f"phi must lie in [0, 2*pi), got {phi}")
    sin_theta = math.sin(theta)
    return BlochVector(sin_theta * math.cos(phi), sin_theta * math.sin(phi), math.cos(theta))


def reference_cluster_labels(points: np.ndarray, tolerance: float) -> list[int]:
    """Union-find over every pair of points closer than `tolerance`.

    This is the all-pairs merge that count_sphere_regions replaced; the
    distances come from one matrix instead of a Python loop, which changes
    the cost but not the merge rule.
    """
    distance = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=2)
    parent = list(range(len(points)))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j in zip(*np.nonzero(np.triu(distance < tolerance, 1))):
        ri, rj = find(int(i)), find(int(j))
        if ri != rj:
            parent[ri] = rj
    return [find(i) for i in range(len(points))]


def reference_region_count(normals: np.ndarray, tolerance: float) -> int:
    """Region count from the k(k-1) intersection points, merged all-pairs."""
    k = len(normals)
    if k == 1:
        return 2
    points: list[np.ndarray] = []
    generators: list[tuple[int, int]] = []
    for i in range(k):
        for j in range(i + 1, k):
            cross = np.cross(normals[i], normals[j])
            point = cross / float(np.linalg.norm(cross))
            points.extend((point, -point))
            generators.extend(((i, j), (i, j)))
    labels = reference_cluster_labels(np.array(points), tolerance)
    incident: list[set[int]] = [set() for _ in range(k)]
    for label, (i, j) in zip(labels, generators):
        incident[i].add(label)
        incident[j].add(label)
    return sum(len(s) for s in incident) - len(set(labels)) + 2


def reference_lattice_walk_distance(x: int, y: int, z: int) -> float:
    """The term-by-term Python sum that lattice_walk_distance replaced."""
    bx = [math.comb(x, i) for i in range(x + 1)]
    by = [math.comb(y, j) for j in range(y + 1)]
    bz = [math.comb(z, k) for k in range(z + 1)]
    terms = [
        bx[i] * by[j] * bz[k] * math.sqrt((x - 2 * i) ** 2 + (y - 2 * j) ** 2 + (z - 2 * k) ** 2)
        for i in range(x + 1)
        for j in range(y + 1)
        for k in range(z + 1)
    ]
    return math.fsum(terms) / (1 << (x + y + z))


def reference_uniform_shifts(rng: np.random.Generator, n: int, trials: int) -> np.ndarray:
    """Uniform draws from 0..n-1 by rejection from power-of-two blocks.

    Each round draws one block of ceil(log2(n)) bits for every still-rejected
    draw, in index order; for n = 1 no randomness is consumed.
    """
    if n == 1:
        return np.zeros(trials, dtype=np.int64)
    block = 1 << (n - 1).bit_length()
    draws = rng.integers(0, block, size=trials, dtype=np.int64)
    rejected = draws >= n
    while rejected.any():
        draws[rejected] = rng.integers(0, block, size=int(rejected.sum()), dtype=np.int64)
        rejected = draws >= n
    return draws


def reference_simulate_code(
    code: QracCode,
    trials_per_input: int,
    seed: int,
    randomize: bool = False,
    cells: list[int] | None = None,
) -> np.ndarray:
    """The per-cell Generator loop that the batched simulate_code replaced.

    Each cell x_index * n + position gets its own Generator(Philox) keyed by
    (seed, cell); the key is built as an exact uint64 array, which for seeds
    below 2^63 is the key the old loop built from a Python list.  Returns the
    frequencies of the given cells in that order, or the whole (2^n, n) array
    when `cells` is None.
    """
    n = code.n
    dirs = code.measurements
    points = code.encodings
    mask = (1 << n) - 1
    trials = trials_per_input
    selected = range((1 << n) * n) if cells is None else cells
    frequencies = []
    for cell in selected:
        x_index, position = divmod(cell, n)
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, cell], dtype=np.uint64)))
        if randomize:
            r = rng.integers(0, 1 << n, size=trials, dtype=np.int64)
            d = reference_uniform_shifts(rng, n, trials)
            z = x_index ^ r
            y = ((z << d) | (z >> (n - d))) & mask
            j = (position + d) % n
            target_bits = (y >> j) & 1
            p0 = 0.5 * (1.0 + np.einsum("ij,ij->i", points[y], dirs[j]))
        else:
            target_bits = np.full(trials, (x_index >> position) & 1)
            p0 = np.full(trials, 0.5 * (1.0 + float(points[x_index] @ dirs[position])))
        outcomes = (rng.random(trials) >= p0).astype(np.int64)
        frequencies.append(float((outcomes == target_bits).mean()))
    result = np.array(frequencies)
    return result.reshape(1 << n, n) if cells is None else result


def reference_seesaw(
    dirs: np.ndarray, config: OptimizerConfig
) -> tuple[np.ndarray, float, int, bool]:
    """The one-restart see-saw loop that the stacked optimizer._seesaw replaced.

    Returns (directions, s, steps, converged) for one (n, 3) start.
    """
    n = len(dirs)
    half = sign_matrix(n, 0, 1 << (n - 1))
    sums = half @ dirs
    norms = np.linalg.norm(sums, axis=1)
    s = 2.0 * float(norms.sum())
    for step in range(1, config.max_iterations + 1):
        encodings = sums / np.where(norms < NEUTRAL_CUTOFF, np.inf, norms)[:, None]
        pulls = half.T @ encodings
        lengths = np.linalg.norm(pulls, axis=1)[:, None]
        moved = np.divide(pulls, lengths, out=dirs.copy(), where=lengths > 0.0)
        moved_sums = half @ moved
        moved_norms = np.linalg.norm(moved_sums, axis=1)
        moved_s = 2.0 * float(moved_norms.sum())
        if moved_s - s < config.tolerance:
            return dirs, s, step, True
        dirs, sums, norms, s = moved, moved_sums, moved_norms, moved_s
    return dirs, s, config.max_iterations, False


def reference_restarts(
    n: int, config: OptimizerConfig
) -> tuple[list[RestartTrace], np.ndarray]:
    """The one-at-a-time restart loop of optimize: (traces, best directions).

    The best directions are those of the earliest restart with the largest s,
    before canonicalization.
    """
    rng = np.random.default_rng(config.seed)
    traces = []
    best_dirs, best_s = np.empty((n, 3)), -np.inf
    for restart in range(config.restarts):
        dirs, s, iterations, converged = reference_seesaw(uniform_directions(n, rng), config)
        traces.append(
            RestartTrace(restart, s, probability_from_s_value(s, n), iterations, converged)
        )
        if s > best_s:
            best_dirs, best_s = dirs, s
    return traces, best_dirs
