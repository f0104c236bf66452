"""Shared helpers for the test suite."""

from __future__ import annotations

import math

import numpy as np

from qrac import optimizer
from qrac.bloch import UNIT_TOLERANCE, BlochVector, uniform_directions
from qrac.cli import _REJECT_NORM
from qrac.codes import (
    NEUTRAL_CUTOFF,
    QracCode,
    _norm_sum_and_neutral,
    probability_from_s_value,
)
from qrac.optimizer import STALL_TOLERANCE, RestartTrace


def random_measurements(n: int, rng: np.random.Generator) -> tuple[BlochVector, ...]:
    """n measurement directions drawn uniformly on the sphere."""
    return tuple(BlochVector.from_array(row) for row in uniform_directions(n, rng))


def reference_json_unit_vector(raw: list) -> tuple[float, float, float]:
    """One JSON 3-vector of a code document by the CLI's unit rule, one row at a time.

    Kept as it is within UNIT_TOLERANCE of unit norm, divided by its norm within
    _REJECT_NORM, and refused beyond that: the scalar form of cli._unit_json_rows.
    """
    x, y, z = (float(c) for c in raw)
    norm = math.sqrt(x * x + y * y + z * z)
    if abs(norm - 1.0) <= UNIT_TOLERANCE:
        return x, y, z
    if abs(norm - 1.0) <= _REJECT_NORM:
        return x / norm, y / norm, z / norm
    raise ValueError(f"vector norm {norm!r} is too far from 1")


def sign_matrix(n: int, start: int = 0, stop: int | None = None) -> np.ndarray:
    """Rows of signs (-1)^(x_i) for input indices start..stop-1.

    Row k corresponds to input index start + k; column i (0-based) holds +1
    when bit i of the index is 0 and -1 when it is 1.  The dense reference
    for the kernels' seed table, doubling and periodic and per-cycle sign tables.
    """
    if stop is None:
        stop = 1 << n
    values = np.arange(start, stop, dtype=np.int64)
    return 1.0 - 2.0 * ((values[:, None] >> np.arange(n)) & 1)


def reference_signed_sums(dirs: np.ndarray, start: int, stop: int) -> np.ndarray:
    """S_x for x = start .. stop - 1, each added left to right in position order from +0.0.

    The order signed_direction_sum documents, one whole-column add per position.
    A BLAS product would add each row in the host kernel's own order, which on
    some OpenBLAS kernels (Nehalem's, for a few rows) is not this one.
    """
    signs = sign_matrix(len(dirs), start, stop)
    sums = np.zeros((len(signs), 3))
    for i, direction in enumerate(dirs):
        sums += signs[:, i, None] * direction
    return sums


def signed_direction_sum(dirs: np.ndarray, x: str) -> np.ndarray:
    """Sum of the (n, 3) direction rows with sign (-1)^(x_i) on the i-th term.

    x is the string as text, x1 leftmost (codes.bit_text).

    The per-string reference for the sign-pattern kernel.  Terms are added one
    by one in position order from +0.0: the order in which an OpenBLAS matrix
    product over many sign rows accumulates each row, and the order in which
    the kernel's seed product and doubling build each sum, so all three agree
    bit for bit.
    """
    if len(dirs) != len(x):
        raise ValueError(f"string length {len(x)} does not match measurement count {len(dirs)}")
    total = np.zeros(3)
    for bit, direction in zip(x, dirs):
        total = total - direction if bit == "1" else total + direction
    return total


def reference_evaluate(
    code: QracCode,
) -> tuple[np.ndarray, float, float, float, tuple[str, ...]]:
    """The dense scoring that the blockwise evaluate replaced.

    Builds the whole (2^n, n) table at once and returns (per_input, average,
    worst_case, s_value, neutral_strings), the average as per_input.mean().
    """
    dirs = code.measurements
    s, neutral = _norm_sum_and_neutral(dirs)
    per_input = 0.5 * (1.0 + sign_matrix(code.n) * (code.encodings @ dirs.T))
    np.clip(per_input, 0.0, 1.0, out=per_input)
    return per_input, float(per_input.mean()), float(per_input.min()), s, neutral


def reference_thresholds(code: QracCode) -> np.ndarray:
    """The per-cell loop of simulate_code's p0 table, in cell order x * n + i.

    p0 = (1 + ((px*vx + py*vy) + pz*vz)) / 2 in Python floats, with no BLAS
    and no numpy reduction; then clipped to [0, 1], scaled by 2^53 and
    rounded up, the threshold a uniform's 53-bit integer is compared with.
    """
    table = []
    for px, py, pz in code.encodings.tolist():
        for vx, vy, vz in code.measurements.tolist():
            p0 = 0.5 * (1.0 + ((px * vx + py * vy) + pz * vz))
            table.append(math.ceil(min(max(p0, 0.0), 1.0) * 2.0**53))
    return np.array(table, dtype=np.uint64)


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


def dense_lattice_walk_distance(x: int, y: int, z: int) -> float:
    """The unfolded array sum that the folded lattice_walk_distance replaced.

    All (x+1)(y+1)(z+1) terms, one int64 binomial product times sqrt of the
    squared distance each, added by math.fsum.
    """
    bx, by, bz = (
        np.array([math.comb(m, i) for i in range(m + 1)], dtype=np.int64) for m in (x, y, z)
    )
    dx, dy, dz = ((m - 2 * np.arange(m + 1, dtype=np.int64)) ** 2 for m in (x, y, z))
    weights = bx[:, None, None] * by[None, :, None] * bz[None, None, :]
    squared = dx[:, None, None] + dy[None, :, None] + dz[None, None, :]
    terms = weights * np.sqrt(squared)
    return math.fsum(terms.ravel().tolist()) / (1 << (x + y + z))


def reference_random_walk_distance_mc(n: int, trials: int, seed: int) -> tuple[float, float]:
    """The row-reducing loop that the column-summed random_walk_distance_mc replaced.

    Returns (mean_distance, std_error) for n >= 1 and trials >= 1.  Trials
    run in blocks of 2^18 rows, each drawing its z coordinates and then its
    azimuths.
    """
    block = 1 << 18
    if n == 1:
        return 1.0, 0.0
    rng = np.random.Generator(np.random.Philox(key=seed))
    total = 0.0
    total_sq = 0.0
    for start in range(0, trials, block):
        rows = min(block, trials - start)
        z = rng.uniform(-1.0, 1.0, size=(rows, n))
        phi = rng.uniform(0.0, 2.0 * math.pi, size=(rows, n))
        rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        endpoint = np.stack(
            (
                (rho * np.cos(phi)).sum(axis=1),
                (rho * np.sin(phi)).sum(axis=1),
                z.sum(axis=1),
            ),
            axis=1,
        )
        distances = np.linalg.norm(endpoint, axis=1)
        total += float(distances.sum())
        total_sq += float((distances * distances).sum())
    mean = total / trials
    if trials > 1:
        variance = max(0.0, (total_sq - trials * mean * mean) / (trials - 1))
        return mean, math.sqrt(variance / trials)
    return mean, 0.0


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


def reference_seesaw(dirs: np.ndarray) -> tuple[np.ndarray, float, int, bool]:
    """The one-restart see-saw loop that the stacked optimizer._seesaw replaced.

    Returns (directions, s, steps, converged) for one (n, 3) start; the step
    cap is optimizer.MAX_ITERATIONS, read at call time.
    """
    n = len(dirs)
    half = sign_matrix(n, 0, 1 << (n - 1))
    sums = half @ dirs
    norms = np.linalg.norm(sums, axis=1)
    s = 2.0 * float(norms.sum())
    cap = optimizer.MAX_ITERATIONS
    for step in range(1, cap + 1):
        encodings = sums / np.where(norms < NEUTRAL_CUTOFF, np.inf, norms)[:, None]
        pulls = half.T @ encodings
        lengths = np.linalg.norm(pulls, axis=1)[:, None]
        moved = np.divide(pulls, lengths, out=dirs.copy(), where=lengths > 0.0)
        moved_sums = half @ moved
        moved_norms = np.linalg.norm(moved_sums, axis=1)
        moved_s = 2.0 * float(moved_norms.sum())
        if moved_s - s < STALL_TOLERANCE:
            return dirs, s, step, True
        dirs, sums, norms, s = moved, moved_sums, moved_norms, moved_s
    return dirs, s, cap, False


def reference_restarts(n: int, restarts: int, seed: int) -> tuple[list[RestartTrace], np.ndarray]:
    """The one-at-a-time restart loop of optimize: (traces, best directions).

    The best directions are those of the earliest restart with the largest s,
    before canonicalization.
    """
    rng = np.random.default_rng(seed)
    traces = []
    best_dirs, best_s = np.empty((n, 3)), -np.inf
    for restart in range(restarts):
        dirs, s, iterations, converged = reference_seesaw(uniform_directions(n, rng))
        traces.append(
            RestartTrace(restart, s, probability_from_s_value(s, n), iterations, converged)
        )
        if s > best_s:
            best_dirs, best_s = dirs, s
    return traces, best_dirs
