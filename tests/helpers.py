"""Shared helpers for the test suite."""

from __future__ import annotations

import math

import numpy as np

from qrac.bloch import BlochVector, Measurement, uniform_directions


def random_measurements(n: int, rng: np.random.Generator) -> tuple[Measurement, ...]:
    """n measurements with directions drawn uniformly on the sphere."""
    return tuple(Measurement(BlochVector.from_array(row)) for row in uniform_directions(n, rng))


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
    """The whole-array rejection loop that sim._uniform_shifts replaced."""
    if n == 1:
        return np.zeros(trials, dtype=np.int64)
    block = 1 << (n - 1).bit_length()
    draws = rng.integers(0, block, size=trials, dtype=np.int64)
    rejected = draws >= n
    while rejected.any():
        draws[rejected] = rng.integers(0, block, size=int(rejected.sum()), dtype=np.int64)
        rejected = draws >= n
    return draws
