"""Lower bounds on the best average success probability.

Both bounds come from picking measurement directions first and encoding
optimally afterwards, which turns the average probability into the mean
distance traveled by a walk that takes one unit step per measurement
direction: average = (1 + E||sum of signed steps|| / n) / 2.  Random
directions give a Monte Carlo estimate and a closed-form asymptote;
axis-aligned directions give an exactly summable lattice walk, evaluated
as one array of exactly weighted terms and a correctly rounded sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CostLimitError

#: Below this n the closed-form asymptote is returned but its derivation
#: does not apply; callers that present it as a bound should say so.
ASYMPTOTIC_VALID_FROM = 4

#: Hard guard on the total step count of the exact lattice walk.  The
#: binomial weight products are at most 2^n and must stay exact in int64,
#: and the walk sums (x+1)(y+1)(z+1) terms, about n^3/27 for an even split.
MAX_LATTICE_WALK = 60

#: Monte Carlo trials are processed in blocks of this many rows.
_CHUNK = 1 << 18


def _walk_probability(distance: float, n: int) -> float:
    """The success probability a mean walk distance certifies: (1 + d/n)/2."""
    return 0.5 * (1.0 + distance / n)


@dataclass(frozen=True)
class WalkEstimate:
    """Monte Carlo estimate of the mean endpoint distance of an n-step walk."""

    n: int
    mean_distance: float
    std_error: float
    trials: int
    seed: int

    @property
    def probability(self) -> float:
        """The success probability this walk distance certifies: (1 + d/n)/2."""
        return _walk_probability(self.mean_distance, self.n)


def random_walk_distance_mc(n: int, trials: int, seed: int) -> WalkEstimate:
    """Estimate E||v_1 + ... + v_n|| over uniform unit steps by Monte Carlo.

    Uses a counter-based generator keyed on `seed`; per block of trials, the
    z coordinates are drawn first (uniform in [-1, 1]), then the azimuths
    (uniform in [0, 2*pi)).  The reported std_error is the sample standard
    deviation (ddof = 1) divided by sqrt(trials).  For n = 1 every distance
    is exactly 1, so the estimate is exact and no randomness is consumed.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if n == 1:
        return WalkEstimate(n=1, mean_distance=1.0, std_error=0.0, trials=trials, seed=seed)
    rng = np.random.Generator(np.random.Philox(key=seed))
    total = 0.0
    total_sq = 0.0
    for start in range(0, trials, _CHUNK):
        rows = min(_CHUNK, trials - start)
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
        std_error = math.sqrt(variance / trials)
    else:
        std_error = 0.0
    return WalkEstimate(n=n, mean_distance=mean, std_error=std_error, trials=trials, seed=seed)


def random_lower_bound_asymptotic(n: int) -> float:
    """Large-n value 1/2 + sqrt(2/(3*pi*n)) of the random-direction strategy.

    The formula is exact only in the limit; it is returned for every n >= 1,
    but below ASYMPTOTIC_VALID_FROM it should be quoted as an approximation
    rather than an achievable bound.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    return 0.5 + math.sqrt(2.0 / (3.0 * math.pi * n))


def lattice_walk_distance(x: int, y: int, z: int) -> float:
    """Exact mean endpoint distance of a walk with x, y, z axis-aligned steps.

    Each step goes one unit along its axis with a uniform random sign, so the
    endpoint after i of the x-steps were negative (and similarly j, k) is
    (x-2i, y-2j, z-2k), weighted by the product of binomials over 2^(x+y+z).
    The weight products are exact int64 integers (at most 2^n); each term is
    one rounding of weight * sqrt(squared distance), and math.fsum adds the
    terms with a single final rounding, so the result does not depend on
    the order of the terms.
    """
    if min(x, y, z) < 0:
        raise ValueError(f"step counts must be nonnegative, got ({x}, {y}, {z})")
    n = x + y + z
    if n < 1:
        raise ValueError("need at least one step")
    if n > MAX_LATTICE_WALK:
        terms = (x + 1) * (y + 1) * (z + 1)
        cost = f"lattice walk of {n} steps sums {terms} terms with int64 weights up to 2**{n}"
        raise CostLimitError(cost, "x + y + z", n, MAX_LATTICE_WALK)
    bx, by, bz = (
        np.array([math.comb(m, i) for i in range(m + 1)], dtype=np.int64) for m in (x, y, z)
    )
    dx, dy, dz = ((m - 2 * np.arange(m + 1, dtype=np.int64)) ** 2 for m in (x, y, z))
    weights = bx[:, None, None] * by[None, :, None] * bz[None, None, :]
    squared = dx[:, None, None] + dy[None, :, None] + dz[None, None, :]
    terms = weights * np.sqrt(squared)
    return math.fsum(terms.ravel().tolist()) / (1 << n)


def orthogonal_lower_bound(n: int) -> tuple[float, tuple[int, int, int]]:
    """Axis-aligned strategy: split n directions as evenly as possible.

    The even split (parts differing by at most one) is scored with the exact
    lattice walk; returns (probability, split).  This is the conventional
    axis strategy that tabulated reference values use.  It is not always the
    best axis split — see best_axis_split, which beats it for n = 5, 6, 7 —
    but it is the one this bound names.
    """
    if not 1 <= n <= MAX_LATTICE_WALK:
        raise ValueError(f"n must lie in 1..{MAX_LATTICE_WALK}, got {n}")
    base, extra = divmod(n, 3)
    split = tuple(base + 1 if i < extra else base for i in range(3))
    probability = _walk_probability(lattice_walk_distance(*split), n)
    return probability, (split[0], split[1], split[2])


def best_axis_split(n: int) -> tuple[float, tuple[int, int, int]]:
    """Best axis-aligned strategy over every split x >= y >= z of n.

    Scores each split with the exact lattice walk and returns
    (probability, split); among equal maximizers the lexicographically
    smallest split wins.  Perhaps surprisingly, the maximizer is not always
    the even split: (3,1,1), (3,2,1) and (3,3,1) beat it at n = 5, 6, 7.
    """
    if not 1 <= n <= MAX_LATTICE_WALK:
        raise ValueError(f"n must lie in 1..{MAX_LATTICE_WALK}, got {n}")
    best_probability = -1.0
    best_split = (n, 0, 0)
    for x in range((n + 2) // 3, n + 1):
        for y in range((n - x + 1) // 2, min(x, n - x) + 1):
            z = n - x - y
            probability = _walk_probability(lattice_walk_distance(x, y, z), n)
            if probability > best_probability:
                best_probability = probability
                best_split = (x, y, z)
    return best_probability, best_split
