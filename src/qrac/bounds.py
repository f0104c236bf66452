"""Lower bounds on the best average success probability.

Both bounds come from picking measurement directions first and encoding
optimally afterwards, which turns the average probability into the mean
distance traveled by a walk that takes one unit step per measurement
direction: average = (1 + E||sum of signed steps|| / n) / 2.  Random
directions give a Monte Carlo estimate, 2n - 3 draws per trial in a frame
where step 1 is e_z and step 2 lies in the xz half-plane, walked on the
calling thread in cache-sized sub-blocks from Philox streams placed by
errors._philox_at, so its memory does not grow with n or the trials; the
exact mean of that walk, Rayleigh's random flight, summed in integers; and
a closed-form asymptote.
Axis-aligned directions give an exactly summable lattice walk, evaluated
as one array of exactly weighted terms and a correctly rounded sum.
The walk is folded onto i <= x/2, j <= y/2, k <= z/2 with each term scaled
by its mirror multiplicity; power-of-two scaling is exact, so the correctly
rounded sum is bit for bit the unfolded one; the best axis split sums only
the splits near the top exactly, screened by plain float sums.  Every count
(n, trials, the step counts) is read by errors._integer: a bool or a float
is a TypeError.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import CostLimitError, _at_least, _integer, _philox_at, _philox_key

#: Below this n the closed-form asymptote is returned but its derivation
#: does not apply; callers that present it as a bound should say so.
ASYMPTOTIC_VALID_FROM = 4

#: Hard guard on the total step count of the exact lattice walk.  The
#: weights must stay exact in int64: a folded weight is a multiplicity times
#: a binomial product, and it counts that many equal terms among the 2^n
#: sign patterns, so it is at most 2^n <= 2^60 < 2^63.  The walk sums
#: (x//2+1)(y//2+1)(z//2+1) folded terms, about n^3/216 for an even split.
MAX_LATTICE_WALK = 60

#: Hard guard on the steps n * trials of the Monte Carlo walk for n >= 2, the
#: scale of sim.MAX_CELL_TRIALS: on one Xeon core 10^8 steps take 6.4-6.9 s
#: at n = 100 and 0.7-1.0 s at n = 2, where no sine or cosine runs; the walk's
#: memory does not grow with them.  random_walk_distance gives the mean exactly.
MAX_WALK_STEPS = 10**8

#: Hard guard on n for the exact mean distance of random_walk_distance.  Its
#: (n + 1) // 2 integer terms have up to about (n + 1) log2(n) + n bits,
#: 24,000 at n = 2000; the sum took 2.8 ms at n = 500, 19 ms at 1000 and
#: 135 ms at 2000 on one Xeon core.
MAX_EXACT_WALK = 2000

#: Monte Carlo trials are summed in blocks of this many rows.  The lengths of
#: a block are added by one pairwise `.sum()`, so this size fixes the
#: summation tree, and changing it changes the estimate's last bits.
_CHUNK = 1 << 18

#: A block is walked in sub-blocks of max(1, _SUB_FLOATS // n) rows, so each
#: scratch array holds about this many floats: it bounds the walk's memory
#: and changes no bit of the estimate.  2^15 was the fastest of 2^13 to 2^16
#: at n = 2 to 100, where n = 2 is bound by the count of numpy calls.
_SUB_FLOATS = 1 << 15


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

    Each trial is seen in the frame where v_1 = e_z and v_2 = (rho_2, 0, z_2):
    z_2 = v_1.v_2 is uniform in [-1, 1] and v_3..v_n stay uniform and
    independent of the rotation, so the distance keeps its distribution.  A
    trial reads n - 1 heights and n - 2 azimuths, one word each of the Philox
    stream under key (seed, 0): the block of `rows` <= _CHUNK trials from
    trial `start` reads its heights, uniform in [-1, 1], from word
    (2n - 3) * start, and its azimuths, uniform in [0, 2*pi), rows * (n - 1)
    words later.  The reported std_error is the sample
    standard deviation (ddof = 1) over sqrt(trials).  For n = 1 every
    distance is exactly 1, so the estimate is exact and no randomness is
    consumed.  From n = 2 on, more than MAX_WALK_STEPS steps n * trials raise
    CostLimitError.  `seed` must lie in 0..2^64 - 1, for n = 1 too.

    The calling thread walks a block's sub-blocks in order into one buffer
    of lengths and sums the buffer whole; it starts no thread.  Memory is
    that buffer plus O(_SUB_FLOATS) scratch.

    A row of drawn coordinates is added as `.sum(axis=1)` adds it: below 8
    columns numpy adds a row left to right, which one vector add per column
    repeats without a reduction call per row; from 8 on it splits a row over
    eight accumulators, so `.sum(axis=1)` is kept there.  The lengths are
    sqrt((x^2 + y^2) + z^2), np.linalg.norm's order.
    """
    n, trials = _at_least(n, 1, "n"), _at_least(trials, 1, "trials")
    seed = _philox_key(seed)
    if n == 1:
        return WalkEstimate(n=1, mean_distance=1.0, std_error=0.0, trials=trials, seed=seed)
    if n * trials > MAX_WALK_STEPS:
        cost = f"Monte Carlo walk of {n} steps per trial over {trials} trials"
        raise CostLimitError(cost, "steps n * trials", n * trials, MAX_WALK_STEPS)
    sub_rows = max(1, _SUB_FLOATS // n)
    lengths = np.empty(min(_CHUNK, trials))
    total = total_sq = 0.0
    stream = lambda word: np.random.Generator(_philox_at(np.random.Philox(key=0), (seed, 0), word))
    for start in range(0, trials, _CHUNK):
        rows = min(_CHUNK, trials - start)
        block = lengths[:rows]
        z_stream = stream((2 * n - 3) * start)
        phi_stream = stream((2 * n - 3) * start + rows * (n - 1))
        for sub in range(0, rows, sub_rows):
            _walk_lengths(z_stream, phi_stream, block[sub : sub + sub_rows], n)
        total += float(block.sum())
        block *= block
        total_sq += float(block.sum())
    mean = total / trials
    if trials > 1:
        variance = max(0.0, (total_sq - trials * mean * mean) / (trials - 1))
        std_error = math.sqrt(variance / trials)
    else:
        std_error = 0.0
    return WalkEstimate(n=n, mean_distance=mean, std_error=std_error, trials=trials, seed=seed)


def _walk_lengths(
    z_stream: np.random.Generator, phi_stream: np.random.Generator, lengths: np.ndarray, n: int
) -> None:
    """Write into `lengths` the endpoint distances of that many n-step walks.

    Row by row, a walk takes the heights z_2..z_n from z_stream and the
    azimuths of steps 3..n from phi_stream; step 1 is e_z, step 2 is
    (rho_2, 0, z_2), and rho_i = sqrt((1 - z_i)(1 + z_i)), which keeps
    |v_1 + v_2| within a few ulps of sqrt(2 + 2 z_2).  x and y add steps 3..n
    as one row, then step 2; z adds steps 2..n as one row, then step 1.
    """
    rows = len(lengths)
    z = z_stream.uniform(-1.0, 1.0, size=(rows, n - 1))
    phi = phi_stream.uniform(0.0, 2.0 * math.pi, size=(rows, n - 2))
    sum_z = _row_sums(z)
    sum_z += 1.0
    rho = np.subtract(1.0, z)
    rho *= np.add(1.0, z, out=z)
    np.sqrt(rho, out=rho)
    steps = np.cos(phi)
    steps *= rho[:, 1:]
    sum_x = _row_sums(steps)
    sum_x += rho[:, 0]
    np.sin(phi, out=steps)
    steps *= rho[:, 1:]
    sum_y = _row_sums(steps)
    np.multiply(sum_x, sum_x, out=lengths)
    lengths += np.multiply(sum_y, sum_y, out=sum_y)
    lengths += np.multiply(sum_z, sum_z, out=sum_z)
    np.sqrt(lengths, out=lengths)


def _row_sums(a: np.ndarray) -> np.ndarray:
    """Row sums of a (rows, m) array, those of a.sum(axis=1) up to the sign of a zero."""
    if a.shape[1] >= 8:
        return a.sum(axis=1)
    total = np.zeros(len(a))
    for column in a.T:
        total += column
    return total


def random_walk_distance(n: int) -> Fraction:
    """Exact E||v_1 + ... + v_n|| over uniform unit steps, which random_walk_distance_mc estimates.

    The endpoint distance has Rayleigh's (1919) piecewise-polynomial density,
    and r times it integrates to
    sum_{0 <= k < n/2} (-1)^k C(n, k) (n - 2k)^(n+1) / (2^(n-2) (n + 1)!),
    summed here in integers: 4/3 at n = 2, and 1 at n = 1.  Above
    MAX_EXACT_WALK steps CostLimitError is raised.
    """
    n = _at_least(n, 1, "n")
    if n > MAX_EXACT_WALK:
        bits = math.ceil((n + 1) * math.log2(n)) + n
        cost = f"exact mean distance of a {n}-step walk sums integers of up to about {bits} bits"
        raise CostLimitError(cost, "n", n, MAX_EXACT_WALK)
    terms = (math.comb(n, k) * (n - 2 * k) ** (n + 1) for k in range((n + 1) // 2))
    numerator = sum(-term if k % 2 else term for k, term in enumerate(terms))
    return Fraction(4 * numerator, 2**n * math.factorial(n + 1))  # 2^(n-2) as 2^n / 4, for n = 1


def random_lower_bound_asymptotic(n: int) -> float:
    """Large-n value 1/2 + sqrt(2/(3*pi*n)) of the random-direction strategy.

    The formula is exact only in the limit; it is returned for every n >= 1,
    but below ASYMPTOTIC_VALID_FROM it should be quoted as an approximation
    rather than an achievable bound.
    """
    n = _at_least(n, 1, "n")
    return 0.5 + math.sqrt(2.0 / (3.0 * math.pi * n))


@functools.lru_cache(maxsize=MAX_LATTICE_WALK + 1)
def _axis_terms(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Folded (weights, squared offsets) of one axis with m steps.

    Entry i <= m/2 stands for i and m - i negative steps: its weight is
    comb(m, i) times 2, or times 1 at the middle of an even axis, and its
    squared offset is (m - 2i)^2.  Read-only, since every caller shares it.
    """
    count = np.arange(m // 2 + 1, dtype=np.int64)
    weights = np.array([math.comb(m, i) for i in range(m // 2 + 1)], dtype=np.int64)
    weights[2 * count < m] *= 2
    squared = (m - 2 * count) ** 2
    weights.flags.writeable = False
    squared.flags.writeable = False
    return weights, squared


def lattice_walk_distance(x: int, y: int, z: int) -> float:
    """Exact mean endpoint distance of a walk with x, y, z axis-aligned steps.

    Each step goes one unit along its axis with a uniform random sign, so the
    endpoint after i of the x-steps were negative (and similarly j, k) is
    (x-2i, y-2j, z-2k), weighted by the product of binomials over 2^(x+y+z).
    Folded, i, j, k run to half their axis and each weight counts its
    mirror images (_axis_terms).  The weights are exact int64 integers (at
    most 2^n); each term is one rounding of weight * sqrt(squared distance),
    a power-of-two multiple of the unfolded term, exactly.  math.fsum adds
    the terms with one final rounding, so the result is the unfolded sum's.
    """
    x, y, z = _integer(x), _integer(y), _integer(z)
    return math.fsum(_walk_terms(x, y, z).ravel().tolist()) / (1 << (x + y + z))


def _walk_terms(x: int, y: int, z: int) -> np.ndarray:
    """The folded walk's (i, j, k) terms; the guard refuses before any table is built."""
    if min(x, y, z) < 0:
        raise ValueError(f"step counts must be nonnegative, got ({x}, {y}, {z})")
    n = x + y + z
    if n < 1:
        raise ValueError("need at least one step")
    if n > MAX_LATTICE_WALK:
        terms = (x // 2 + 1) * (y // 2 + 1) * (z // 2 + 1)  # the folded walk's
        cost = f"lattice walk of {n} steps sums {terms} terms with int64 weights up to 2**{n}"
        raise CostLimitError(cost, "x + y + z", n, MAX_LATTICE_WALK)
    (wx, dx), (wy, dy), (wz, dz) = (_axis_terms(m) for m in (x, y, z))
    weights = wx[:, None, None] * wy[None, :, None] * wz[None, None, :]
    squared = dx[:, None, None] + dy[None, :, None] + dz[None, None, :]
    return weights * np.sqrt(squared)


def orthogonal_lower_bound(n: int) -> tuple[float, tuple[int, int, int]]:
    """Axis-aligned strategy: split n directions as evenly as possible.

    The even split (parts differing by at most one) is scored with the exact
    lattice walk; returns (probability, split).  This is the conventional
    axis strategy that tabulated reference values use.  It is not always the
    best axis split — see best_axis_split, which beats it for n = 5, 6, 7 —
    but it is the one this bound names.  Above MAX_LATTICE_WALK the walk's
    guard raises CostLimitError.
    """
    n = _at_least(n, 1, "n")
    base, extra = divmod(n, 3)
    split = (base + (extra > 0), base + (extra > 1), base)
    return _walk_probability(lattice_walk_distance(*split), n), split


def best_axis_split(n: int) -> tuple[float, tuple[int, int, int]]:
    """Best axis-aligned strategy over every split x >= y >= z of n.

    Scores the splits in lexicographic order with the exact lattice walk and
    returns (probability, split) of the first maximum, the smallest among
    equal maximizers.  Perhaps surprisingly, the maximizer is not always
    the even split: (3,1,1), (3,2,1) and (3,3,1) beat it at n = 5, 6, 7.
    Only the splits whose plain float sum is within 1e-9 relative of the
    largest get the exact walk, which changes no bit of the result.  Above
    MAX_LATTICE_WALK the first split's guard raises CostLimitError.
    """
    n = _at_least(n, 1, "n")
    splits = [
        (x, y, n - x - y)
        for x in range((n + 2) // 3, n + 1)
        for y in range((n - x + 1) // 2, min(x, n - x) + 1)
    ]
    totals = [float(_walk_terms(*split).sum()) for split in splits]
    # a float sum of m <= 1,331 positive terms is within about m * 2^-53 of the
    # exact one relatively (Higham 2002, ch. 4), far inside this margin
    floor = max(totals) * (1.0 - 1e-9)
    kept = [split for split, total in zip(splits, totals) if total >= floor]
    scores = [_walk_probability(lattice_walk_distance(*split), n) for split in kept]
    best = scores.index(max(scores))
    return scores[best], kept[best]
