"""Lower bounds on the best average success probability.

Both bounds come from picking measurement directions first and encoding
optimally afterwards, which turns the average probability into the mean
distance traveled by a walk that takes one unit step per measurement
direction: average = (1 + E||sum of signed steps|| / n) / 2.  Random
directions give a Monte Carlo estimate, walked in cache-sized sub-blocks
from Philox streams placed by errors._philox_at, so its memory does not
grow with n or the trials, and shared by up to four threads, the caller
and a thread pool, which change no bit of it; and a closed-form asymptote.
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
import os
from dataclasses import dataclass

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
#: scale of sim.MAX_CELL_TRIALS: 10^8 steps take 8-9 s on one Xeon core and
#: about 5 s on two, at n = 2 as at n = 100, and the walk's memory does not
#: grow with them.
MAX_WALK_STEPS = 10**8

#: Monte Carlo trials are summed in blocks of this many rows.  The lengths of
#: a block are added by one pairwise `.sum()`, so this size fixes the
#: summation tree, and changing it changes the estimate's last bits.
_CHUNK = 1 << 18

#: A block is walked in sub-blocks of max(1, _SUB_FLOATS // n) rows, so each
#: scratch array holds about this many floats: it bounds the walk's memory
#: and changes no bit of the estimate.
_SUB_FLOATS = 1 << 13

#: At most this many threads walk one block.  Each holds about 0.3 MB of
#: sub-block scratch next to the 2 MB buffer of lengths.
_MAX_WORKERS = 4


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

    Each draw is one word of the Philox stream under key (seed, 0): the block
    of `rows` <= _CHUNK trials from trial `start` reads its z coordinates,
    uniform in [-1, 1], from word 2 * n * start, and its azimuths, uniform in
    [0, 2*pi), rows * n words later.  The reported std_error is the sample
    standard deviation (ddof = 1) over sqrt(trials).  For n = 1 every
    distance is exactly 1, so the estimate is exact and no randomness is
    consumed.  From n = 2 on, more than MAX_WALK_STEPS steps n * trials raise
    CostLimitError.  `seed` must lie in 0..2^64 - 1, for n = 1 too.

    A block is split into one contiguous share of whole sub-blocks per
    worker, as many workers as the CPUs this process may run on, at most
    _MAX_WORKERS.  The calling thread walks the first share and a pool of
    workers - 1 threads, one per call, the others: each places its own
    generators at its first row by errors._philox_at and walks into its
    slice of one buffer of lengths.  The calling thread sums the buffer
    whole, so the estimate is bit for bit the same for any worker count.
    The first failing share's error, in share order, is raised once every
    pool thread is joined.  Memory is that buffer plus O(_SUB_FLOATS)
    scratch per worker.

    The coordinate sums are bit for bit those of `.sum(axis=1)` on each
    block: below n = 8 numpy adds a row left to right, which one vector add
    per column repeats without a reduction call per row; from n = 8 on it
    splits a row over eight accumulators, so `.sum(axis=1)` is kept there.
    The lengths are sqrt((x^2 + y^2) + z^2), np.linalg.norm's order.
    """
    n, trials = _at_least(n, 1, "n"), _at_least(trials, 1, "trials")
    seed = _philox_key(seed)
    if n == 1:
        return WalkEstimate(n=1, mean_distance=1.0, std_error=0.0, trials=trials, seed=seed)
    if n * trials > MAX_WALK_STEPS:
        cost = f"Monte Carlo walk of {n} steps per trial over {trials} trials"
        raise CostLimitError(cost, "steps n * trials", n * trials, MAX_WALK_STEPS)
    workers = _walk_workers()
    sub_rows = max(1, _SUB_FLOATS // n)
    lengths = np.empty(min(_CHUNK, trials))
    total = total_sq = 0.0
    stream = lambda word: np.random.Generator(_philox_at(np.random.Philox(key=0), (seed, 0), word))
    from concurrent.futures import ThreadPoolExecutor  # not at module level: it loads logging (~14 ms)

    with ThreadPoolExecutor(max(1, workers - 1)) as pool:  # it starts no thread at one worker
        for start in range(0, trials, _CHUNK):
            rows = min(_CHUNK, trials - start)
            block = lengths[:rows]
            share = -(-rows // (workers * sub_rows)) * sub_rows  # whole sub-blocks, so none spans two shares

            def walk(lo: int) -> None:  # every share is walked before `start` moves on
                z_stream = stream(2 * n * start + lo * n)
                phi_stream = stream(2 * n * start + rows * n + lo * n)
                for sub in range(lo, min(lo + share, rows), sub_rows):
                    _walk_lengths(z_stream, phi_stream, block[sub : sub + sub_rows], n)

            others = pool.map(walk, range(share, rows, share))  # every share submitted now
            walk(0)
            list(others)  # raises the first failing share's error, in share order
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


def _walk_workers() -> int:
    """Threads that walk a block: the CPUs this process may run on, at most _MAX_WORKERS."""
    affinity = getattr(os, "sched_getaffinity", None)  # absent on macOS and Windows
    return min(len(affinity(0)) if affinity else os.cpu_count() or 1, _MAX_WORKERS)


def _walk_lengths(
    z_stream: np.random.Generator, phi_stream: np.random.Generator, lengths: np.ndarray, n: int
) -> None:
    """Write into `lengths` the endpoint distances of that many n-step walks.

    Row by row, each walk takes n z coordinates from z_stream and n azimuths from phi_stream.
    """
    rows = len(lengths)
    z = z_stream.uniform(-1.0, 1.0, size=(rows, n))
    phi = phi_stream.uniform(0.0, 2.0 * math.pi, size=(rows, n))
    sum_z = _row_sums(z)
    rho = np.multiply(z, z, out=z)
    np.subtract(1.0, rho, out=rho)
    np.maximum(0.0, rho, out=rho)
    np.sqrt(rho, out=rho)
    steps = np.cos(phi)
    steps *= rho
    sum_x = _row_sums(steps)
    np.sin(phi, out=steps)
    steps *= rho
    sum_y = _row_sums(steps)
    np.multiply(sum_x, sum_x, out=lengths)
    lengths += np.multiply(sum_y, sum_y, out=sum_y)
    lengths += np.multiply(sum_z, sum_z, out=sum_z)
    np.sqrt(lengths, out=lengths)


def _row_sums(a: np.ndarray) -> np.ndarray:
    """Row sums of a (rows, n >= 2) array, bit for bit those of a.sum(axis=1)."""
    if a.shape[1] >= 8:
        return a.sum(axis=1)
    total = a[:, 0] + a[:, 1]
    for column in range(2, a.shape[1]):
        total += a[:, column]
    return total


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
