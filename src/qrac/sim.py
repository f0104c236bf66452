"""Monte Carlo simulation of the two-party protocol, with shared randomness.

Each trial prepares the encoding of an input string, measures it along the
direction for the requested position, and checks the answer.  With
randomization on, both parties first mask the input with a shared uniform
n-bit string and a shared uniform cyclic shift; the deterministic code then
sees a uniform effective input, so every (input, position) cell estimates
the same value — the deterministic code's average.  A run costs
2^n * n * trials cell-trials and is refused above MAX_CELL_TRIALS.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bloch import BlochVector, Measurement, outcome_probabilities
from .classical import BitString
from .codes import QracCode
from .errors import CostLimitError

#: Hard guard on 2^n * n * trials_per_input, the cell-trials of one run; the
#: largest run in the tests is qrac6 at 100,000 trials (3.84e7 cell-trials).
MAX_CELL_TRIALS = 10**8


@dataclass(frozen=True, eq=False)
class SimReport:
    """Empirical success frequencies, one cell per (input, position)."""

    n: int
    trials_per_input: int
    seed: int
    randomized: bool
    frequencies: np.ndarray

    def __post_init__(self) -> None:
        self.frequencies.setflags(write=False)

    def frequency(self, x: BitString, i: int) -> float:
        """Observed success rate for input x at 1-based position i."""
        if not 1 <= i <= self.n:
            raise ValueError(f"position must lie in 1..{self.n}, got {i}")
        if len(x) != self.n:
            raise ValueError(f"string length {len(x)} does not match n = {self.n}")
        return float(self.frequencies[x.index, i - 1])

    @property
    def average(self) -> float:
        return float(self.frequencies.mean())

    @property
    def worst_case(self) -> float:
        return float(self.frequencies.min())

    @property
    def spread(self) -> float:
        """Max minus min cell frequency; randomization drives this toward 0."""
        return float(self.frequencies.max() - self.frequencies.min())


def sample_measurement(
    state: BlochVector, m: Measurement, rng_stream: np.random.Generator
) -> int:
    """Draw one measurement outcome: 0 with probability (1 + cos angle)/2."""
    p0, _ = outcome_probabilities(state, m)
    return 0 if rng_stream.random() < p0 else 1


def _cell_stream(seed: int, n: int, x_index: int, position: int) -> np.random.Generator:
    """Independent counter-based stream for one (input, position) cell."""
    return np.random.Generator(
        np.random.Philox(key=[seed & 0xFFFFFFFFFFFFFFFF, x_index * n + position])
    )


def _uniform_shifts(rng: np.random.Generator, n: int, trials: int) -> np.ndarray:
    """Uniform draws from 0..n-1 by rejection from power-of-two blocks.

    Each round draws one block of ceil(log2(n)) bits per still-rejected
    trial; for n a power of two no rejection ever happens, and for n = 1 no
    randomness is consumed at all.
    """
    if n == 1:
        return np.zeros(trials, dtype=np.int64)
    block = 1 << (n - 1).bit_length()
    draws = rng.integers(0, block, size=trials, dtype=np.int64)
    pending = np.flatnonzero(draws >= n)
    while pending.size:
        draws[pending] = rng.integers(0, block, size=pending.size, dtype=np.int64)
        pending = pending[draws[pending] >= n]
    return draws


def simulate_code(
    code: QracCode, trials_per_input: int, seed: int, randomize: bool = False
) -> SimReport:
    """Run the protocol trials_per_input times for every (input, position).

    Each cell uses its own counter-based stream keyed by (seed, cell index),
    so reports are reproducible and independent of execution order.  Within a
    cell the draws are consumed in a fixed order: with randomization, the
    n-bit masks, then the cyclic-shift rejection rounds, then one uniform per
    trial for the measurement outcome; without randomization only the
    outcome uniforms are drawn.
    """
    if trials_per_input < 1:
        raise ValueError(f"trials_per_input must be at least 1, got {trials_per_input}")
    n = code.n
    cell_trials = (1 << n) * n * trials_per_input
    if cell_trials > MAX_CELL_TRIALS:
        raise CostLimitError(
            f"simulation runs 2**{n} * {n} * {trials_per_input} = {cell_trials} "
            f"cell-trials; the limit is {MAX_CELL_TRIALS}"
        )
    dirs = code.measurement_array()
    points = code.encoding_array()
    mask = (1 << n) - 1
    frequencies = np.empty((1 << n, n))
    for x_index in range(1 << n):
        for position in range(n):
            rng = _cell_stream(seed, n, x_index, position)
            if randomize:
                r = rng.integers(0, 1 << n, size=trials_per_input, dtype=np.int64)
                d = _uniform_shifts(rng, n, trials_per_input)
                z = x_index ^ r
                y = ((z << d) | (z >> (n - d))) & mask
                j = (position + d) % n
                target_bits = (y >> j) & 1
                p0 = 0.5 * (1.0 + np.einsum("ij,ij->i", points[y], dirs[j]))
            else:
                target_bits = np.full(trials_per_input, (x_index >> position) & 1)
                p0 = np.full(
                    trials_per_input, 0.5 * (1.0 + float(points[x_index] @ dirs[position]))
                )
            outcomes = (rng.random(trials_per_input) >= p0).astype(np.int64)
            frequencies[x_index, position] = float((outcomes == target_bits).mean())
    return SimReport(
        n=n,
        trials_per_input=trials_per_input,
        seed=seed,
        randomized=randomize,
        frequencies=frequencies,
    )
