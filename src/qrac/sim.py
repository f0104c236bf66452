"""Monte Carlo simulation of the two-party protocol, with shared randomness.

Each trial prepares the encoding of an input string, measures it along the
direction for the requested position, and checks the answer.  With
randomization on, both parties first mask the input with a shared uniform
n-bit string and a shared uniform cyclic shift; the deterministic code then
sees a uniform effective input, so every (input, position) cell estimates
the same value — the deterministic code's average.  A run costs
2^n * n * trials cell-trials and is refused above MAX_CELL_TRIALS.

Stream contract.  Every cell reads its own Philox4x64-10 stream, keyed by the
two 64-bit words (seed, x_index * n + position) with counter 0, so a report
depends only on the raw words of numpy's Philox bit generator, which numpy
keeps stable across versions.  The words are consumed in a fixed order:

* With randomization, first a stream of 32-bit halves, the low half of each
  word before its high half.  A draw from 0..2^b - 1 is a half shifted right
  by 32 - b.  The stream gives one n-bit mask per trial, then one
  ceil(log2(n))-bit shift candidate per trial, then one new candidate for
  each candidate >= n, in trial order, round after round until none is
  rejected.  For n = 1 no shift is drawn.
* Then one uniform per trial, (word >> 11) * 2^-53, from whole words,
  starting at the first word no half was taken from.  The answer is 1 when
  the uniform is at least the probability p0 of outcome 0.

Without randomization a cell reads only the uniforms.  This is the sequence
np.random.Generator(Philox(key)) produces for integers(0, 2^n, T),
rejection rounds of integers(0, 2^b, k) and random(T) in numpy 2.x; the
simulator reproduces it from raw words without calling Generator methods.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .bloch import BlochVector, Measurement, outcome_probabilities
from .classical import BitString
from .codes import QracCode
from .errors import CostLimitError

#: Hard guard on 2^n * n * trials_per_input, the cell-trials of one run; the
#: largest run in the tests is qrac6 at 100,000 trials (3.84e7 cell-trials).
MAX_CELL_TRIALS = 10**8

#: Cells are simulated together in blocks of at most this many cell-trials
#: (one cell per block when trials_per_input is larger), which bounds the
#: working arrays at a few MB whatever the size of the run.
_BLOCK_CELL_TRIALS = 1 << 14

#: Standard deviations of shift-rejection draws budgeted above the mean; a
#: cell that still runs out of words is redrawn with twice the words.
_MARGIN_SIGMAS = 6.0


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


def _thresholds(p0: np.ndarray) -> np.ndarray:
    """Integer form of `uniform >= p0` as `(word >> 11) >= threshold`.

    A uniform is k * 2^-53 with k = word >> 11, so the test is k >= p0 * 2^53,
    exactly k >= ceil(p0 * 2^53).  Clipping p0 to [0, 1] keeps rounding
    residue such as p0 = -1.1e-16 from wrapping in the cast.
    """
    return np.ceil(np.clip(p0, 0.0, 1.0) * 2.0**53).astype(np.uint64)


def _cell_words(seed: int, cells: np.ndarray, count: int) -> np.ndarray:
    """The first `count` raw words of each cell's stream, one row per cell."""
    bitgen = np.random.Philox(key=0)
    words = np.empty((cells.size, count), dtype=np.uint64)
    for row, cell in enumerate(cells.tolist()):
        bitgen.state = {
            "bit_generator": "Philox",
            "state": {"counter": (0, 0, 0, 0), "key": (seed, cell)},
            "buffer": (0, 0, 0, 0),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        words[row] = bitgen.random_raw(count)
    return words


def _word_budget(n: int, trials: int) -> int:
    """Words drawn per randomized cell: the uniforms, plus halves with a margin."""
    shift_halves = 0
    if n > 1:
        accept = n / (1 << (n - 1).bit_length())
        mean = trials / accept
        sigma = math.sqrt(trials * (1.0 - accept)) / accept
        shift_halves = max(trials, math.ceil(mean + _MARGIN_SIGMAS * sigma))
    return trials + (trials + shift_halves + 1) // 2


def _randomized_block(
    words: np.ndarray, cells: np.ndarray, n: int, trials: int, thresholds: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Successes per cell with the mask and shift, and which cells ran short.

    `thresholds` is indexed by the rotated cell y * n + j.  The rejection
    rounds run for all cells at once; flat indices keep each gather to one
    fancy-indexing call.
    """
    rows_total, width = words.shape
    limit = 2 * (width - trials)  # halves that leave room for the uniforms
    by_cell = words.astype("<u8", copy=False).view("<u4")  # low half first, any byte order
    halves = by_cell.ravel()
    row_start = np.arange(rows_total) * (2 * width)
    r = (by_cell[:, :trials] >> (32 - n)).astype(np.int64)
    used = np.full(rows_total, trials)
    d = np.zeros_like(r)
    if n > 1:
        shift = 32 - (n - 1).bit_length()
        d = (by_cell[:, trials : 2 * trials] >> shift).astype(np.int64)
        used += trials
        pending = np.flatnonzero(d >= n)
        rows = pending // trials
        while pending.size:
            # the k-th rejected trial of a cell reads that cell's k-th unread
            # half; cumsum - counts is where each cell's entries start in rows
            counts = np.bincount(rows, minlength=rows_total)
            at = (row_start + used + counts - np.cumsum(counts))[rows] + np.arange(rows.size)
            used += counts
            if used.max() > limit:  # a cell ran out of halves: stop reading for it
                live = at - row_start[rows] < limit
                pending, rows, at = pending[live], rows[live], at[live]
            draws = halves[at] >> shift
            d.ravel()[pending] = draws
            keep = draws >= n
            pending, rows = pending[keep], rows[keep]
    short = used > limit
    start = np.where(short, 0, (used + 1) // 2) + np.arange(rows_total) * width
    k = words.ravel()[start[:, None] + np.arange(trials)] >> 11
    z = (cells // n)[:, None] ^ r
    y = ((z << d) | (z >> (n - d))) & ((1 << n) - 1)
    j = (cells % n)[:, None] + d
    j[j >= n] -= n
    target = ((y >> j) & 1).astype(bool)
    successes = np.count_nonzero((k >= thresholds[y * n + j]) == target, axis=1)
    return successes, short


def simulate_code(
    code: QracCode, trials_per_input: int, seed: int, randomize: bool = False
) -> SimReport:
    """Run the protocol trials_per_input times for every (input, position).

    Each cell reads its own Philox stream keyed by (seed, x_index * n +
    position), as the module docstring sets out, so reports are reproducible
    and independent of execution order.  `seed` must lie in 0..2^64 - 1.
    Cells run in blocks of at most _BLOCK_CELL_TRIALS cell-trials.
    """
    if trials_per_input < 1:
        raise ValueError(f"trials_per_input must be at least 1, got {trials_per_input}")
    seed = operator.index(seed)
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must lie in 0..2**64 - 1, got {seed}")
    n = code.n
    cell_trials = (1 << n) * n * trials_per_input
    if cell_trials > MAX_CELL_TRIALS:
        raise CostLimitError(
            f"simulation runs 2**{n} * {n} * {trials_per_input} = {cell_trials} "
            f"cell-trials; the limit is {MAX_CELL_TRIALS}"
        )
    dirs = code.measurement_array()
    points = code.encoding_array()
    trials = trials_per_input
    n_cells = (1 << n) * n
    if randomize:
        # p0 of every rotated cell (y, j), with the same per-row product as one trial
        y, j = np.divmod(np.arange(n_cells), n)
        thresholds = _thresholds(0.5 * (1.0 + np.einsum("ij,ij->i", points[y], dirs[j])))
    else:
        # the scalar product of each cell on its own, as the per-cell loop took it
        p0 = [0.5 * (1.0 + float(point @ v)) for point in points for v in dirs]
        thresholds = _thresholds(np.array(p0))
        x, position = np.divmod(np.arange(n_cells), n)
        targets = ((x >> position) & 1).astype(bool)
    successes = np.empty(n_cells, dtype=np.int64)
    block = max(1, _BLOCK_CELL_TRIALS // trials)
    first_budget = _word_budget(n, trials)
    for first in range(0, n_cells, block):
        cells = np.arange(first, min(first + block, n_cells))
        if not randomize:
            outcomes = (_cell_words(seed, cells, trials) >> 11) >= thresholds[cells, None]
            successes[cells] = np.count_nonzero(outcomes == targets[cells, None], axis=1)
            continue
        budget = first_budget
        while cells.size:
            words = _cell_words(seed, cells, budget)
            counts, short = _randomized_block(words, cells, n, trials, thresholds)
            successes[cells[~short]] = counts[~short]
            cells = cells[short]
            budget *= 2
    return SimReport(
        n=n,
        trials_per_input=trials_per_input,
        seed=seed,
        randomized=randomize,
        frequencies=(successes / trials).reshape(1 << n, n),
    )
