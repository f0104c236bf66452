"""Monte Carlo simulation of the two-party protocol, with shared randomness.

Each trial prepares the encoding of an input string, measures it along the
direction for the requested position, and checks the answer.  With
randomization on, both parties first mask the input with a shared uniform
n-bit string and a shared uniform cyclic shift; the deterministic code then
sees a uniform effective input, so every (input, position) cell estimates
the same value — the deterministic code's average.  A run is refused above
MAX_CELLS cells 2^n * n, or MAX_CELL_TRIALS cell-trials 2^n * n * trials.

Stream contract.  Cell x_index * n + position reads the Philox stream under
key (seed, cell) from word 0, placed by errors._philox_at, so a report
depends only on those raw words and not on how cells are grouped into
blocks.  The words are consumed in a fixed order:

* With randomization, first a stream of 32-bit halves, the low half of each
  word before its high half.  A draw from 0..2^b - 1 is a half shifted right
  by 32 - b.  The stream gives one n-bit mask per trial, then one
  ceil(log2(n))-bit shift candidate per trial, then one new candidate for
  each candidate >= n, in trial order, round after round until none is
  rejected.  For n = 1 no shift is drawn.
* Then one uniform per trial, (word >> 11) * 2^-53, from whole words,
  starting at the first word no half was taken from.  The answer is 1 when
  the uniform is at least the probability p0 of outcome 0.

p0 = (1 + r_x . v_i) / 2, its dot added left to right, x then y then z, from
rounded products, so its bits are the same on every host.

Without randomization a cell reads only the uniforms.  This is the sequence
np.random.Generator(Philox(key)) produces for integers(0, 2^n, T),
rejection rounds of integers(0, 2^b, k) and random(T) in numpy 2.x; the
simulator reproduces it from raw words without calling Generator methods.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codes import QracCode
from .errors import CostLimitError, _at_least, _philox_at, _philox_key

#: Hard guard on 2^n * n * trials_per_input, the cell-trials of one run; the
#: largest run in the tests is qrac6 at 100,000 trials (3.84e7 cell-trials).
MAX_CELL_TRIALS = 10**8

#: Hard guard on the 2^n * n cells of one run (n <= 16), checked before any
#: table is built: the p0 table holds 8 bytes a cell, and the randomized
#: rotation table 4 * 2^ceil(log2 n) / n more.
MAX_CELLS = 1 << 20

#: Cells are simulated together in blocks of at most this many cell-trials,
#: one cell per block when trials_per_input is larger.  A randomized block's
#: working arrays peak at about 50-80 bytes a cell-trial and a plain one's at
#: about 20, so near 2 MiB at this size; above it one cell's arrays grow with
#: trials_per_input at that rate, which no guard bounds (ROADMAP, the guards
#: item).  Over the named codes at 1 to 10^4 trials, 2^14 was up to 25%
#: slower, and 2^16 no faster at 500 trials with twice the arrays.
_BLOCK_CELL_TRIALS = 1 << 15

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


def _thresholds(code: QracCode) -> np.ndarray:
    """Integer form of `uniform >= p0` as `(word >> 11) >= threshold`, by cell x * n + i.

    Both modes read this one table.  Its dot products are whole-array
    multiplies and adds on one (2^n, n) buffer, with no BLAS call or
    reduction, so every host adds them in the module docstring's order.  A
    uniform is k * 2^-53 with k = word >> 11, so the test is k >= p0 * 2^53,
    exactly k >= ceil(p0 * 2^53).  Clipping p0 to [0, 1] keeps rounding
    residue such as p0 = -1.1e-16 from wrapping in the cast.
    """
    points, dirs = code.encodings, code.measurements
    p0 = np.multiply.outer(points[:, 0], dirs[:, 0])
    p0 += np.multiply.outer(points[:, 1], dirs[:, 1])
    p0 += np.multiply.outer(points[:, 2], dirs[:, 2])
    p0 += 1.0
    p0 *= 0.5
    np.clip(p0, 0.0, 1.0, out=p0)
    p0 *= 2.0**53
    return np.ceil(p0, out=p0).astype(np.uint64).ravel()


def _cell_words(seed: int, cells: np.ndarray, count: int) -> np.ndarray:
    """The first `count` raw words of each cell's stream, one row per cell."""
    bits = np.random.Philox(key=0)
    words = np.empty((cells.size, count), dtype=np.uint64)
    for row, cell in enumerate(cells.tolist()):
        words[row] = _philox_at(bits, (seed, cell), 0).random_raw(count)
    return words


def _word_budget(n: int, trials: int) -> int:
    """Words drawn per randomized cell: the uniforms, plus halves with a margin."""
    shift_halves = 0
    if n > 1:
        accept = n / (1 << (n - 1).bit_length())
        mean = trials / accept
        sigma = math.sqrt(trials * (1.0 - accept)) / accept
        shift_halves = math.ceil(mean + _MARGIN_SIGMAS * sigma)
    return trials + (trials + shift_halves + 1) // 2


def _rotation_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The two int32 tables that give a randomized trial its rotated cell y * n + j.

    rot[(d << n) | z] = rot(z, d) * n + d for every shift d below span =
    2^ceil(log2 n), the rejected ones d >= n included (as y = 0), and
    wrap[i * span + d] = i - n * [i + d >= n]; their sum is y * n + j.
    """
    span = 1 << (n - 1).bit_length()
    z = np.arange(1 << n)
    rot = np.empty((span, 1 << n), dtype=np.int32)
    for d, row in enumerate(rot):  # one shift at a time: no (n, 2^n) int64 temporaries
        row[:] = (((z << d) | (z >> (n - d))) & ((1 << n) - 1)) * n + d if d < n else d
    i = np.arange(n)[:, None]
    d = np.arange(span)
    wrap = (i - n * (i + d >= n)).astype(np.int32)
    return rot.ravel(), wrap.ravel()


def _randomized_block(
    words: np.ndarray,
    cells: np.ndarray,
    n: int,
    trials: int,
    thresholds: np.ndarray,
    tables: tuple[np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Successes per cell with the mask and shift, and which cells ran short.

    Trial (r, d) of cell (x, i) reads `thresholds` at the rotated cell
    y * n + j, where z = x ^ r, y is z rotated left by d within n bits and
    j = (i + d) mod n.  The two _rotation_tables give that index as
    rot[(d << n) | z] + wrap[i * span + d], so y is never formed, and a
    short cell's leftover rejected d >= n still indexes inside the table.
    The target, bit j of y, is bit i of z.  The rejection rounds run for
    all cells at once; flat indices keep each gather to one call.
    """
    rows_total, width = words.shape
    limit = 2 * (width - trials)  # halves that leave room for the uniforms
    by_cell = words.astype("<u8", copy=False).view("<u4")  # low half first, any byte order
    halves = by_cell.ravel()
    row_start = np.arange(rows_total) * (2 * width)
    r = by_cell[:, :trials] >> (32 - n)
    used = np.full(rows_total, trials)
    d = np.zeros_like(r)
    if n > 1:
        shift = 32 - (n - 1).bit_length()
        d = by_cell[:, trials : 2 * trials] >> shift
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
    rot, wrap = tables
    position = (cells % n).astype(np.uint32)[:, None]
    z = np.bitwise_xor(r, (cells // n).astype(np.uint32)[:, None], out=r)
    index = rot.take((d << n) | z)  # take, unlike [], gathers by uint32 without a cast pass
    index += wrap.take(position * (len(wrap) // n) + d)
    target = ((z >> position) & 1).astype(bool)
    successes = np.count_nonzero((k >= thresholds.take(index)) == target, axis=1)
    return successes, short


def simulate_code(
    code: QracCode, trials_per_input: int, seed: int, randomize: bool = False
) -> SimReport:
    """Run the protocol trials_per_input times for every (input, position).

    Each cell reads its own stream, as the module docstring sets out, so
    reports are reproducible and independent of execution order.  `seed`
    must lie in 0..2^64 - 1, and trials_per_input is an integer of at least
    1 (errors._at_least).  Cells run in blocks of at most _BLOCK_CELL_TRIALS
    cell-trials, which changes no bit of the report.
    """
    trials = _at_least(trials_per_input, 1, "trials_per_input")
    seed = _philox_key(seed)
    n = code.n
    n_cells = (1 << n) * n
    if n_cells > MAX_CELLS:
        rotations = 4 << n << (n - 1).bit_length() if randomize else 0
        cost = f"simulation holds {8 * n_cells + rotations} bytes of tables for 2**{n} * {n} cells"
        raise CostLimitError(cost, "cells", n_cells, MAX_CELLS)
    if n_cells * trials > MAX_CELL_TRIALS:
        cost = f"simulation runs 2**{n} * {n} * {trials} = {n_cells * trials} cell-trials"
        raise CostLimitError(cost, "cell-trials", n_cells * trials, MAX_CELL_TRIALS)
    thresholds = _thresholds(code)
    tables = _rotation_tables(n) if randomize else None
    successes = np.empty(n_cells, dtype=np.int64)
    block = max(1, _BLOCK_CELL_TRIALS // trials)
    first_budget = _word_budget(n, trials)
    for first in range(0, n_cells, block):
        cells = np.arange(first, min(first + block, n_cells))
        if not randomize:
            # a cell succeeds on the trials whose outcome is its bit
            ones = np.count_nonzero(
                (_cell_words(seed, cells, trials) >> 11) >= thresholds[cells, None], axis=1
            )
            x, position = np.divmod(cells, n)
            successes[cells] = np.where((x >> position) & 1, ones, trials - ones)
            continue
        budget = first_budget
        while cells.size:
            words = _cell_words(seed, cells, budget)
            counts, short = _randomized_block(words, cells, n, trials, thresholds, tables)
            successes[cells[~short]] = counts[~short]
            cells = cells[short]
            budget *= 2
    return SimReport(
        n=n,
        trials_per_input=trials,
        seed=seed,
        randomized=randomize,
        frequencies=(successes / trials).reshape(1 << n, n),
    )
