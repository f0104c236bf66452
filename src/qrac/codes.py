"""Single-qubit codes for n-bit strings and their success probabilities.

A code fixes one measurement direction per bit position and one encoding
state per input string.  When the receiver measures the encoding of x along
direction v_i, the answer is correct with probability
p(x, i) = (1 + (-1)^(x_i) * r_x . v_i) / 2.  Averaging over uniform inputs
and positions, the best encodings point each r_x along the signed direction
sum of the measurements, which reduces the whole average to a single norm
sum over sign patterns.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import InitVar, dataclass
from functools import cached_property

import numpy as np

from .bloch import UNIT_TOLERANCE, BlochVector, uniform_directions
from .classical import BitString, optimal_classical_probability
from .errors import CostLimitError

#: Signed sums with norm below this are treated as zero: the input string is
#: probability-neutral and receives the fixed fallback encoding.
NEUTRAL_CUTOFF = 1e-12

#: Encoding assigned to probability-neutral strings.  Any fixed unit vector
#: keeps output deterministic; the average probability does not depend on it.
NEUTRAL_FALLBACK = BlochVector(0.0, 0.0, 1.0)

#: Hard guard for every 2^n sign-pattern enumeration (the kernel _signed_sums).
MAX_SIGN_ENUMERATION = 24

#: Hard guard for evaluate: its time grows with the n * 2^n cells it scores, and
#: per_input, once read, holds them as 8 * n * 2^n bytes of float64 (38 MB at n = 18).
MAX_EVALUATE = 18

#: Hard guard for the 2^n enumeration in parallelogram_check.
MAX_PARALLELOGRAM = 20

#: Relative tolerance (times 2^n) for the squared-norm identity check.
PARALLELOGRAM_TOLERANCE = 1e-8

#: Sign patterns are processed in blocks of this many rows.
_CHUNK = 1 << 16


def sign_matrix(n: int, start: int = 0, stop: int | None = None) -> np.ndarray:
    """Rows of signs (-1)^(x_i) for input indices start..stop-1.

    Row k corresponds to input index start + k; column i (0-based) holds +1
    when bit i of the index is 0 and -1 when it is 1.
    """
    if stop is None:
        stop = 1 << n
    values = np.arange(start, stop, dtype=np.int64)
    return 1.0 - 2.0 * ((values[:, None] >> np.arange(n)) & 1)


def _norms(vectors: np.ndarray) -> np.ndarray:
    """Lengths over a last axis of size 3, bit-identical to np.linalg.norm.

    The squares are added left to right, as numpy's reduction adds them, but in
    three whole-array adds instead of one slow reduction call per row.
    """
    squares = vectors * vectors
    return np.sqrt(squares[..., 0] + squares[..., 1] + squares[..., 2])


def _unit_rows(
    rows: np.typing.ArrayLike, item: str = "measurement", count: int | None = None
) -> np.ndarray:
    """`rows` (an (n, 3) array, nested lists, BlochVectors) as a new read-only float array.

    ValueError unless it holds `count` rows (from one up without it), each
    within UNIT_TOLERANCE of unit norm, which NaN and infinity never are.
    """
    array = np.array(rows, dtype=float)
    if count is None:
        count = len(array) if array.ndim else 0
        if count < 1:
            raise ValueError(f"need at least one {item}")
    if array.shape != (count, 3) or not np.abs(_norms(array) - 1.0).max() <= UNIT_TOLERANCE:
        raise ValueError(f"{item}s must be {count} unit 3-vectors as rows")
    array.setflags(write=False)
    return array


def probability_from_s_value(s: float, n: int) -> float:
    """Optimally-encoded average success probability (1 + s / (n * 2^n)) / 2."""
    return 0.5 * (1.0 + s / (n * (1 << n)))


def _signed_sums(dirs: np.ndarray) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """The sign-pattern kernel: (start, S_x, |S_x|) blocks for x = 0 .. 2^(n-1) - 1.

    Checks n against MAX_SIGN_ENUMERATION on the call, before any work.  The
    other half needs none: S_x' = -S_x for the complement x' = 2^n - 1 - x.
    """
    n = len(dirs)
    if n > MAX_SIGN_ENUMERATION:
        cost = "sign-pattern enumeration visits 2**(n-1) signed sums"
        raise CostLimitError(cost, "n", n, MAX_SIGN_ENUMERATION)
    half = 1 << (n - 1)

    def blocks() -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        for start in range(0, half, _CHUNK):
            sums = sign_matrix(n, start, min(start + _CHUNK, half)) @ dirs
            yield start, sums, _norms(sums)

    return blocks()


def _norm_sum_and_neutral(dirs: np.ndarray) -> tuple[float, tuple[BitString, ...]]:
    """One kernel pass: the norm sum over all 2^n patterns and the neutral strings."""
    n = len(dirs)
    half_total = 0.0
    lower: list[int] = []
    for start, _, norms in _signed_sums(dirs):
        half_total += float(norms.sum())
        lower.extend((start + np.flatnonzero(norms < NEUTRAL_CUTOFF)).tolist())
    indices = lower + [(1 << n) - 1 - i for i in reversed(lower)]
    return 2.0 * half_total, tuple(BitString.from_index(i, n) for i in indices)


def s_value(measurements: np.typing.ArrayLike) -> float:
    """Total norm of signed direction sums over all 2^n sign patterns.

    This single number determines the optimally-encoded average success
    probability; see probability_from_s_value.
    """
    return _norm_sum_and_neutral(_unit_rows(measurements))[0]


def optimal_encoding(measurements: np.typing.ArrayLike) -> np.ndarray:
    """Best encoding point for every input string: the normalized signed sum.

    Returns a read-only (2^n, 3) array in input-index order: row x.index is
    the point for string x.  Strings whose signed sum vanishes (within
    NEUTRAL_CUTOFF) get the fixed fallback NEUTRAL_FALLBACK; any choice gives
    the same average.
    """
    return _encodings(_unit_rows(measurements))


def _encodings(dirs: np.ndarray) -> np.ndarray:
    """optimal_encoding of directions that _unit_rows has checked."""
    blocks = _signed_sums(dirs)  # guarded before the array below exists
    size = 1 << len(dirs)
    points = np.empty((size, 3))
    for start, sums, norms in blocks:
        stop = start + len(sums)
        neutral = norms < NEUTRAL_CUTOFF
        unit = sums / np.where(neutral, 1.0, norms)[:, None]
        points[start:stop] = unit
        points[size - stop : size - start] = 0.0 - unit[::-1]  # exact, and no -0.0
        rows = start + np.flatnonzero(neutral)
        points[rows] = points[size - 1 - rows] = np.asarray(NEUTRAL_FALLBACK)
    points.setflags(write=False)
    return points


@dataclass(frozen=True, eq=False)
class QracCode:
    """A complete code: n measurement directions plus an encoding per string.

    Both fields are read-only arrays.  `measurements` is (n, 3): row i is the
    direction measured for position i+1.  `encodings` is (2^n, 3) in
    input-index order: row x.index is the point for string x.  The
    constructor takes any array-likes of those shapes, copies them, and
    checks that every row of both has unit norm within UNIT_TOLERANCE.
    """

    measurements: np.ndarray
    encodings: np.ndarray
    #: True adopts read-only arrays that are already checked (optimal_code's) as they are.
    _checked: InitVar[bool] = False

    def __post_init__(self, _checked: bool) -> None:
        if not _checked:
            object.__setattr__(self, "measurements", _unit_rows(self.measurements))
            object.__setattr__(self, "encodings", _unit_rows(self.encodings, "encoding", 1 << self.n))

    @property
    def n(self) -> int:
        return len(self.measurements)


def optimal_code(measurements: np.typing.ArrayLike) -> QracCode:
    """The code using the given directions, (n, 3) unit rows, with their best encodings."""
    dirs = _unit_rows(measurements)
    return QracCode(dirs, _encodings(dirs), _checked=True)


def _cell_probabilities(code: QracCode) -> Iterator[tuple[int, np.ndarray]]:
    """(start, p) blocks of _CHUNK rows: p[k, i] is cell (start + k, i)'s clipped probability."""
    n, dirs = code.n, code.measurements
    for start in range(0, 1 << n, _CHUNK):
        stop = min(start + _CHUNK, 1 << n)
        block = 0.5 * (1.0 + sign_matrix(n, start, stop) * (code.encodings[start:stop] @ dirs.T))
        np.clip(block, 0.0, 1.0, out=block)
        yield start, block


@dataclass(frozen=True, eq=False)
class CodeReport:
    """Success probabilities of a code, per input/position and in aggregate.

    `per_input[x.index, i-1]` is the probability of answering position i
    correctly on input x: a read-only (2^n, n) array, built from `code` on
    first read and kept.  `average` and `worst_case` are computed without
    it; `worst_case` is the smallest cell — the deterministic worst case.
    Once the protocol is wrapped in shared randomization the worst case
    rises to the average, exposed as `randomized_worst_case`.
    """

    code: QracCode
    average: float
    worst_case: float
    s_value: float
    neutral_strings: tuple[BitString, ...]

    @cached_property
    def per_input(self) -> np.ndarray:
        table = np.empty((1 << self.code.n, self.code.n))
        for start, block in _cell_probabilities(self.code):
            table[start : start + len(block)] = block
        table.setflags(write=False)
        return table

    @property
    def randomized_worst_case(self) -> float:
        """Worst case once inputs are masked by shared randomness: the average."""
        return self.average


def evaluate(code: QracCode) -> CodeReport:
    """Score a code: average and worst case over all cells, one block at a time."""
    n = code.n
    if n > MAX_EVALUATE:
        cost = f"scoring visits 2**{n} * {n} = {n << n} cells, which per_input holds in {8 * n << n} bytes"
        raise CostLimitError(cost, "n", n, MAX_EVALUATE)
    s, neutral = _norm_sum_and_neutral(code.measurements)
    sums, lows = [], []
    for _, block in _cell_probabilities(code):
        sums.append(np.add.reduce(block, axis=None))
        lows.append(block.min())
    # numpy's pairwise sum splits a contiguous array in halves rounded to multiples
    # of 8, so on the n * 2^n cells it splits exactly at _CHUNK-row boundaries:
    # adding the block sums (a power of two of them) as a balanced tree
    # reproduces per_input.mean() bit for bit.
    while len(sums) > 1:
        sums = [a + b for a, b in zip(sums[::2], sums[1::2])]
    return CodeReport(
        code=code,
        average=float(sums[0] / (n << n)),
        worst_case=float(min(lows)),
        s_value=s,
        neutral_strings=neutral,
    )


def upper_bound(n: int) -> float:
    """Ceiling 1/2 + 1/(2*sqrt(n)) on the average success probability.

    No single-qubit code for n bits — even with shared randomness, and even
    when the qubit is assisted by classical postprocessing — exceeds this.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    return 0.5 + 0.5 / math.sqrt(n)


def parallelogram_check(measurements: np.typing.ArrayLike) -> bool:
    """Verify sum over sign patterns of the squared signed-sum norm equals n*2^n.

    The identity holds for any unit vectors because cross terms cancel in
    pairs; this enumerates the left side and compares within
    PARALLELOGRAM_TOLERANCE * 2^n.
    """
    dirs = _unit_rows(measurements)
    n = len(dirs)
    if n > MAX_PARALLELOGRAM:
        raise CostLimitError("identity check enumerates 2**n terms", "n", n, MAX_PARALLELOGRAM)
    total = 0.0
    for _, sums, _ in _signed_sums(dirs):
        total += float((sums * sums).sum())
    return abs(2.0 * total - n * (1 << n)) <= PARALLELOGRAM_TOLERANCE * (1 << n)


def classical_comparison_scan(
    ns: Iterable[int], sets_per_n: int, seed: int = 0
) -> list[tuple[int, int, float, float]]:
    """Scan random measurement sets for quantum averages below the classical optimum.

    For each n, draws `sets_per_n` measurement sets uniformly on the sphere,
    scores each with optimal encodings, and collects a tuple
    (n, set_index, quantum_average, classical_optimum) whenever the quantum
    average falls more than 1e-12 below the exact classical optimum.  No such
    set is known, but the comparison in full generality is unproven, so
    violations are returned as data to inspect rather than raised.
    """
    if sets_per_n < 1:
        raise ValueError(f"sets_per_n must be at least 1, got {sets_per_n}")
    rng = np.random.default_rng(seed)
    violations: list[tuple[int, int, float, float]] = []
    for n in ns:
        if n < 1:
            raise ValueError(f"n must be at least 1, got {n}")
        classical = float(optimal_classical_probability(n))
        for index in range(sets_per_n):
            dirs = uniform_directions(n, rng)
            average = probability_from_s_value(_norm_sum_and_neutral(dirs)[0], n)
            if average < classical - 1e-12:
                violations.append((n, index, average, classical))
    return violations
