"""Single-qubit codes for n-bit strings and their success probabilities.

A code fixes one measurement direction per bit position and one encoding
state per input string.  When the receiver measures the encoding of x along
direction v_i, the answer is correct with probability
p(x, i) = (1 + (-1)^(x_i) * r_x . v_i) / 2.  Averaging over uniform inputs
and positions, the best encodings point each r_x along the signed direction
sum of the measurements, which reduces the whole average to a single norm
sum over sign patterns.  `s_value`, the `optimal_code` encodings, the Monte
Carlo walk, the simulator's p0 table and frequencies, the lattice bounds and
the classical values had the same bits on every OpenBLAS kernel tried.
`evaluate`'s cells and the see-saw's steps are the host BLAS's, and their
printed six decimals matched.  Counts are read by errors._at_least.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import InitVar, dataclass
from functools import cached_property

import numpy as np

from .bloch import UNIT_TOLERANCE, BlochVector, uniform_directions
from .classical import optimal_classical_probability
from .errors import CostLimitError, _at_least

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

#: Relative tolerance (times 2^n) for the squared-norm identity check.
PARALLELOGRAM_TOLERANCE = 1e-8

#: Sign patterns are processed in blocks of this many rows.
_CHUNK = 1 << 16

#: Bits 0 .. _SEED_BITS - 1 of every signed sum come from one product with _SEED_SIGNS.
_SEED_BITS = 8


def _sign_rows(n: int, stop: int, start: int = 0, step: int = 1) -> np.ndarray:
    """Signs (-1)^(x_i) as rows, one per x in range(start, stop, step): -1 where bit i of x is set."""
    return 1.0 - 2.0 * ((np.arange(start, stop, step)[:, None] >> np.arange(n)) & 1)


_SEED_SIGNS = _sign_rows(_SEED_BITS, 1 << _SEED_BITS)
_SEED_SIGNS.setflags(write=False)


def _norms(
    vectors: np.ndarray, out: np.ndarray | None = None, scratch: np.ndarray | None = None
) -> np.ndarray:
    """Lengths over a last axis of size 3, bit-identical to np.linalg.norm.

    The squares are added left to right, as numpy's reduction adds them, but in
    whole-array adds instead of one slow reduction call per row.  A caller in a
    loop may pass `out` for the lengths and `scratch`, shaped like `vectors`,
    for the squares; the bits are the same either way.
    """
    squares = np.multiply(vectors, vectors, out=scratch)
    lengths = np.add(squares[..., 0], squares[..., 1], out=out)
    lengths += squares[..., 2]
    return np.sqrt(lengths, out=lengths)


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

    The sums are coordinate-major: block S is (3, rows), column k is S_(start + k).
    The bits that vary inside a block are summed once: the first few by one
    product with _SEED_SIGNS, each later bit k by doubling the table T into
    T + d_k before T - d_k.  Each block then adds +-d_k for its fixed high bits.
    So every S_x is added left to right from +0.0, as the OpenBLAS product
    over the whole sign table adds each row, and is bit-identical to it.  One
    buffer holds every block: each block is overwritten by the next.
    """
    n = len(dirs)
    if n > MAX_SIGN_ENUMERATION:
        cost = "sign-pattern enumeration visits 2**(n-1) signed sums"
        raise CostLimitError(cost, "n", n, MAX_SIGN_ENUMERATION)
    half = 1 << (n - 1)
    rows = min(half, _CHUNK)
    low = rows.bit_length() - 1  # bits 0 .. low - 1 vary inside a block
    # one block: the seed also takes bit n - 1 (0 in every row), so n <= 8 is the dense product
    seed = min(n if rows == half else low, _SEED_BITS)
    steps = dirs[:, :, None]  # d_k as a column

    def blocks() -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        table = np.empty((3, rows))
        size = min(rows, 1 << seed)
        table[:, :size] = (_SEED_SIGNS[:size, :seed] @ dirs[:seed]).T
        for k in range(seed, low):
            m = 1 << k
            np.subtract(table[:, :m], steps[k], out=table[:, m : 2 * m])
            table[:, :m] += steps[k]
        sums = table if rows == half else np.empty_like(table)
        for start in range(0, half, rows):
            if sums is not table:
                sums[...] = table
            for k in range(max(seed, low), n):
                if start >> k & 1:
                    sums -= steps[k]
                else:
                    sums += steps[k]
            yield start, sums, _norms(sums.T)  # squares of the transposed view are F-ordered

    return blocks()


def bit_text(index: int, n: int) -> str:
    """The n-bit string of a row index as text: character i is bit i, so x1 is leftmost."""
    return format(index, f"0{n}b")[::-1]


def _key_indices(keys: list[str], n: int, what: str) -> np.ndarray:
    """The row index of every n-bit text, parsed as one array (the inverse of bit_text).

    ValueError names the first text, in the given order, that is not n characters 0 or 1.
    """
    wrong = np.flatnonzero(np.fromiter(map(len, keys), dtype=np.int64, count=len(keys)) != n)
    whole = int(wrong[0]) if len(wrong) else len(keys)  # the keys before it have n characters
    # one byte per character; "replace" makes a non-ASCII one "?", which fails the check
    chars = np.frombuffer("".join(keys[:whole]).encode("ascii", "replace"), dtype=np.uint8)
    bits = chars - ord("0")  # a wrapped uint8: 0 and 1 only for "0" and "1"
    bad = (np.flatnonzero(bits > 1)[:1] // n).tolist() + wrong[:1].tolist()
    if bad:
        raise ValueError(f"{what} {keys[bad[0]]!r} is not a string of {n} bits")
    return sum(bits[i::n].astype(np.int64) << i for i in range(n))


def _norm_sum_and_neutral(dirs: np.ndarray) -> tuple[float, tuple[str, ...]]:
    """One kernel pass: the norm sum over all 2^n patterns and the neutral strings."""
    n = len(dirs)
    half_total = 0.0
    lower: list[int] = []
    for start, _, norms in _signed_sums(dirs):
        half_total += float(norms.sum())
        lower.extend((start + np.flatnonzero(norms < NEUTRAL_CUTOFF)).tolist())
    indices = lower + [(1 << n) - 1 - i for i in reversed(lower)]
    return 2.0 * half_total, tuple(bit_text(i, n) for i in indices)


def s_value(measurements: np.typing.ArrayLike) -> float:
    """Total norm of signed direction sums over all 2^n sign patterns.

    This single number determines the optimally-encoded average success
    probability; see probability_from_s_value.
    """
    return _norm_sum_and_neutral(_unit_rows(measurements))[0]


@dataclass(frozen=True, eq=False)
class QracCode:
    """A complete code: n measurement directions plus an encoding per string.

    Both fields are read-only arrays.  `measurements` is (n, 3): row i is the
    direction measured for position i+1.  `encodings` is (2^n, 3) in
    input-index order: row x is the point for the string bit_text(x, n).  The
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
    """The code using the given directions, (n, 3) unit rows, with their best encodings.

    Row x of the encodings is the normalized signed sum for the string
    bit_text(x, n).  Strings whose signed sum vanishes (within NEUTRAL_CUTOFF)
    get the fixed fallback NEUTRAL_FALLBACK; any choice gives the same average.
    """
    dirs = _unit_rows(measurements)
    blocks = _signed_sums(dirs)  # guarded before the array below exists
    size = 1 << len(dirs)
    points = np.empty((size, 3))
    for start, sums, norms in blocks:
        stop = start + len(norms)
        neutral = norms < NEUTRAL_CUTOFF
        unit = (sums / np.where(neutral, 1.0, norms)).T
        points[start:stop] = unit
        points[size - stop : size - start] = 0.0 - unit[::-1]  # exact, and no -0.0
        rows = start + np.flatnonzero(neutral)
        points[rows] = points[size - 1 - rows] = np.asarray(NEUTRAL_FALLBACK)
    points.setflags(write=False)
    return QracCode(dirs, points, _checked=True)


def _cell_probabilities(code: QracCode) -> Iterator[tuple[int, np.ndarray]]:
    """(start, p) blocks of _CHUNK rows: p[k, i] is cell (start + k, i)'s clipped probability.

    One (rows, n) buffer holds every block: each block is overwritten by the
    next.  The signs (-1)^(x_i) come from two tables: one for the low bits,
    which repeat every `cycle` rows, and one with a row per cycle for the
    others.  Multiplying by +-1.0 is exact, and 0.5 + 0.5 * y rounds as
    0.5 * (1 + y), so the 0.5 rides in the first table.
    """
    n, dirs = code.n, code.measurements
    rows = min(1 << n, _CHUNK)
    cycle = min(rows, 1 << _SEED_BITS)
    halves = 0.5 * _sign_rows(n, cycle)
    block = np.empty((rows, n))
    cycles = block.reshape(-1, cycle, n)
    for start in range(0, 1 << n, rows):
        np.matmul(code.encodings[start : start + rows], dirs.T, out=block)
        cycles *= halves
        if cycle < 1 << n:  # the low columns of the per-cycle rows are +1
            cycles *= _sign_rows(n, start + rows, start, cycle)[:, None]
        block += 0.5
        np.clip(block, 0.0, 1.0, out=block)
        yield start, block


@dataclass(frozen=True, eq=False)
class CodeReport:
    """Success probabilities of a code, per input/position and in aggregate.

    `per_input[x, i-1]` is the probability of answering position i
    correctly on input x (row index x): a read-only (2^n, n) array, built
    from `code` on first read and kept.  `average` and `worst_case` are
    computed without it; `worst_case` is the smallest cell — the
    deterministic worst case.  Once the protocol is wrapped in shared
    randomization the worst case rises to the average, exposed as
    `randomized_worst_case`.  `neutral_strings` holds the bit_text of every
    input whose signed sum vanishes, in index order.
    """

    code: QracCode
    average: float
    worst_case: float
    s_value: float
    neutral_strings: tuple[str, ...]

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
    n = _at_least(n, 1, "n")
    return 0.5 + 0.5 / math.sqrt(n)


def parallelogram_check(measurements: np.typing.ArrayLike) -> bool:
    """Verify sum over sign patterns of the squared signed-sum norm equals n*2^n.

    The identity holds for any unit vectors because cross terms cancel in
    pairs; this enumerates the left side with one kernel pass, under the
    kernel's guard, and compares within PARALLELOGRAM_TOLERANCE * 2^n.
    """
    dirs = _unit_rows(measurements)
    n = len(dirs)
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
    sets_per_n = _at_least(sets_per_n, 1, "sets_per_n")
    rng = np.random.default_rng(_at_least(seed, 0, "seed"))
    violations: list[tuple[int, int, float, float]] = []
    for n in ns:
        n = _at_least(n, 1, "n")
        classical = float(optimal_classical_probability(n))
        for index in range(sets_per_n):
            dirs = uniform_directions(n, rng)
            average = probability_from_s_value(_norm_sum_and_neutral(dirs)[0], n)
            if average < classical - 1e-12:
                violations.append((n, index, average, classical))
    return violations
