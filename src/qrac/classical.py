"""Classical strategies for recovering one bit of an n-bit string.

The sender sees an n-bit string and transmits a single bit; the receiver is
asked for one position, chosen uniformly, and answers from the transmitted
bit alone.  Shared randomness never helps the worst case beyond what the
best deterministic strategy achieves on average, so everything here is exact
combinatorics over deterministic strategies.  Every n and m is read by
errors._integer: a bool or a float is a TypeError, a numpy integer an int.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import CostLimitError, _at_least, _integer

#: Largest n accepted by brute_force_optimal: the table enumeration grows as
#: 2**(2**n) and is only practical through n = 4 (65536 encodings).
MAX_BRUTE_FORCE = 4

#: Largest n accepted by optimal_classical_probability: its binomial has about
#: n bits, and math.comb alone takes seconds at n = 10**6.
MAX_CLASSICAL_N = 10**6

#: Largest n accepted by majority_strategy_probability: its sums add n//2 + 1
#: binomials of up to n bits each, about 1 s at the limit on a 2-CPU Xeon.
MAX_MAJORITY_N = 5000

#: Largest m accepted by counting_identity_check: its sums add 2m + 1 binomials
#: of up to 2m + 1 bits each, about 1 s at the limit on a 2-CPU Xeon.
MAX_COUNTING_M = 2000

#: Largest n accepted by PureClassicalStrategy.majority: its table has 2**n
#: entries, and building and scoring it stays under 1 s through the limit on a
#: 2-CPU Xeon (0.46 s at n = 18, 1.17 s at n = 19).
MAX_STRATEGY_N = 18

#: Decoder truth tables, as (answer when received 0, answer when received 1).
DECODER_CONSTANT_0 = (0, 0)
DECODER_CONSTANT_1 = (1, 1)
DECODER_IDENTITY = (0, 1)
DECODER_NEGATION = (1, 0)

DECODERS = (DECODER_CONSTANT_0, DECODER_CONSTANT_1, DECODER_IDENTITY, DECODER_NEGATION)


@dataclass(frozen=True)
class PureClassicalStrategy:
    """A deterministic strategy: an encoding table and one decoder per position.

    `encode[x]` is the transmitted bit for input index x; `decode[i]` is the
    truth table (answer on 0, answer on 1) used when position i+1 is asked.
    `n` is kept as the Python int errors._at_least reads.
    """

    n: int
    encode: tuple[int, ...]
    decode: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _at_least(self.n, 1, "n"))
        if len(self.encode) != 1 << self.n:
            raise ValueError(f"encode table must have {1 << self.n} entries, got {len(self.encode)}")
        if any(b not in (0, 1) for b in self.encode):
            raise ValueError("encode table entries must be 0 or 1")
        if len(self.decode) != self.n:
            raise ValueError(f"need one decoder per position, got {len(self.decode)} for n = {self.n}")
        if any(d not in DECODERS for d in self.decode):
            raise ValueError(f"decoders must be one of {DECODERS}, got {self.decode!r}")

    @classmethod
    def majority(cls, n: int) -> PureClassicalStrategy:
        """Send the majority bit, ties resolved to 0; every decoder is identity."""
        n = _at_least(n, 1, "n")
        if n > MAX_STRATEGY_N:
            raise CostLimitError(f"the encoding table has 2**{n} entries", "n", n, MAX_STRATEGY_N)
        encode = tuple(
            1 if 2 * value.bit_count() > n else 0 for value in range(1 << n)
        )
        return cls(n, encode, (DECODER_IDENTITY,) * n)

    def success_probability(self) -> Fraction:
        """Exact success probability over uniform input and uniform position."""
        hits = 0
        for value, sent in enumerate(self.encode):
            for i in range(self.n):
                if self.decode[i][sent] == (value >> i) & 1:
                    hits += 1
        return Fraction(hits, self.n << self.n)


def optimal_classical_probability(n: int) -> Fraction:
    """Best achievable success probability, exactly: 1/2 + C(n-1, floor((n-1)/2)) / 2^n."""
    n = _at_least(n, 1, "n")
    if n > MAX_CLASSICAL_N:
        k = (n - 1) // 2
        bits = (math.lgamma(n) - math.lgamma(k + 1) - math.lgamma(n - k)) / math.log(2.0)
        cost = f"the exact value needs C({n - 1}, {k}), a binomial of about {int(bits) + 1} bits"
        raise CostLimitError(cost, "n", n, MAX_CLASSICAL_N)
    return Fraction(1, 2) + Fraction(math.comb(n - 1, (n - 1) // 2), 1 << n)


def majority_strategy_probability(n: int) -> Fraction:
    """Success probability of the majority-bit strategy, via explicit counting sums.

    For odd n = 2m+1 the majority is never tied and the probability is
    2 * sum_{i=m+1}^{2m+1} i*C(2m+1, i) / ((2m+1) * 2^(2m+1)).  For even
    n = 2m ties are resolved to 0, which recovers exactly half of the tied
    weight: (2 * sum_{i=m+1}^{2m} i*C(2m, i) + m*C(2m, m)) / (2m * 2^(2m)).
    """
    n = _at_least(n, 1, "n")
    if n > MAX_MAJORITY_N:
        cost = f"the counting sums add {n // 2 + 1} binomials of up to {n} bits"
        raise CostLimitError(cost, "n", n, MAX_MAJORITY_N)
    m = n // 2
    total = 2 * sum(i * math.comb(n, i) for i in range(m + 1, n + 1))
    if n % 2 == 0:
        total += m * math.comb(n, m)
    return Fraction(total, n << n)


def counting_identity_check(m: int) -> bool:
    """Verify the two binomial sums behind majority_strategy_probability at m.

    Checks sum_{i=m+1}^{2m+1} i*C(2m+1, i) == (2m+1) * (2^(2m-1) + C(2m, m)/2)
    and sum_{i=m+1}^{2m} i*C(2m, i) == m * 2^(2m-1), both exactly.
    """
    m = _at_least(m, 1, "m")
    if m > MAX_COUNTING_M:
        cost = f"the identity sums add {2 * m + 1} binomials of up to {2 * m + 1} bits"
        raise CostLimitError(cost, "m", m, MAX_COUNTING_M)
    odd_sum = sum(i * math.comb(2 * m + 1, i) for i in range(m + 1, 2 * m + 2))
    # C(2m, m) is even for m >= 1, so the halving below is exact.
    odd_closed = (2 * m + 1) * ((1 << (2 * m - 1)) + math.comb(2 * m, m) // 2)
    even_sum = sum(i * math.comb(2 * m, i) for i in range(m + 1, 2 * m + 1))
    even_closed = m << (2 * m - 1)
    return odd_sum == odd_closed and even_sum == even_closed


def classical_asymptotic(n: int) -> float:
    """Leading-order approximation 1/2 + 1/sqrt(2*pi*n) to the optimal probability."""
    n = _at_least(n, 1, "n")
    return 0.5 + 1.0 / math.sqrt(2.0 * math.pi * n)


def classical_bounds(n: int) -> tuple[float, float]:
    """Rigorous bracket (lower, upper) around the optimal probability for n >= 2.

    Both sides come from two-sided factorial estimates applied to the central
    binomial coefficient in optimal_classical_probability; the bracket is
    strict for every n >= 2.
    """
    n = _integer(n)
    if n < 2:
        raise ValueError(f"bounds need n >= 2, got {n}")
    if n % 2 == 1:
        base = 1.0 / math.sqrt(2.0 * math.pi * (n - 1))
        lower = base * math.exp(1.0 / (12 * n - 11) - 2.0 / (6 * n - 6))
        upper = base * math.exp(1.0 / (12 * n - 12) - 2.0 / (6 * n - 5))
    else:
        base = 1.0 / math.sqrt(2.0 * math.pi * n)
        lower = base * math.exp(1.0 / (12 * n + 1) - 2.0 / (6 * n))
        upper = base * math.exp(1.0 / (12 * n) - 2.0 / (6 * n + 1))
    return 0.5 + lower, 0.5 + upper


def brute_force_optimal(n: int) -> Fraction:
    """Exact optimum by enumerating every encoding table; limited to n <= 4.

    For each of the 2^(2^n) encoding tables and each position the best of the
    four decoders answers correctly on max(o0, o1) + (rest tied to the sent
    bit) inputs, which works out per position to half + |o1 - o0| correct
    answers out of 2^n, where o1 counts inputs with that position set that
    are encoded to 1.
    """
    n = _at_least(n, 1, "n")
    if n > MAX_BRUTE_FORCE:
        raise CostLimitError("brute force enumerates 2**(2**n) tables", "n", n, MAX_BRUTE_FORCE)
    tables = np.arange(1 << (1 << n), dtype=np.uint32)
    half = 1 << (n - 1)
    total = np.zeros_like(tables, dtype=np.int64)
    for i in range(n):
        mask = np.uint32(sum(1 << v for v in range(1 << n) if (v >> i) & 1))
        ones = np.bitwise_count(tables & mask).astype(np.int64)
        zeros = np.bitwise_count(tables & ~mask).astype(np.int64)
        total += half + np.abs(ones - zeros)
    return Fraction(int(total.max()), n << n)
