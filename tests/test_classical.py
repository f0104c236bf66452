"""Classical strategies: exact optima, counting identities, Stirling brackets."""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from qrac.classical import (
    DECODERS,
    PureClassicalStrategy,
    brute_force_optimal,
    classical_asymptotic,
    classical_bounds,
    counting_identity_check,
    majority_strategy_probability,
    MAX_CLASSICAL_N,
    MAX_COUNTING_M,
    MAX_MAJORITY_N,
    MAX_STRATEGY_N,
    optimal_classical_probability,
)
from qrac.codes import _key_indices, bit_text
from qrac.errors import CostLimitError


def exhaustive_optimum(n: int) -> Fraction:
    """Independent oracle: scan every encoding table, pick the best decoder per bit.

    Pure-python bit twiddling, no shared code with the implementation.
    """
    best = 0
    strings = list(itertools.product((0, 1), repeat=n))
    for encoding in itertools.product((0, 1), repeat=1 << n):
        hits = 0
        for pos in range(n):
            agree = sum(1 for idx, x in enumerate(strings) if encoding[idx] == x[pos])
            # decoder may pass the bit through or negate it (or ignore it)
            hits += max(agree, (1 << n) - agree)
        best = max(best, hits)
    return Fraction(best, n << n)


def test_known_exact_values():
    assert optimal_classical_probability(1) == Fraction(1)
    assert optimal_classical_probability(2) == Fraction(3, 4)
    assert optimal_classical_probability(3) == Fraction(3, 4)
    assert optimal_classical_probability(4) == Fraction(11, 16)
    assert optimal_classical_probability(5) == Fraction(11, 16)
    assert optimal_classical_probability(6) == Fraction(21, 32)


def test_closed_form_formula_direct():
    for n in range(1, 80):
        m = n - 1
        expected = Fraction(1, 2) + Fraction(math.comb(m, m // 2), 1 << n)
        assert optimal_classical_probability(n) == expected


def test_pairs_of_lengths_share_the_same_optimum():
    for m in range(1, 31):
        assert optimal_classical_probability(2 * m) == optimal_classical_probability(2 * m + 1)


def test_validation():
    with pytest.raises(ValueError):
        optimal_classical_probability(0)
    with pytest.raises(ValueError):
        majority_strategy_probability(0)


def test_majority_sum_matches_closed_form():
    for n in range(1, 61):
        assert majority_strategy_probability(n) == optimal_classical_probability(n)


def test_counting_identities():
    for m in range(1, 31):
        assert counting_identity_check(m)
    with pytest.raises(ValueError):
        counting_identity_check(0)


def test_brute_force_matches_closed_form_and_oracle():
    for n in range(1, 4):
        value = brute_force_optimal(n)
        assert value == optimal_classical_probability(n)
        assert value == exhaustive_optimum(n)
    assert brute_force_optimal(4) == Fraction(11, 16)


def test_brute_force_cost_guard():
    with pytest.raises(CostLimitError):
        brute_force_optimal(5)


def test_exact_optimum_cost_guard_states_bit_length():
    # log2 C(m, m/2) = m - log2(pi*m/2)/2 + O(1/m): 999,990 bits at m = 10**6
    message = "about 999990 bits; n = 1000001 exceeds the limit 1000000"
    with pytest.raises(CostLimitError, match=message):
        optimal_classical_probability(MAX_CLASSICAL_N + 1)
    with pytest.raises(CostLimitError, match="about 3999988 bits"):
        optimal_classical_probability(4 * MAX_CLASSICAL_N)


def test_majority_sum_cost_guard():
    message = "add 2501 binomials of up to 5001 bits; n = 5001 exceeds the limit 5000"
    with pytest.raises(CostLimitError, match=message):
        majority_strategy_probability(MAX_MAJORITY_N + 1)
    with pytest.raises(CostLimitError):  # refused before any work, or this would not return
        majority_strategy_probability(10**9)


def test_counting_identity_cost_guard():
    message = "add 4003 binomials of up to 4003 bits; m = 2001 exceeds the limit 2000"
    with pytest.raises(CostLimitError, match=message):
        counting_identity_check(MAX_COUNTING_M + 1)
    with pytest.raises(CostLimitError):
        counting_identity_check(10**9)


def test_strategy_table_cost_guard():
    message = "the encoding table has 2\\*\\*19 entries; n = 19 exceeds the limit 18"
    with pytest.raises(CostLimitError, match=message):
        PureClassicalStrategy.majority(MAX_STRATEGY_N + 1)
    with pytest.raises(CostLimitError):  # refused before the table is built
        PureClassicalStrategy.majority(10**9)


def test_majority_strategy_object_agrees_with_sum():
    for n in range(1, 7):
        strategy = PureClassicalStrategy.majority(n)
        assert strategy.success_probability() == majority_strategy_probability(n)


def test_strategy_success_probability_by_hand():
    # n = 1 identity strategy is perfect.
    perfect = PureClassicalStrategy(
        n=1, encode=(0, 1), decode=((0, 1),)
    )
    assert perfect.success_probability() == Fraction(1)
    # negation decoder undoes a flipped encoding
    flipped = PureClassicalStrategy(n=1, encode=(1, 0), decode=((1, 0),))
    assert flipped.success_probability() == Fraction(1)
    # constant decoders hit half the cases
    constant = PureClassicalStrategy(n=1, encode=(0, 1), decode=((0, 0),))
    assert constant.success_probability() == Fraction(1, 2)


def test_strategy_validation():
    with pytest.raises(ValueError):
        PureClassicalStrategy(n=2, encode=(0, 1), decode=((0, 1), (0, 1)))
    with pytest.raises(ValueError):
        PureClassicalStrategy(n=1, encode=(0, 2), decode=((0, 1),))
    with pytest.raises(ValueError):
        PureClassicalStrategy(n=2, encode=(0, 1, 0, 1), decode=((0, 1),))
    refusal = "decoders must be one of ((0, 0), (1, 1), (0, 1), (1, 0)), got ((0, 2),)"
    with pytest.raises(ValueError, match=re.escape(refusal)):
        PureClassicalStrategy(n=1, encode=(0, 1), decode=((0, 2),))


def test_decoder_table_contents():
    assert (0, 1) in DECODERS and (1, 0) in DECODERS
    assert (0, 0) in DECODERS and (1, 1) in DECODERS
    assert len(DECODERS) == 4


def test_bitstring_round_trips():
    # bit_text and the document key parser invert each other on every index
    for n in range(1, 9):
        texts = [bit_text(index, n) for index in range(1 << n)]
        assert all(len(text) == n and not text.strip("01") for text in texts), n
        assert [int(text[::-1], 2) for text in texts] == list(range(1 << n)), n
        assert np.array_equal(_key_indices(texts, n, "encoding key"), np.arange(1 << n)), n


def test_bitstring_text_uses_leftmost_first_bit():
    # x1 is the leftmost character and bit 0 of the index
    assert (bit_text(1, 2), bit_text(6, 4)) == ("10", "0110")
    assert _key_indices(["10", "01"], 2, "encoding key").tolist() == [1, 2]
    assert _key_indices(["0110"], 4, "encoding key").tolist() == [6]


def test_bitstring_validation():
    with pytest.raises(ValueError, match="'01a'"):
        _key_indices(["010", "01a"], 3, "encoding key")
    assert bit_text(4, 2) == "001"  # an index beyond n bits gives a longer text, which
    with pytest.raises(ValueError, match="'001'"):  # the parser refuses
        _key_indices([bit_text(4, 2)], 2, "encoding key")


def test_asymptotic_examples():
    assert classical_asymptotic(2) == pytest.approx(0.7820948, abs=1e-7)
    assert classical_asymptotic(100) == pytest.approx(0.5398942, abs=1e-7)


def test_asymptotic_converges_from_above_relative():
    # ratio of (p - 1/2) to 1/sqrt(2 pi n) tends to 1
    for n, slack in ((1_000, 2e-3), (100_000, 2e-5)):
        exact = float(optimal_classical_probability(n)) - 0.5
        approx = classical_asymptotic(n) - 0.5
        assert exact / approx == pytest.approx(1.0, abs=slack)


def test_bounds_bracket_exact_value():
    for n in range(2, 41):
        lower, upper = classical_bounds(n)
        exact = float(optimal_classical_probability(n))
        assert lower < exact < upper, f"bracket failed at n={n}: {lower} {exact} {upper}"


def test_bounds_specific_values():
    lower, upper = classical_bounds(4)
    assert lower < 0.6875 < upper
    lower, upper = classical_bounds(5)
    assert lower < 0.6875 < upper
    with pytest.raises(ValueError):
        classical_bounds(1)


def test_bounds_tighten_with_n():
    widths = [classical_bounds(n)[1] - classical_bounds(n)[0] for n in range(2, 30)]
    assert all(w > 0 for w in widths)
    assert widths[-1] < widths[0]
