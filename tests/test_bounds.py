"""Lower bounds: Monte-Carlo walk, closed-form lattice walk, axis splits."""

from __future__ import annotations

import math
import threading
import tracemalloc

import numpy as np
import pytest

from qrac import bounds
from qrac.bounds import (
    ASYMPTOTIC_VALID_FROM,
    MAX_LATTICE_WALK,
    WalkEstimate,
    _axis_terms,
    best_axis_split,
    lattice_walk_distance,
    orthogonal_lower_bound,
    random_lower_bound_asymptotic,
    random_walk_distance_mc,
)
from qrac.codes import upper_bound
from qrac.errors import CostLimitError, _philox_at

from helpers import (
    dense_lattice_walk_distance,
    reference_lattice_walk_distance,
    reference_random_walk_distance_mc,
)

TABLE_ASYMPTOTIC = {
    2: 0.825735,
    3: 0.765962,
    4: 0.730329,
    5: 0.706013,
    6: 0.688063,
    7: 0.674113,
    8: 0.662868,
    9: 0.653553,
}

TABLE_ORTHOGONAL = {
    2: 0.853553,
    3: 0.788675,
    4: 0.741481,
    5: 0.711803,
    6: 0.686973,
    7: 0.677458,
    8: 0.666270,
    9: 0.656893,
}


def two_step_mean_distance_quadrature() -> float:
    """Oracle: E||v1 + v2|| for uniform directions via 1-D quadrature.

    The cosine of the angle between two uniform directions is uniform on
    [-1, 1], so the mean distance is the integral of sqrt(2 + 2c)/2.
    """
    c = np.linspace(-1.0, 1.0, 200_001)
    return float(np.trapezoid(np.sqrt(2.0 + 2.0 * c), c) / 2.0)


def enumerated_axis_distance(x: int, y: int, z: int) -> float:
    """Oracle: mean distance over all sign patterns by explicit enumeration."""
    n = x + y + z
    signs = 1.0 - 2.0 * ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1)
    sx = signs[:, :x].sum(axis=1)
    sy = signs[:, x : x + y].sum(axis=1)
    sz = signs[:, x + y :].sum(axis=1)
    return float(np.sqrt(sx**2 + sy**2 + sz**2).mean())


def test_quadrature_oracle_equals_four_thirds():
    # trapezoid error is h^(3/2)-limited by the root singularity at c = -1
    assert two_step_mean_distance_quadrature() == pytest.approx(4 / 3, abs=1e-7)


def test_mc_two_steps_matches_quadrature():
    estimate = random_walk_distance_mc(2, trials=200_000, seed=5)
    target = two_step_mean_distance_quadrature()
    assert abs(estimate.mean_distance - target) < 4 * estimate.std_error
    assert estimate.probability == pytest.approx(
        0.5 * (1 + estimate.mean_distance / 2), abs=1e-15
    )


def test_mc_single_step_is_exact():
    estimate = random_walk_distance_mc(1, trials=10, seed=0)
    assert estimate.mean_distance == 1.0
    assert estimate.std_error == 0.0
    assert estimate.probability == 1.0


def test_mc_determinism_and_fields():
    a = random_walk_distance_mc(3, trials=50_000, seed=42)
    b = random_walk_distance_mc(3, trials=50_000, seed=42)
    assert a.mean_distance == b.mean_distance
    assert a.std_error == b.std_error
    assert a.trials == 50_000 and a.seed == 42 and a.n == 3
    c = random_walk_distance_mc(3, trials=50_000, seed=43)
    assert c.mean_distance != a.mean_distance


def test_mc_mean_below_jensen_cap():
    # E||sum||^2 = n exactly, so the mean distance cannot exceed sqrt(n)
    for n in (2, 3, 5, 8):
        estimate = random_walk_distance_mc(n, trials=40_000, seed=1)
        assert estimate.mean_distance <= math.sqrt(n)


def test_mc_validation():
    with pytest.raises(ValueError):
        random_walk_distance_mc(0, trials=10, seed=0)
    with pytest.raises(ValueError):
        random_walk_distance_mc(2, trials=0, seed=0)
    # integers only: a bool is not read as n = 1, nor a float passed to numpy
    for n, trials in ((True, 10), (2.0, 10), (2, True), (2, 10.0), (np.True_, 10)):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            random_walk_distance_mc(n, trials=trials, seed=0)
    assert random_walk_distance_mc(np.int64(2), trials=np.int64(10), seed=0).trials == 10


def test_mc_seed_must_be_a_64_bit_key():
    # refused before the n = 1 shortcut, as simulate_code refuses it
    for n in (1, 2):
        for seed in (-1, 2**64):
            with pytest.raises(ValueError, match="seed must lie in 0..2\\*\\*64 - 1"):
                random_walk_distance_mc(n, trials=10, seed=seed)
        for seed in (2.5, True, False):
            with pytest.raises(TypeError):
                random_walk_distance_mc(n, trials=10, seed=seed)
        assert random_walk_distance_mc(n, trials=10, seed=2**64 - 1).seed == 2**64 - 1


@pytest.mark.parametrize(("n", "trials"), [(2, 2**18 + 3), (7, 10_001), (12, 300_001), (32, 5_000)])
def test_mc_does_not_depend_on_the_worker_count(n, trials, monkeypatch):
    walk_lengths = bounds._walk_lengths
    walkers = set()

    def spy(z_stream, phi_stream, lengths, n):
        walkers.add(threading.get_ident())
        walk_lengths(z_stream, phi_stream, lengths, n)

    monkeypatch.setattr(bounds, "_walk_lengths", spy)
    threads_before = threading.active_count()
    estimates = {}
    for workers in (1, 2, 3, 5):
        monkeypatch.setattr(bounds, "_walk_workers", lambda: workers)
        walkers.clear()
        estimates[workers] = random_walk_distance_mc(n, trials, seed=17)
        assert (len(walkers) > 1) == (workers > 1), (workers, len(walkers))
        assert threading.active_count() == threads_before  # no worker outlives the call
    assert all(estimate == estimates[1] for estimate in estimates.values()), estimates


def test_mc_worker_error_is_raised_after_every_worker_is_joined(monkeypatch):
    walk_lengths = bounds._walk_lengths
    main = threading.get_ident()

    def failing(z_stream, phi_stream, lengths, n):
        if threading.get_ident() != main:
            raise RuntimeError("worker failed")
        walk_lengths(z_stream, phi_stream, lengths, n)

    monkeypatch.setattr(bounds, "_walk_lengths", failing)
    monkeypatch.setattr(bounds, "_walk_workers", lambda: 3)
    threads_before = threading.active_count()
    with pytest.raises(RuntimeError, match="worker failed"):
        random_walk_distance_mc(2, 2**16, seed=0)
    assert threading.active_count() == threads_before


@pytest.mark.parametrize("seed", [0, 2**62 + 1])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 8, 12])
def test_mc_matches_row_reducing_reference_bitwise(n, seed):
    # n = 1 is the early return; 7 and 8 straddle the switch from the column
    # loop to numpy's row reduction; the trial counts cover one trial and
    # both sides of the block edge
    for trials in (1, 7, 2**18, 2**18 + 1, 300_001):
        estimate = random_walk_distance_mc(n, trials, seed)
        expected = reference_random_walk_distance_mc(n, trials, seed)
        assert (estimate.mean_distance, estimate.std_error) == expected, (n, trials, seed)


def test_philox_at_reads_the_stream_from_any_word():
    # the walk reads key (seed, 0), Philox(key=seed), and a simulator cell
    # (seed, cell); one generator is placed at every key and word in turn, as
    # the simulator reuses one, so state left from the last placement shows
    bits = np.random.Philox(key=0)
    for seed in (0, 2**62 + 1, 2**64 - 1):
        references = {0: np.random.Philox(key=seed)}
        for cell in (6, 2**64 - 1):
            references[cell] = np.random.Philox(key=np.array([seed, cell], dtype=np.uint64))
        for cell, reference in references.items():
            words = reference.random_raw((1 << 20) + 12)
            for word in (0, 1, 2, 3, 4, 5, (1 << 20) + 3, 2):
                drawn = _philox_at(bits, (seed, cell), word).random_raw(9)
                assert np.array_equal(drawn, words[word : word + 9]), (seed, cell, word)
                bits.random_raw(3)  # a part-read buffer for the next placement


@pytest.mark.parametrize(("n", "trials"), [(2, 10**6), (32, 200_000)])
def test_mc_memory_does_not_grow_with_n_or_trials(n, trials):
    # one 2 MiB block of lengths plus sub-block scratch; drawing a whole
    # block at once took 18 MiB at n = 2 and 151 MiB at n = 32
    tracemalloc.start()
    try:
        random_walk_distance_mc(n, trials, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak


def test_mc_guard_spares_the_exact_single_step():
    # n = 1 consumes no randomness, so no trial count is refused
    assert random_walk_distance_mc(1, trials=10**12, seed=0).mean_distance == 1.0


def test_asymptotic_formula_values():
    for n, expected in TABLE_ASYMPTOTIC.items():
        assert random_lower_bound_asymptotic(n) == pytest.approx(expected, abs=1e-6)
    assert ASYMPTOTIC_VALID_FROM == 4


def test_asymptotic_agrees_with_mc_for_large_n():
    for n in (16, 32):
        estimate = random_walk_distance_mc(n, trials=200_000, seed=9)
        formula = random_lower_bound_asymptotic(n)
        # the 1/n correction term is below half a percent here
        assert estimate.probability == pytest.approx(formula, abs=2e-3)


def test_lattice_walk_simple_cases():
    assert lattice_walk_distance(1, 0, 0) == pytest.approx(1.0)
    assert lattice_walk_distance(1, 1, 0) == pytest.approx(math.sqrt(2), abs=1e-12)
    assert lattice_walk_distance(2, 0, 0) == pytest.approx(1.0)  # half cancel, half reach 2


def test_lattice_walk_matches_enumeration_everywhere():
    for n in range(1, 13):
        for x in range(n + 1):
            for y in range(n - x + 1):
                z = n - x - y
                closed = lattice_walk_distance(x, y, z)
                brute = enumerated_axis_distance(x, y, z)
                assert closed == pytest.approx(brute, abs=1e-10), (x, y, z)


def test_lattice_walk_validation():
    with pytest.raises(ValueError):
        lattice_walk_distance(0, 0, 0)
    with pytest.raises(ValueError):
        lattice_walk_distance(-1, 2, 0)
    with pytest.raises(CostLimitError, match="int64 weights up to 2\\*\\*61"):
        lattice_walk_distance(30, 30, 1)


def test_lattice_walk_matches_reference_bitwise():
    for n in range(1, 25):
        for x in range(n + 1):
            for y in range(n - x + 1):
                z = n - x - y
                assert lattice_walk_distance(x, y, z) == reference_lattice_walk_distance(x, y, z)


def test_folded_lattice_walk_matches_dense_bitwise():
    # int64 overflow would wrap silently, so every split up to the guard is
    # compared exactly, permutations included; the extremes carry the largest
    # multiplicity x weight products
    for split in [(60, 0, 0), (0, 0, 60), (30, 30, 0), (20, 20, 20)]:
        assert lattice_walk_distance(*split) == dense_lattice_walk_distance(*split), split
    # the dense sum rounds the same multiset of terms for every permutation
    # of a split, so it is computed once per sorted split
    dense: dict[tuple[int, ...], float] = {}
    calls = 0
    for n in range(1, MAX_LATTICE_WALK + 1):
        for x in range(n + 1):
            for y in range(n - x + 1):
                split = (x, y, n - x - y)
                key = tuple(sorted(split))
                if key not in dense:
                    dense[key] = dense_lattice_walk_distance(*key)
                assert lattice_walk_distance(*split) == dense[key], split
                calls += 1
    assert calls == 39_710


def test_axis_terms_cache_is_bounded_and_read_only():
    for n in range(1, MAX_LATTICE_WALK + 1):
        best_axis_split(n)
    size = _axis_terms.cache_info().currsize
    assert size <= MAX_LATTICE_WALK + 1
    for m in (0, 1, 2, 31, MAX_LATTICE_WALK):
        for table in _axis_terms(m):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = 0
    # the guard refuses before any table is built
    size = _axis_terms.cache_info().currsize
    with pytest.raises(CostLimitError):
        lattice_walk_distance(MAX_LATTICE_WALK + 1, 0, 0)
    assert _axis_terms.cache_info().currsize == size


def test_axis_bounds_match_reference_bitwise():
    # the dense sum is the reference here, several times faster over this scan:
    # the tests above tie lattice_walk_distance to it at every split up to the
    # guard, and to the term-by-term Python sum up to n = 24
    for n in range(1, MAX_LATTICE_WALK + 1):
        split = orthogonal_lower_bound(n)[1]
        assert orthogonal_lower_bound(n)[0] == 0.5 * (1.0 + dense_lattice_walk_distance(*split) / n)
        scan = [
            (0.5 * (1.0 + dense_lattice_walk_distance(x, y, n - x - y) / n), (x, y, n - x - y))
            for x in range((n + 2) // 3, n + 1)
            for y in range((n - x + 1) // 2, min(x, n - x) + 1)
        ]
        # the first maximum in scan order, as best_axis_split keeps it
        assert best_axis_split(n) == max(scan, key=lambda entry: entry[0]), n


def test_plain_sums_of_the_splits_stay_within_their_error():
    # best_axis_split screens by plain float sums with a 1e-9 relative margin;
    # that is sound only while each plain sum is far closer to its exact sum
    scanned = 0
    for n in range(1, MAX_LATTICE_WALK + 1):
        for x in range((n + 2) // 3, n + 1):
            for y in range((n - x + 1) // 2, min(x, n - x) + 1):
                terms = bounds._walk_terms(x, y, n - x - y)
                exact = math.fsum(terms.ravel().tolist())
                assert abs(float(terms.sum()) - exact) <= 1e-12 * exact, (x, y, n - x - y)
                scanned += 1
    assert scanned == 7_105


def test_best_axis_split_walks_only_the_screened_splits(monkeypatch):
    expected = best_axis_split(MAX_LATTICE_WALK)
    walk = bounds.lattice_walk_distance
    walked = []

    def counted(x, y, z):
        walked.append((x, y, z))
        return walk(x, y, z)

    monkeypatch.setattr(bounds, "lattice_walk_distance", counted)
    assert best_axis_split(MAX_LATTICE_WALK) == expected
    assert 1 <= len(walked) <= 3, walked  # of 331 splits


def test_orthogonal_lower_bound_table():
    for n, expected in TABLE_ORTHOGONAL.items():
        value, split = orthogonal_lower_bound(n)
        assert value == pytest.approx(expected, abs=5e-7)
        assert sum(split) == n
        assert max(split) - min(split) <= 1


def test_orthogonal_lower_bound_splits():
    assert orthogonal_lower_bound(1) == (1.0, (1, 0, 0))
    assert orthogonal_lower_bound(4)[1] == (2, 1, 1)
    assert orthogonal_lower_bound(6)[1] == (2, 2, 2)
    assert orthogonal_lower_bound(9)[1] == (3, 3, 3)


def test_orthogonal_lower_bound_validation():
    with pytest.raises(ValueError):
        orthogonal_lower_bound(0)
    with pytest.raises(CostLimitError):
        orthogonal_lower_bound(61)


def test_orthogonal_value_equals_lattice_walk():
    for n in range(1, 25):
        value, (x, y, z) = orthogonal_lower_bound(n)
        assert value == pytest.approx(0.5 * (1 + lattice_walk_distance(x, y, z) / n), abs=1e-14)


def test_best_axis_split_dominates_even_split():
    for n in range(1, 31):
        best_value, best_split = best_axis_split(n)
        even_value, _ = orthogonal_lower_bound(n)
        assert best_value >= even_value - 1e-15
        assert sum(best_split) == n
        assert best_split[0] >= best_split[1] >= best_split[2]


def test_uneven_splits_win_for_known_lengths():
    # regression: the exhaustive split beats the even one exactly at these n
    strictly_better = [
        n
        for n in range(2, 31)
        if best_axis_split(n)[0] > orthogonal_lower_bound(n)[0] + 1e-12
    ]
    assert strictly_better == [5, 6, 7, 11, 12, 13, 17, 18, 19, 23, 24, 25, 29, 30]
    assert best_axis_split(5)[1] == (3, 1, 1)
    assert best_axis_split(6)[1] == (3, 2, 1)
    assert best_axis_split(7)[1] == (3, 3, 1)


def test_all_lower_bounds_below_upper_bound():
    for n in range(1, 61):
        cap = upper_bound(n)
        assert orthogonal_lower_bound(n)[0] <= cap + 1e-12
        assert best_axis_split(n)[0] <= cap + 1e-12
        if n >= 2:
            assert random_lower_bound_asymptotic(n) <= cap + 1e-12


def test_orthogonal_vs_asymptotic_crossover():
    # the even-split bound dips below the random-direction asymptote only at n=6
    exceptions = [
        n
        for n in range(2, 31)
        if orthogonal_lower_bound(n)[0] < random_lower_bound_asymptotic(n)
    ]
    assert exceptions == [6]


def test_walk_estimate_probability_error_scaling():
    estimate = random_walk_distance_mc(4, trials=30_000, seed=2)
    assert isinstance(estimate, WalkEstimate)
    assert 0 < estimate.std_error < 0.01
