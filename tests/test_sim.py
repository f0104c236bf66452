"""Monte-Carlo protocol simulation: sampling, randomization, determinism."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from qrac.bloch import BlochVector, Measurement
from qrac.classical import BitString
from qrac.codes import evaluate, optimal_code
from qrac.constructions import known_code
from qrac.errors import CostLimitError
from qrac.sim import MAX_CELL_TRIALS, SimReport, _uniform_shifts, sample_measurement, simulate_code

from helpers import reference_uniform_shifts

X = Measurement(BlochVector(1.0, 0.0, 0.0))
Z = Measurement(BlochVector(0.0, 0.0, 1.0))


def test_sample_measurement_aligned_states():
    rng = np.random.default_rng(0)
    direction = BlochVector.normalized(1.0, 1.0, 1.0)
    m = Measurement(direction)
    assert all(sample_measurement(direction, m, rng) == 0 for _ in range(50))
    assert all(sample_measurement(-direction, m, rng) == 1 for _ in range(50))


def test_sample_measurement_perpendicular_is_fair():
    rng = np.random.default_rng(123)
    state = BlochVector(1.0, 0.0, 0.0)
    draws = 1_000_000
    zeros = sum(1 for _ in range(draws) if sample_measurement(state, Z, rng) == 0)
    assert zeros / draws == pytest.approx(0.5, abs=0.002)  # 4 sigma


def test_sample_measurement_stream_deterministic():
    state = BlochVector.normalized(0.3, 0.4, 0.5)
    a = [sample_measurement(state, Z, np.random.default_rng(9)) for _ in range(1)]
    b = [sample_measurement(state, Z, np.random.default_rng(9)) for _ in range(1)]
    assert a == b


def test_single_bit_code_is_perfect():
    code = optimal_code((Z,))
    for randomize in (False, True):
        report = simulate_code(code, trials_per_input=500, seed=4, randomize=randomize)
        assert report.average == 1.0
        assert report.worst_case == 1.0
        assert report.spread == 0.0


def test_report_fields_and_accessor():
    code = known_code("qrac2")
    report = simulate_code(code, trials_per_input=1000, seed=8, randomize=False)
    assert isinstance(report, SimReport)
    assert report.n == 2
    assert report.trials_per_input == 1000
    assert report.seed == 8
    assert not report.randomized
    assert report.frequencies.shape == (4, 2)
    assert not report.frequencies.flags.writeable
    s = BitString.from_text("10")
    assert report.frequency(s, 2) == report.frequencies[s.index, 1]
    with pytest.raises(ValueError):
        report.frequency(s, 0)
    assert 0.0 <= report.worst_case <= report.average <= 1.0


def test_trials_validation():
    with pytest.raises(ValueError):
        simulate_code(known_code("qrac2"), trials_per_input=0, seed=0)


def test_uniform_shifts_match_reference_draw_for_draw():
    for n in (1, 2, 3, 5, 9, 12):
        for trials in (1, 7, 500):
            rng, ref = (np.random.Generator(np.random.Philox(key=[n, trials])) for _ in range(2))
            assert np.array_equal(_uniform_shifts(rng, n, trials), reference_uniform_shifts(ref, n, trials))
            # Philox keeps its counter and buffers as arrays; compare them as JSON
            state, ref_state = (
                json.dumps(g.bit_generator.state, default=np.ndarray.tolist, sort_keys=True)
                for g in (rng, ref)
            )
            assert state == ref_state, (n, trials)


def test_cell_trial_guard_states_the_cost():
    trials = MAX_CELL_TRIALS // 8 + 1  # qrac2 has 2**2 * 2 = 8 cells
    with pytest.raises(CostLimitError, match=f"2\\*\\*2 \\* 2 \\* {trials} = {8 * trials} cell-trials"):
        simulate_code(known_code("qrac2"), trials_per_input=trials, seed=0)
    assert (1 << 6) * 6 * 100_000 <= MAX_CELL_TRIALS  # the largest run in this file


def test_seed_determinism():
    code = known_code("qrac3")
    a = simulate_code(code, trials_per_input=2000, seed=13, randomize=True)
    b = simulate_code(code, trials_per_input=2000, seed=13, randomize=True)
    assert np.array_equal(a.frequencies, b.frequencies)
    c = simulate_code(code, trials_per_input=2000, seed=14, randomize=True)
    assert not np.array_equal(a.frequencies, c.frequencies)


def test_non_randomized_cells_track_exact_probabilities():
    code = known_code("qrac2")
    exact = evaluate(code)
    trials = 20_000
    report = simulate_code(code, trials_per_input=trials, seed=3, randomize=False)
    for index in range(4):
        for pos in range(2):
            p = exact.per_input[index, pos]
            sigma = math.sqrt(p * (1 - p) / trials)
            assert abs(report.frequencies[index, pos] - p) <= 4 * sigma + 1e-9


def test_non_randomized_average_within_four_sigma():
    for name in ("qrac3", "sym4"):
        code = known_code(name)
        exact = evaluate(code)
        trials = 10_000
        report = simulate_code(code, trials_per_input=trials, seed=6, randomize=False)
        cells = exact.per_input.size
        sigma_avg = math.sqrt(float((exact.per_input * (1 - exact.per_input)).sum())) / (
            cells * math.sqrt(trials)
        )
        assert abs(report.average - exact.average) <= 4 * sigma_avg


def test_qrac4_unrandomized_worst_case_is_a_coin_flip():
    # two of the stored bits share an axis, and their conflict rounds to 1/2
    code = known_code("qrac4")
    trials = 20_000
    report = simulate_code(code, trials_per_input=trials, seed=2, randomize=False)
    sigma = math.sqrt(0.25 / trials)
    assert abs(report.worst_case - 0.5) <= 4 * sigma


def test_randomization_flattens_every_cell():
    # with shared randomness each cell estimates the deterministic average
    code = known_code("qrac4")
    trials = 50_000
    average = evaluate(code).average
    report = simulate_code(code, trials_per_input=trials, seed=1, randomize=True)
    sigma = math.sqrt(average * (1 - average) / trials)
    deviations = np.abs(report.frequencies - average)
    assert float(deviations.max()) <= 5 * sigma
    assert report.randomized


def test_randomized_qrac2_cells_near_analytic_value():
    report = simulate_code(known_code("qrac2"), trials_per_input=100_000, seed=0, randomize=True)
    assert np.all(np.abs(report.frequencies - 0.853553) < 0.006)


def test_randomized_spread_small_for_named_codes():
    for name in ("qrac2", "qrac3", "qrac4", "qrac5", "qrac6"):
        report = simulate_code(
            known_code(name), trials_per_input=100_000, seed=0, randomize=True
        )
        assert report.spread < 0.01, name


def test_spread_shrinks_with_more_trials():
    code = known_code("qrac3")
    small = simulate_code(code, trials_per_input=1_000, seed=5, randomize=True)
    large = simulate_code(code, trials_per_input=100_000, seed=5, randomize=True)
    assert large.spread < small.spread / 3
