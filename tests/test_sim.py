"""Monte-Carlo protocol simulation: sampling, randomization, determinism."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from qrac import sim
from qrac.bloch import BlochVector
from qrac.codes import QracCode, evaluate, optimal_code
from qrac.constructions import construction_names, known_code
from qrac.errors import CostLimitError
from qrac.sim import MAX_CELL_TRIALS, SimReport, simulate_code

from helpers import random_measurements, reference_plain_p0, reference_simulate_code

X = BlochVector(1.0, 0.0, 0.0)
Z = BlochVector(0.0, 0.0, 1.0)


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
    assert 0.0 <= report.worst_case <= report.average <= 1.0


def test_trials_validation():
    with pytest.raises(ValueError):
        simulate_code(known_code("qrac2"), trials_per_input=0, seed=0)


def _reference_codes() -> dict[str, QracCode]:
    named = {name: known_code(name) for name in construction_names()}
    rng = np.random.default_rng(20)
    randoms = {f"random{n}": optimal_code(random_measurements(n, rng)) for n in range(1, 12)}
    return {label: code for label, code in named.items() if code.n <= 9} | randoms


REFERENCE_CODES = _reference_codes()


def _compared_cells(n: int, rng: np.random.Generator) -> np.ndarray:
    """Every cell up to n = 5; above that the first, the last and 30 at random.

    The simulator always runs every cell; the reference loop costs about
    60 µs a cell, so it checks a sample of the larger codes.
    """
    total = (1 << n) * n
    if total <= 160:
        return np.arange(total)
    return np.unique(np.concatenate(([0, total - 1], rng.choice(total, 30, replace=False))))


@pytest.mark.parametrize("label", list(REFERENCE_CODES))
def test_frequencies_match_reference_loop(label):
    # the per-cell Generator loop is the contract; sym4 has cells whose p0 rounds below 0
    code = REFERENCE_CODES[label]
    cells = _compared_cells(code.n, np.random.default_rng(21))
    for trials in (1, 2, 7, 300):
        for seed in (0, 6, 2**62 + 1):
            for randomize in (False, True):
                got = simulate_code(code, trials, seed, randomize=randomize).frequencies
                want = reference_simulate_code(code, trials, seed, randomize, cells.tolist())
                assert np.array_equal(got.ravel()[cells], want), (trials, seed, randomize)


class _StopAfterThresholds(Exception):
    pass


@pytest.mark.parametrize(
    "label", list(construction_names()) + [k for k in REFERENCE_CODES if k.startswith("random")]
)
def test_plain_p0_table_matches_per_cell_loop(label, monkeypatch):
    # one matrix product must give each cell the bits of its own dot product
    code = known_code(label) if label in construction_names() else REFERENCE_CODES[label]
    seen = []

    def capture(p0):
        seen.append(p0)
        raise _StopAfterThresholds

    monkeypatch.setattr(sim, "_thresholds", capture)
    with pytest.raises(_StopAfterThresholds):
        simulate_code(code, 1, 0)
    assert np.array_equal(seen[0], reference_plain_p0(code))


def test_cells_that_run_out_of_words_are_redrawn(monkeypatch):
    budgets = []
    cell_words = sim._cell_words

    def spy(seed, cells, count):
        budgets.append(count)
        return cell_words(seed, cells, count)

    monkeypatch.setattr(sim, "_cell_words", spy)
    monkeypatch.setattr(sim, "_MARGIN_SIGMAS", -3.0)  # most cells fall short at first
    rng = np.random.default_rng(22)
    # only n that is not a power of two rejects shift draws and so can fall short
    codes = [known_code("qrac3"), known_code("qrac5")]
    codes += [optimal_code(random_measurements(n, rng)) for n in (6, 7)]
    for code in codes:
        for trials in (1, 7, 300):
            budgets.clear()
            got = simulate_code(code, trials, 6, randomize=True).frequencies
            assert len(set(budgets)) > 1, (code.n, trials)  # the redraw path ran
            assert np.array_equal(got, reference_simulate_code(code, trials, 6, True)), (code.n, trials)


def test_seeds_cover_the_whole_64_bit_range():
    code = known_code("qrac2")
    high = [simulate_code(code, 50, seed, randomize=True).frequencies for seed in (2**63, 2**63 + 5)]
    assert not np.array_equal(*high)
    for seed in (2**63 + 5, 2**64 - 1):
        report = simulate_code(code, 50, seed, randomize=True)
        assert report.seed == seed
        assert np.array_equal(report.frequencies, reference_simulate_code(code, 50, seed, True))
    for seed in (-1, -2, 2**64):
        with pytest.raises(ValueError, match="seed must lie in 0..2\\*\\*64 - 1"):
            simulate_code(code, 50, seed)


def test_simulation_memory_stays_bounded():
    # blocks of 2**14 cell-trials peak near 2 MB here; blocks of 2**20 peak
    # near 120 MB, and arrays over the whole run would be larger still
    code = known_code("qrac9")
    tracemalloc.start()
    try:
        simulate_code(code, 500, 11, randomize=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak


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
