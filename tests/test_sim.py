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
from qrac.sim import MAX_CELL_TRIALS, MAX_CELLS, SimReport, simulate_code

from helpers import random_measurements, reference_simulate_code, reference_thresholds

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
    for trials in (10.0, 1e9, "10", True, False, np.True_):  # checked before any cost is stated
        with pytest.raises(TypeError):
            simulate_code(known_code("qrac2"), trials_per_input=trials, seed=0)
    assert simulate_code(known_code("qrac2"), np.int64(3), 0).trials_per_input == 3


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


class _StopBeforeTrials(Exception):
    pass


def _p0_tables(code: QracCode, randomize: bool, monkeypatch) -> tuple[list, list]:
    """The p0 tables one run builds, and the one its first randomized block reads.

    The run stops before its first trial: at the first block of cell words in
    plain mode, at the first block of trials in randomized mode.
    """
    built, read = [], []
    thresholds = sim._thresholds

    def build(code):
        built.append(thresholds(code))
        return built[-1]

    def stop(*args):
        read.append(args[4] if randomize else None)
        raise _StopBeforeTrials

    monkeypatch.setattr(sim, "_thresholds", build)
    monkeypatch.setattr(sim, "_randomized_block" if randomize else "_cell_words", stop)
    with pytest.raises(_StopBeforeTrials):
        simulate_code(code, 1, 0, randomize=randomize)
    monkeypatch.undo()
    return built, read


@pytest.mark.parametrize(
    "label", list(construction_names()) + [k for k in REFERENCE_CODES if k.startswith("random")]
)
def test_plain_p0_table_matches_per_cell_loop(label, monkeypatch):
    # each cell's dot is added in the stated order, without BLAS, on every host
    code = known_code(label) if label in construction_names() else REFERENCE_CODES[label]
    built, _ = _p0_tables(code, False, monkeypatch)
    assert len(built) == 1
    assert np.array_equal(built[0], reference_thresholds(code))


@pytest.mark.parametrize("label", ["qrac3", "sym6", "qrac9", "random11"])
def test_p0_table_is_one_table_for_both_modes(label, monkeypatch):
    # the randomized trials read the very table the run built once, the plain one's bits
    code = known_code(label) if label in construction_names() else REFERENCE_CODES[label]
    plain, _ = _p0_tables(code, False, monkeypatch)
    built, read = _p0_tables(code, True, monkeypatch)
    assert len(built) == 1 and read[0] is built[0]
    assert np.array_equal(built[0], plain[0])
    assert np.array_equal(built[0], reference_thresholds(code))


def test_setup_memory_stays_below_40_bytes_per_cell(monkeypatch):
    # the one p0 table, plus the rotation tables when randomized, before any
    # trial runs: about 17 bytes per cell plain and 29 randomized
    code = optimal_code(random_measurements(14, np.random.default_rng(24)))
    cells = (1 << 14) * 14

    def stop(*args):
        raise _StopBeforeTrials

    monkeypatch.setattr(sim, "_cell_words", stop)
    for randomize in (False, True):
        tracemalloc.start()
        try:
            with pytest.raises(_StopBeforeTrials):
                simulate_code(code, 1, 0, randomize=randomize)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 40 * cells, (randomize, peak / cells)


def test_randomized_setup_memory_stays_below_24_bytes_per_cell(monkeypatch):
    # the rotation tables are built one shift row at a time, so the peak is
    # the p0 table's float-to-uint64 copy, about 16 bytes per cell
    code = optimal_code(random_measurements(14, np.random.default_rng(24)))
    cells = (1 << 14) * 14

    def stop(*args):
        raise _StopBeforeTrials

    monkeypatch.setattr(sim, "_cell_words", stop)
    tracemalloc.start()
    try:
        with pytest.raises(_StopBeforeTrials):
            simulate_code(code, 1, 0, randomize=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 24 * cells, peak / cells


@pytest.mark.parametrize("n", range(1, 17))
def test_rotation_tables_match_whole_array_build(n):
    # the whole-array build the row-by-row one replaced, in int64
    span = 1 << (n - 1).bit_length()
    z, shifts = np.arange(1 << n), np.arange(n)[:, None]
    rot = np.zeros((span, 1 << n), dtype=np.int64)
    rot[:n] = (((z << shifts) | (z >> (n - shifts))) & ((1 << n) - 1)) * n
    rot += np.arange(span)[:, None]
    i, d = np.arange(n)[:, None], np.arange(span)
    wrap = i - n * (i + d >= n)
    got_rot, got_wrap = sim._rotation_tables(n)
    assert got_rot.dtype == got_wrap.dtype == np.int32
    assert np.array_equal(got_rot, rot.ravel()) and np.array_equal(got_wrap, wrap.ravel())


def test_cell_guard_refuses_before_any_table_is_built(monkeypatch):
    # n = 17 has 2**17 * 17 cells, over MAX_CELLS = 2**20 even at one trial
    code = QracCode(np.tile([0.0, 0.0, 1.0], (17, 1)), np.tile([0.0, 0.0, 1.0], (1 << 17, 1)))

    def tripwire(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(sim, "_thresholds", tripwire)
    monkeypatch.setattr(sim, "_rotation_tables", tripwire)
    assert (1 << 16) * 16 <= MAX_CELLS < (1 << 17) * 17
    for randomize, table_bytes in ((False, 17825792), (True, 17825792 + 4 * 32 * (1 << 17))):
        with pytest.raises(CostLimitError, match=f"holds {table_bytes} bytes of tables") as info:
            simulate_code(code, 1, 0, randomize=randomize)
        assert (info.value.quantity, info.value.requested) == ("cells", (1 << 17) * 17)


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
    # n = 9 draws shifts up to 15, so a short cell's leftover shifts reach the
    # rotation table's rejected rows; the reference checks a fixed sample
    code = known_code("qrac9")
    cells = _compared_cells(code.n, np.random.default_rng(23))
    for trials in (1, 7):
        budgets.clear()
        got = simulate_code(code, trials, 6, randomize=True).frequencies
        assert len(set(budgets)) > 1, (code.n, trials)
        want = reference_simulate_code(code, trials, 6, True, cells.tolist())
        assert np.array_equal(got.ravel()[cells], want), (code.n, trials)


def test_block_size_changes_no_frequency(monkeypatch):
    # the stream contract is per cell, so no grouping of cells into blocks
    # moves a bit.  qrac9 runs only at blocks of many cells: at one or two
    # cells a block it takes seconds, and qrac3 and sym4 cover those sizes.
    cases = [(name, trials) for name in ("qrac3", "sym4") for trials in (1, 7, 500)] + [("qrac9", 500)]

    def run(name, trials, randomize):
        return simulate_code(known_code(name), trials, 4, randomize=randomize).frequencies

    want = {(case, r): run(*case, r) for case in cases for r in (False, True)}
    for block in (1, 1 << 10, 1 << 14, sim._BLOCK_CELL_TRIALS, 1 << 20):
        monkeypatch.setattr(sim, "_BLOCK_CELL_TRIALS", block)
        for (case, r), expected in want.items():
            if case[0] != "qrac9" or block >= 1 << 14:
                assert np.array_equal(run(*case, r), expected), (block, case, r)
    # cells that run out of words are redrawn, at small and large blocks alike
    monkeypatch.setattr(sim, "_MARGIN_SIGMAS", -3.0)
    for block in (1 << 10, 1 << 20):
        monkeypatch.setattr(sim, "_BLOCK_CELL_TRIALS", block)
        assert np.array_equal(run("qrac3", 7, True), want[("qrac3", 7), True]), block


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
    for seed in (False, True, 2.0):
        with pytest.raises(TypeError):
            simulate_code(code, 50, seed)


def test_simulation_memory_stays_bounded():
    # blocks of 2**15 cell-trials peak near 2 MiB here; blocks of 2**20 peak
    # near 58 MiB, and arrays over the whole run would be larger still
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
