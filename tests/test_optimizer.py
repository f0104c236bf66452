"""Measurement-direction search: determinism, quality floors, polishing."""

from __future__ import annotations

import dataclasses
import inspect
import os
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest

import qrac
from qrac import optimizer
from qrac.bloch import BlochVector, uniform_directions
from qrac.bounds import orthogonal_lower_bound
from qrac.codes import NEUTRAL_CUTOFF, evaluate, optimal_code, probability_from_s_value, s_value, upper_bound
from qrac.constructions import construction_names, known_construction
from qrac.errors import CostLimitError
from qrac.optimizer import OptimizationReport, optimize, polish
from helpers import random_measurements, reference_restarts, reference_seesaw, sign_matrix


def test_config_defaults_and_validation():
    # restarts and seed are keyword-only, 50 and 0 by default
    parameters = list(inspect.signature(optimize).parameters.values())
    assert [(p.name, p.kind, p.default) for p in parameters[1:]] == [
        ("restarts", inspect.Parameter.KEYWORD_ONLY, 50),
        ("seed", inspect.Parameter.KEYWORD_ONLY, 0),
    ]
    # an old optimize(n, config) call is refused, not read as a restart count
    for config in (types.SimpleNamespace(restarts=3, seed=1), 3):
        with pytest.raises(TypeError):
            optimize(2, config)
    with pytest.raises(ValueError, match="^restarts must be at least 1, got 0$"):
        optimize(2, restarts=0)
    for value in (2.5, 2.0, "3", None, True, np.True_):
        with pytest.raises(TypeError):
            optimize(2, restarts=value)
    for seed in (2.5, "3", None, False, True):
        with pytest.raises(TypeError):
            optimize(2, restarts=1, seed=seed)
    with pytest.raises(ValueError, match="^seed must be at least 0, got -1$"):
        optimize(2, restarts=1, seed=-1)
    _, _, report = optimize(2, restarts=np.int64(2), seed=np.int64(3))
    assert [t.restart for t in report.traces] == [0, 1]
    # the see-saw's step cap is the module constant MAX_ITERATIONS, not a setting
    assert [f.name for f in dataclasses.fields(OptimizationReport)] == ["n", "traces", "best_restart"]
    with pytest.raises(TypeError):
        optimize(2, max_iterations=4000)


def test_import_does_not_load_scipy():
    # the search is numpy-only; scipy is a test dependency, not a runtime one
    env = dict(os.environ, PYTHONPATH=str(Path(qrac.__file__).resolve().parent.parent))
    script = "import sys, qrac; print('scipy' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False"


def test_import_does_not_load_the_thread_pool():
    # concurrent.futures loads logging, about 14 ms, which no qrac command needs
    env = dict(os.environ, PYTHONPATH=str(Path(qrac.__file__).resolve().parent.parent))
    script = "import sys, qrac; print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"


def test_size_guards():
    with pytest.raises(ValueError):
        optimize(1)
    with pytest.raises(CostLimitError):
        optimize(13, restarts=1)


def test_determinism_bitwise():
    ms_a, p_a, report_a = optimize(3, restarts=8, seed=7)
    ms_b, p_b, report_b = optimize(3, restarts=8, seed=7)
    assert p_a == p_b
    assert all(
        np.asarray(x).tobytes() == np.asarray(y).tobytes()
        for x, y in zip(ms_a, ms_b)
    )
    assert report_a.traces == report_b.traces


def test_seed_changes_search_path():
    _, _, report_a = optimize(3, restarts=3, seed=1)
    _, _, report_b = optimize(3, restarts=3, seed=2)
    assert [t.s_value for t in report_a.traces] != [t.s_value for t in report_b.traces]


def test_report_shape():
    measurements, probability, report = optimize(2, restarts=5, seed=11)
    assert isinstance(report, OptimizationReport)
    assert report.n == 2
    assert len(report.traces) == 5
    assert 0 <= report.best_restart < 5
    best = report.traces[report.best_restart]
    assert best.probability == max(t.probability for t in report.traces)
    assert probability == pytest.approx(best.probability, abs=1e-9)
    assert len(measurements) == 2


def test_returned_probability_is_consistent_with_evaluate():
    for n in (2, 3, 4):
        measurements, probability, _ = optimize(n, restarts=4, seed=5)
        report = evaluate(optimal_code(measurements))
        assert report.average == pytest.approx(probability, abs=1e-10)
        assert probability <= upper_bound(n) + 1e-12


def test_directions_are_unit_and_preferred_hemisphere():
    measurements, _, _ = optimize(4, restarts=3, seed=9)
    for m in measurements:
        assert np.linalg.norm(m) == pytest.approx(1.0, abs=1e-12)
        assert m[2] >= -1e-12


def test_matches_orthogonal_bound_for_special_sizes():
    # at these sizes the even axis split is (numerically) optimal
    for n, restarts in ((2, 6), (3, 6), (4, 6), (9, 8)):
        _, probability, _ = optimize(n, restarts=restarts, seed=3)
        assert abs(probability - orthogonal_lower_bound(n)[0]) <= 1e-4, n


def test_never_falls_far_below_orthogonal_bound():
    for n in range(2, 13):
        restarts = 6 if n >= 10 else 4
        _, probability, _ = optimize(n, restarts=restarts, seed=3)
        assert probability >= orthogonal_lower_bound(n)[0] - 1e-3, n


def test_quality_small_case_with_few_restarts():
    _, probability, _ = optimize(2, restarts=10, seed=1)
    assert probability >= 0.85345


def test_polish_keeps_an_already_optimal_set():
    measurements = known_construction("qrac3").measurements
    polished, probability = polish(measurements)
    assert probability == pytest.approx(0.7886751, abs=1e-6)
    for before, after in zip(measurements, polished):
        assert after == pytest.approx(before, abs=1e-6)


def test_polish_reproduces_qrac6_value():
    _, probability = polish(known_construction("qrac6").measurements)
    assert probability == pytest.approx(0.6940464, abs=1e-6)


def test_polish_is_monotone(rng):
    for n in range(2, 9):
        for _ in range(6):
            ms = random_measurements(n, rng)
            before = evaluate(optimal_code(ms)).average
            polished, after = polish(ms)
            assert after >= before - 1e-12
            assert after == pytest.approx(evaluate(optimal_code(polished)).average, abs=1e-10)
            # the see-saw output is a fixed point: polishing again changes nothing
            again, again_after = polish(polished)
            assert np.array_equal(again, polished) and again_after == after


def test_polish_probability_is_the_kernel_score_of_its_result(rng):
    # the see-saw's own s is the kernel's s bit for bit (n <= 12 is one block
    # of the same products and the same pairwise sum), so polish rescores nothing
    named = [known_construction(name).measurements for name in construction_names()]
    sets = [ms for ms in named if len(ms) <= 12]
    sets += [uniform_directions(n, rng) for n in range(2, 13) for _ in range(8)]
    for ms in sets:
        polished, probability = polish(ms)
        assert not polished.flags.writeable
        assert probability == probability_from_s_value(s_value(polished), len(ms))
        again, again_probability = polish(polished)
        assert np.array_equal(again, polished) and again_probability == probability


def test_polish_takes_only_directions():
    with pytest.raises(TypeError):
        polish(known_construction("qrac3").measurements, 50)


def test_polish_single_measurement_is_trivial():
    z = (BlochVector(0.0, 0.0, 1.0),)
    polished, probability = polish(z)
    assert np.array_equal(polished, z)
    assert probability == 1.0


def test_polish_cost_guard():
    with pytest.raises(CostLimitError):
        polish(known_construction("sym15").measurements)


def test_polish_improves_a_perturbed_set(rng):
    # nudge qrac4 off its optimum; polishing must recover most of the loss
    base = [np.asarray(v) for v in known_construction("qrac4").measurements]
    noisy = tuple(BlochVector.normalized(*(v + 0.05 * rng.normal(size=3))) for v in base)
    start = evaluate(optimal_code(noisy)).average
    _, after = polish(noisy)
    target = known_construction("qrac4").expected_probability
    assert after >= start
    assert after >= target - 1e-5


def _assert_matches_reference(starts: np.ndarray) -> None:
    dirs, s_values, steps, converged = optimizer._seesaw(starts)
    for k, start in enumerate(starts):
        ref_dirs, ref_s, ref_steps, ref_converged = reference_seesaw(start)
        assert np.array_equal(dirs[k], ref_dirs), k
        assert (s_values[k], steps[k], converged[k]) == (ref_s, ref_steps, ref_converged), k


def test_norms_match_linalg_norm(rng):
    vectors = rng.normal(size=(200_000, 3)) * rng.uniform(0.0, 10.0, size=(200_000, 1))
    assert np.array_equal(optimizer._norms(vectors), np.linalg.norm(vectors, axis=1))
    # the see-saw's form: a stack of (R, rows, 3), lengths and squares in reused buffers
    stacked = vectors.reshape(8, -1, 3)
    lengths, squares = np.empty(stacked.shape[:2]), np.empty_like(stacked)
    assert optimizer._norms(stacked, lengths, squares) is lengths
    assert np.array_equal(lengths, np.linalg.norm(stacked, axis=-1))


@pytest.mark.parametrize("n", range(2, 13))
def test_stacked_seesaw_matches_reference_loop(n, monkeypatch):
    rng = np.random.default_rng(100 + n)
    if n > 10:
        # the largest stacks, under a cap: three random starts run to it, and
        # repeated axes stall at step 1 and leave from the middle of the stack
        monkeypatch.setattr(optimizer, "MAX_ITERATIONS", 25)
        starts = np.stack([uniform_directions(n, rng) for _ in range(3)])
        _assert_matches_reference(starts)
        starts[1] = np.tile(np.eye(3), (n // 3 + 1, 1))[:n]
        _, _, steps, _ = optimizer._seesaw(starts)
        assert steps.tolist() == [25, 1, 25]
        _assert_matches_reference(starts)
        return
    for count in (1, 3):
        starts = np.stack([uniform_directions(n, rng) for _ in range(count)])
        _assert_matches_reference(starts)
    # 50 restarts under a cap, so the stack holds converged and cut-off restarts
    starts = np.stack([uniform_directions(n, rng) for _ in range(50)])
    monkeypatch.setattr(optimizer, "MAX_ITERATIONS", 200)
    _assert_matches_reference(starts)


def test_stacked_seesaw_matches_reference_on_degenerate_starts(monkeypatch):
    rng = np.random.default_rng(5)
    x, y, z = np.eye(3)
    tilted = np.array([1.0, 1e-13, 0.0]) / np.linalg.norm([1.0, 1e-13, 0.0])
    starts = np.stack(
        [
            np.tile(x, (6, 1)),  # repeated: S_x = 0 exactly when half the signs flip
            np.array([x, -x, y, -y, z, -z]),  # antipodal pairs
            np.array([x, y, z, x, y, z]),  # repeated axes
            np.array([x, tilted, y, z, y, z]),  # 0 < |S_x| < NEUTRAL_CUTOFF
            uniform_directions(6, rng),
        ]
    )
    lengths = np.linalg.norm(sign_matrix(6) @ starts, axis=-1)
    assert ((lengths > 0.0) & (lengths < NEUTRAL_CUTOFF)).any()
    for cap in (optimizer.MAX_ITERATIONS, 2):
        monkeypatch.setattr(optimizer, "MAX_ITERATIONS", cap)
        _assert_matches_reference(starts)


def test_stacked_seesaw_takes_both_guarded_branches_in_a_mixed_stack(monkeypatch):
    # at the first step, S_x = 0 for the repeated start and the zero row's pull
    # is exactly 0, while the stack also holds ordinary starts: the neutral-sum
    # and vanished-pull branches run for a mixed stack
    rng = np.random.default_rng(6)
    x = np.eye(3)[0]
    starts = np.stack(
        [np.tile(x, (6, 1)), np.array([np.zeros(3), x, x, x, x, x])]
        + [uniform_directions(6, rng) for _ in range(2)]
    )
    half = sign_matrix(6, 0, 32)
    sums = half @ starts
    lengths = np.linalg.norm(sums, axis=-1)
    assert (lengths[0] == 0.0).any() and lengths[2:].min() >= NEUTRAL_CUTOFF
    encodings = sums / np.where(lengths < NEUTRAL_CUTOFF, np.inf, lengths)[..., None]
    pulls = np.linalg.norm(half.T @ encodings, axis=-1)
    assert pulls[1, 0] == 0.0 and pulls[2:].min() > 0.0
    for cap in (optimizer.MAX_ITERATIONS, 2):
        monkeypatch.setattr(optimizer, "MAX_ITERATIONS", cap)
        _assert_matches_reference(starts)


def test_seesaw_never_writes_its_input(monkeypatch):
    # restarts that stall at different steps, and the two guarded branches:
    # a repeated start (S_x = 0) and a zero row (a vanished pull)
    rng = np.random.default_rng(9)
    x = np.eye(3)[0]
    starts = np.stack(
        [uniform_directions(6, rng) for _ in range(6)]
        + [np.tile(x, (6, 1)), np.array([np.zeros(3), x, x, x, x, x])]
    )
    before = starts.tobytes()
    starts.setflags(write=False)  # a write would raise
    for cap in (optimizer.MAX_ITERATIONS, 2):
        monkeypatch.setattr(optimizer, "MAX_ITERATIONS", cap)
        optimizer._seesaw(starts)
        assert starts.tobytes() == before
    writable = np.array(starts)
    optimizer._seesaw(writable)
    assert writable.tobytes() == before


def test_stacked_seesaw_matches_reference_when_cut_off(monkeypatch):
    rng = np.random.default_rng(8)
    starts = np.stack([uniform_directions(4, rng) for _ in range(40)])
    for cap in (1, 70, 90):  # these starts stop after 58 to 127 steps
        monkeypatch.setattr(optimizer, "MAX_ITERATIONS", cap)
        _, _, _, converged = optimizer._seesaw(starts)
        if cap > 1:
            assert converged.any() and not converged.all(), cap
        _assert_matches_reference(starts)


def test_stacked_seesaw_matches_reference_when_one_restart_runs_on_alone():
    # seven of these starts stall after 63 to 81 steps, and the eighth runs on
    # alone, through buffers allocated for the shrunk stack, to step 327
    rng = np.random.default_rng(1061)
    starts = np.stack([uniform_directions(4, rng) for _ in range(8)])
    _, _, steps, converged = optimizer._seesaw(starts)
    assert converged.all() and np.sort(steps)[-2] < 100 and steps.max() > 300
    _assert_matches_reference(starts)


@pytest.mark.parametrize("n", range(2, 10))
def test_optimize_matches_reference_restart_loop(n):
    # the criterion-7 configuration
    measurements, _, report = optimize(n, restarts=50, seed=0)
    traces, best_dirs = reference_restarts(n, restarts=50, seed=0)
    assert list(report.traces) == traces
    assert report.best_restart == max(traces, key=lambda t: t.s_value).restart
    best_dirs = best_dirs.copy()
    best_dirs[best_dirs[:, 2] < 0.0] *= -1.0
    assert np.array_equal(measurements, best_dirs)


@pytest.mark.parametrize("n, seed, best_stack", [(12, 0, 2), (12, 2, 1), (11, 4, 0)])
def test_optimize_matches_reference_across_stacks(n, seed, best_stack, monkeypatch):
    # 70 restarts run as stacks of 32 + 32 + 6 at n = 12 and 64 + 6 at n = 11;
    # the best restart must win over every stack, whichever one holds it
    monkeypatch.setattr(optimizer, "MAX_ITERATIONS", 30)
    measurements, _, report = optimize(n, restarts=70, seed=seed)
    traces, best_dirs = reference_restarts(n, restarts=70, seed=seed)
    assert list(report.traces) == traces
    assert report.best_restart == max(traces, key=lambda t: t.s_value).restart
    assert report.best_restart // (optimizer._CHUNK >> (n - 1)) == best_stack
    best_dirs = best_dirs.copy()
    best_dirs[best_dirs[:, 2] < 0.0] *= -1.0
    assert np.array_equal(measurements, best_dirs)


def test_restart_blocks_bound_memory_and_keep_traces(monkeypatch):
    monkeypatch.setattr(optimizer, "MAX_ITERATIONS", 3)
    tracemalloc.start()
    try:
        measurements, probability, report = optimize(12, restarts=200)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak
    monkeypatch.setattr(optimizer, "_CHUNK", 1)
    one_measurements, one_probability, one_at_a_time = optimize(12, restarts=200)
    assert one_at_a_time.traces == report.traces
    assert one_at_a_time.best_restart == report.best_restart
    assert np.array_equal(one_measurements, measurements) and one_probability == probability
