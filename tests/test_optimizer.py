"""Measurement-direction search: determinism, quality floors, polishing."""

from __future__ import annotations

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import qrac
from qrac import optimizer
from qrac.bloch import BlochVector, uniform_directions
from qrac.bounds import orthogonal_lower_bound
from qrac.codes import NEUTRAL_CUTOFF, evaluate, optimal_code, sign_matrix, upper_bound
from qrac.constructions import known_construction
from qrac.errors import CostLimitError
from qrac.optimizer import OptimizationReport, OptimizerConfig, optimize, polish
from helpers import random_measurements, reference_restarts, reference_seesaw


def test_config_defaults_and_validation():
    config = OptimizerConfig()
    assert config.restarts == 50
    assert config.seed == 0
    with pytest.raises(ValueError):
        OptimizerConfig(restarts=0)
    with pytest.raises(ValueError):
        OptimizerConfig(max_iterations=0)
    with pytest.raises(ValueError):
        OptimizerConfig(tolerance=-1.0)


def test_import_does_not_load_scipy():
    # the search is numpy-only; scipy is a test dependency, not a runtime one
    env = dict(os.environ, PYTHONPATH=str(Path(qrac.__file__).resolve().parent.parent))
    script = "import sys, qrac; print('scipy' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False"


def test_size_guards():
    with pytest.raises(ValueError):
        optimize(1)
    with pytest.raises(CostLimitError):
        optimize(13, OptimizerConfig(restarts=1))


def test_determinism_bitwise():
    config = OptimizerConfig(restarts=8, seed=7)
    ms_a, p_a, report_a = optimize(3, config)
    ms_b, p_b, report_b = optimize(3, config)
    assert p_a == p_b
    assert all(
        np.asarray(x).tobytes() == np.asarray(y).tobytes()
        for x, y in zip(ms_a, ms_b)
    )
    assert report_a.traces == report_b.traces


def test_seed_changes_search_path():
    _, _, report_a = optimize(3, OptimizerConfig(restarts=3, seed=1))
    _, _, report_b = optimize(3, OptimizerConfig(restarts=3, seed=2))
    assert [t.s_value for t in report_a.traces] != [t.s_value for t in report_b.traces]


def test_report_shape():
    config = OptimizerConfig(restarts=5, seed=11)
    measurements, probability, report = optimize(2, config)
    assert isinstance(report, OptimizationReport)
    assert report.n == 2 and report.config == config
    assert len(report.traces) == 5
    assert 0 <= report.best_restart < 5
    best = report.traces[report.best_restart]
    assert best.probability == max(t.probability for t in report.traces)
    assert probability == pytest.approx(best.probability, abs=1e-9)
    assert len(measurements) == 2


def test_returned_probability_is_consistent_with_evaluate():
    for n in (2, 3, 4):
        measurements, probability, _ = optimize(n, OptimizerConfig(restarts=4, seed=5))
        report = evaluate(optimal_code(measurements))
        assert report.average == pytest.approx(probability, abs=1e-10)
        assert probability <= upper_bound(n) + 1e-12


def test_directions_are_unit_and_preferred_hemisphere():
    measurements, _, _ = optimize(4, OptimizerConfig(restarts=3, seed=9))
    for m in measurements:
        assert np.linalg.norm(m) == pytest.approx(1.0, abs=1e-12)
        assert m[2] >= -1e-12


def test_matches_orthogonal_bound_for_special_sizes():
    # at these sizes the even axis split is (numerically) optimal
    for n, restarts in ((2, 6), (3, 6), (4, 6), (9, 8)):
        _, probability, _ = optimize(n, OptimizerConfig(restarts=restarts, seed=3))
        assert abs(probability - orthogonal_lower_bound(n)[0]) <= 1e-4, n


def test_never_falls_far_below_orthogonal_bound():
    for n in range(2, 13):
        restarts = 6 if n >= 10 else 4
        _, probability, _ = optimize(n, OptimizerConfig(restarts=restarts, seed=3))
        assert probability >= orthogonal_lower_bound(n)[0] - 1e-3, n


def test_quality_small_case_with_few_restarts():
    _, probability, _ = optimize(2, OptimizerConfig(restarts=10, seed=1))
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


def _assert_matches_reference(starts: np.ndarray, config: OptimizerConfig) -> None:
    dirs, s_values, steps, converged = optimizer._seesaw(starts, config)
    for k, start in enumerate(starts):
        ref_dirs, ref_s, ref_steps, ref_converged = reference_seesaw(start, config)
        assert np.array_equal(dirs[k], ref_dirs), k
        assert (s_values[k], steps[k], converged[k]) == (ref_s, ref_steps, ref_converged), k


def test_norms_match_linalg_norm(rng):
    vectors = rng.normal(size=(200_000, 3)) * rng.uniform(0.0, 10.0, size=(200_000, 1))
    assert np.array_equal(optimizer._norms(vectors), np.linalg.norm(vectors, axis=1))


@pytest.mark.parametrize("n", range(2, 11))
def test_stacked_seesaw_matches_reference_loop(n):
    rng = np.random.default_rng(100 + n)
    for count in (1, 3):
        starts = np.stack([uniform_directions(n, rng) for _ in range(count)])
        _assert_matches_reference(starts, OptimizerConfig())
    # 50 restarts under a cap, so the stack holds converged and cut-off restarts
    starts = np.stack([uniform_directions(n, rng) for _ in range(50)])
    _assert_matches_reference(starts, OptimizerConfig(max_iterations=200))


def test_stacked_seesaw_matches_reference_on_degenerate_starts():
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
    for config in (OptimizerConfig(), OptimizerConfig(max_iterations=2)):
        _assert_matches_reference(starts, config)


def test_stacked_seesaw_matches_reference_when_cut_off():
    rng = np.random.default_rng(8)
    starts = np.stack([uniform_directions(4, rng) for _ in range(40)])
    for cap in (1, 70, 90):  # these starts stop after 58 to 127 steps
        config = OptimizerConfig(max_iterations=cap)
        _, _, _, converged = optimizer._seesaw(starts, config)
        if cap > 1:
            assert converged.any() and not converged.all(), cap
        _assert_matches_reference(starts, config)


@pytest.mark.parametrize("n", range(2, 10))
def test_optimize_matches_reference_restart_loop(n):
    # the criterion-7 configuration
    config = OptimizerConfig(restarts=50, seed=0)
    measurements, _, report = optimize(n, config)
    traces, best_dirs = reference_restarts(n, config)
    assert list(report.traces) == traces
    assert report.best_restart == max(traces, key=lambda t: t.s_value).restart
    best_dirs = best_dirs.copy()
    best_dirs[best_dirs[:, 2] < 0.0] *= -1.0
    assert np.array_equal(measurements, best_dirs)


def test_restart_blocks_bound_memory_and_keep_traces(monkeypatch):
    config = OptimizerConfig(restarts=200, max_iterations=3)
    tracemalloc.start()
    try:
        _, _, report = optimize(12, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak
    monkeypatch.setattr(optimizer, "_CHUNK", 1)
    _, _, one_at_a_time = optimize(12, config)
    assert one_at_a_time.traces == report.traces
