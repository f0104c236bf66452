"""Acceptance gate: one test per commitment the package makes, at stated tolerances.

Each test prints the measured values it checked so a verbose run doubles as an
evidence log.  Tolerances and workloads are stated inline; none are relaxed.
"""

from __future__ import annotations

import math
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest

from qrac.bloch import BlochVector, uniform_directions
from qrac.bounds import (
    lattice_walk_distance,
    orthogonal_lower_bound,
    random_lower_bound_asymptotic,
    random_walk_distance_mc,
)
from qrac.classical import (
    brute_force_optimal,
    counting_identity_check,
    majority_strategy_probability,
    optimal_classical_probability,
)
from qrac.codes import (
    classical_comparison_scan,
    evaluate,
    optimal_code,
    parallelogram_check,
    upper_bound,
)
from qrac.constructions import (
    GreatCircleArrangement,
    construction_names,
    count_sphere_regions,
    encoding_polynomial_check,
    known_code,
    known_construction,
)
from qrac.optimizer import optimize
from qrac.povm import Povm2, decompose_povm, mixture_outcome_probs, povm_outcome_probs
from qrac.bloch import state_from_bloch
from helpers import bloch_from_angles, random_measurements
from test_constructions import POLYNOMIALS

SQRT2, SQRT3 = math.sqrt(2), math.sqrt(3)

#: Exact orthogonal-split probabilities for n = 2..9, as closed radicals.
EXACT_COLUMN = {
    2: 0.5 + 1 / (2 * SQRT2),
    3: 0.5 + 1 / (2 * SQRT3),
    4: 0.5 + (1 + SQRT3) / (8 * SQRT2),
    5: 0.5 + (2 + math.sqrt(5)) / 20,
    6: 0.5 + (1 + SQRT3 + math.sqrt(6)) / (16 * SQRT3),
    7: 0.5 + (15 + 6 * math.sqrt(5) + 2 * math.sqrt(13) + math.sqrt(17)) / 224,
    8: 0.5
    + (12 + 9 * SQRT3 + 6 * math.sqrt(5) + 6 * math.sqrt(7) + math.sqrt(11)) / (256 * SQRT2),
    9: 0.5 + (10 * SQRT3 + 9 * math.sqrt(11) + 3 * math.sqrt(19)) / 384,
}

#: Their 6-decimal renderings, as the CLI prints them.
EXACT_COLUMN_PRINTED = {
    2: 0.853553,
    3: 0.788675,
    4: 0.741481,
    5: 0.711803,
    6: 0.686973,
    7: 0.677458,
    8: 0.666270,
    9: 0.656893,
}

ASYMPTOTIC_COLUMN = {
    2: 0.825735,
    3: 0.765962,
    4: 0.730329,
    5: 0.706013,
    6: 0.688063,
    7: 0.674113,
    8: 0.662868,
    9: 0.653553,
}

#: Averages of the named constructions, as closed radicals.
CONSTRUCTION_FORMS = {
    "qrac2": 0.5 + 1 / (2 * SQRT2),
    "qrac3": 0.5 + 1 / (2 * SQRT3),
    "qrac4": 0.5 + (1 + SQRT3) / (8 * SQRT2),
    "qrac5": 0.5 + math.sqrt(2 * (5 + math.sqrt(17))) / 20,
    "qrac6": 0.5 + (2 + SQRT3 + math.sqrt(15)) / (16 * math.sqrt(6)),
    "qrac9": 0.5 + (10 * SQRT3 + 9 * math.sqrt(11) + 3 * math.sqrt(19)) / 384,
    "sym4": 0.5 + (2 + SQRT3) / 16,
    "sym6": 0.5 + math.sqrt(5) / 32 + math.sqrt(75 + 30 * math.sqrt(5)) / 96,
}

#: Best known search probabilities for n = 2..9; 50 restarts reproduce them.
SEARCH_TARGETS = {
    2: 0.853553,
    3: 0.788675,
    4: 0.741481,
    5: 0.713578,
    6: 0.694046,
    7: 0.678638,
    8: 0.666633,
    9: 0.656893,
}


def test_criterion_01_classical_exact_values():
    t0 = time.perf_counter()
    for n in range(1, 5):
        assert brute_force_optimal(n) == optimal_classical_probability(n), n
    brute_elapsed = time.perf_counter() - t0
    assert brute_elapsed < 30.0
    t0 = time.perf_counter()
    for n in range(1, 61):
        closed = Fraction(1, 2) + Fraction(math.comb(n - 1, (n - 1) // 2), 1 << n)
        assert optimal_classical_probability(n) == closed
        assert majority_strategy_probability(n) == closed
    sums_elapsed = time.perf_counter() - t0
    assert sums_elapsed < 1.0
    print(
        f"criterion 1: brute force n=1..4 in {brute_elapsed:.2f}s (<30s), "
        f"sum identities n=1..60 in {sums_elapsed:.3f}s (<1s)"
    )


def test_criterion_02_counting_identities():
    t0 = time.perf_counter()
    for m in range(1, 31):
        assert counting_identity_check(m), m
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"criterion 2: counting identities m=1..30 exact in {elapsed:.3f}s (<1s)")


def test_criterion_03_orthogonal_and_asymptotic_tables():
    for n in range(2, 10):
        value, split = orthogonal_lower_bound(n)
        assert abs(value - EXACT_COLUMN[n]) < 1e-9, n
        assert abs(value - EXACT_COLUMN_PRINTED[n]) < 5e-7, n
        asymptotic = random_lower_bound_asymptotic(n)
        assert abs(asymptotic - ASYMPTOTIC_COLUMN[n]) < 1e-6, n
        print(
            f"criterion 3: n={n} orthogonal={value:.9f} split={split} "
            f"asymptotic={asymptotic:.6f}"
        )


def test_criterion_04_monte_carlo_two_directions():
    t0 = time.perf_counter()
    estimate = random_walk_distance_mc(2, trials=1_000_000, seed=0)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    # independent derivation of the exact mean distance by quadrature
    c = np.linspace(-1.0, 1.0, 200_001)
    exact = float(np.trapezoid(np.sqrt(2.0 + 2.0 * c), c) / 2.0)
    assert exact == pytest.approx(4 / 3, abs=1e-7)
    assert abs(estimate.probability - 0.8333) < 0.002
    assert abs(estimate.mean_distance - exact) < 4 * estimate.std_error
    print(
        f"criterion 4: MC mean={estimate.mean_distance:.6f} "
        f"(exact {exact:.6f}, 4 sigma={4 * estimate.std_error:.6f}), "
        f"probability={estimate.probability:.6f} in {elapsed:.2f}s (<10s)"
    )


def test_criterion_05_construction_averages():
    for name, form in CONSTRUCTION_FORMS.items():
        average = evaluate(known_code(name)).average
        assert abs(average - form) < 1e-9, name
        print(f"criterion 5: {name} average={average:.9f} closed form={form:.9f}")
    sym9 = evaluate(known_code("sym9")).average
    qrac9 = evaluate(known_code("qrac9")).average
    sym15 = evaluate(known_code("sym15")).average
    orth15 = orthogonal_lower_bound(15)[0]
    assert qrac9 - sym9 > 1e-7
    assert orth15 - sym15 > 1e-7
    print(f"criterion 5: sym9={sym9:.7f} < qrac9={qrac9:.7f}; sym15={sym15:.7f} < {orth15:.7f}")


def test_criterion_06_bound_sandwich():
    for name in construction_names():
        report = evaluate(known_code(name))
        n = known_construction(name).n
        assert report.worst_case <= report.average + 1e-12, name
        assert report.average <= upper_bound(n) + 1e-12, name
    for name in ("qrac2", "qrac3"):
        report = evaluate(known_code(name))
        n = known_construction(name).n
        assert abs(report.average - upper_bound(n)) <= 1e-12, name
        assert abs(report.worst_case - upper_bound(n)) <= 1e-12, name
    for n in range(2, 7):
        measurements, probability, _ = optimize(n, restarts=4, seed=3)
        report = evaluate(optimal_code(measurements))
        assert report.worst_case <= report.average + 1e-12
        assert report.average <= upper_bound(n) + 1e-12
        assert probability <= upper_bound(n) + 1e-12
    print("criterion 6: worst <= average <= closed-form cap for all constructions and searches")


def test_criterion_07_optimizer_reaches_best_known_values():
    total = 0.0
    for n, target in SEARCH_TARGETS.items():
        t0 = time.perf_counter()
        _, probability, report = optimize(n, restarts=50, seed=0)
        elapsed = time.perf_counter() - t0
        total += elapsed
        assert probability >= target - 1e-3, (n, probability)
        assert elapsed < 600.0
        print(
            f"criterion 7: n={n} best={probability:.6f} target={target:.6f} "
            f"restart={report.best_restart} in {elapsed:.1f}s"
        )
    print(f"criterion 7: total search time {total:.1f}s (<600s at n=9 required)")


def test_criterion_08_region_counts():
    expected = {
        "qrac3": 8,
        "sym4": 14,
        "qrac5": 16,
        "qrac6": 24,
        "sym6": 32,
        "sym9": 48,
        "sym15": 120,
    }
    for name, count in expected.items():
        arrangement = GreatCircleArrangement(known_construction(name).measurements)
        assert count_sphere_regions(arrangement) == count, name
    rng = np.random.default_rng(2024)
    for k in range(1, 9):
        while True:
            rows = uniform_directions(k, rng)
            try:
                arrangement = GreatCircleArrangement(
                    tuple(BlochVector.from_array(r) for r in rows)
                )
            except ValueError:
                continue
            break
        assert count_sphere_regions(arrangement) == k * (k - 1) + 2, k
    print(f"criterion 8: named region counts {expected} and generic k(k-1)+2 for k=1..8")


def test_criterion_09_encoding_polynomials():
    for name, poly in POLYNOMIALS.items():
        assert encoding_polynomial_check(name, poly), name
        perturbed = list(poly)
        perturbed[0] += max(1, perturbed[0])
        assert not encoding_polynomial_check(name, perturbed), name
    print(f"criterion 9: polynomials vanish for {sorted(POLYNOMIALS)} and fail when perturbed")


def test_criterion_10_povm_equivalence():
    z = BlochVector(0.0, 0.0, 1.0)
    fair = decompose_povm(Povm2(a=0.5, b=0.5, basis=z))
    assert (fair.c0, fair.c1, fair.c01, fair.c10) == (0.5, 0.5, 0.0, 0.0)
    projective = decompose_povm(Povm2(a=1.0, b=0.0, basis=z))
    assert (projective.c0, projective.c1, projective.c01, projective.c10) == (0.0, 0.0, 1.0, 0.0)
    skew = decompose_povm(Povm2(a=0.7, b=0.2, basis=z))
    assert (skew.c0, skew.c1, skew.c01, skew.c10) == pytest.approx((0.2, 0.3, 0.5, 0.0), abs=1e-15)
    equator = state_from_bloch(bloch_from_angles(math.pi / 2, 0.0))
    assert mixture_outcome_probs(skew, equator) == pytest.approx((0.45, 0.55), abs=1e-12)

    rng = np.random.default_rng(99)
    worst = 0.0
    directions = uniform_directions(10_000, rng)
    states = uniform_directions(10_000, rng)
    values = rng.uniform(0.0, 1.0, (10_000, 2))
    for i in range(10_000):
        p = Povm2(
            a=float(values[i, 0]),
            b=float(values[i, 1]),
            basis=BlochVector.from_array(directions[i]),
        )
        state = state_from_bloch(BlochVector.from_array(states[i]))
        direct = povm_outcome_probs(p, state)
        simulated = mixture_outcome_probs(decompose_povm(p), state)
        worst = max(worst, abs(direct[0] - simulated[0]), abs(direct[1] - simulated[1]))
    assert worst < 1e-12
    print(f"criterion 10: worked examples exact; max simulation gap {worst:.2e} over 1e4 triples")


def test_criterion_11_property_suites():
    rng = np.random.default_rng(7)
    for index in range(1000):
        n = 1 + index % 10
        assert parallelogram_check(random_measurements(n, rng))
    print("criterion 11: parallelogram identity holds on 1000 random sets (n cycling 1..10)")

    for n in range(2, 7):
        code = optimal_code(random_measurements(n, rng))
        best = evaluate(code).average
        from qrac.codes import QracCode

        for _ in range(1000):
            rows = uniform_directions(1 << n, rng)
            trial = evaluate(QracCode(measurements=code.measurements, encodings=rows)).average
            assert trial <= best + 1e-12
    print("criterion 11: no random encoding beat the aligned one (1000 trials per n=2..6)")

    violations = classical_comparison_scan(range(2, 9), sets_per_n=1000, seed=1)
    print(
        f"criterion 11: quantum-vs-classical scan over 1000 sets per n=2..8 -> "
        f"{len(violations)} violations (expected 0; reported, not asserted)"
    )
    if violations:
        warnings.warn(f"comparison scan found counterexamples: {violations[:5]}")
