"""Two-outcome POVMs and their exact simulation by enhanced mixtures."""

from __future__ import annotations

import math

import numpy as np
import pytest

from qrac.bloch import (
    BlochVector,
    Measurement,
    state_from_bloch,
    transition_probability,
    uniform_directions,
)
from qrac.povm import (
    EnhancedMixture,
    Povm2,
    decompose_povm,
    mixture_outcome_probs,
    povm_outcome_probs,
)

from helpers import bloch_from_angles

Z = Measurement(BlochVector(0.0, 0.0, 1.0))


def random_states(count: int, rng: np.random.Generator):
    return [state_from_bloch(BlochVector.from_array(r)) for r in uniform_directions(count, rng)]


def test_povm_validation():
    with pytest.raises(ValueError):
        Povm2(a=1.2, b=0.0, basis=Z)
    with pytest.raises(ValueError):
        Povm2(a=0.5, b=-0.1, basis=Z)
    Povm2(a=0.0, b=1.0, basis=Z)  # boundary values are fine


def test_projective_case():
    p = Povm2(a=1.0, b=0.0, basis=Z)
    up, down = state_from_bloch(Z.direction), state_from_bloch(-Z.direction)
    assert povm_outcome_probs(p, up) == pytest.approx((1.0, 0.0), abs=1e-15)
    assert povm_outcome_probs(p, down) == pytest.approx((0.0, 1.0), abs=1e-15)


def test_random_guessing_case(rng):
    p = Povm2(a=0.5, b=0.5, basis=Z)
    for state in random_states(20, rng):
        assert povm_outcome_probs(p, state) == pytest.approx((0.5, 0.5), abs=1e-15)


def test_constant_output_case(rng):
    p = Povm2(a=1.0, b=1.0, basis=Z)
    for state in random_states(20, rng):
        assert povm_outcome_probs(p, state) == pytest.approx((1.0, 0.0), abs=1e-15)


def test_outcomes_sum_to_one(rng):
    p = Povm2(a=0.3, b=0.8, basis=Measurement(BlochVector.normalized(1.0, 2.0, -1.0)))
    for state in random_states(50, rng):
        p0, p1 = povm_outcome_probs(p, state)
        assert p0 + p1 == pytest.approx(1.0, abs=1e-14)
        assert 0.0 <= p0 <= 1.0


def test_decompose_worked_examples():
    fair = decompose_povm(Povm2(a=0.5, b=0.5, basis=Z))
    assert (fair.c0, fair.c1, fair.c01, fair.c10) == pytest.approx((0.5, 0.5, 0.0, 0.0))
    projective = decompose_povm(Povm2(a=1.0, b=0.0, basis=Z))
    assert (projective.c0, projective.c1, projective.c01, projective.c10) == pytest.approx(
        (0.0, 0.0, 1.0, 0.0)
    )
    skew = decompose_povm(Povm2(a=0.7, b=0.2, basis=Z))
    assert (skew.c0, skew.c1, skew.c01, skew.c10) == pytest.approx((0.2, 0.3, 0.5, 0.0))


def test_decompose_invariants(rng):
    for _ in range(300):
        a, b = rng.uniform(0, 1, 2)
        mixture = decompose_povm(Povm2(a=float(a), b=float(b), basis=Z))
        weights = (mixture.c0, mixture.c1, mixture.c01, mixture.c10)
        assert all(-1e-12 <= w <= 1 + 1e-12 for w in weights)
        assert sum(weights) == pytest.approx(1.0, abs=1e-12)
        assert min(mixture.c01, mixture.c10) <= 1e-12


def test_mixture_validation():
    with pytest.raises(ValueError):
        EnhancedMixture(c0=0.5, c1=0.6, c01=0.0, c10=0.0, basis=Z)  # sums to 1.1
    with pytest.raises(ValueError):
        EnhancedMixture(c0=0.0, c1=0.0, c01=0.5, c10=0.5, basis=Z)  # both routes active
    with pytest.raises(ValueError):
        EnhancedMixture(c0=-0.2, c1=1.2, c01=0.0, c10=0.0, basis=Z)


def test_constant_mixture():
    m = EnhancedMixture(c0=1.0, c1=0.0, c01=0.0, c10=0.0, basis=Z)
    state = state_from_bloch(bloch_from_angles(1.0, 2.0))
    assert mixture_outcome_probs(m, state) == pytest.approx((1.0, 0.0), abs=1e-15)


def test_equator_worked_example():
    mixture = decompose_povm(Povm2(a=0.7, b=0.2, basis=Z))
    equator = state_from_bloch(bloch_from_angles(math.pi / 2, 0.0))
    assert mixture_outcome_probs(mixture, equator) == pytest.approx((0.45, 0.55), abs=1e-12)
    assert povm_outcome_probs(Povm2(a=0.7, b=0.2, basis=Z), equator) == pytest.approx(
        (0.45, 0.55), abs=1e-12
    )


def test_projective_decomposition_matches_orthogonal_measurement(rng):
    basis = Measurement(BlochVector.normalized(1.0, -1.0, 0.5))
    mixture = decompose_povm(Povm2(a=1.0, b=0.0, basis=basis))
    for row in uniform_directions(1000, rng):
        r = BlochVector.from_array(row)
        state = state_from_bloch(r)
        expected = (
            transition_probability(r, basis.direction),
            transition_probability(r, -basis.direction),
        )
        assert mixture_outcome_probs(mixture, state) == pytest.approx(expected, abs=1e-12)


def test_simulation_is_exact(rng):
    # the mixture reproduces the POVM on every state, not just on average
    for _ in range(2000):
        a, b = rng.uniform(0, 1, 2)
        basis = Measurement(BlochVector.from_array(uniform_directions(1, rng)[0]))
        p = Povm2(a=float(a), b=float(b), basis=basis)
        mixture = decompose_povm(p)
        state = random_states(1, rng)[0]
        direct = povm_outcome_probs(p, state)
        simulated = mixture_outcome_probs(mixture, state)
        assert abs(direct[0] - simulated[0]) < 1e-12
        assert abs(direct[1] - simulated[1]) < 1e-12


def test_outcome_floor_inequalities(rng):
    # P0 can never drop below min(a,b); P1 never below 1 - max(a,b)
    for _ in range(500):
        a, b = rng.uniform(0, 1, 2)
        p = Povm2(a=float(a), b=float(b), basis=Z)
        state = random_states(1, rng)[0]
        p0, p1 = povm_outcome_probs(p, state)
        assert p0 >= min(a, b) - 1e-12
        assert p1 >= 1 - max(a, b) - 1e-12


def test_from_matrix_round_trip(rng):
    for _ in range(100):
        a, b = rng.uniform(0, 1, 2)
        direction = BlochVector.from_array(uniform_directions(1, rng)[0])
        basis = Measurement(direction)
        p = Povm2(a=float(a), b=float(b), basis=basis)
        up, down = state_from_bloch(direction), state_from_bloch(-direction)
        up_vec = np.array([up.alpha, up.beta])
        down_vec = np.array([down.alpha, down.beta])
        matrix = a * np.outer(up_vec, up_vec.conj()) + b * np.outer(down_vec, down_vec.conj())
        rebuilt = Povm2.from_matrix(matrix)
        state = random_states(1, rng)[0]
        assert povm_outcome_probs(rebuilt, state) == pytest.approx(
            povm_outcome_probs(p, state), abs=1e-10
        )


def test_from_matrix_validation():
    with pytest.raises(ValueError):
        Povm2.from_matrix(np.array([[0.5, 0.3], [0.1, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        Povm2.from_matrix(np.diag([1.5, 0.0]))  # eigenvalue out of range
    with pytest.raises(ValueError):
        Povm2.from_matrix(np.eye(3))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_from_matrix_rejects_non_finite_entries(bad):
    for matrix in ([[bad, 0.0], [0.0, 0.5]], [[0.5, bad], [bad, 0.5]], np.full((2, 2), bad)):
        with pytest.raises(ValueError):
            Povm2.from_matrix(np.array(matrix))


def test_from_matrix_diagonal():
    p = Povm2.from_matrix(np.diag([0.9, 0.1]))
    assert p.a == pytest.approx(0.9, abs=1e-12)
    assert p.b == pytest.approx(0.1, abs=1e-12)
