"""Unit-sphere state geometry: conversions, probabilities, sampling helpers."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrac.bloch import (
    BlochVector,
    Measurement,
    QubitState,
    bloch_from_state,
    state_from_bloch,
    transition_probability,
    uniform_directions,
)

from helpers import bloch_from_angles

X = BlochVector(1.0, 0.0, 0.0)
Y = BlochVector(0.0, 1.0, 0.0)
Z = BlochVector(0.0, 0.0, 1.0)


def test_angles_to_vector_poles_and_equator():
    assert bloch_from_angles(0.0, 0.0) == BlochVector(0.0, 0.0, 1.0)
    r = bloch_from_angles(math.pi / 2, 0.0)
    assert r.x == pytest.approx(1.0, abs=1e-15)
    assert r.z == pytest.approx(0.0, abs=1e-15)
    r = bloch_from_angles(math.pi / 2, math.pi / 2)
    assert r.y == pytest.approx(1.0, abs=1e-15)
    r = bloch_from_angles(math.pi, 0.0)
    assert r.z == pytest.approx(-1.0, abs=1e-15)


def test_angles_validation():
    with pytest.raises(ValueError):
        bloch_from_angles(-0.1, 0.0)
    with pytest.raises(ValueError):
        bloch_from_angles(math.pi + 0.1, 0.0)
    with pytest.raises(ValueError):
        bloch_from_angles(1.0, -0.1)
    with pytest.raises(ValueError):
        bloch_from_angles(1.0, 2 * math.pi)


def test_bloch_vector_requires_unit_norm():
    with pytest.raises(ValueError):
        BlochVector(1.0, 1.0, 0.0)
    v = BlochVector.normalized(1.0, 1.0, 0.0)
    assert v.x == pytest.approx(1 / math.sqrt(2))
    with pytest.raises(ValueError):
        BlochVector.normalized(0.0, 0.0, 0.0)


def test_negation_and_dot():
    v = BlochVector.normalized(1.0, 2.0, 2.0)
    assert (-v).as_array() == pytest.approx(-v.as_array())
    assert v.dot(v) == pytest.approx(1.0)
    assert v.dot(-v) == pytest.approx(-1.0)


def test_state_from_bloch_poles():
    north = state_from_bloch(Z)
    assert north.alpha == pytest.approx(1.0)
    assert north.beta == pytest.approx(0.0)
    south = state_from_bloch(BlochVector(0.0, 0.0, -1.0))
    assert south.alpha == pytest.approx(0.0)
    assert south.beta == pytest.approx(1.0)


def test_state_from_bloch_equator():
    plus = state_from_bloch(X)
    assert plus.alpha == pytest.approx(1 / math.sqrt(2))
    assert plus.beta == pytest.approx(1 / math.sqrt(2))


def test_round_trip_vector_state_vector(rng):
    for row in uniform_directions(2000, rng):
        r = BlochVector.from_array(row)
        back = bloch_from_state(state_from_bloch(r))
        assert back.as_array() == pytest.approx(r.as_array(), abs=1e-10)


def test_round_trip_near_south_pole():
    for z in (-1.0, -1.0 + 1e-13, -1.0 + 1e-9):
        x = math.sqrt(max(0.0, 1.0 - z * z))
        r = BlochVector.normalized(x, 0.0, z)
        back = bloch_from_state(state_from_bloch(r))
        assert back.as_array() == pytest.approx(r.as_array(), abs=1e-4)
        assert np.linalg.norm(back.as_array()) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    theta=st.floats(min_value=0.0, max_value=math.pi),
    phi=st.floats(min_value=0.0, max_value=2 * math.pi, exclude_max=True),
)
def test_round_trip_from_angles(theta, phi):
    r = bloch_from_angles(theta, phi)
    back = bloch_from_state(state_from_bloch(r))
    assert back.as_array() == pytest.approx(r.as_array(), abs=1e-9)


def test_state_norm_validation():
    with pytest.raises(ValueError):
        QubitState(1.0, 1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_input_is_rejected(bad):
    # a comparison with NaN is False, so every check must fail closed
    with pytest.raises(ValueError):
        BlochVector(bad, 0.0, 0.0)
    with pytest.raises(ValueError):
        BlochVector.normalized(bad, 0.0, 1.0)
    with pytest.raises(ValueError):
        QubitState(complex(bad), 0j)
    with pytest.raises(ValueError):
        QubitState(1.0 + 0j, complex(0.0, bad))


def test_transition_probability_extremes():
    assert transition_probability(Z, Z) == pytest.approx(1.0)
    assert transition_probability(Z, BlochVector(0.0, 0.0, -1.0)) == pytest.approx(0.0)
    assert transition_probability(Z, X) == pytest.approx(0.5)


def test_transition_probability_matches_amplitudes(rng):
    # |<psi1|psi2>|^2 computed from amplitudes must equal (1 + r1.r2)/2.
    rows = uniform_directions(400, rng)
    for i in range(0, 400, 2):
        r1 = BlochVector.from_array(rows[i])
        r2 = BlochVector.from_array(rows[i + 1])
        s1, s2 = state_from_bloch(r1), state_from_bloch(r2)
        overlap = abs(np.conj(s1.alpha) * s2.alpha + np.conj(s1.beta) * s2.beta) ** 2
        assert transition_probability(r1, r2) == pytest.approx(overlap, abs=1e-12)


def test_outcome_probabilities_at_angle():
    state = bloch_from_angles(math.pi / 4, 0.0)
    p0, p1 = transition_probability(state, Z), transition_probability(state, -Z)
    assert p0 == pytest.approx(0.8535534, abs=1e-7)
    assert p1 == pytest.approx(0.1464466, abs=1e-7)
    assert p0 + p1 == pytest.approx(1.0, abs=1e-15)


def test_outcome_probabilities_clip_to_unit_interval():
    p0, p1 = transition_probability(Z, Z), transition_probability(Z, -Z)
    assert 0.0 <= p1 <= 1.0 and p0 <= 1.0


def test_measurement_basis_states_are_orthogonal():
    m = Measurement(BlochVector.normalized(1.0, 1.0, 1.0))
    up, down = state_from_bloch(m.direction), state_from_bloch(-m.direction)
    overlap = np.conj(up.alpha) * down.alpha + np.conj(up.beta) * down.beta
    assert abs(overlap) == pytest.approx(0.0, abs=1e-12)
    assert bloch_from_state(up).as_array() == pytest.approx(m.direction.as_array(), abs=1e-12)
    assert bloch_from_state(down).as_array() == pytest.approx(-m.direction.as_array(), abs=1e-12)


def test_uniform_directions_shape_and_norms(rng):
    rows = uniform_directions(500, rng)
    assert rows.shape == (500, 3)
    assert np.linalg.norm(rows, axis=1) == pytest.approx(np.ones(500), abs=1e-12)


def test_uniform_directions_deterministic():
    a = uniform_directions(32, np.random.default_rng(7))
    b = uniform_directions(32, np.random.default_rng(7))
    assert np.array_equal(a, b)


def test_uniform_directions_covers_hemispheres():
    rows = uniform_directions(4000, np.random.default_rng(1))
    # mean z of a uniform sphere sample is 0 with sd 1/sqrt(3N)
    assert abs(rows[:, 2].mean()) < 4 / math.sqrt(3 * 4000)
