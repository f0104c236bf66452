"""Geometry of single-qubit pure states on the unit sphere.

A pure state is represented either by two complex amplitudes or by its unit
Bloch vector r = (sin(theta)cos(phi), sin(theta)sin(phi), cos(theta)).  The
north pole (0, 0, 1) is the amplitude pair (1, 0); the south pole is (0, 1).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

#: Tolerance for unit-norm validation of vectors and states.
UNIT_TOLERANCE = 1e-12

#: Below this value of z + 1 a Bloch vector is treated as the exact south pole
#: when converting to amplitudes (the amplitude formulas divide by z + 1).
SOUTH_POLE_CUTOFF = 1e-12


@dataclass(frozen=True)
class BlochVector:
    """A unit vector in R^3 identifying a pure qubit state."""

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        norm = math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)
        if not abs(norm - 1.0) <= UNIT_TOLERANCE:  # written so that NaN fails too
            raise ValueError(f"Bloch vector must have unit norm, got |r| = {norm!r}")

    @classmethod
    def normalized(cls, x: float, y: float, z: float) -> BlochVector:
        """Scale a vector onto the unit sphere; rejects near-zero and non-finite input."""
        norm = math.sqrt(x * x + y * y + z * z)
        if not 1e-12 <= norm < math.inf:
            raise ValueError(f"cannot normalize a vector of length {norm!r}")
        return cls(x / norm, y / norm, z / norm)

    @classmethod
    def from_array(cls, vec: Sequence[float] | np.ndarray) -> BlochVector:
        x, y, z = vec
        return cls(float(x), float(y), float(z))

    def __array__(self, dtype: object = None, copy: bool | None = None) -> np.ndarray:
        """A new (3,) array, so that a sequence of BlochVector is an (n, 3) array-like."""
        return np.array((self.x, self.y, self.z), dtype=dtype)

    def dot(self, other: BlochVector) -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def __neg__(self) -> BlochVector:
        return BlochVector(-self.x, -self.y, -self.z)


@dataclass(frozen=True)
class QubitState:
    """A normalized pure qubit state alpha|0> + beta|1>; the global phase is not fixed."""

    alpha: complex
    beta: complex

    def __post_init__(self) -> None:
        norm_sq = abs(self.alpha) ** 2 + abs(self.beta) ** 2
        if not abs(norm_sq - 1.0) <= 3.0 * UNIT_TOLERANCE:
            raise ValueError(f"state must be normalized, got |alpha|^2 + |beta|^2 = {norm_sq!r}")


def Measurement(direction: BlochVector) -> BlochVector:
    """A measurement is its direction; kept only as the name `perfbench/` scripts call."""
    return direction


def state_from_bloch(r: BlochVector) -> QubitState:
    """Amplitudes of the pure state at Bloch point r, in canonical phase.

    Half-angle form: alpha = sqrt((1+z)/2) and |beta| = sqrt((1-z)/2), with
    the phase of beta taken from x + iy.  Splitting the magnitude from the
    phase stays accurate at both poles, where (x + iy)/sqrt(2(1+z)) would
    lose digits to cancellation.  Within SOUTH_POLE_CUTOFF of the south pole
    the azimuth is undefined and the state is exactly (0, 1).
    """
    if r.z + 1.0 < SOUTH_POLE_CUTOFF:
        return QubitState(0j, 1.0 + 0j)
    planar = math.hypot(r.x, r.y)
    if r.z >= 0.0:
        # near the north pole 1 - z cancels; planar^2/(2(1+z)) does not
        alpha = math.sqrt((1.0 + r.z) / 2.0)
        beta_magnitude = planar / math.sqrt(2.0 * (1.0 + r.z))
    else:
        alpha = planar / math.sqrt(2.0 * (1.0 - r.z))
        beta_magnitude = math.sqrt((1.0 - r.z) / 2.0)
    if planar < SOUTH_POLE_CUTOFF:
        beta = complex(beta_magnitude)
    else:
        beta = beta_magnitude * complex(r.x / planar, r.y / planar)
    return QubitState(complex(alpha), beta)


def bloch_from_state(psi: QubitState) -> BlochVector:
    """Bloch point of a pure state; inverts state_from_bloch up to global phase."""
    cross = psi.alpha.conjugate() * psi.beta
    return BlochVector(
        2.0 * cross.real,
        2.0 * cross.imag,
        abs(psi.alpha) ** 2 - abs(psi.beta) ** 2,
    )


def transition_probability(r1: BlochVector, r2: BlochVector) -> float:
    """Overlap probability |<psi1|psi2>|^2 of the states at two Bloch points."""
    return min(1.0, max(0.0, 0.5 * (1.0 + r1.dot(r2))))


def uniform_directions(count: int, rng: np.random.Generator) -> np.ndarray:
    """Sample `count` uniform points on the unit sphere as a (count, 3) array.

    Inverse-CDF sampling: z uniform in [-1, 1], azimuth uniform in [0, 2*pi);
    the z block is drawn before the azimuth block.
    """
    z = rng.uniform(-1.0, 1.0, size=count)
    phi = rng.uniform(0.0, 2.0 * math.pi, size=count)
    rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.column_stack((rho * np.cos(phi), rho * np.sin(phi), z))
