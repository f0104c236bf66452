"""Two-outcome qubit POVMs and their exact simulation by simpler parts.

Any two-outcome POVM on a qubit is diagonal in some basis: its first element
acts as diag(a, b) there.  Such a measurement can be reproduced exactly by a
random choice among four primitive decoders sharing that basis: always
answer 0, always answer 1, measure and report the outcome, or measure and
report the flipped outcome.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bloch import BlochVector, QubitState, bloch_from_state, transition_probability

#: Validation slack for probability arithmetic.
PROBABILITY_TOLERANCE = 1e-12


@dataclass(frozen=True)
class Povm2:
    """A two-outcome POVM in diagonal form: first element diag(a, b) in `basis`."""

    a: float
    b: float
    basis: BlochVector

    def __post_init__(self) -> None:
        for label, value in (("a", self.a), ("b", self.b)):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{label} must lie in [0, 1], got {value}")

    @classmethod
    def from_matrix(cls, matrix: np.ndarray) -> Povm2:
        """Diagonalize a 2x2 positive-semidefinite element with eigenvalues in [0, 1].

        The larger eigenvalue becomes `a` and its eigenvector fixes the basis
        direction; eigenvalues within PROBABILITY_TOLERANCE outside [0, 1]
        are clamped, anything further out is rejected.
        """
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.shape != (2, 2):
            raise ValueError(f"expected a 2x2 matrix, got shape {matrix.shape}")
        if not np.isfinite(matrix).all():
            raise ValueError("matrix entries must be finite")
        if not float(np.abs(matrix - matrix.conj().T).max()) <= PROBABILITY_TOLERANCE:
            raise ValueError("matrix must be Hermitian")
        eigenvalues, eigenvectors = np.linalg.eigh(matrix)
        low, high = float(eigenvalues[0]), float(eigenvalues[1])
        if not -PROBABILITY_TOLERANCE <= low <= high <= 1.0 + PROBABILITY_TOLERANCE:
            raise ValueError(
                f"eigenvalues must lie in [0, 1], got ({low!r}, {high!r})"
            )
        a = min(1.0, max(0.0, high))
        b = min(1.0, max(0.0, low))
        vector = eigenvectors[:, 1]
        state = QubitState(complex(vector[0]), complex(vector[1]))
        return cls(a=a, b=b, basis=bloch_from_state(state))


@dataclass(frozen=True)
class EnhancedMixture:
    """A random choice among four primitive decoders sharing one basis.

    With probability c0 answer 0, with c1 answer 1, with c01 measure the
    basis and report the outcome, with c10 measure and report the flipped
    outcome.  At most one of c01, c10 is nonzero.
    """

    c0: float
    c1: float
    c01: float
    c10: float
    basis: BlochVector

    def __post_init__(self) -> None:
        weights = (("c0", self.c0), ("c1", self.c1), ("c01", self.c01), ("c10", self.c10))
        for label, value in weights:
            if not -PROBABILITY_TOLERANCE <= value <= 1.0 + PROBABILITY_TOLERANCE:
                raise ValueError(f"{label} must lie in [0, 1], got {value}")
        total = self.c0 + self.c1 + self.c01 + self.c10
        if abs(total - 1.0) > PROBABILITY_TOLERANCE:
            raise ValueError(f"weights must sum to 1, got {total!r}")
        if min(self.c01, self.c10) > PROBABILITY_TOLERANCE:
            raise ValueError(
                f"at most one of c01, c10 may be nonzero, got ({self.c01!r}, {self.c10!r})"
            )


def povm_outcome_probs(p: Povm2, state: QubitState) -> tuple[float, float]:
    """Outcome probabilities (P0, P1) of the POVM on a pure state.

    P0 = a*w + b*(1-w) where w is the overlap of the state with the basis
    direction; P1 is its complement.
    """
    w = transition_probability(bloch_from_state(state), p.basis)
    p0 = p.a * w + p.b * (1.0 - w)
    return p0, 1.0 - p0


def decompose_povm(p: Povm2) -> EnhancedMixture:
    """Exact mixture of the four primitive decoders reproducing the POVM.

    With mu = min(a, b): c0 = mu, c1 = 1 - (a + b) + mu, c01 = a - mu,
    c10 = b - mu.  Exactly one of c01, c10 is zero (both when a = b).
    """
    mu = min(p.a, p.b)
    return EnhancedMixture(
        c0=mu,
        c1=1.0 - (p.a + p.b) + mu,
        c01=p.a - mu,
        c10=p.b - mu,
        basis=p.basis,
    )


def mixture_outcome_probs(m: EnhancedMixture, state: QubitState) -> tuple[float, float]:
    """Outcome probabilities (P0, P1) of the mixture on a pure state.

    P0 = c0 + c01*p0 + c10*p1 with (p0, p1) the orthogonal-measurement
    outcome probabilities in the mixture's basis, the overlaps of the state
    with the basis direction and its antipode; P1 mirrors it.
    """
    r = bloch_from_state(state)
    p0, p1 = transition_probability(r, m.basis), transition_probability(r, -m.basis)
    out0 = m.c0 + m.c01 * p0 + m.c10 * p1
    out1 = m.c1 + m.c01 * p1 + m.c10 * p0
    return out0, out1
