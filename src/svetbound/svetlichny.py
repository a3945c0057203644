"""Svetlichny operator, correlation matrices, and the singular-value bound.

The three-qubit correlation data lives in a 3x9 matrix M with
M[j, 3i + k] = tr(rho sigma_{i+1} (x) sigma_{j+1} (x) sigma_{k+1}), indices
0-based, so rows run over party B and columns jointly over parties A and C.
The Svetlichny expectation for unit vectors a, a', b, b', c, c' is the
bilinear form

    (b + b')^T M (a (x) c - a' (x) c') + (b - b')^T M (a (x) c' + a' (x) c)

whose maximum over settings is at most 4 times the largest singular value
of M, with equality exactly when a valid decomposition of the leading
right-singular subspace exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import _SIGMA4, SVDResult, pauli_moments, real_expectation, svd_3x9

SVETLICHNY_BOUND = 4.0
ALGEBRAIC_MAX = 4.0 * math.sqrt(2.0)
VIOLATION_MARGIN = 1e-9
UNIT_NORM_TOL = 1e-12

# sigma_x, sigma_y and sigma_z flattened, one per row, so v @ _PAULI_ROWS is v . sigma.
_PAULI_ROWS = _SIGMA4[1:].reshape(3, 4)


def _unit(v: np.ndarray, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"{name} must be a 3-vector, got shape {v.shape}")
    # np.linalg.norm of a real 1-D array is sqrt(v.dot(v)), bit for bit.
    norm = math.sqrt(v.dot(v))
    if abs(norm - 1.0) > UNIT_NORM_TOL:
        raise ValueError(f"{name} must be a unit vector, norm {norm:.12g}")
    return v


@dataclass
class MeasurementSettings:
    """Unit Bloch vectors (a, a') for A, (b, b') for B, (c, c') for C."""

    a: np.ndarray
    a_prime: np.ndarray
    b: np.ndarray
    b_prime: np.ndarray
    c: np.ndarray
    c_prime: np.ndarray

    def __post_init__(self):
        self.a = _unit(self.a, "a")
        self.a_prime = _unit(self.a_prime, "a_prime")
        self.b = _unit(self.b, "b")
        self.b_prime = _unit(self.b_prime, "b_prime")
        self.c = _unit(self.c, "c")
        self.c_prime = _unit(self.c_prime, "c_prime")

    @classmethod
    def random(cls, rng: np.random.Generator) -> "MeasurementSettings":
        vecs = rng.normal(size=(6, 3))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        return cls(*vecs)


@dataclass
class CorrelationMatrix:
    """The 3x9 correlation matrix of a state together with its SVD."""

    matrix: np.ndarray
    svd: SVDResult


def correlation_block(q: np.ndarray) -> np.ndarray:
    """The 3x9 layout M[j, 3i + k] = q[i+1, j+1, k+1] of a 4x4x4 moment tensor."""
    return q[1:, 1:, 1:].transpose(1, 0, 2).reshape(3, 9)


def correlation_matrix(rho: np.ndarray) -> CorrelationMatrix:
    """Correlation matrix of a validated three-qubit state."""
    m = correlation_block(pauli_moments(rho))
    return CorrelationMatrix(matrix=m, svd=svd_3x9(m))


def svetlichny_operator(settings: MeasurementSettings) -> np.ndarray:
    """The 8x8 Svetlichny observable for the given settings.

    The sum A (x) (B + B') (x) C + A (x) (B - B') (x) C' + A' (x) (B - B') (x) C
    - A' (x) (B + B') (x) C' of Bloch observables v . sigma, with its four
    triple products formed as one batch, each as (A (x) B) (x) C.
    """
    vecs = np.array([settings.a, settings.a_prime, settings.b, settings.b_prime, settings.c, settings.c_prime])
    ops = (vecs @ _PAULI_ROWS).reshape(6, 2, 2)
    ob, obp = ops[2], ops[3]
    sums = np.array((ob + obp, ob - obp))
    first, second, third = ops[[0, 0, 1, 1]], sums[[0, 1, 1, 0]], ops[[4, 5, 4, 5]]
    pairs = (first[:, :, None, :, None] * second[:, None, :, None, :]).reshape(4, 4, 4)
    terms = (pairs[:, :, None, :, None] * third[:, None, :, None, :]).reshape(4, 8, 8)
    return terms[0] + terms[1] + terms[2] - terms[3]


def svetlichny_value(rho: np.ndarray, settings: MeasurementSettings) -> float:
    """Svetlichny expectation via the operator trace."""
    return real_expectation(np.asarray(rho, dtype=complex), svetlichny_operator(settings))


@dataclass
class BoundReport:
    """Certified upper bound on the Svetlichny expectation of a state.

    ``bound`` is 4 times the leading singular value. ``tight`` records whether
    a decomposition certifying attainability was found, and so which route
    built ``settings``: the decomposition if tight, else the see-saw. When
    settings are present, ``achieved`` is the expectation they produce.
    """

    bound: float
    lambda1: float
    degeneracy: int
    tight: bool = False
    achieved: float | None = None
    settings: MeasurementSettings | None = None

    @property
    def violates(self) -> bool:
        """Whether the certified achieved value beats the bilocal bound 4."""
        return self.achieved is not None and self.achieved > SVETLICHNY_BOUND + VIOLATION_MARGIN


def unfiltered_bound(rho: np.ndarray) -> BoundReport:
    """Singular-value bound 4*lambda_1 for a state, before any certification."""
    corr = correlation_matrix(rho)
    s1 = float(corr.svd.singular_values[0])
    return BoundReport(bound=4.0 * s1, lambda1=s1, degeneracy=corr.svd.degeneracy())
