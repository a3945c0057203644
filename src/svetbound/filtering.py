"""Local filtering of three-qubit states and the filtered singular-value bound.

A filter triple (F_A, F_B, F_C) of positive semidefinite 2x2 operators maps a
state rho to rho' = F rho F^dag / N with F = F_A (x) F_B (x) F_C and
N = tr(F^dag F rho). Written canonically as U diag(s) U^dag, each filter acts
on the state's Pauli moment tensor q through the 4x4 map L(U diag(s)), and
q' = (L_A (x) L_B (x) L_C) q gives N = q'[0, 0, 0] and X = q'[1:, 1:, 1:]
without forming rho'. The dropped U^dag factors only rotate Bloch vectors, so
M' = O_B X (O_A (x) O_C)^T / N, and M' and X/N share singular values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FilterAnnihilationError
from .linalg import lorentz_map, pauli_moments, real_expectation, spectral_2x2_psd, tensor
from .svetlichny import CorrelationMatrix, correlation_block, correlation_matrix

ANNIHILATION_TOL = 1e-15


@dataclass(frozen=True)
class FilterParams:
    """Diagonal filter strengths, one positive scale per party."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        for name, value in (("x", self.x), ("y", self.y), ("z", self.z)):
            if not 0.0 < value < np.inf:
                raise ValueError(f"filter parameter {name} must be positive and finite, got {value}")

    def triple(self) -> "FilterTriple":
        return FilterTriple.diagonal(self.x, self.y, self.z)


@dataclass
class FilterTriple:
    """Per-party PSD filters with their canonical spectral factors.

    Each filter is stored as given and as F = U diag(s) U^dag with s
    nonincreasing and rescaled so the smaller entry is 1 whenever it is
    nonzero. The rescaling drops out of rho' and of X/N.
    """

    f_a: np.ndarray
    f_b: np.ndarray
    f_c: np.ndarray
    unitaries: tuple[np.ndarray, np.ndarray, np.ndarray]
    scales: tuple[np.ndarray, np.ndarray, np.ndarray]

    @classmethod
    def from_operators(cls, f_a: np.ndarray, f_b: np.ndarray, f_c: np.ndarray) -> "FilterTriple":
        ops = [np.asarray(f, dtype=complex) for f in (f_a, f_b, f_c)]
        units, scales = [], []
        for op in ops:
            u, s = spectral_2x2_psd(op)
            if s[1] > 0.0:
                s = s / s[1]
            units.append(u)
            scales.append(s)
        return cls(*ops, unitaries=tuple(units), scales=tuple(scales))

    @classmethod
    def diagonal(cls, x: float, y: float, z: float) -> "FilterTriple":
        """Filters diag(v, 1) scaling each party's |0> amplitude by v >= 0."""
        for name, value in (("x", x), ("y", y), ("z", z)):
            if not 0.0 <= value < np.inf:
                raise ValueError(f"diagonal filter entry {name} must be finite and nonnegative, got {value}")
        return cls.from_operators(np.diag([x, 1.0]), np.diag([y, 1.0]), np.diag([z, 1.0]))

    @classmethod
    def identity(cls) -> "FilterTriple":
        return cls.diagonal(1.0, 1.0, 1.0)


def apply_filter(rho: np.ndarray, filters: FilterTriple) -> tuple[np.ndarray, float]:
    """Filtered state and the literal normalization tr(F^dag F rho).

    Raises FilterAnnihilationError when the normalization is at or below
    1e-15, since the filtered state is then undefined, and ValueError when
    F^dag F overflows double precision.
    """
    big = tensor(filters.f_a, filters.f_b, filters.f_c)
    with np.errstate(over="ignore", invalid="ignore"):
        gram = big.conj().T @ big
    if not np.isfinite(gram).all():
        raise ValueError("filter strengths overflow F^dag F; use milder filters")
    scale = float(np.linalg.norm(big, 2)) ** 2
    n = real_expectation(np.asarray(rho, dtype=complex), gram, scale=scale)
    if n <= ANNIHILATION_TOL:
        raise FilterAnnihilationError(f"filter normalization {n:.3e} is at or below {ANNIHILATION_TOL:g}")
    rho_prime = big @ rho @ big.conj().T / n
    rho_prime = (rho_prime + rho_prime.conj().T) / 2.0
    return rho_prime, n


def _filtered_moments(rho: np.ndarray, filters: FilterTriple) -> np.ndarray:
    """Moments of F rho F^dag with every filter in canonical scale.

    Each party's moment index is multiplied by L(U diag(s)), so
    q' = (L_A (x) L_B (x) L_C) q. Raises ValueError when a canonical map or
    q' is not finite in double precision.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        maps = lorentz_map(np.stack([u * s for u, s in zip(filters.unitaries, filters.scales)]))
        q = np.einsum("ia,jb,kc,abc->ijk", *maps, pauli_moments(rho))
    if not np.isfinite(q).all():
        raise ValueError("filter strengths overflow the canonical filter maps; use milder filters")
    return q


def x_matrix(rho: np.ndarray, filters: FilterTriple) -> np.ndarray:
    """Unnormalized filtered correlation matrix in canonical filter scale.

    Entries are tr(varrho delta_l (x) eta_m (x) gamma_n) at row m and column
    3l + n, with varrho the unitarily rotated state and delta, eta, gamma the
    Pauli matrices conjugated by each party's canonical diag(s).
    """
    return correlation_block(_filtered_moments(rho, filters))


def canonical_normalization(rho: np.ndarray, filters: FilterTriple) -> float:
    """tr(F^dag F rho) with every filter in canonical scale. Pairs with x_matrix.

    L(U diag(s)) = L(diag(s)) L(U): the rotation turns rho into U^dag rho U, and
    row 0 of the diagonal step weighs its populations by s^2 per party, so
    N = sum_i s_i^2 (U^dag rho U)_ii is a sum of nonnegative terms. The same
    populations read off the moments carry +-1e-17 of rounding that large
    strengths amplify past N itself, so they are read off the rotated diagonal.
    """
    u = tensor(*filters.unitaries)
    populations = np.einsum("ri,rs,si->i", u.conj(), rho, u).real
    weights = tensor(*(s * s for s in filters.scales))
    return float(np.clip(populations, 0.0, None) @ weights)


@dataclass
class FilteredAnalysis:
    """Everything the filtered bound produces for one (state, filters) pair.

    ``n`` is the literal normalization tr(F^dag F rho) that divides
    ``rho_prime``; ``n_factor`` is the canonical-scale normalization paired with
    ``x_matrix``; ``m_prime`` is the correlation matrix of the normalized
    filtered state, and ``bound`` equals 4 * lambda1_prime.
    """

    rho_prime: np.ndarray
    n: float
    n_factor: float
    x_matrix: np.ndarray
    m_prime: CorrelationMatrix
    lambda1_prime: float
    bound: float


def filtered_bound(rho: np.ndarray, filters: FilterTriple) -> FilteredAnalysis:
    """Filtered singular-value bound via the normalized state's correlations."""
    rho_prime, n_literal = apply_filter(rho, filters)
    xm = x_matrix(rho, filters)
    n = canonical_normalization(rho, filters)
    if n <= ANNIHILATION_TOL:
        raise FilterAnnihilationError(f"canonical normalization {n:.3e} is at or below {ANNIHILATION_TOL:g}")
    m_prime = correlation_matrix(rho_prime)
    s1 = float(m_prime.svd.singular_values[0])
    return FilteredAnalysis(
        rho_prime=rho_prime,
        n=n_literal,
        n_factor=n,
        x_matrix=xm,
        m_prime=m_prime,
        lambda1_prime=s1,
        bound=4.0 * s1,
    )
