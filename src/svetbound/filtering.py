"""Local filtering of three-qubit states and the filtered singular-value bound.

A filter triple (F_A, F_B, F_C) of positive semidefinite 2x2 operators maps a
state rho to rho' = F rho F^dag / N with F = F_A (x) F_B (x) F_C and
N = tr(F^dag F rho). Written canonically as U diag(s) U^dag, each filter acts
entry-wise on the rotated state: with f = s_A (x) s_B (x) s_C, the matrix
(f f^T) o U^dag rho U is F rho F^dag up to the rotation U. One table of
transposed Pauli products, CORRELATION_TABLE, reads X and N off the entries of
any such matrix, so neither needs rho' itself. The dropped U factors only
rotate Bloch vectors, so M' = O_B X (O_A (x) O_C)^T / N, and M' and X/N share
singular values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, FilterAnnihilationError
from .linalg import _PAULI_PRODUCTS, IMAG_RESIDUE_TOL, real_expectation, spectral_2x2_psd, tensor
from .svetlichny import CorrelationMatrix, correlation_block, correlation_matrix

ANNIHILATION_TOL = 1e-15

# Rows 0-26: the flattened 3x9 correlation matrix X, in correlation_block's
# layout; row 27: the trace N. Each row is a Pauli product P transposed and
# flattened, so row . m.ravel() = tr(m P) for any 8x8 matrix m.
_LAYOUT = np.append(correlation_block(np.arange(64).reshape(4, 4, 4)).ravel(), 0)
CORRELATION_TABLE = _PAULI_PRODUCTS[_LAYOUT].transpose(0, 2, 1).reshape(28, 64)


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


def _rotated(rho: np.ndarray, filters: FilterTriple) -> np.ndarray:
    """U^dag rho U with U = U_A (x) U_B (x) U_C, the state in the filters' eigenbases."""
    u = tensor(*filters.unitaries)
    return u.conj().T @ rho @ u


def x_matrix(rho: np.ndarray, filters: FilterTriple) -> np.ndarray:
    """Unnormalized filtered correlation matrix in canonical filter scale.

    Entries are tr(varrho' sigma_l (x) sigma_m (x) sigma_n) at row m and column
    3l + n, with varrho' = (f f^T) o U^dag rho U and f = s_A (x) s_B (x) s_C.
    Each entry of the rotated state carries its own product of scales, so an
    entry that is zero contributes an exact zero. Raises ValueError when the
    scales overflow double precision, and ConsistencyError when an imaginary
    residue above 1e-12, relative to the largest squared scale, shows that rho
    was not Hermitian.
    """
    f = tensor(*filters.scales)
    with np.errstate(over="ignore", invalid="ignore"):
        xm = CORRELATION_TABLE[:27] @ (np.outer(f, f) * _rotated(rho, filters)).ravel()
    if not np.isfinite(xm).all():
        raise ValueError("filter strengths overflow the canonical filter scales; use milder filters")
    residue = np.abs(xm.imag).max()
    if residue > IMAG_RESIDUE_TOL * max(1.0, f.max() ** 2):
        raise ConsistencyError(f"filtered correlations have imaginary residue {residue:.3e}")
    return xm.real.reshape(3, 9)


def canonical_normalization(rho: np.ndarray, filters: FilterTriple) -> float:
    """tr(F^dag F rho) with every filter in canonical scale. Pairs with x_matrix.

    N = sum_i f_i^2 (U^dag rho U)_ii, a sum of nonnegative terms: the
    populations of the rotated state weighed by the squared scales. Rounding
    in the rotation can leave a zero population at -1e-17, so the populations
    are clipped at zero before large strengths can amplify them.
    """
    populations = np.diagonal(_rotated(rho, filters)).real
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
