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

import functools
import math
from dataclasses import dataclass, field

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
        """Filters diag(v, 1) scaling each party's |0> amplitude by v >= 0.

        The spectral factors come in closed form: the identity with scales
        (v, 1) when v >= 1, else the swap with scales (1/v, 1), or (1, 0) at
        v = 0. They equal from_operators' eigen-solves bit for bit up to about
        v = 1e146; above it LAPACK rescales the matrix and can move an
        eigenvalue by one ulp, which the closed form does not.
        """
        ops, units, scales = [], [], []
        for name, value in (("x", x), ("y", y), ("z", z)):
            if not 0.0 <= value < np.inf:
                raise ValueError(f"diagonal filter entry {name} must be finite and nonnegative, got {value}")
            ops.append(np.asarray(np.diag([value, 1.0]), dtype=complex))
            if value >= 1.0:
                units.append(np.eye(2, dtype=complex))
                scales.append(np.array([value, 1.0]))
            else:
                units.append(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
                scales.append(np.array([1.0, value]) / value if value > 0.0 else np.array([1.0, 0.0]))
        return cls(*ops, unitaries=tuple(units), scales=tuple(scales))

    @classmethod
    def identity(cls) -> "FilterTriple":
        return cls.diagonal(1.0, 1.0, 1.0)


def _largest_eigenvalue(f: np.ndarray) -> float:
    """Largest eigenvalue of a Hermitian 2x2 matrix in closed form; for a PSD filter, its spectral norm."""
    a, d = float(f[0, 0].real), float(f[1, 1].real)
    return (a + d) / 2.0 + math.hypot((a - d) / 2.0, abs(complex(f[0, 1])))


def apply_filter(rho: np.ndarray, filters: FilterTriple) -> tuple[np.ndarray, float]:
    """Filtered state and the literal normalization tr(F^dag F rho).

    Raises FilterAnnihilationError when the normalization is at or below
    1e-15, since the filtered state is then undefined, and ValueError when
    F^dag F overflows double precision.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        big = tensor(filters.f_a, filters.f_b, filters.f_c)
        big_h = big.conj().T
        gram = big_h @ big
    # ||F||_2^2, the tolerance scale: the norm of a Kronecker product is the product of the norms.
    norm = _largest_eigenvalue(filters.f_a) * _largest_eigenvalue(filters.f_b) * _largest_eigenvalue(filters.f_c)
    scale = norm * norm
    if not (np.isfinite(gram).all() and math.isfinite(scale)):
        raise ValueError("filter strengths overflow F^dag F; use milder filters")
    n = real_expectation(np.asarray(rho, dtype=complex), gram, scale=scale)
    if n <= ANNIHILATION_TOL:
        raise FilterAnnihilationError(f"filter normalization {n:.3e} is at or below {ANNIHILATION_TOL:g}")
    rho_prime = big @ rho @ big_h / n
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
    with np.errstate(over="ignore", invalid="ignore"):
        f = tensor(*filters.scales)
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
    are clipped at zero before large strengths can amplify them. Raises
    ValueError when the squared scales overflow double precision.
    """
    populations = np.diagonal(_rotated(rho, filters)).real
    with np.errstate(over="ignore", invalid="ignore"):
        weights = tensor(*(s * s for s in filters.scales))
        n = float(np.clip(populations, 0.0, None) @ weights)
    if not math.isfinite(n):
        raise ValueError("filter strengths overflow the canonical normalization; use milder filters")
    return n


@dataclass
class FilteredAnalysis:
    """Everything the filtered bound produces for one (state, filters) pair.

    ``n`` is the literal normalization tr(F^dag F rho) that divides
    ``rho_prime``; ``n_factor`` is the canonical-scale normalization paired with
    ``x_matrix``; ``m_prime`` is the correlation matrix of the normalized
    filtered state, and ``bound`` equals 4 * lambda1_prime. ``rho`` is a copy
    of the state as given and ``filters`` the filters applied to it.

    ``x_matrix`` is computed on first read, from ``rho`` and ``filters``, and
    kept: certifying the bound never reads it, so its errors (overflowing
    scales, an imaginary residue) are raised on that read.
    """

    rho_prime: np.ndarray
    n: float
    n_factor: float
    m_prime: CorrelationMatrix
    lambda1_prime: float
    bound: float
    rho: np.ndarray = field(repr=False)
    filters: FilterTriple = field(repr=False)

    @functools.cached_property
    def x_matrix(self) -> np.ndarray:
        # The module-level x_matrix, looked up at call time, so a wrapper set on the module sees the call.
        return x_matrix(self.rho, self.filters)


def filtered_bound(rho: np.ndarray, filters: FilterTriple) -> FilteredAnalysis:
    """Filtered singular-value bound via the normalized state's correlations.

    The canonical normalization is computed here, not on first read, so
    strengths that overflow it or annihilate the state raise at once.
    """
    rho_prime, n_literal = apply_filter(rho, filters)
    n = canonical_normalization(rho, filters)
    if n <= ANNIHILATION_TOL:
        raise FilterAnnihilationError(f"canonical normalization {n:.3e} is at or below {ANNIHILATION_TOL:g}")
    m_prime = correlation_matrix(rho_prime)
    s1 = float(m_prime.svd.singular_values[0])
    return FilteredAnalysis(
        rho_prime=rho_prime,
        n=n_literal,
        n_factor=n,
        m_prime=m_prime,
        lambda1_prime=s1,
        bound=4.0 * s1,
        rho=np.array(rho),
        filters=filters,
    )
