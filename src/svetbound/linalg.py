"""Dense linear-algebra helpers sized for three-qubit correlation analysis."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError

DEGENERACY_RTOL = 1e-8
IMAG_RESIDUE_TOL = 1e-12
PSD_TOL = 1e-12

_SIGMA4 = np.array(
    [
        [[1.0, 0.0], [0.0, 1.0]],
        [[0.0, 1.0], [1.0, 0.0]],
        [[0.0, -1.0j], [1.0j, 0.0]],
        [[1.0, 0.0], [0.0, -1.0]],
    ],
    dtype=complex,
)


def pauli(index: int) -> np.ndarray:
    """Pauli matrix sigma_index for index in {1, 2, 3} (x, y, z)."""
    if index not in (1, 2, 3):
        raise ValueError(f"Pauli index must be 1, 2 or 3, got {index}")
    return _SIGMA4[index].copy()


@functools.lru_cache(maxsize=None)
def _kron_axes(nd: int, count: int) -> tuple[tuple, ...]:
    """Per factor, the index that puts its axis d at position d * count + k of the product."""
    return tuple(tuple(slice(None) if i % count == k else None for i in range(nd * count)) for k in range(count))


def tensor(*ops: np.ndarray) -> np.ndarray:
    """Kronecker product of the given operators, leftmost factor most significant.

    Equal to chained np.kron, product for product: one broadcast product
    ((f_1 f_2) f_3) ... over axes that interleave the factors' own, then one
    reshape, which costs a fraction of np.kron's overhead on 2x2 factors.
    """
    if not ops:
        raise ValueError("tensor() needs at least one operator")
    ops = [np.asarray(op) for op in ops]
    nd, count = ops[0].ndim, len(ops)
    for op in ops:
        if op.ndim != nd:
            raise ValueError(f"tensor() factors must share a dimension count, got {nd} and {op.ndim}")
    axes = _kron_axes(nd, count)
    out = ops[0][axes[0]]
    for op, index in zip(ops[1:], axes[1:]):
        out = out * op[index]
    shape = out.shape
    return out.reshape([math.prod(shape[d * count : (d + 1) * count]) for d in range(nd)])


# All 64 products sigma_a (x) sigma_b (x) sigma_c, (a, b, c) in lexicographic order.
_PAULI_PRODUCTS = np.stack(
    [tensor(_SIGMA4[a], _SIGMA4[b], _SIGMA4[c]) for a in range(4) for b in range(4) for c in range(4)]
)


def pauli_moments(rho: np.ndarray) -> np.ndarray:
    """Real 4x4x4 tensor q[a, b, c] = tr(rho sigma_a (x) sigma_b (x) sigma_c), index 0 the identity.

    An imaginary residue above 1e-12 means rho was not Hermitian: ConsistencyError.
    """
    vals = np.einsum("nab,ba->n", _PAULI_PRODUCTS, np.asarray(rho, dtype=complex))
    residue = np.abs(vals.imag).max()
    if residue > IMAG_RESIDUE_TOL:
        raise ConsistencyError(f"Pauli moments have imaginary residue {residue:.3e}")
    return vals.real.reshape(4, 4, 4)


def lorentz_map(g: np.ndarray) -> np.ndarray:
    """Real 4x4 map L[mu, nu] = tr(sigma_nu g sigma_mu g^dag) / 2 of a 2x2 operator.

    g sigma_mu g^dag = sum_nu L[mu, nu] sigma_nu (the SL(2,C) to Lorentz map), so
    conjugating one party by g multiplies its moment index by L. Stacks map to stacks.
    """
    g = np.asarray(g, dtype=complex)[..., None, :, :]
    moved = g @ _SIGMA4 @ g.conj().swapaxes(-1, -2)
    return np.einsum("nab,...mba->...mn", _SIGMA4, moved).real / 2.0


def real_expectation(rho: np.ndarray, op: np.ndarray, *, scale: float = 1.0) -> float:
    """tr(rho @ op) for a Hermitian observable.

    The trace of a Hermitian product is real up to roundoff; an imaginary
    residue above IMAG_RESIDUE_TOL means the inputs were not what they claimed to be.
    Roundoff grows with the operator norm, so callers working with large
    operators pass that norm as ``scale``.
    """
    val = np.einsum("ij,ji->", rho, op)
    if abs(val.imag) > IMAG_RESIDUE_TOL * max(1.0, scale):
        raise ConsistencyError(f"expectation has imaginary residue {abs(val.imag):.3e}")
    return float(val.real)


def spectral_2x2_psd(f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Spectral factors (u, s) of a Hermitian PSD 2x2 matrix, f = u @ diag(s) @ u^dag.

    Eigenvalues come back in nonincreasing order. Values in [-PSD_TOL, 0) are
    clipped to zero; a lower one or a Hermiticity residual above PSD_TOL is rejected.
    """
    f = np.asarray(f, dtype=complex)
    if f.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {f.shape}")
    if not np.isfinite(f).all():
        raise ValueError("matrix has non-finite entries")
    herm = np.abs(f - f.conj().T).max()
    if herm > PSD_TOL:
        raise ValueError(f"matrix is not Hermitian, residual {herm:.3e}")
    w, v = np.linalg.eigh(f)
    if w[0] < -PSD_TOL:
        raise ValueError(f"matrix is not positive semidefinite, min eigenvalue {w[0]:.3e}")
    # Stable order keeps the eigenbasis of an already-diagonal input intact.
    order = np.argsort(-w, kind="stable")
    s = np.clip(w[order], 0.0, None)
    u = np.ascontiguousarray(v[:, order])
    return u, s


@dataclass
class SVDResult:
    """Full singular value decomposition of a real 3x9 matrix.

    ``left_vectors`` (3, 3) and ``right_vectors`` (9, 9) hold singular vectors
    in their columns; the first three right columns pair with
    ``singular_values`` and the rest complete an orthonormal basis.
    """

    singular_values: np.ndarray
    left_vectors: np.ndarray
    right_vectors: np.ndarray

    def degeneracy(self) -> int:
        """Multiplicity of the leading singular value at relative tolerance DEGENERACY_RTOL."""
        return self._degeneracy

    @functools.cached_property
    def _degeneracy(self) -> int:
        # Computed on the first call, once per SVD.
        s = self.singular_values
        return int(np.sum(np.abs(s - s[0]) <= DEGENERACY_RTOL * max(1.0, s[0])))

    def leading_right_basis(self) -> np.ndarray:
        """Orthonormal rows spanning the leading right-singular subspace."""
        return self.right_vectors[:, : self.degeneracy()].T.copy()

    def reconstruct(self) -> np.ndarray:
        return (self.left_vectors * self.singular_values) @ self.right_vectors[:, :3].T


def svd_3x9(a: np.ndarray) -> SVDResult:
    """Full SVD of a real 3x9 matrix with nonincreasing singular values."""
    a = np.asarray(a, dtype=float)
    if a.shape != (3, 9):
        raise ValueError(f"expected a 3x9 matrix, got shape {a.shape}")
    u, s, vh = np.linalg.svd(a, full_matrices=True)
    return SVDResult(singular_values=s, left_vectors=u, right_vectors=vh.T)
