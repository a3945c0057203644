"""Search for settings that attain the singular-value bound exactly.

The bilinear form reaches 4 * lambda_1 if and only if the two orthogonal
combinations t1 = a (x) c - a' (x) c' and t2 = a (x) c' + a' (x) c both lie in
the leading right-singular subspace of the correlation matrix. Since
|t1|^2 + |t2|^2 = 4 for any unit settings, that containment is equivalent to
|B t1|^2 + |B t2|^2 = 4 for an orthonormal basis B of the subspace, so the
search minimizes the deficit 4 - |B t1|^2 - |B t2|^2 over the four outer
Bloch vectors, parametrized by spherical angles, with an analytic gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .linalg import SVDResult
from .svetlichny import CorrelationMatrix, MeasurementSettings, optimal_bb

RESIDUAL_TOL = 1e-6
_RESTARTS = 64
_LBFGS_OPTIONS = {"maxiter": 2000, "ftol": 1e-18, "gtol": 1e-14}


def _units_from_angles(ang: np.ndarray) -> np.ndarray:
    """Four unit vectors (a, a', c, c') from interleaved polar/azimuthal angles."""
    th, ph = ang[0::2], ang[1::2]
    st, ct = np.sin(th), np.cos(th)
    return np.stack([st * np.cos(ph), st * np.sin(ph), ct], axis=1)


def _objective_and_grad(ang: np.ndarray, basis: np.ndarray) -> tuple[float, np.ndarray]:
    a, ap, c, cp = _units_from_angles(ang)
    t1 = np.kron(a, c) - np.kron(ap, cp)
    t2 = np.kron(a, cp) + np.kron(ap, c)
    bt1, bt2 = basis @ t1, basis @ t2
    f = 4.0 - bt1 @ bt1 - bt2 @ bt2

    # Gradients of the captured norm with respect to the four unit vectors.
    h1 = (2.0 * basis.T @ bt1).reshape(3, 3)
    h2 = (2.0 * basis.T @ bt2).reshape(3, 3)
    d_a = -(h1 @ c + h2 @ cp)
    d_ap = h1 @ cp - h2 @ c
    d_c = -(h1.T @ a + h2.T @ ap)
    d_cp = h1.T @ ap - h2.T @ a

    grad = np.empty(8)
    for idx, (vec_grad, th, ph) in enumerate(zip((d_a, d_ap, d_c, d_cp), ang[0::2], ang[1::2])):
        st, ct = np.sin(th), np.cos(th)
        sp, cs = np.sin(ph), np.cos(ph)
        grad[2 * idx] = vec_grad @ np.array([ct * cs, ct * sp, -st])
        grad[2 * idx + 1] = vec_grad @ np.array([-st * sp, st * cs, 0.0])
    return f, grad


@dataclass
class DecompositionResult:
    """Outcome of the tightness search.

    ``found`` means the best residual is at most 1e-6, in which case the
    vectors realize the decomposition; otherwise they are the best candidates
    seen.
    """

    found: bool
    a: np.ndarray | None
    a_prime: np.ndarray | None
    c: np.ndarray | None
    c_prime: np.ndarray | None
    residual: float


def check_tightness(svd: SVDResult, *, seed: int = 42) -> DecompositionResult:
    """Look for outer settings whose pair (t1, t2) spans the leading subspace.

    Runs up to 64 seeded quasi-Newton descents and stops at the first whose
    residual is at most RESIDUAL_TOL. With the leading singular value
    nondegenerate no two orthogonal vectors fit, so the search is skipped and
    the result reports found=False.
    """
    if svd.degeneracy() < 2:
        return DecompositionResult(
            found=False, a=None, a_prime=None, c=None, c_prime=None,
            residual=float("inf"),
        )
    basis = svd.leading_right_basis()
    rng = np.random.default_rng(seed)
    best_f, best_ang, residual = float("inf"), None, float("inf")
    for _ in range(_RESTARTS):
        ang0 = rng.uniform(0.0, np.pi, size=8)
        ang0[1::2] *= 2.0
        res = minimize(
            _objective_and_grad,
            ang0,
            args=(basis,),
            jac=True,
            method="L-BFGS-B",
            options=_LBFGS_OPTIONS,
        )
        if res.fun < best_f:
            best_f, best_ang = res.fun, res.x
            residual = float(np.sqrt(max(best_f, 0.0)))
        found = residual <= RESIDUAL_TOL
        if found:
            break

    a, ap, c, cp = _units_from_angles(best_ang)
    return DecompositionResult(
        found=found,
        a=a, a_prime=ap, c=c, c_prime=cp,
        residual=residual,
    )


def assemble_settings(
    decomposition: DecompositionResult, corr: CorrelationMatrix
) -> tuple[MeasurementSettings, float]:
    """Complete a found decomposition with the optimal middle-party pair."""
    if not decomposition.found:
        raise ValueError("cannot assemble settings from a failed tightness search")
    b, b_prime, value = optimal_bb(
        corr.matrix,
        decomposition.a,
        decomposition.a_prime,
        decomposition.c,
        decomposition.c_prime,
    )
    settings = MeasurementSettings(
        a=decomposition.a,
        a_prime=decomposition.a_prime,
        b=b,
        b_prime=b_prime,
        c=decomposition.c,
        c_prime=decomposition.c_prime,
    )
    return settings, value
