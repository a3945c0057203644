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
from .seesaw import bilinear_value, correlation_tensor, update_b_pair
from .svetlichny import CorrelationMatrix, MeasurementSettings

RESIDUAL_TOL = 1e-6
_RESTARTS = 64
_LBFGS_OPTIONS = {"maxiter": 2000, "ftol": 1e-18, "gtol": 1e-14}


def _units_from_angles(ang: np.ndarray) -> np.ndarray:
    """Four unit vectors (a, a', c, c') from interleaved polar/azimuthal angles."""
    th, ph = ang[0::2], ang[1::2]
    st, ct = np.sin(th), np.cos(th)
    return np.stack([st * np.cos(ph), st * np.sin(ph), ct], axis=1)


def _objective_and_grad(ang: np.ndarray, basis: np.ndarray) -> tuple[float, np.ndarray]:
    # Certified settings depend on these floats to the last bit through the
    # L-BFGS path. The outer products equal np.kron of the vectors, and the
    # stacked matmul gives each gradient entry the dot product a separate
    # vector @ vector call would.
    th, ph = ang[0::2], ang[1::2]
    st, ct, sp, cp = np.sin(th), np.cos(th), np.sin(ph), np.cos(ph)
    a, ap, c, c_p = np.array([st * cp, st * sp, ct]).T.copy()
    outer, dot = np.multiply.outer, np.dot
    t1 = (outer(a, c) - outer(ap, c_p)).ravel()
    t2 = (outer(a, c_p) + outer(ap, c)).ravel()
    bt1, bt2 = dot(basis, t1), dot(basis, t2)
    f = 4.0 - dot(bt1, bt1) - dot(bt2, bt2)

    # Gradients of the captured norm with respect to the four unit vectors,
    # then through each vector's polar and azimuthal angle.
    twice = 2.0 * basis.T
    h1, h2 = dot(twice, bt1).reshape(3, 3), dot(twice, bt2).reshape(3, 3)
    d = np.array([
        -(dot(h1, c) + dot(h2, c_p)),
        dot(h1, c_p) - dot(h2, c),
        -(dot(h1.T, a) + dot(h2.T, ap)),
        dot(h1.T, ap) - dot(h2.T, a),
    ])
    jac = np.empty((4, 3, 2))
    jac[:, 0, 0], jac[:, 1, 0], jac[:, 2, 0] = ct * cp, ct * sp, -st
    jac[:, 0, 1], jac[:, 1, 1], jac[:, 2, 1] = -st * sp, st * cp, 0.0
    return f, (d[:, None, :] @ jac).ravel()


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
    """Complete a found decomposition with the optimal middle-party pair.

    (b, b') is the see-saw's exact B update for the outer settings, and the
    value is the bilinear form at the completed settings. A zero image, as on
    a state without correlations, keeps b = e_x or b' = e_y.
    """
    if not decomposition.found:
        raise ValueError("cannot assemble settings from a failed tightness search")
    t = correlation_tensor(corr.matrix)
    a, ap, c, cp = decomposition.a, decomposition.a_prime, decomposition.c, decomposition.c_prime
    b, bp = update_b_pair(t, a, ap, c, cp, previous=tuple(np.eye(3)[:2]))
    settings = MeasurementSettings(a=a, a_prime=ap, b=b, b_prime=bp, c=c, c_prime=cp)
    return settings, bilinear_value(t, a, ap, b, bp, c, cp)
