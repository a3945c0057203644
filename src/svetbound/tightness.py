"""Certify that outer settings attain the singular-value bound exactly.

The bilinear form reaches 4 * lambda_1 if and only if the two orthogonal
combinations t1 = a (x) c - a' (x) c' and t2 = a (x) c' + a' (x) c both lie in
the leading right-singular subspace of the correlation matrix. Since
|t1|^2 + |t2|^2 = 4 for any unit settings, that containment is equivalent to
|B t1|^2 + |B t2|^2 = 4 for an orthonormal basis B of the subspace. The
residual, the distance sqrt(4 - |B t1|^2 - |B t2|^2) of (t1, t2) from the
subspace, decides ``found`` on every route. The exact route computes it as
the norm of the components of t1 and t2 off the subspace, which loses no
digits to the subtraction; the L-BFGS fallback minimizes the deficit itself.

As 3x3 matrices, T1 + i T2 = (a + i a')(c + i c')^T is rank one. Conversely,
any nonzero rank-one complex matrix alpha gamma^T in the complexified
subspace gives settings: a phase e^{i phi} with e^{2 i phi} (alpha . alpha)
purely imaginary (the unconjugated product) makes the real and imaginary
parts of e^{i phi} alpha equal in norm, and normalized they are a and a'; c
and c' come from gamma the same way. T1 + i T2 is then a complex multiple of
alpha gamma^T, so t1 and t2 lie in the subspace.

So the first route is exact. A k-fold leading value takes its candidates
from the pencil of its first min(k, 2) leading right vectors as 3x3 matrices.
At k = 1 the candidate is V1: a real rank-one V1 = a c^T gives a = a', c = c'
and t1 = 0, and assemble_settings completes it with b' = -b. Its residual is
2 sqrt(1 - s1^2) in V1's singular values s1 >= s2 >= s3, so V1's squared 2x2
minors, which sum to at most 1 - s1^2, reject it above RESIDUAL_TOL^2 with no
SVD, and with a factor four to spare for rounding. At k = 2 the rank-one
members are the common roots of the nine minors of s V1 + t V2, binary
quadratics in (s, t). Each is a root of the dominant right-singular vector
of their 9x3 coefficient matrix, so its two roots, t = 0 and s = 0 included,
are the candidates. Both pencils are complete. A threefold value's
sub-pencil, which certifies the zero matrix at once, is not: only there does
a seeded multistart L-BFGS run on the residual over the four outer Bloch
vectors, in spherical angles with an analytic gradient, which also gives an
unattainable threefold subspace its residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import SVDResult
from .optimizer import minimize
from .seesaw import _TWIST, _block, _conj, _images, _layout, _update, _value, correlation_tensor
from .svetlichny import CorrelationMatrix, MeasurementSettings

RESIDUAL_TOL = 1e-6
_RESTARTS = 64
_LBFGS_OPTIONS = {"maxiter": 2000, "ftol": 1e-18, "gtol": 1e-14}

# Flat indices of the four corners of the nine 2x2 minors of a row-major 3x3
# matrix, each corner a (row pair, column pair) grid: upper left, upper right,
# lower left, lower right. The pairs are (0, 1), (0, 2) and (1, 2).
_PAIR_ENDS = (np.array([0, 0, 1]), np.array([1, 2, 2]))
_MINOR_CORNERS = np.array([3 * rows[:, None] + cols for rows in _PAIR_ENDS for cols in _PAIR_ENDS])

# The (b, b') that assemble_settings keeps where B's image vanishes: e_x and e_y.
_E_XY = np.eye(3)[:2]
_E_XY.flags.writeable = False


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
    """Outcome of the tightness check.

    ``found`` means the residual is at most RESIDUAL_TOL, in which case the
    vectors realize the decomposition. Otherwise they are the best candidates
    an L-BFGS search saw, or None with an infinite residual if none ran.
    """

    found: bool
    a: np.ndarray | None
    a_prime: np.ndarray | None
    c: np.ndarray | None
    c_prime: np.ndarray | None
    residual: float


def _residual(basis: np.ndarray, a, ap, c, cp) -> float:
    """sqrt(|(I - B^T B) t1|^2 + |(I - B^T B) t2|^2), the distance of (t1, t2) from the subspace.

    For unit outer settings it equals sqrt(4 - |B t1|^2 - |B t2|^2), since B
    has orthonormal rows, but it keeps the digits that subtraction cancels.
    """
    outer = np.multiply.outer
    t = np.empty((2, 3, 3))
    np.subtract(outer(a, c), outer(ap, cp), out=t[0])
    np.add(outer(a, cp), outer(ap, c), out=t[1])
    t = t.reshape(2, 9)
    off = t - (t @ basis.T) @ basis
    return math.sqrt(float(np.sum(off * off)))


def _pencil_quadratic(v1: np.ndarray, v2: np.ndarray) -> np.ndarray:
    """Coefficients (q0, q1, q2) of the dominant quadratic among the minors of s V1 + t V2.

    A minor is q0 s^2 + q1 s t + q2 t^2. Every common root of the nine is a
    root of the top right-singular vector of their 9x3 coefficient matrix,
    which lies in its row space.
    """
    (a1, b1, c1, d1), (a2, b2, c2, d2) = v1[_MINOR_CORNERS], v2[_MINOR_CORNERS]
    coefficients = np.empty((3, 3, 3))
    coefficients[..., 0] = a1 * d1 - b1 * c1
    coefficients[..., 1] = a1 * d2 + a2 * d1 - b1 * c2 - b2 * c1
    coefficients[..., 2] = a2 * d2 - b2 * c2
    return np.linalg.svd(coefficients.reshape(9, 3))[2][0]


def _pencil_roots(q: np.ndarray) -> list[tuple[complex, complex]]:
    """Both roots (s, t) of q0 s^2 + q1 s t + q2 t^2, each with max(|s|, |t|) = 1.

    The ratio solved for is the one whose leading coefficient is the larger
    end, so a vanishing end coefficient gives the root s = 0 or t = 0 itself.
    """
    q0, q1, q2 = (float(x) for x in q)
    swap = abs(q0) > abs(q2)
    lead, tail = (q0, q2) if swap else (q2, q0)
    if lead == 0.0:
        # Then tail = 0 too, and q1 s t vanishes at t = 0 and at s = 0.
        return [(1.0, 0.0), (0.0, 1.0)]
    disc = q1 * q1 - 4.0 * lead * tail
    if disc < 0.0:
        root = complex(-q1, math.sqrt(-disc)) / (2.0 * lead)
        ratios = [root, root.conjugate()]
    else:
        k = -0.5 * (q1 + math.copysign(math.sqrt(disc), q1))
        ratios = [k / lead, tail / k if k else 0.0]
    roots = []
    for x in ratios:
        pair = (1.0, x) if abs(x) <= 1.0 else (1.0 / x, 1.0)
        roots.append(pair[::-1] if swap else pair)
    return roots


def _balanced_pair(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit real vectors (x, x') with v a complex multiple of x + i x'.

    The phase makes e^{2i phi} (v . v) purely imaginary, so the real and
    imaginary parts of e^{i phi} v have equal norm, each |v| / sqrt(2).
    """
    w = v * np.exp(0.5j * (0.5 * np.pi - np.angle(v @ v)))
    # sqrt(x . x) is np.linalg.norm of a real 1-D array, bit for bit.
    x, xp = w.real, w.imag
    return x / math.sqrt(x.dot(x)), xp / math.sqrt(xp.dot(xp))


def _pencil_search(basis: np.ndarray) -> DecompositionResult:
    """Settings from a rank-one member of the pencil of the first min(k, 2) basis vectors.

    Returns the first candidate whose residual on the full basis is at most
    RESIDUAL_TOL, or found=False with no vectors and an infinite residual.
    """
    if len(basis) == 1:
        # The squared minors sum to s1^2 (s2^2 + s3^2) + s2^2 s3^2 <= 1 - s1^2.
        upper_left, upper_right, lower_left, lower_right = basis[0][_MINOR_CORNERS]
        minors = (upper_left * lower_right - upper_right * lower_left).ravel()
        members = [basis[0]] if minors.dot(minors) <= RESIDUAL_TOL**2 else []
    else:
        v1, v2 = basis[0], basis[1]
        members = [s * v1 + t * v2 for s, t in _pencil_roots(_pencil_quadratic(v1, v2))]
    for member in members:
        u, _, vh = np.linalg.svd(member.reshape(3, 3))
        a, ap = _balanced_pair(u[:, 0])
        c, cp = _balanced_pair(vh[0])
        residual = _residual(basis, a, ap, c, cp)
        if residual <= RESIDUAL_TOL:
            return DecompositionResult(
                found=True, a=a, a_prime=ap, c=c, c_prime=cp, residual=residual,
            )
    return DecompositionResult(False, None, None, None, None, math.inf)


def _lbfgs_search(basis: np.ndarray, seed: int) -> DecompositionResult:
    """Up to 64 seeded quasi-Newton descents, stopping at the first whose residual is at most RESIDUAL_TOL."""
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


def check_tightness(svd: SVDResult, *, seed: int = 42) -> DecompositionResult:
    """Look for outer settings whose pair (t1, t2) spans the leading subspace.

    The exact route tries the rank-one members of the complexified pencil of
    the first min(k, 2) leading right vectors of a k-fold leading value. At
    k <= 2 it is complete, so what it does not certify is reported with no
    search. At k = 3 up to 64 seeded L-BFGS descents follow, stopping at the
    first whose residual is at most RESIDUAL_TOL.
    """
    basis = svd.leading_right_basis()
    decomposition = _pencil_search(basis)
    if not decomposition.found and len(basis) == 3:
        decomposition = _lbfgs_search(basis, seed)
    return decomposition


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
    # One (3, 2) block per party, as the see-saw keeps them: B's step writes
    # into B's, and the value reads all three, with no further copies.
    z_a, block_b, block_c = _conj(_block(a, ap)), _block(*_E_XY), _block(c, cp)
    _update(_layout(t, 1), z_a, _TWIST * _conj(block_c), block_b)
    value = _value(block_c, _images(_layout(t, 2), z_a, _TWIST * _conj(block_b)))
    b, bp = block_b.T
    settings = MeasurementSettings(a=a, a_prime=ap, b=b, b_prime=bp, c=c, c_prime=cp)
    return settings, float(value[0])
