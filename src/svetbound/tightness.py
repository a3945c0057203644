"""Certify that outer settings attain the singular-value bound exactly.

The bilinear form reaches 4 * lambda_1 if and only if the two orthogonal
combinations t1 = a (x) c - a' (x) c' and t2 = a (x) c' + a' (x) c both lie in
the leading right-singular subspace of the correlation matrix. Since
|t1|^2 + |t2|^2 = 4 for any unit settings, that containment is equivalent to
|B t1|^2 + |B t2|^2 = 4 for an orthonormal basis B of the subspace. The
residual, the distance sqrt(4 - |B t1|^2 - |B t2|^2) of (t1, t2) from the
subspace, decides ``found`` for every candidate. It is computed as the norm
of the components of t1 and t2 off the subspace, which loses no digits to the
subtraction.

As 3x3 matrices, T1 + i T2 = (a + i a')(c + i c')^T is rank one. Conversely,
any nonzero rank-one complex matrix alpha gamma^T in the complexified
subspace gives settings: a phase e^{i phi} with e^{2 i phi} (alpha . alpha)
purely imaginary (the unconjugated product) makes the real and imaginary
parts of e^{i phi} alpha equal in norm, and normalized they are a and a'; c
and c' come from gamma the same way. T1 + i T2 is then a complex multiple of
alpha gamma^T, so t1 and t2 lie in the subspace.

So the search is for rank-one members, and it is exact. A k-fold leading
value takes its first candidates from the pencil of its first min(k, 2)
leading right vectors as 3x3 matrices. At k = 1 the candidate is V1: a real
rank-one V1 = a c^T gives a = a', c = c' and t1 = 0, and assemble_settings
completes it with b' = -b. Its residual is 2 sqrt(1 - s1^2) in V1's singular
values s1 >= s2 >= s3, so V1's squared 2x2 minors, which sum to at most
1 - s1^2, reject it above RESIDUAL_TOL^2 with no SVD, and with a factor four
to spare for rounding. At k = 2 the rank-one members are the common roots of
the nine minors of s V1 + t V2, binary quadratics in (s, t). Each is a root
of the dominant right-singular vector of their 9x3 coefficient matrix, so
its two roots, t = 0 and s = 0 included, are the candidates. Both pencils
are complete: a pencil with three rank-one members is rank one throughout.

At k = 3 the members x = (s, t, u) -> s V1 + t V2 + u V3 form a complex
projective plane, and the sub-pencil is its line u = 0. A curve of rank-one
members meets every line, so the sub-pencil certifies a span that holds one,
and any root on that line. Once it fails, the roots are isolated, none has
u = 0, and no three lie on a line. Nor are there four: the line through two
of them would meet the line through the other two in a rank-two member,
whose column and row spaces would hold all four, so the span would lie in a
2x2 block, where det = 0 is a conic of rank-one members. The nine minors are
ternary quadrics with a 9x6 coefficient matrix Q on the monomials s^2, s t,
s u, t^2, t u and u^2 (Stetter, Numerical Polynomial Algebra, SIAM 2004).
Each root's monomial vector lies in ker Q; read as a symmetric matrix it is
x x^T, and the symmetric rank-one matrices in ker Q are exactly these. As no
three roots are collinear, their matrices are independent, so r = dim ker Q
is at least the number of roots. The kernel is read as spanned by the one,
two and three smallest right singular vectors of Q in turn, so no rank
tolerance enters: a wrong r only adds candidates that fail the residual test.

- r = 1: a root's x x^T spans the kernel, and its largest column is x.
- r = 2: the matrices x x^T form a surface that holds no line, so the pencil
  of the two kernel matrices has at most two rank-one members, found as the
  pencils above find theirs.
- r = 3 with three roots X = (x1, x2, x3): the kernel vectors' monomials of
  x u, x s and x t are X diag(u) G, X diag(s) G and X diag(t) G for some
  invertible G, and as u is nonzero at every root, the shift
  (X diag(s) G)(X diag(u) G)^{-1} = X diag(s / u) X^{-1} has the roots as
  eigenvectors; so do the shifts by t and by s + t. Two roots share an
  eigenvalue of a shift only if the line through them passes through V2, V1
  or V1 - V2, and a root on two such lines would put both on u = 0. So every
  root is the eigenvector of a simple eigenvalue of one of the three shifts.

The argument does not cover r = 3 with fewer than three roots, or r >= 4,
after a failed sub-pencil. Such a span would report not found, as an
unattainable one does, and certification would run the see-saw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import SVDResult
# minimize is not called here. The name stays bound because bench/spans.py
# wraps svetbound.tightness.minimize.
from .optimizer import minimize  # noqa: F401
from .seesaw import _TWIST, _block, _conj, _images, _layout, _update, _value, correlation_tensor
from .svetlichny import CorrelationMatrix, MeasurementSettings

RESIDUAL_TOL = 1e-6

# Flat indices of the four corners of the nine 2x2 minors of a row-major 3x3
# matrix, each corner a (row pair, column pair) grid: upper left, upper right,
# lower left, lower right. The pairs are (0, 1), (0, 2) and (1, 2).
_PAIR_ENDS = (np.array([0, 0, 1]), np.array([1, 2, 2]))
_MINOR_CORNERS = np.array([3 * rows[:, None] + cols for rows in _PAIR_ENDS for cols in _PAIR_ENDS])

# The monomials s^2, s t, s u, t^2, t u, u^2 of x = (s, t, u) as the entries of
# x x^T, and the 9x6 matrix that adds the coefficients of x_j x_k and x_k x_j.
_SYMMETRIC = np.array([[0, 1, 2], [1, 3, 4], [2, 4, 5]])
_FOLD = np.eye(6)[_SYMMETRIC.ravel()]
# The monomials of x u, x s and x t among the six.
_SHIFT_ROWS = (_SYMMETRIC[2], _SYMMETRIC[0], _SYMMETRIC[1])

# The (b, b') that assemble_settings keeps where B's image vanishes: e_x and e_y.
_E_XY = np.eye(3)[:2]
_E_XY.flags.writeable = False


@dataclass
class DecompositionResult:
    """Outcome of the tightness check.

    ``found`` means the residual is at most RESIDUAL_TOL, in which case the
    vectors realize the decomposition. Otherwise the vectors are None and the
    residual is infinite.
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


def _kernel_roots(basis: np.ndarray) -> list[np.ndarray]:
    """Coordinates x of candidate members x1 V1 + x2 V2 + x3 V3, from the kernel of Q.

    The kernel is read as spanned by the one, two and three smallest right
    singular vectors in turn, each as a symmetric matrix. One gives its
    largest column; two give that of each rank-one member of their pencil;
    three give the eigenvectors of the shifts by s, by t and by s + t.
    """
    upper_left, upper_right, lower_left, lower_right = np.moveaxis(basis[:, _MINOR_CORNERS], 1, 0)
    products = upper_left[:, None] * lower_right - upper_right[:, None] * lower_left
    kernel = np.linalg.svd(products.reshape(9, 9).T @ _FOLD)[2][::-1]
    k1, k2 = kernel[0][_SYMMETRIC], kernel[1][_SYMMETRIC]
    pencil = _pencil_roots(_pencil_quadratic(k1.ravel(), k2.ravel()))
    symmetric = [k1, *(s * k1 + t * k2 for s, t in pencil)]
    roots = [m[:, np.argmax(np.linalg.norm(m, axis=0))] for m in symmetric]
    # Column by column, the three kernel vectors' monomials of x u, x s and
    # x t: X diag(u) G, X diag(s) G and X diag(t) G for the roots' columns X.
    by_u, by_s, by_t = (kernel[:3, rows].T for rows in _SHIFT_ROWS)
    inverse = np.linalg.pinv(by_u)
    for shifted in (by_s, by_t, by_s + by_t):
        roots.extend(np.linalg.eig(shifted @ inverse)[1].T)
    return roots


def _members(basis: np.ndarray):
    """Candidate rank-one members of the leading span as 9-vectors, in the order they are tried."""
    if len(basis) == 1:
        # The squared minors sum to s1^2 (s2^2 + s3^2) + s2^2 s3^2 <= 1 - s1^2.
        upper_left, upper_right, lower_left, lower_right = basis[0][_MINOR_CORNERS]
        minors = (upper_left * lower_right - upper_right * lower_left).ravel()
        if minors.dot(minors) <= RESIDUAL_TOL**2:
            yield basis[0]
        return
    v1, v2 = basis[0], basis[1]
    for s, t in _pencil_roots(_pencil_quadratic(v1, v2)):
        yield s * v1 + t * v2
    if len(basis) == 3:
        for x in _kernel_roots(basis):
            yield x @ basis


def check_tightness(svd: SVDResult) -> DecompositionResult:
    """Look for outer settings whose pair (t1, t2) spans the leading subspace.

    Returns the first candidate member whose settings have a residual of at
    most RESIDUAL_TOL on the whole leading basis, or found=False with no
    vectors and an infinite residual.
    """
    basis = svd.leading_right_basis()
    for member in _members(basis):
        u, _, vh = np.linalg.svd(member.reshape(3, 3))
        a, ap = _balanced_pair(u[:, 0])
        c, cp = _balanced_pair(vh[0])
        residual = _residual(basis, a, ap, c, cp)
        if residual <= RESIDUAL_TOL:
            return DecompositionResult(
                found=True, a=a, a_prime=ap, c=c, c_prime=cp, residual=residual,
            )
    return DecompositionResult(False, None, None, None, None, math.inf)


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
