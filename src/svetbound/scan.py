"""Filter optimization, violation thresholds, and activation-curve data.

Both routes of optimize_filter work on one per-state polynomial kernel. The
filter diag(x, 1) (x) diag(y, 1) (x) diag(z, 1) acts entry-wise, and entry
(i, j) of the state carries the single monomial x^a y^b z^c whose exponents
count the |0> factors of basis states i and j. So the unnormalized filtered
correlation matrix X and the normalization N are fixed linear maps of the 27
monomials (a, b, c in 0..2), read off the state's entries once per state
through filtering's table of Pauli products; a monomial the state lacks has
exact zero coefficients, and N's coefficients are the populations.

An X-state, whose entries off the diagonal and the anti-diagonal are all
exact zeros, gets the exact supremum over diagonal filters; both built-in
families are X-states. Every coherence rho[k, 7 - k] carries the same
monomial u = xyz, so X is u C plus the zzz entry, with C the kernel's column
of that monomial. The zzz entry over N is at most 1 in size and tends to 1 at
a vertex limit, so sup lambda1' = max(1, sigma1(C) / inf_l g(l)) with
g(l) = sum_i rho_ii exp(v_i . l), l the ln strengths and v_i = 2 z_i - 1 over
the populated basis states. The infimum is a geometric program (Boyd, Kim,
Vandenberghe and Hassibi, Optim. Eng. 8, 67 (2007)), taken on the minimal
face F of conv{v_i} that holds 0: a direction d with v_i . d = 0 on F and
v_i . d <= -1 off it sends every term off F to zero, and the window point w
minimizes F's terms. A face of two vertices is an antipodal pair {v, -v}, as
for every ghz-noise and chi state with p > 0, and gets w in closed form; a
larger face gets it by damped Newton. So the supremum is the limit of lambda1'
along w + t d, on the boundary of the state's SLOCC orbit as in Verstraete,
Dehaene and De Moor, PRA 68, 012103 (2003). When it is the plateau 1, w = 0
and d is the vertex of the largest population. The returned filter is a
finite one, w + t d at the first t of LADDER_STEPS where the kernel's lambda1
is within SUPREMUM_TOL of the supremum; one batched eigen-solve gives lambda1
at every t.

Any other state takes the box search. A log-spaced grid of filter strengths
reduces to staged monomial contractions and one batched eigen-solve of the
3x3 Grams X X^T, whose top two eigenvalues are the squared singular values.
Grid optima seed refinements by scipy's bounded Nelder-Mead, each run until
its own stopping tolerances hold, so the result is the supremum over the
strength box whichever start wins a tie. Every kernel evaluation is one
matrix-vector product and one np.linalg.eigvalsh call, so a failed solve
raises LinAlgError.

The second singular value gets the same treatment as the first. Near the
boundary of the violating region the global landscape of the leading value is
dominated by flat plateaus where the bound approaches 4 from below but never
crosses it; the violating branch is the one with a doubly degenerate leading
value, and on the plateaus the second singular value collapses instead.
Refining the second-value optima and ranking every candidate by the first
value keeps the search out of the plateau trap. On that degenerate branch a
second-value refinement often starts where a leading-value one did and would
see the same values at every point; it is skipped and the leading run's end
point reused, which changes no result.

A scan (figure_data, threshold_bisect) runs in the calling process. It
certifies its p grid in p order and refuses a grid whose predicate changes
sign more than once. Each remaining sign change, one mode after the other,
is then the root of that mode's margin: the bound its certified verdict
follows, less 4 + VIOLATION_MARGIN, evaluated without certification. That is
4 lambda1 - 4 - VIOLATION_MARGIN unfiltered, and 4 sigma1(C) e^{-phi} - 4 -
VIOLATION_MARGIN filtered, the X-state supremum before it is clamped at the
plateau 1, which keeps the margin smooth on both sides of the root. Where the
margin is at most 0 the bound itself rules a violation out, so one
certification per mode, just past the root on the violating side, checks the
root. Every point is seeded from its arguments alone, so the results, and
the error a scan raises, do not depend on the number of cores.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
from dataclasses import dataclass, field, fields
from typing import ClassVar

import numpy as np

# certify_filtered is not called here: a filtered point certifies the state
# optimize_filter already filtered. The name stays bound because
# bench/spans.py wraps svetbound.scan.certify_filtered.
from .analysis import certify_filtered, certify_unfiltered  # noqa: F401
from .errors import ConsistencyError, NonMonotonePredicateError
from .fileio import atomic_write_text, format_value
from .filtering import CORRELATION_TABLE, FilteredAnalysis, FilterParams, filtered_bound
from .optimizer import minimize
from .seesaw import OracleConfig
from .states import CHI_THETA, build_chi_state, build_ghz_noise_state
from .svetlichny import SVETLICHNY_BOUND, VIOLATION_MARGIN, BoundReport, unfiltered_bound

# The built-in state families, and the family each activation figure scans.
FAMILIES = ("chi", "ghz-noise")
FIGURE_FAMILY = {"fig1": "chi", "fig2": "ghz-noise"}

# Filter search: log10 range of the strengths; Nelder-Mead's initial step and
# stopping tolerances in log10 strength and in the refined value, and a
# per-start safety cap on evaluations that a converging run stays far below.
FILTER_LOG_RANGE = (-3.0, 3.0)
REFINE_STEP = 0.1
REFINE_TOLS = {"xatol": 1e-8, "fatol": 1e-14}
REFINE_MAX_EVALS = 5000

# X-state route: how close the kernel's lambda1 at the returned filter must
# come to the supremum; the t of w + t d, the first that gets there taken and
# the last one the cap; and the Newton solve of the window point on a face of
# three or more vertices, which stops once the squared Newton decrement is at
# most NEWTON_TOL, within NEWTON_MAX_STEPS steps. Against 40-digit minimizers
# that stop leaves w within 4.3e-11 (1 + |w|) on the tests' eight-vertex X-state
# and 2e-16 on their six-vertex one, and phi within 2.3e-16 (1 + |phi|); the
# tests allow 1e-10 and 1e-15.
SUPREMUM_TOL = 1e-12
LADDER_STEPS = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)
NEWTON_TOL = 1e-20
NEWTON_MAX_STEPS = 100

# The kernel's leading value must match the filtered state's and respect the
# physical maximum sqrt(3) of a three-qubit correlation singular value: for a
# unit b, sum_j b_j M_j is a difference of two weighted AC correlation
# matrices, each of Frobenius norm at most sqrt(3). |Psi+>_AC |0>_B reaches it.
KERNEL_CHECK_TOL = 1e-9
MAX_LAMBDA1 = math.sqrt(3.0) + KERNEL_CHECK_TOL

# Width in p of the bracket that ends a threshold's root search. The violating
# end, pushed ROOT_TOL further out, is certified: every family margin rises by
# at least 4.29 per unit p at its root, so it clears 4 * SUPREMUM_TOL, the most
# the filter ladder's finite filter may fall short of the supremum.
ROOT_TOL = 1e-12
_EPS = float(np.finfo(float).eps)

# Known boundary of the bilocal-model region for the chi family, quoted from
# tabulated two-qubit results. Used only to annotate the activation window;
# nothing in this package computes it.
BILOCAL_BOUNDARY_P = 0.4167


def build_family_state(family: str, p: float, theta: float = CHI_THETA) -> np.ndarray:
    if family == "chi":
        return build_chi_state(p, theta)
    if family == "ghz-noise":
        return build_ghz_noise_state(p)
    raise ValueError(f"unknown family {family!r}, expected 'chi' or 'ghz-noise'")


@dataclass
class ScanSpec:
    """Parameters of a scan: state family, p grid and seed."""

    family: str = "chi"
    p_grid: np.ndarray = field(default_factory=lambda: np.round(np.arange(0.0, 1.0 + 1e-9, 0.01), 10))
    seed: int = 42
    # Strengths per party on the log-spaced grid that seeds optimize_filter.
    filter_grid_points: ClassVar[int] = 25

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}, expected 'chi' or 'ghz-noise'")
        self.p_grid = np.asarray(self.p_grid, dtype=float)
        grid = self.p_grid
        # A threshold's root search starts from the sign change between neighbours, so the grid must ascend.
        if (
            grid.ndim != 1
            or not np.all(np.isfinite(grid))
            or np.any((grid < 0.0) | (grid > 1.0))
            or np.any(np.diff(grid) <= 0.0)
        ):
            raise ValueError("p_grid must be a 1-d, finite, strictly increasing grid inside [0, 1]")


# Exponents (a, b, c) of the 27 monomials x^a y^b z^c, the x power most significant.
_EXPONENTS = np.array(np.unravel_index(np.arange(27), (3, 3, 3)), dtype=float).T
# Incidence from entry (i, j) of an 8x8 matrix, flattened, to the monomial it
# carries: z_i in {0, 1}^3 marks the |0> factors of basis state i, and the filter
# diag(x, 1) (x) diag(y, 1) (x) diag(z, 1) scales entry (i, j) by the monomial
# with exponents z_i + z_j.
_Z = 1 - np.array(np.unravel_index(np.arange(8), (2, 2, 2))).T
_ENTRY_MONOMIALS = ((_Z[:, None] + _Z[None, :]).reshape(64, 1, 3) == _EXPONENTS).all(axis=2).astype(float)
# The monomial xyz, exponents (1, 1, 1), that every coherence rho[k, 7 - k] of an X-state carries.
_COHERENCE_COLUMN = 13
# Entries of an X-state that must be exact zeros: all off the diagonal and the anti-diagonal.
_OFF_X = ~(np.eye(8, dtype=bool) | np.eye(8, dtype=bool)[::-1])
# v_i = 2 z_i - 1, the exponent of basis state i's population in N / (xyz), and
# every integer direction in {-2, ..., 2}^3 with its products v_i . d.
_VERTICES = 2 * _Z - 1
_DIRECTIONS = np.indices((5, 5, 5)).reshape(3, -1).T - 2
_VERTEX_DOTS = _VERTICES @ _DIRECTIONS.T


def _filter_kernel(rho: np.ndarray) -> np.ndarray:
    """Per-state 28x27 map from the filter monomials to X and N.

    The filter acts entry-wise, rho' = (f f^T) o rho with
    f = (x, 1) (x) (y, 1) (x) (z, 1), so each entry of rho carries one monomial.
    Rows 0-26 take the 27 monomials x^a y^b z^c to the flattened 3x9
    unnormalized correlation matrix X, row 27 to the normalization N. A
    monomial no entry of rho carries has exact zero coefficients, and N's are
    the populations rho_ii.
    """
    return (CORRELATION_TABLE * np.asarray(rho).ravel()).real @ _ENTRY_MONOMIALS


def _lambda_grids(kernel: np.ndarray, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First and second normalized singular values over the full filter grid.

    Staged monomial contractions give X and N at every grid point; the top two
    eigenvalues of each 3x3 Gram X X^T, from one batched eigen-solve, are the
    squared singular values.
    """
    g = xs.size
    v = xs[:, None] ** np.arange(3.0)
    t = (v @ kernel.T.reshape(3, 9 * 28)).reshape(g, 3, 3, 28)
    t = np.einsum("yb,xbce->xyce", v, t).reshape(g * g, 3, 28)
    t = (v @ t).reshape(g, g, g, 28)
    x_all, n_all = t[..., :27].reshape(g, g, g, 3, 9), t[..., 27]
    w = np.linalg.eigvalsh(x_all @ x_all.swapaxes(-1, -2))
    s = np.sqrt(np.clip(w[..., 1:], 0.0, None))
    return s[..., 1] / n_all, s[..., 0] / n_all


def _pair_at(kernel: np.ndarray, monomials: np.ndarray) -> tuple[float, float]:
    """Leading and second singular values of X/N at the 27 monomial values.

    A failed eigen-solve, as on a non-finite kernel value, raises LinAlgError.
    """
    out = kernel.dot(monomials)
    xm = out[:27].reshape(3, 9)
    w = np.linalg.eigvalsh(xm.dot(xm.T))
    n = float(out[27])
    return math.sqrt(max(w[2], 0.0)) / n, math.sqrt(max(w[1], 0.0)) / n


def _singular_over_n(kernel: np.ndarray, log_xyz: np.ndarray) -> tuple[float, float]:
    """Leading and second normalized singular values at log10 filter strengths."""
    return _pair_at(kernel, 10.0 ** _EXPONENTS.dot(log_xyz))


def _local_maxima_mask(grid: np.ndarray) -> np.ndarray:
    """Strict-or-equal 6-neighbor local maxima of a 3d array, as if padded with -inf.

    Each axis compares neighboring slices both ways. A NaN point is never a
    maximum: it fails the comparison with the padding.
    """
    mask = grid >= -np.inf
    for axis in range(3):
        lower = (slice(None),) * axis + (slice(None, -1),)
        upper = (slice(None),) * axis + (slice(1, None),)
        mask[lower] &= grid[lower] >= grid[upper]
        mask[upper] &= grid[upper] >= grid[lower]
    return mask


def _top_starts(grid: np.ndarray, logs: np.ndarray, count: int) -> list[np.ndarray]:
    """Best `count` grid local maxima as log10 (x, y, z) points, value order."""
    mask = _local_maxima_mask(grid)
    values = np.where(mask, grid, -np.inf).ravel()
    order = np.argsort(values)[::-1]
    starts = []
    for flat in order[:count]:
        if not np.isfinite(values[flat]):
            break
        starts.append(logs[list(np.unravel_index(flat, grid.shape))])
    return starts


def _initial_simplex(start: np.ndarray) -> np.ndarray:
    """The start plus one REFINE_STEP along each axis, taken inward at the upper face.

    At a face, scipy's default simplex is clipped flat onto it and never leaves.
    """
    hi = FILTER_LOG_RANGE[1]
    steps = np.where(start + REFINE_STEP <= hi, REFINE_STEP, -REFINE_STEP)
    return np.vstack([start, start + np.diag(steps)])


def _face(populated: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimal face of conv{v_i : populated} that holds 0, and a direction that exposes it.

    The sum s of every direction in {-2, ..., 2}^3 with v_i . d <= 0 on the
    populated states has v_i . s = 0 exactly on the face: every direction in
    the sum vanishes on it, and for each of the 255 support patterns some
    direction in the sum exposes it, as the tests check against an LP.
    Returns the face as a mask over the 8 basis states, empty when 0 lies
    outside the hull, and s scaled so that v_i . d <= -1 off the face (zero
    when every populated state is on it). Both arrays are read-only, and a
    repeated support pattern gets the same two objects.
    """
    return _pattern_face(np.asarray(populated, dtype=bool).tobytes())


# One entry per support pattern, filled on first use.
@functools.lru_cache(maxsize=256)
def _pattern_face(pattern: bytes) -> tuple[np.ndarray, np.ndarray]:
    populated = np.frombuffer(pattern, dtype=bool)
    dots = _VERTEX_DOTS[populated]
    s = _DIRECTIONS[(dots <= 0).all(axis=0)].sum(axis=0)
    along = _VERTICES @ s
    face = populated & (along == 0)
    off = along[populated & ~face]
    d = s / -off.max() if off.size else np.zeros(3)
    face.flags.writeable = d.flags.writeable = False
    return face, d


def _log_partition(log_weights: np.ndarray, vertices: np.ndarray, ell: np.ndarray) -> tuple[float, np.ndarray]:
    """log sum_i exp(log_weights_i + v_i . ell), and the softmax weights of its terms."""
    terms = log_weights + vertices @ ell
    top = terms.max()
    weights = np.exp(terms - top)
    total = weights.sum()
    return top + math.log(total), weights / total


def _window_point(log_weights: np.ndarray, vertices: np.ndarray) -> tuple[np.ndarray, float]:
    """Minimizer on the span of the vertices of phi = _log_partition, and phi there.

    A face of two vertices holds 0 only as an antipodal pair {v, -v}, where
    phi = ln(r_a e^{v . l} + r_b e^{-v . l}) is least at v . l = (ln r_b - ln r_a) / 2,
    with phi = ln 2 + (ln r_a + ln r_b) / 2 there: closed form, no solve.

    A larger face takes damped Newton from 0: each step solves the Hessian,
    the covariance of the vertices under the softmax weights, by least
    squares, so the iterate stays on the span where phi is strictly convex,
    and halves until Armijo's condition holds: an undamped step can overshoot
    far from the minimum. Raises ConsistencyError when NEWTON_MAX_STEPS steps
    do not converge.
    """
    if len(vertices) == 2:
        v = vertices[0]
        along = 0.5 * (log_weights[1] - log_weights[0])
        return along / v.dot(v) * v, math.log(2.0) + 0.5 * (log_weights[0] + log_weights[1])
    ell = np.zeros(3)
    phi, weights = _log_partition(log_weights, vertices, ell)
    for _ in range(NEWTON_MAX_STEPS):
        grad = weights @ vertices
        hess = (vertices.T * weights) @ vertices - np.outer(grad, grad)
        step = np.linalg.lstsq(hess, -grad, rcond=None)[0]
        decrement = -grad @ step
        if decrement <= NEWTON_TOL:
            return ell, phi
        # Armijo's test allows phi's rounding, so a last step below it is taken whole.
        slack = 8.0 * np.finfo(float).eps * (1.0 + abs(phi))
        scale = 1.0
        while True:
            trial, trial_weights = _log_partition(log_weights, vertices, ell + scale * step)
            if trial <= phi - 0.25 * scale * decrement + slack:
                break
            scale *= 0.5
        ell, phi, weights = ell + scale * step, trial, trial_weights
    raise ConsistencyError(f"window point: Newton did not converge in {NEWTON_MAX_STEPS} steps")


def _coherence_limit(rho: np.ndarray, kernel: np.ndarray) -> tuple[np.ndarray, np.ndarray, float] | None:
    """Window point w, direction d and sigma1(C) e^{-phi}, the X-state supremum before the plateau clamp.

    None when 0 lies outside the population hull while C is nonzero, which
    positivity rules out and only rounding can cause. Outside the hull with C
    zero, the limit is 0 and w is 0.
    """
    populations = np.diagonal(rho).real
    face, d = _face(populations > 0)
    coherence = kernel[:27, _COHERENCE_COLUMN].reshape(3, 9)
    sigma1 = float(np.linalg.svd(coherence, compute_uv=False)[0])
    if face.any():
        w, phi = _window_point(np.log(populations[face]), _VERTICES[face])
        return w, d, sigma1 * math.exp(-phi)
    return None if coherence.any() else (np.zeros(3), d, 0.0)


def _x_state_path(rho: np.ndarray, kernel: np.ndarray) -> tuple[np.ndarray, np.ndarray, float] | None:
    """Window point w, direction d and the supremum of lambda1' over diagonal filters of an X-state.

    lambda1' tends to the supremum along ln strengths w + t d as t grows (see
    the module docstring). None where ``_coherence_limit`` is None.
    """
    path = _coherence_limit(rho, kernel)
    if path is None or path[2] > 1.0:
        return path
    # The plateau 1 of the zzz entry, approached at the vertex of the largest population.
    return np.zeros(3), _VERTICES[int(np.argmax(np.diagonal(rho).real))].astype(float), 1.0


def _checked(rho: np.ndarray, params: FilterParams, kernel_value: float) -> tuple[FilterParams, FilteredAnalysis]:
    """``params`` with the filtered state's analysis, once the kernel's lambda1 matches it.

    A gap above 1e-9, or either value above sqrt(3) + 1e-9, raises ConsistencyError.
    """
    fa = filtered_bound(rho, params.triple())
    gap = abs(kernel_value - fa.lambda1_prime)
    if gap > KERNEL_CHECK_TOL or max(kernel_value, fa.lambda1_prime) > MAX_LAMBDA1:
        raise ConsistencyError(
            f"filter kernel check failed: lambda1 {kernel_value!r} (kernel) vs {fa.lambda1_prime!r}"
            " (filtered state); they must agree to 1e-9 and stay within sqrt(3) + 1e-9"
        )
    return params, fa


def optimize_filter(rho: np.ndarray) -> tuple[FilterParams, FilteredAnalysis]:
    """Diagonal filter strengths maximizing the filtered bound for a state.

    An X-state (every entry off the diagonal and the anti-diagonal an exact
    zero) takes the exact route of the module docstring. The supremum is a
    limit; the returned filter is the finite one w + t d, in ln strengths, at
    the first t of LADDER_STEPS where the kernel's lambda1 is within
    SUPREMUM_TOL of it, and ConsistencyError is raised when no t up to the
    last one gets there. So the analysis reports that filter's value, not the
    limit. Any other state, and an X-state whose population hull misses 0
    while it keeps coherences, takes ``_box_search``.

    On either route the kernel's leading value at the returned filter is
    cross-checked against the filtered state's own correlation matrix: a gap
    above 1e-9, or either value above sqrt(3) + 1e-9, raises
    ConsistencyError. A failed eigen-solve raises LinAlgError.
    """
    rho = np.asarray(rho)
    if rho[_OFF_X].any():
        return _box_search(rho)
    kernel = _filter_kernel(rho)
    path = _x_state_path(rho, kernel)
    if path is None:
        return _box_search(rho)
    w, d, supremum = path
    steps = np.array(LADDER_STEPS)
    ells = w + steps[:, None] * d
    # X and N are linear in the monomials, so dividing all of them by the largest changes no ratio.
    monomials = ells @ _EXPONENTS.T
    out = np.exp(monomials - monomials.max(axis=1, keepdims=True)) @ kernel.T
    xm = out[:, :27].reshape(-1, 3, 9)
    top = np.linalg.eigvalsh(xm @ xm.transpose(0, 2, 1))[:, 2]
    # Only the first step within SUPREMUM_TOL is used, so a later one's N may vanish unheard.
    with np.errstate(divide="ignore", invalid="ignore"):
        values = np.sqrt(np.maximum(top, 0.0)) / out[:, 27]
    hits = np.flatnonzero(np.abs(values - supremum) <= SUPREMUM_TOL)
    if not hits.size:
        raise ConsistencyError(
            f"filter ladder: lambda1 {float(values[-1])!r} at t = {steps[-1]:g} is still farther than"
            f" {SUPREMUM_TOL:g} from the supremum {supremum!r}"
        )
    value = float(values[hits[0]])
    x, y, z = np.exp(ells[hits[0]])
    return _checked(rho, FilterParams(float(x), float(y), float(z)), value)


def _box_search(rho: np.ndarray) -> tuple[FilterParams, FilteredAnalysis]:
    """Diagonal filter strengths maximizing the filtered bound over the FILTER_LOG_RANGE box.

    Grid-seeds bounded Nelder-Mead refinements of both the leading and the
    second normalized singular value, each run to its own stopping tolerance
    (a second-value run that would retrace a leading-value run is skipped),
    then ranks all candidates (grid argmax and identity included) by the
    leading value, and cross-checks the winner as optimize_filter does.

    Each refinement is scipy's bounded Nelder-Mead from ``_initial_simplex``,
    stopped by REFINE_TOLS or after REFINE_MAX_EVALS evaluations. A failed
    eigen-solve raises LinAlgError.
    """
    logs = np.linspace(*FILTER_LOG_RANGE, ScanSpec.filter_grid_points)
    kernel = _filter_kernel(rho)
    lam1, lam2 = _lambda_grids(kernel, 10.0**logs)

    starts = [(which, start) for which, grid in enumerate((lam1, lam2)) for start in _top_starts(grid, logs, 2)]
    candidates = [np.zeros(3), logs[list(np.unravel_index(np.argmax(lam1), lam1.shape))]]
    # End points of leading-value runs that saw lambda1 == lambda2 at every
    # point they evaluated, by start. Nelder-Mead only compares and subtracts
    # the values of the points it visits, so the second-value run from the same
    # start would retrace that run exactly; its end point is reused instead.
    retraced = {}
    for which, start in starts:
        key = start.tobytes()
        if which == 1 and key in retraced:
            candidates.append(retraced[key])
            continue
        tied = True

        def objective(v, which=which):
            nonlocal tied
            pair = _singular_over_n(kernel, v)
            tied = tied and pair[0] == pair[1]
            return -pair[which]

        res = minimize(
            objective,
            start,
            method="Nelder-Mead",
            bounds=[FILTER_LOG_RANGE] * 3,
            options={"maxfev": REFINE_MAX_EVALS, "initial_simplex": _initial_simplex(start), **REFINE_TOLS},
        )
        candidates.append(res.x)
        if which == 0 and tied:
            retraced[key] = res.x

    values = [_singular_over_n(kernel, v)[0] for v in candidates]
    best = 10.0 ** candidates[int(np.argmax(values))]
    return _checked(rho, FilterParams(float(best[0]), float(best[1]), float(best[2])), max(values))


@dataclass
class PointRecord:
    """Certified before/after numbers at one p on the scan grid."""

    p: float
    unfiltered_bound: float
    unfiltered_attained: float
    x: float
    y: float
    z: float
    filtered_bound: float
    filtered_attained: float
    violates_before: bool
    violates_after: bool


@dataclass
class ActivationReport:
    family: str
    theta: float
    seed: int
    records: list[PointRecord]
    p_violation_unfiltered: float | None
    p_violation_filtered: float | None
    activation_window: tuple[float, float] | None
    annotations: dict


def _certify_at(spec: ScanSpec, rho: np.ndarray, mode: str) -> tuple[BoundReport, FilterParams | None]:
    """Certified report of ``rho`` as given (``mode`` "unfiltered") or under its optimized filter, and that filter.

    The filtered report certifies the normalized filtered state that
    optimize_filter's analysis already holds, which gives certify_filtered's
    report bit for bit without filtering the state again.
    """
    config = OracleConfig(seed=spec.seed)
    if mode == "unfiltered":
        return certify_unfiltered(rho, oracle_config=config), None
    params, fa = optimize_filter(rho)
    return certify_unfiltered(fa.rho_prime, oracle_config=config), params


def _point_record(spec: ScanSpec, p: float) -> PointRecord:
    rho = build_family_state(spec.family, p)
    unf, _ = _certify_at(spec, rho, "unfiltered")
    filt, params = _certify_at(spec, rho, "filtered")
    return PointRecord(
        p=float(p),
        unfiltered_bound=unf.bound,
        unfiltered_attained=unf.achieved,
        x=params.x,
        y=params.y,
        z=params.z,
        filtered_bound=filt.bound,
        filtered_attained=filt.achieved,
        violates_before=unf.violates,
        violates_after=filt.violates,
    )


def _violates_at(spec: ScanSpec, p: float, mode: str) -> bool:
    rho = build_family_state(spec.family, p)
    report, _ = _certify_at(spec, rho, mode)
    return report.violates


def _margin_at(spec: ScanSpec, p: float, mode: str) -> float:
    """The bound that ``mode``'s verdict follows at p, less 4 + VIOLATION_MARGIN, without certification.

    Unfiltered, 4 lambda1; filtered, 4 sigma1(C) e^{-phi}, the X-state
    supremum before the plateau clamp (see the module docstring). Raises
    ConsistencyError where ``_coherence_limit`` is None.
    """
    rho = build_family_state(spec.family, p)
    if mode == "unfiltered":
        bound = unfiltered_bound(rho).bound
    else:
        path = _coherence_limit(rho, _filter_kernel(rho))
        if path is None:
            raise ConsistencyError(f"{spec.family} at p = {p!r}: coherences outside the population hull")
        bound = 4.0 * path[2]
    return bound - (SVETLICHNY_BOUND + VIOLATION_MARGIN)


def _root(f, lo: float, hi: float, f_lo: float, f_hi: float) -> tuple[float, float, float, float]:
    """Ends (b, f(b), c, f(c)) of a bracket around the sign change of f in [lo, hi].

    A sign here is f > 0 against f <= 0, and f_lo and f_hi must differ in it;
    b is the end with the smaller |f|, and |c - b| <= ROOT_TOL + 4 eps |b|.
    Brent's method (Brent, Algorithms for Minimization without Derivatives,
    1973, ch. 4): inverse quadratic or secant interpolation where it shrinks
    the steps fast enough, bisection where it does not, and a step of at
    least about ROOT_TOL / 2. Each new point is then projected into ITP's
    window around the bracket's midpoint (Oliveira and Takahashi, ACM TOMS 47,
    5 (2020)), whose radius shrinks so that no search takes more than one
    evaluation beyond bisection's count. Only a margin that is not a number
    can leave the bracket open after that many; it raises ConsistencyError.
    """
    limit = max(math.ceil(math.log2((hi - lo) / ROOT_TOL)), 0) + 1
    a, fa, b, fb = lo, f_lo, hi, f_hi
    c, fc = a, fa
    d = e = b - a
    for used in range(limit + 1):
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, fa, b, fb, c, fc = b, fb, c, fc, b, fb
        tol = 2.0 * _EPS * abs(b) + 0.5 * ROOT_TOL
        m = 0.5 * (c - b)
        if abs(m) <= tol:
            return b, fb, c, fc
        if abs(e) < tol or abs(fa) <= abs(fb):
            d = e = m
        else:
            s = fb / fa
            if a == c:
                num, den = 2.0 * m * s, 1.0 - s
            else:
                q, r = fa / fc, fb / fc
                num = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                den = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if num > 0.0:
                den = -den
            num = abs(num)
            if 2.0 * num < min(3.0 * m * den - abs(tol * den), abs(e * den)):
                e, d = d, num / den
            else:
                d = e = m
        x = b + (d if abs(d) > tol else math.copysign(tol, m))
        radius = max(0.5 * ROOT_TOL * 2.0 ** (limit - used) - abs(m), 0.0)
        if abs(x - (b + m)) > radius:
            x = b + m + math.copysign(radius, x - b - m)
            d = e = x - b
        a, fa = b, fb
        b, fb = x, f(x)
    raise ConsistencyError(f"threshold root search: no bracket within {ROOT_TOL:g} after {limit} steps")


def _threshold(spec: ScanSpec, mode: str, lo: float, hi: float, flag_lo: bool) -> float:
    """Root of ``mode``'s margin between the grid points lo and hi, whose certified verdicts differ.

    The margin's signs at lo and hi must match those verdicts, and the
    verdict certified ROOT_TOL beyond the violating end of the final bracket
    must be a violation; either failure raises ConsistencyError.
    """

    def margin(p):
        return _margin_at(spec, p, mode)

    f_lo, f_hi = margin(lo), margin(hi)
    for p, f, flag in ((lo, f_lo, flag_lo), (hi, f_hi, not flag_lo)):
        if (f > 0.0) != flag:
            raise ConsistencyError(
                f"{mode} margin {f!r} at grid point p = {p!r} contradicts its certified verdict {flag}"
            )
    b, fb, c, fc = _root(margin, lo, hi, f_lo, f_hi)
    end = b if fb > 0.0 else c
    p = min(max(end + (-ROOT_TOL if flag_lo else ROOT_TOL), lo), hi)
    if not _violates_at(spec, p, mode):
        raise ConsistencyError(f"{mode} verdict at p = {p!r}, past the margin's root {b!r}, is no violation")
    return b


# The record field that holds each mode's predicate value.
_VIOLATES = {"unfiltered": "violates_before", "filtered": "violates_after"}


def _scan(spec: ScanSpec, mode: str | None) -> tuple[list, dict[str, float | None]]:
    """Grid results of a scan, and each mode's threshold (None without a sign change on the grid).

    With ``mode`` None the grid holds the record at each p point and both
    modes get a threshold, in _VIOLATES order; otherwise it holds the ``mode``
    predicate. The grid is certified in p order, so the first grid point to
    fail raises and no later one is started. A mode whose predicate changes
    sign more than once on the grid raises NonMonotonePredicateError with
    every bracket, the first such mode in _VIOLATES order, before any root
    search runs. Each remaining sign change is then the root of the mode's
    margin, found by ``_threshold`` inside the grid bracket; a failure there
    raises at once. Every point is seeded from ``spec`` alone.
    """
    modes = tuple(_VIOLATES) if mode is None else (mode,)
    ps = [float(p) for p in spec.p_grid]
    if mode is None:
        results = [_point_record(spec, p) for p in ps]
        flags = {m: [getattr(r, _VIOLATES[m]) for r in results] for m in modes}
    else:
        results = [_violates_at(spec, p, mode) for p in ps]
        flags = {mode: results}

    changes = {m: [i for i in range(len(ps) - 1) if flags[m][i] != flags[m][i + 1]] for m in modes}
    for m in modes:
        if len(changes[m]) > 1:
            what = _VIOLATES[m] if mode is None else "predicate"
            brackets = [(ps[i], ps[i + 1]) for i in changes[m]]
            raise NonMonotonePredicateError(f"{what} changes sign {len(brackets)} times on the grid", brackets)

    found: dict[str, float | None] = {}
    for m in modes:
        if changes[m]:
            i = changes[m][0]
            found[m] = _threshold(spec, m, ps[i], ps[i + 1], flags[m][i])
        else:
            found[m] = None
    return results, found


def threshold_bisect(spec: ScanSpec, mode: str) -> float | None:
    """Violation threshold in p, or None when the grid shows no sign change.

    The grid predicate must change sign exactly once; multiple changes raise
    NonMonotonePredicateError carrying every bracketing interval, since a
    root search there could silently pick an arbitrary crossing. The
    threshold is the root of the mode's margin inside the grid bracket, to
    ROOT_TOL, checked by one certification past it; the name is kept from
    when it was a bisection of the verdict. The grid and the root search run
    as a scan (see the module docstring).
    """
    if mode not in _VIOLATES:
        raise ValueError(f"unknown mode {mode!r}, expected 'unfiltered' or 'filtered'")
    _, found = _scan(spec, mode)
    return found[mode]


def figure_data(figure: str, spec: ScanSpec | None = None) -> ActivationReport:
    """Full activation scan for one built-in family.

    'fig1' scans the chi family, whose unfiltered expectation never violates;
    its window pairs the filtered threshold with the tabulated bilocal
    boundary. 'fig2' scans the ghz-noise family and pairs the filtered with
    the unfiltered threshold.

    The grid and both root searches run as one scan (see the module docstring);
    the unfiltered grid is checked before the filtered one.
    """
    if figure not in FIGURE_FAMILY:
        raise ValueError(f"unknown figure {figure!r}, expected 'fig1' or 'fig2'")
    family = FIGURE_FAMILY[figure]
    if spec is None:
        spec = ScanSpec(family=family)
    elif spec.family != family:
        raise ValueError(f"{figure} scans the {family!r} family, spec has {spec.family!r}")

    records, found = _scan(spec, None)
    p_unfiltered, p_filtered = found["unfiltered"], found["filtered"]

    annotations: dict = {}
    if figure == "fig1":
        annotations["bilocal_boundary_p"] = BILOCAL_BOUNDARY_P
        window = (p_filtered, BILOCAL_BOUNDARY_P) if p_filtered is not None else None
    else:
        window = (p_filtered, p_unfiltered) if None not in (p_filtered, p_unfiltered) else None

    return ActivationReport(
        family=spec.family,
        theta=CHI_THETA,
        seed=spec.seed,
        records=records,
        p_violation_unfiltered=p_unfiltered,
        p_violation_filtered=p_filtered,
        activation_window=window,
        annotations=annotations,
    )


_CSV_FIELDS = tuple(f.name for f in fields(PointRecord))


def write_csv(report: ActivationReport, path: str) -> None:
    """Per-p records as CSV with 16 significant digits."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_FIELDS)
    for rec in report.records:
        writer.writerow([format_value(getattr(rec, name)) for name in _CSV_FIELDS])
    atomic_write_text(path, buf.getvalue())


def write_json(report: ActivationReport, path: str) -> None:
    """Whole report as JSON; floats keep full repr precision.

    The report's fields and each record's are read into plain dicts, with no
    deep copy: every value is a number, a string, a tuple or a flat dict.
    """
    payload = {f.name: getattr(report, f.name) for f in fields(report)}
    payload["records"] = [vars(rec) for rec in report.records]
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
