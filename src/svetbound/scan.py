"""Filter optimization, violation thresholds, and activation-curve data.

The filter search works on one per-state polynomial kernel. The filter
diag(x, 1) (x) diag(y, 1) (x) diag(z, 1) acts entry-wise, and entry (i, j) of
the state carries the single monomial x^a y^b z^c whose exponents count the
|0> factors of basis states i and j. So the unnormalized filtered correlation
matrix X and the normalization N are fixed linear maps of the 27 monomials
(a, b, c in 0..2), read off the state's entries once per state through
filtering's table of Pauli products; a monomial the state lacks has exact
zero coefficients, and N's coefficients are the populations. A log-spaced
grid of filter strengths reduces to staged monomial contractions and the top
two eigenvalues of each 3x3 Gram X X^T; one point costs one 28x27
matrix-vector product and one 3x3 eigen-solve, which gives both values.
When no two rows of X share a column at any filter, as for the chi and
GHZ + white noise families, the Gram is diagonal by structure and a point
costs three row sums of squares and a selection of the top two instead.
Grid optima seed bounded Nelder-Mead refinements, each run until its own
stopping tolerances hold, so the result is the supremum over the strength box
whichever start wins a tie. Each refinement is one direct call of
``minimize``, a lean bounded Nelder-Mead that repeats scipy's method step for
step in the same arithmetic, with less bookkeeping per evaluation.

The second singular value gets the same treatment as the first. Near the
boundary of the violating region the global landscape of the leading value is
dominated by flat plateaus where the bound approaches 4 from below but never
crosses it; the violating branch is the one with a doubly degenerate leading
value, and on the plateaus the second singular value collapses instead.
Refining the second-value optima and ranking every candidate by the first
value keeps the search out of the plateau trap. On that degenerate branch a
second-value refinement often starts where a leading-value one did and would
see the same values at every point; it is skipped and the leading run's end
point reused, which changes no result. Each evaluation makes its three BLAS
products through ndarray.dot and calls LAPACK's 3x3 symmetric eigen-solver
directly. A search enters np.linalg.eigvalsh's error state once, around all
its refinements and its candidate ranking, so a failed solve still raises
LinAlgError and no evaluation pays for the error state itself.

A scan (figure_data, threshold_bisect) certifies its p grid and bisects each
sign change on one pool of forked workers, one per usable core with BLAS
pinned to one thread, or in-process on one core (e.g. under taskset -c 0).
Grid points go out in p order; a bisection starts as soon as the grid points
below its sign change are certified, and its steps go before further grid
points, so both cores stay busy until the last step. Every task is seeded
from its arguments alone, so results, and the errors a scan raises, do not
depend on the worker count.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import os
import re
from dataclasses import asdict, dataclass, field, fields
from typing import ClassVar

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg
from scipy.optimize import OptimizeResult

from .analysis import certify_filtered, certify_unfiltered
from .errors import ConsistencyError, NonMonotonePredicateError
from .fileio import atomic_write_text, format_value
from .filtering import CORRELATION_TABLE, FilteredAnalysis, FilterParams, filtered_bound
from .seesaw import OracleConfig
from .states import CHI_THETA, build_chi_state, build_ghz_noise_state
from .svetlichny import BoundReport

BISECT_TOL = 1e-4

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

# The kernel's leading value must match the filtered state's and respect the
# physical maximum sqrt(2) of a three-qubit correlation singular value.
KERNEL_CHECK_TOL = 1e-9
MAX_LAMBDA1 = math.sqrt(2.0) + KERNEL_CHECK_TOL

# See-saw restarts per certification in a scan.
ORACLE_RESTARTS = 8

# Threaded BLAS libraries a pool worker must pin, by file name, and the
# OpenBLAS entry points that set its thread count: numpy's wheels export the
# first, scipy's the second.
_BLAS_LIBRARY = re.compile(r"^lib(?:\w*openblas|mkl|blis)")
_OPENBLAS_SETTERS = (
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)

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
        # Bisection brackets the sign change between neighbours, so the grid must ascend.
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


def _rows_disjoint(kernel: np.ndarray) -> bool:
    """Whether no two rows of X share a column at any filter, read off the kernel.

    An entry of X is absent when all 27 of its monomial coefficients are zero;
    it is then an exact 0.0 at every grid point. A kernel with a non-finite X
    coefficient never qualifies, so it fails in the eigen-solve with LinAlgError.
    """
    coefs = kernel[:27].reshape(3, 9, 27)
    present = (coefs != 0).any(axis=2)
    return bool(np.isfinite(coefs).all() and present.sum(axis=0).max() <= 1)


def _lambda_grids(kernel: np.ndarray, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First and second normalized singular values over the full filter grid.

    Staged monomial contractions give X and N at every grid point; the top two
    eigenvalues of each 3x3 Gram X X^T are the squared singular values. When
    X's rows have disjoint supports, every off-diagonal Gram entry is a sum of
    products with an exact 0.0, so the eigenvalues are the three squared row
    norms; the top two are selected exactly (max and median), with no Gram
    product and no eigen-solve. Any other kernel takes the batched eigen-solve.
    """
    g = xs.size
    v = xs[:, None] ** np.arange(3.0)
    t = (v @ kernel.T.reshape(3, 9 * 28)).reshape(g, 3, 3, 28)
    t = np.einsum("yb,xbce->xyce", v, t).reshape(g * g, 3, 28)
    t = (v @ t).reshape(g, g, g, 28)
    x_all, n_all = t[..., :27].reshape(g, g, g, 3, 9), t[..., 27]
    if _rows_disjoint(kernel):
        r = np.einsum("...ij,...ij->...i", x_all, x_all)
        a, b, c = r[..., 0], r[..., 1], r[..., 2]
        high, low = np.maximum(a, b), np.minimum(a, b)
        median = np.maximum(low, np.minimum(high, c))
        return np.sqrt(np.maximum(high, c)) / n_all, np.sqrt(median) / n_all
    w = np.linalg.eigvalsh(x_all @ x_all.swapaxes(-1, -2))
    s = np.sqrt(np.clip(w[..., 1:], 0.0, None))
    return s[..., 1] / n_all, s[..., 0] / n_all


# LAPACK's symmetric eigenvalue gufunc behind np.linalg.eigvalsh, on the lower triangle.
_eigvalsh_lo = _umath_linalg.eigvalsh_lo


def _eigvalsh_failed(err: str, flag: int) -> None:
    raise LinAlgError("Eigenvalues did not converge")


def _eigvalsh_errstate() -> np.errstate:
    """np.linalg.eigvalsh's error state: a failed solve raises LinAlgError, over/divide/under pass."""
    return np.errstate(call=_eigvalsh_failed, invalid="call", over="ignore", divide="ignore", under="ignore")


def _singular_pair(kernel: np.ndarray, log_xyz: np.ndarray) -> tuple[float, float]:
    """_singular_over_n without its error state: the caller holds ``_eigvalsh_errstate()``.

    ndarray.dot makes the same BLAS calls as ``@``, so the same bits, without
    the matmul ufunc's dispatch.
    """
    out = kernel.dot(10.0 ** _EXPONENTS.dot(log_xyz))
    xm = out[:27].reshape(3, 9)
    w = _eigvalsh_lo(xm.dot(xm.T), signature="d->d")
    n = float(out[27])
    return math.sqrt(max(w[2], 0.0)) / n, math.sqrt(max(w[1], 0.0)) / n


def _singular_over_n(kernel: np.ndarray, log_xyz: np.ndarray) -> tuple[float, float]:
    """Leading and second normalized singular values at log10 filter strengths.

    Enters np.linalg.eigvalsh's error state for this one evaluation, so a
    failed solve, or an invalid value in the kernel products, raises
    LinAlgError. optimize_filter enters it once per search and calls
    ``_singular_pair`` directly.
    """
    with _eigvalsh_errstate():
        return _singular_pair(kernel, log_xyz)


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


class _EvaluationCap(Exception):
    """Raised in place of an evaluation past REFINE_MAX_EVALS."""


def _by_value(sim: list, fsim: list) -> tuple[list, list]:
    """Vertices and values in ascending value order, as scipy orders them.

    ndarray.argsort, which np.argsort calls for scipy: its order of tied values
    (NaN included) differs from sorted()'s.
    """
    order = np.array(fsim).argsort().tolist()
    return [sim[i] for i in order], [fsim[i] for i in order]


def minimize(fun, start: np.ndarray) -> OptimizeResult:
    """Minimum of ``fun`` over the filter box by bounded Nelder-Mead from ``_initial_simplex(start)``.

    scipy's ``minimize(method="Nelder-Mead")`` with bounds FILTER_LOG_RANGE,
    REFINE_TOLS and ``maxfev=REFINE_MAX_EVALS``, step for step, on the four
    vertices of the 3-d simplex held as Python floats: every trial point is
    clipped into the box and each coefficient product and sum is written in
    scipy's order, so the runs match it bit for bit (x, fun, nfev, status).
    The run stops on scipy's ``xatol``/``fatol`` test or, with status 1, at
    REFINE_MAX_EVALS evaluations; it never makes more. The function is named
    ``minimize`` because ``bench/spans.py`` wraps that name.
    """
    lo, hi = FILTER_LOG_RANGE
    xatol, fatol = REFINE_TOLS["xatol"], REFINE_TOLS["fatol"]
    maxfev = REFINE_MAX_EVALS
    nfev = 0

    def f(x):
        nonlocal nfev
        if nfev >= maxfev:
            raise _EvaluationCap
        nfev += 1
        return float(fun(np.array(x)))

    sim = _initial_simplex(start).tolist()
    fsim = [math.inf] * 4
    try:
        for k in range(4):
            fsim[k] = f(sim[k])
    except _EvaluationCap:
        pass
    # scipy orders the initial simplex twice.
    sim, fsim = _by_value(*_by_value(sim, fsim))

    # scipy's non-adaptive coefficients rho = 1, chi = 2, psi = sigma = 1/2,
    # folded as its expressions evaluate them: reflection (1 + rho) xbar - rho w
    # is 2 xbar - w, expansion 3 xbar - 2 w, outside contraction 1.5 xbar - 0.5 w,
    # inside contraction 0.5 xbar + 0.5 w and shrink s0 + 0.5 (s - s0). Each
    # trial point is clipped as np.clip does, min(max(v, lo), hi), NaN passing
    # through.
    while nfev < maxfev:
        try:
            s0, s1, s2, w = sim
            f0 = fsim[0]
            if all(abs(v - u) <= xatol for s in (s1, s2, w) for v, u in zip(s, s0)) and all(
                abs(f0 - fj) <= fatol for fj in fsim[1:]
            ):
                break
            # ((s0 + s1) + s2) / 3, as np.add.reduce over the rows adds them.
            xbar = [(a + b + c) / 3 for a, b, c in zip(s0, s1, s2)]
            xr = [2 * c - v for c, v in zip(xbar, w)]
            xr = [lo if v < lo else hi if v > hi else v for v in xr]
            fxr = f(xr)
            if fxr < f0:
                xe = [3 * c - 2 * v for c, v in zip(xbar, w)]
                xe = [lo if v < lo else hi if v > hi else v for v in xe]
                fxe = f(xe)
                sim[3], fsim[3] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[2]:
                sim[3], fsim[3] = xr, fxr
            else:
                if fxr < fsim[3]:
                    xc = [1.5 * c - 0.5 * v for c, v in zip(xbar, w)]
                    xc = [lo if v < lo else hi if v > hi else v for v in xc]
                    fxc = f(xc)
                    contract = fxc <= fxr
                else:
                    xc = [0.5 * c + 0.5 * v for c, v in zip(xbar, w)]
                    xc = [lo if v < lo else hi if v > hi else v for v in xc]
                    fxc = f(xc)
                    contract = fxc < fsim[3]
                if contract:
                    sim[3], fsim[3] = xc, fxc
                else:
                    for j in (1, 2, 3):
                        x = [u + 0.5 * (v - u) for u, v in zip(s0, sim[j])]
                        sim[j] = [lo if v < lo else hi if v > hi else v for v in x]
                        fsim[j] = f(sim[j])
        except _EvaluationCap:
            pass
        sim, fsim = _by_value(sim, fsim)

    status = 1 if nfev >= maxfev else 0
    # np.min, as scipy reports fun: NaN when any vertex value is NaN.
    return OptimizeResult(x=np.array(sim[0]), fun=np.min(fsim), nfev=nfev, status=status, success=status == 0)


def optimize_filter(rho: np.ndarray) -> tuple[FilterParams, FilteredAnalysis]:
    """Diagonal filter strengths maximizing the filtered bound for a state.

    Grid-seeds bounded Nelder-Mead refinements of both the leading and the
    second normalized singular value, each run to its own stopping tolerance
    (a second-value run that would retrace a leading-value run is skipped),
    then ranks all candidates (grid argmax and identity included) by the
    leading value. The kernel's leading value at the winner is cross-checked
    against the filtered state's own correlation matrix: a gap above 1e-9, or
    either value above sqrt(2) + 1e-9, raises ConsistencyError.

    The refinements and the ranking run inside one np.linalg.eigvalsh error
    state, entered here and left on return or raise: a failed eigen-solve
    raises LinAlgError, and the caller's error state is untouched.
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
    with _eigvalsh_errstate():
        for which, start in starts:
            key = start.tobytes()
            if which == 1 and key in retraced:
                candidates.append(retraced[key])
                continue
            tied = True

            def objective(v, which=which):
                nonlocal tied
                pair = _singular_pair(kernel, v)
                tied = tied and pair[0] == pair[1]
                return -pair[which]

            res = minimize(objective, start)
            candidates.append(res.x)
            if which == 0 and tied:
                retraced[key] = res.x

        values = [_singular_pair(kernel, v)[0] for v in candidates]
    best = 10.0 ** candidates[int(np.argmax(values))]
    params = FilterParams(float(best[0]), float(best[1]), float(best[2]))
    fa = filtered_bound(rho, params.triple())
    kernel_value = max(values)
    gap = abs(kernel_value - fa.lambda1_prime)
    if gap > KERNEL_CHECK_TOL or max(kernel_value, fa.lambda1_prime) > MAX_LAMBDA1:
        raise ConsistencyError(
            f"filter kernel check failed: lambda1 {kernel_value!r} (kernel) vs {fa.lambda1_prime!r}"
            " (filtered state); they must agree to 1e-9 and stay within sqrt(2) + 1e-9"
        )
    return params, fa


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
    """Certified report of ``rho`` as given (``mode`` "unfiltered") or under its optimized filter, and that filter."""
    config = OracleConfig(restarts=ORACLE_RESTARTS, seed=spec.seed)
    if mode == "unfiltered":
        return certify_unfiltered(rho, oracle_config=config), None
    params, _ = optimize_filter(rho)
    _, report = certify_filtered(rho, params.triple(), oracle_config=config)
    return report, params


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


def _task(spec: ScanSpec, p: float, mode: str | None):
    """One scan task: the record at ``p`` (``mode`` None) or the ``mode`` predicate there.

    A pool sends it to a worker by name, so the worker calls _point_record and
    _violates_at from its own copy of this module.
    """
    return _point_record(spec, p) if mode is None else _violates_at(spec, p, mode)


# The record field that holds each mode's predicate value.
_VIOLATES = {"unfiltered": "violates_before", "filtered": "violates_after"}


@dataclass
class _Chain:
    """Bisection of one mode's sign change inside [lo, hi] to BISECT_TOL, one midpoint per task.

    A midpoint whose predicate value equals ``flag_lo``, the value at ``lo``,
    becomes the new ``lo``; any other becomes ``hi``. The threshold is the
    last midpoint, 0.5 * (lo + hi) once hi - lo <= BISECT_TOL.
    """

    lo: float
    hi: float
    flag_lo: bool
    running: bool = False
    error: Exception | None = None

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    @property
    def pending(self) -> bool:
        return not self.running and self.error is None and self.hi - self.lo > BISECT_TOL

    def step(self, flag: bool) -> None:
        if flag == self.flag_lo:
            self.lo = self.mid
        else:
            self.hi = self.mid


@functools.cache
def _blas_pins() -> tuple[tuple[str, str], ...] | None:
    """(library path, thread-count setter) of every loaded OpenBLAS, found once per process.

    None when the loaded libraries cannot be listed, or when a loaded BLAS
    (OpenBLAS, MKL or BLIS) has no OpenBLAS setter to pin it with. The set is
    fixed once this module is imported, since importing scipy.optimize loads
    scipy's OpenBLAS next to numpy's; forked workers inherit the result.
    """
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = {parts[5].strip() for parts in (line.split(maxsplit=5) for line in fh) if len(parts) == 6}
    except OSError:
        return None
    pins = []
    for path in sorted(p for p in paths if _BLAS_LIBRARY.search(os.path.basename(p))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            return None
        setter = next((name for name in _OPENBLAS_SETTERS if hasattr(lib, name)), None)
        if setter is None:
            return None
        pins.append((path, setter))
    return tuple(pins)


def _pin_blas(pins: tuple[tuple[str, str], ...]) -> None:
    """Every OpenBLAS in ``pins`` runs single-threaded; a pool worker's initializer."""
    import ctypes

    for path, setter in pins:
        fn = getattr(ctypes.CDLL(path), setter)
        fn.argtypes, fn.restype = [ctypes.c_int], None
        fn(1)


class _InProcess:
    """A scan pool's ``submit`` and ``shutdown`` in the calling process: each task runs when submitted."""

    def submit(self, fn, *args):
        from concurrent.futures import Future

        future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        return future

    def shutdown(self, wait: bool = True, cancel_futures: bool = False) -> None:
        pass


def _pool(points: int):
    """The pool a scan of ``points`` grid points runs on, and its worker count.

    A fork pool has one worker per usable core, capped at the number of grid
    points. Its workers inherit the imported package, and each pins every
    loaded OpenBLAS to one thread before its first task: a multi-threaded BLAS
    in every worker would only contend for the same cores. The scan runs
    in-process with one usable core or one grid point, without fork, or when
    a loaded BLAS cannot be pinned.
    """
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cores, points)
    if workers > 1:
        import multiprocessing

        pins = _blas_pins() if "fork" in multiprocessing.get_all_start_methods() else None
        if pins is not None:
            from concurrent.futures import ProcessPoolExecutor

            context = multiprocessing.get_context("fork")
            return ProcessPoolExecutor(workers, mp_context=context, initializer=_pin_blas, initargs=(pins,)), workers
    return _InProcess(), 1


def _scan(spec: ScanSpec, mode: str | None) -> tuple[list, dict[str, float | None]]:
    """Grid results of a scan, and each mode's threshold (None without a sign change on the grid).

    A grid task computes the record at a p point and both modes are bisected,
    in _VIOLATES order (``mode`` None), or it computes the ``mode`` predicate.
    Grid points and bisection steps share one pool (see _pool), with at most
    one task in flight per worker. Grid points go out in p order, and a
    pending bisection step goes before the next grid point. Each mode records
    the index of every grid interval where its predicate changes sign, read
    off the certified prefix of the grid: the first entry starts its
    bisection there, on the interval a whole monotone grid would give, and a
    second stops it.

    Failures are raised in one order, whatever the worker count: first the
    first grid point to fail, in p order, with nothing new started after a
    grid point fails; then NonMonotonePredicateError, with every bracket, for
    the first mode with more than one sign change; then the first mode whose
    bisection failed. Every task is seeded from its own arguments, so the
    results do not depend on where or when it ran, and no worker outlives
    the call.
    """
    from concurrent.futures import FIRST_COMPLETED, wait

    modes = tuple(_VIOLATES) if mode is None else (mode,)
    ps = [float(p) for p in spec.p_grid]
    # A slot is filled exactly when its grid point is certified.
    results: list = [None] * len(ps)
    submitted = prefix = 0
    grid_errors: dict[int, Exception] = {}
    changes: dict[str, list[int]] = {m: [] for m in modes}
    chains: dict[str, _Chain] = {}

    def flag(i: int, m: str) -> bool:
        return results[i] if mode else getattr(results[i], _VIOLATES[m])

    pool, workers = _pool(len(ps))
    # Future -> (grid index, None) for a grid point, (None, mode) for a bisection step.
    in_flight: dict = {}
    try:
        while True:
            while len(in_flight) < workers and not grid_errors:
                m = next((m for m in modes if len(changes[m]) == 1 and chains[m].pending), None)
                if m is not None:
                    chains[m].running = True
                    in_flight[pool.submit(_task, spec, chains[m].mid, m)] = (None, m)
                elif submitted < len(ps):
                    in_flight[pool.submit(_task, spec, ps[submitted], mode)] = (submitted, None)
                    submitted += 1
                else:
                    break
            if not in_flight:
                break
            done, _ = wait(in_flight, return_when=FIRST_COMPLETED)
            for future in done:
                index, m = in_flight.pop(future)
                error = future.exception()
                if index is None:
                    chains[m].running = False
                    if error is None:
                        chains[m].step(future.result())
                    else:
                        chains[m].error = error
                elif error is None:
                    results[index] = future.result()
                else:
                    grid_errors[index] = error
            start = prefix
            while prefix < len(ps) and results[prefix] is not None:
                prefix += 1
            for i in range(max(start - 1, 0), prefix - 1):
                for m in modes:
                    if flag(i, m) != flag(i + 1, m):
                        changes[m].append(i)
                        if len(changes[m]) == 1:
                            chains[m] = _Chain(ps[i], ps[i + 1], flag(i, m))
    finally:
        pool.shutdown(wait=True, cancel_futures=True)

    if grid_errors:
        raise grid_errors[min(grid_errors)]
    for m in modes:
        if len(changes[m]) > 1:
            what = _VIOLATES[m] if mode is None else "predicate"
            brackets = [(ps[i], ps[i + 1]) for i in changes[m]]
            raise NonMonotonePredicateError(f"{what} changes sign {len(brackets)} times on the grid", brackets)
    for m in modes:
        if m in chains and chains[m].error is not None:
            raise chains[m].error
    return results, {m: chains[m].mid if m in chains else None for m in modes}


def threshold_bisect(spec: ScanSpec, mode: str) -> float | None:
    """Violation threshold in p, or None when the grid shows no sign change.

    The grid predicate must change sign exactly once; multiple changes raise
    NonMonotonePredicateError carrying every bracketing interval, since a
    bisection there could silently pick an arbitrary crossing. The grid and
    the bisection run as a scan (see the module docstring).
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

    The grid and both bisections run as one scan (see the module docstring);
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
    """Whole report as JSON; floats keep full repr precision."""
    atomic_write_text(path, json.dumps(asdict(report), indent=2, sort_keys=True) + "\n")
