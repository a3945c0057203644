"""Filter optimization, violation thresholds, and activation-curve data.

The filter search works on one per-state polynomial kernel. A filter
diag(x, 1) acts on the state's Pauli moments through its 4x4 map
L(diag(x, 1)) = P0 + x P1 + x^2 P2, so the unnormalized filtered correlation
matrix X and the normalization N of diag(x, 1) (x) diag(y, 1) (x) diag(z, 1)
are fixed linear maps of the 27 monomials x^a y^b z^c (a, b, c in 0..2),
built once per state; N's coefficients are the state's populations. A
log-spaced grid of filter strengths reduces to staged monomial contractions
and the top two eigenvalues of each 3x3 Gram X X^T; one point costs one
28x27 matrix-vector product and one 3x3 eigen-solve, which gives both values.
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
point reused, which changes no result.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import operator
from dataclasses import asdict, dataclass, field, fields
from typing import ClassVar

import numpy as np
from scipy.optimize import OptimizeResult

from .analysis import certify_filtered, certify_unfiltered
from .errors import ConsistencyError, NonMonotonePredicateError
from .fileio import atomic_write_text, format_value
from .filtering import FilteredAnalysis, FilterParams, filtered_bound
from .linalg import lorentz_map, pauli_moments
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


def _power_maps() -> np.ndarray:
    """P with L(diag(x, 1)) = P[0] + x P[1] + x^2 P[2] exactly, read off at x = 0, 1, -1."""
    l0, lp, lm = lorentz_map([np.diag([v, 1.0]) for v in (0.0, 1.0, -1.0)])
    return np.stack([l0, (lp - lm) / 2.0, (lp + lm) / 2.0 - l0])


_POWER_MAPS = _power_maps()
# Exponents (a, b, c) of the 27 monomials x^a y^b z^c, the x power most significant.
_EXPONENTS = np.array(np.unravel_index(np.arange(27), (3, 3, 3)), dtype=float).T


def _filter_kernel(rho: np.ndarray) -> np.ndarray:
    """Per-state 28x27 map from the filter monomials to X and N.

    Filters diag(x, 1) (x) diag(y, 1) (x) diag(z, 1) act on rho through the
    monomials (1, x, x^2) (x) (1, y, y^2) (x) (1, z, z^2). Rows 0-26 take them to
    the flattened 3x9 unnormalized correlation matrix X, row 27 to the
    normalization N. N's coefficients are the populations rho_ii, so N is a sum
    of nonnegative terms; they are read off the diagonal, since the moment
    route leaves zero populations at +-1e-17 for large strengths to amplify.
    """
    q = pauli_moments(rho)
    rows = _POWER_MAPS[:, 1:]
    k = np.einsum("Ali,Bmj,Cnk,ijk->mlnABC", rows, rows, rows, q, optimize=True)
    n = np.zeros((3, 3, 3))
    # |0> carries the filter factor, so its population goes with the square.
    n[::-2, ::-2, ::-2] = np.real(np.diagonal(rho)).reshape(2, 2, 2)
    return np.vstack([k.reshape(27, 27), n.reshape(1, 27)])


def _lambda_grids(kernel: np.ndarray, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First and second normalized singular values over the full filter grid.

    Staged monomial contractions give X and N at every grid point; the top two
    eigenvalues of each 3x3 Gram X X^T are the squared singular values.
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


def _singular_over_n(kernel: np.ndarray, log_xyz: np.ndarray) -> tuple[float, float]:
    """Leading and second normalized singular values at log10 filter strengths."""
    out = kernel @ 10.0 ** (_EXPONENTS @ log_xyz)
    xm = out[:27].reshape(3, 9)
    w = np.linalg.eigvalsh(xm @ xm.T)
    n = float(out[27])
    return math.sqrt(max(w[2], 0.0)) / n, math.sqrt(max(w[1], 0.0)) / n


def _local_maxima_mask(grid: np.ndarray) -> np.ndarray:
    """Strict-or-equal 6-neighbor local maxima of a 3d array."""
    padded = np.pad(grid, 1, constant_values=-np.inf)
    mask = np.ones(grid.shape, dtype=bool)
    core = (slice(1, -1),) * 3
    for axis in range(3):
        for shift in (-1, 1):
            neighbor = np.roll(padded, shift, axis=axis)[core]
            mask &= grid >= neighbor
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


# scipy's non-adaptive Nelder-Mead coefficients: reflection, expansion,
# contraction and shrink.
_RHO, _CHI, _PSI, _SIGMA = 1, 2, 0.5, 0.5


def _by_value(sim: list, fsim: list) -> tuple[list, list]:
    """Vertices and values in ascending value order, as scipy orders them.

    np.argsort, as scipy uses: its order of tied values (NaN included) differs
    from sorted()'s.
    """
    order = np.argsort(fsim).tolist()
    return [sim[i] for i in order], [fsim[i] for i in order]


def minimize(fun, start: np.ndarray) -> OptimizeResult:
    """Minimum of ``fun`` over the filter box by bounded Nelder-Mead from ``_initial_simplex(start)``.

    scipy's ``minimize(method="Nelder-Mead")`` with bounds FILTER_LOG_RANGE,
    REFINE_TOLS and ``maxfev=REFINE_MAX_EVALS``, step for step, on vertices
    held as Python floats: every trial point is clipped into the box and each
    coefficient product and sum is written in scipy's order, so the runs match
    it bit for bit (x, fun, nfev, status). The run stops on scipy's
    ``xatol``/``fatol`` test or, with status 1, at REFINE_MAX_EVALS
    evaluations; it never makes more. The function is named ``minimize``
    because ``bench/spans.py`` wraps that name.
    """
    lo, hi = FILTER_LOG_RANGE
    xatol, fatol = REFINE_TOLS["xatol"], REFINE_TOLS["fatol"]
    maxfev = REFINE_MAX_EVALS
    n = len(start)
    nfev = 0

    def clip(x):
        # np.clip: min(max(v, lo), hi), NaN passing through.
        return [lo if v < lo else hi if v > hi else v for v in x]

    def f(x):
        nonlocal nfev
        if nfev >= maxfev:
            raise _EvaluationCap
        nfev += 1
        return float(fun(np.array(x)))

    sim = _initial_simplex(start).tolist()
    fsim = [math.inf] * (n + 1)
    try:
        for k in range(n + 1):
            fsim[k] = f(sim[k])
    except _EvaluationCap:
        pass
    # scipy orders the initial simplex twice.
    sim, fsim = _by_value(*_by_value(sim, fsim))

    while nfev < maxfev:
        try:
            s0, f0 = sim[0], fsim[0]
            if all(abs(v - u) <= xatol for s in sim[1:] for v, u in zip(s, s0)) and all(
                abs(f0 - fj) <= fatol for fj in fsim[1:]
            ):
                break
            # ((s0 + s1) + s2) / 3, as np.add.reduce over the rows adds them.
            xbar = [functools.reduce(operator.add, col) / n for col in zip(*sim[:-1])]
            w = sim[-1]
            xr = clip([(1 + _RHO) * c - _RHO * v for c, v in zip(xbar, w)])
            fxr = f(xr)
            shrink = False
            if fxr < fsim[0]:
                xe = clip([(1 + _RHO * _CHI) * c - _RHO * _CHI * v for c, v in zip(xbar, w)])
                fxe = f(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-1]:
                xc = clip([(1 + _PSI * _RHO) * c - _PSI * _RHO * v for c, v in zip(xbar, w)])
                fxc = f(xc)
                if fxc <= fxr:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    shrink = True
            else:
                xcc = clip([(1 - _PSI) * c + _PSI * v for c, v in zip(xbar, w)])
                fxcc = f(xcc)
                if fxcc < fsim[-1]:
                    sim[-1], fsim[-1] = xcc, fxcc
                else:
                    shrink = True
            if shrink:
                for j in range(1, n + 1):
                    sim[j] = clip([u + _SIGMA * (v - u) for u, v in zip(s0, sim[j])])
                    fsim[j] = f(sim[j])
        except _EvaluationCap:
            pass
        sim, fsim = _by_value(sim, fsim)

    status = 1 if nfev >= maxfev else 0
    return OptimizeResult(x=np.array(sim[0]), fun=min(fsim), nfev=nfev, status=status, success=status == 0)


def optimize_filter(rho: np.ndarray) -> tuple[FilterParams, FilteredAnalysis]:
    """Diagonal filter strengths maximizing the filtered bound for a state.

    Grid-seeds bounded Nelder-Mead refinements of both the leading and the
    second normalized singular value, each run to its own stopping tolerance
    (a second-value run that would retrace a leading-value run is skipped),
    then ranks all candidates (grid argmax and identity included) by the
    leading value. The kernel's leading value at the winner is cross-checked
    against the filtered state's own correlation matrix: a gap above 1e-9, or
    either value above sqrt(2) + 1e-9, raises ConsistencyError.
    """
    logs = np.linspace(*FILTER_LOG_RANGE, ScanSpec.filter_grid_points)
    kernel = _filter_kernel(rho)
    lam1, lam2 = _lambda_grids(kernel, 10.0**logs)

    candidates = [np.zeros(3), logs[list(np.unravel_index(np.argmax(lam1), lam1.shape))]]
    # End points of leading-value runs that saw lambda1 == lambda2 at every
    # point they evaluated, by start. Nelder-Mead only compares and subtracts
    # the values of the points it visits, so the second-value run from the same
    # start would retrace that run exactly; its end point is reused instead.
    retraced = {}
    for grid, which in ((lam1, 0), (lam2, 1)):
        for start in _top_starts(grid, logs, 2):
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

            res = minimize(objective, start)
            candidates.append(res.x)
            if which == 0 and tied:
                retraced[key] = res.x

    values = [_singular_over_n(kernel, v)[0] for v in candidates]
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
    """Certified report of ``rho`` as given or under its optimized filter, and that filter."""
    config = OracleConfig(restarts=ORACLE_RESTARTS, seed=spec.seed)
    if mode == "unfiltered":
        return certify_unfiltered(rho, oracle_config=config), None
    if mode == "filtered":
        params, _ = optimize_filter(rho)
        _, report = certify_filtered(rho, params.triple(), oracle_config=config)
        return report, params
    raise ValueError(f"unknown mode {mode!r}, expected 'unfiltered' or 'filtered'")


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


def _threshold(spec: ScanSpec, mode: str, ps: list[float], flags: list[bool], what: str) -> float | None:
    """Bisect the single sign change of ``flags`` over the grid ``ps``, as threshold_bisect does."""
    changes = [i for i in range(len(flags) - 1) if flags[i] != flags[i + 1]]
    if not changes:
        return None
    if len(changes) > 1:
        brackets = [(ps[i], ps[i + 1]) for i in changes]
        raise NonMonotonePredicateError(f"{what} changes sign {len(changes)} times on the grid", brackets)
    i = changes[0]
    lo, hi, flag_lo = ps[i], ps[i + 1], flags[i]
    while hi - lo > BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if _violates_at(spec, mid, mode) == flag_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def threshold_bisect(spec: ScanSpec, mode: str) -> float | None:
    """Violation threshold in p, or None when the grid shows no sign change.

    The grid predicate must change sign exactly once; multiple changes raise
    NonMonotonePredicateError carrying every bracketing interval, since a
    bisection there could silently pick an arbitrary crossing.
    """
    ps = [float(p) for p in spec.p_grid]
    flags = [_violates_at(spec, p, mode) for p in ps]
    return _threshold(spec, mode, ps, flags, "predicate")


def _threshold_from_records(spec: ScanSpec, records: list[PointRecord], mode: str) -> float | None:
    key = "violates_before" if mode == "unfiltered" else "violates_after"
    flags = [getattr(r, key) for r in records]
    return _threshold(spec, mode, [r.p for r in records], flags, key)


def figure_data(figure: str, spec: ScanSpec | None = None) -> ActivationReport:
    """Full activation scan for one built-in family.

    'fig1' scans the chi family, whose unfiltered expectation never violates;
    its window pairs the filtered threshold with the tabulated bilocal
    boundary. 'fig2' scans the ghz-noise family and pairs the filtered with
    the unfiltered threshold.
    """
    if figure not in FIGURE_FAMILY:
        raise ValueError(f"unknown figure {figure!r}, expected 'fig1' or 'fig2'")
    family = FIGURE_FAMILY[figure]
    if spec is None:
        spec = ScanSpec(family=family)
    elif spec.family != family:
        raise ValueError(f"{figure} scans the {family!r} family, spec has {spec.family!r}")

    records = [_point_record(spec, p) for p in spec.p_grid]
    p_unfiltered = _threshold_from_records(spec, records, "unfiltered")
    p_filtered = _threshold_from_records(spec, records, "filtered")

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
