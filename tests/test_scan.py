import json
import math
import multiprocessing
import os
import pickle
import time
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.optimize import minimize as scipy_minimize

import svetbound.scan as scan_module
from conftest import openblas_threads, openblas_threads_set, random_density
from svetbound.errors import ConsistencyError, NonMonotonePredicateError
from svetbound.filtering import FilterTriple, filtered_bound
from svetbound.linalg import _PAULI_PRODUCTS, pauli_moments
from svetbound.scan import (
    BISECT_TOL,
    FILTER_LOG_RANGE,
    REFINE_MAX_EVALS,
    REFINE_TOLS,
    PointRecord,
    ScanSpec,
    _filter_kernel,
    _initial_simplex,
    _lambda_grids,
    _local_maxima_mask,
    _singular_over_n,
    _top_starts,
    build_family_state,
    figure_data,
    minimize,
    optimize_filter,
    threshold_bisect,
    write_csv,
    write_json,
)
from svetbound.states import build_chi_state, build_ghz_noise_state
from svetbound.svetlichny import correlation_matrix

SQ2 = math.sqrt(2.0)


class TestMoments:
    def test_trace_and_correlation_entries(self):
        rho = build_ghz_noise_state(0.7)
        q = pauli_moments(rho)
        assert q[0, 0, 0] == pytest.approx(1.0, abs=1e-14)
        m = correlation_matrix(rho).matrix
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    assert q[i + 1, j + 1, k + 1] == pytest.approx(m[j, 3 * i + k], abs=1e-14)


class TestFastPath:
    def test_matches_filtered_bound(self, rng):
        """Kernel singular values must agree with the full filtered route."""
        for _ in range(25):
            rho = random_density(rng)
            kernel = _filter_kernel(rho)
            logs = rng.uniform(-1.5, 1.5, size=3)
            fa = filtered_bound(rho, FilterTriple.diagonal(*(10.0**logs)))
            fast, second = _singular_over_n(kernel, logs)
            assert fast == pytest.approx(fa.lambda1_prime, abs=1e-10)
            assert second == pytest.approx(fa.m_prime.svd.singular_values[1], abs=1e-10)

    @pytest.mark.parametrize("source", ["chi", "ghz-noise", "random"])
    def test_grid_agrees_with_scalar_eval(self, rng, source):
        """Both grid routes, row norms for the families and the eigen-solve for a random density."""
        rho = random_density(rng) if source == "random" else build_family_state(source, 0.5)
        kernel = _filter_kernel(rho)
        logs = np.linspace(-1.0, 1.0, 5)
        lam1, lam2 = _lambda_grids(kernel, 10.0**logs)
        for idx in ((0, 0, 0), (1, 2, 3), (4, 4, 4), (2, 0, 3)):
            first, second = _singular_over_n(kernel, logs[list(idx)])
            assert lam1[idx] == pytest.approx(first, abs=1e-12)
            assert lam2[idx] == pytest.approx(second, abs=1e-12)


def eigvalsh_singular_over_n(kernel: np.ndarray, log_xyz: np.ndarray) -> tuple[float, float]:
    """_singular_over_n through np.linalg.eigvalsh: the reference for its direct eigen-solver call."""
    out = kernel @ 10.0 ** (scan_module._EXPONENTS @ log_xyz)
    xm = out[:27].reshape(3, 9)
    w = np.linalg.eigvalsh(xm @ xm.T)
    n = float(out[27])
    return math.sqrt(max(w[2], 0.0)) / n, math.sqrt(max(w[1], 0.0)) / n


def grid_grams(kernel: np.ndarray, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Gram X X^T and N at every point of the filter grid, by the contraction of _lambda_grids."""
    g = xs.size
    v = xs[:, None] ** np.arange(3.0)
    t = (v @ kernel.T.reshape(3, 9 * 28)).reshape(g, 3, 3, 28)
    t = np.einsum("yb,xbce->xyce", v, t).reshape(g * g, 3, 28)
    t = (v @ t).reshape(g, g, g, 28)
    x_all = t[..., :27].reshape(g, g, g, 3, 9)
    return x_all @ x_all.swapaxes(-1, -2), t[..., 27]


def eigvalsh_lambda_grids(kernel: np.ndarray, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_lambda_grids by the batched eigen-solve on every kernel: the reference for its row-norm route."""
    gram, n_all = grid_grams(kernel, xs)
    s = np.sqrt(np.clip(np.linalg.eigvalsh(gram)[..., 1:], 0.0, None))
    return s[..., 1] / n_all, s[..., 0] / n_all


def real_x_state(rng: np.random.Generator) -> np.ndarray:
    """A three-qubit X-state with random populations and four real coherences rho[i, 7 - i]."""
    pops = rng.uniform(0.05, 1.0, size=8)
    rho = np.diag(pops)
    for i in range(4):
        rho[i, 7 - i] = rho[7 - i, i] = rng.uniform(-1.0, 1.0) * math.sqrt(pops[i] * pops[7 - i])
    return rho / pops.sum()


@pytest.fixture
def eigen_solves(monkeypatch) -> list:
    """The shape of every np.linalg.eigvalsh call."""
    shapes = []
    inner = np.linalg.eigvalsh

    def spy(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return inner(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    return shapes


class TestGridRoutes:
    """_lambda_grids' row-norm route, taken when X's rows share no column, against the batched eigen-solve."""

    XS = 10.0 ** np.linspace(*FILTER_LOG_RANGE, ScanSpec.filter_grid_points)

    @pytest.mark.parametrize("family", ["chi", "ghz-noise"])
    def test_families_bit_for_bit(self, eigen_solves, family):
        """Every p of the 0.05 grid: the same bits, and a Gram that is diagonal to the last bit.

        The bits agree because each family row of X holds one entry, or two of
        equal magnitude, whose squares sum to the same double in any order,
        fused or not.
        """
        for p in np.round(np.arange(0.0, 1.0001, 0.05), 10):
            kernel = _filter_kernel(build_family_state(family, p))
            grids = _lambda_grids(kernel, self.XS)
            assert eigen_solves == []
            ref = eigvalsh_lambda_grids(kernel, self.XS)
            assert all(map(same_bits, grids, ref))
            gram, _ = grid_grams(kernel, self.XS)
            assert np.all(gram[..., ~np.eye(3, dtype=bool)] == 0.0)
            eigen_solves.clear()

    def test_random_density_takes_eigen_solve(self, eigen_solves, rng):
        kernel = _filter_kernel(random_density(rng))
        grids = _lambda_grids(kernel, self.XS)
        assert eigen_solves == [(25, 25, 25, 3, 3)]
        assert all(map(same_bits, grids, eigvalsh_lambda_grids(kernel, self.XS)))

    def test_shared_column_takes_eigen_solve(self, eigen_solves):
        """One coefficient puts X[y, 0] next to X[x, 0]: the Gram has off-diagonals, so no row norms."""
        kernel = _filter_kernel(build_ghz_noise_state(0.5))
        kernel[9, 13] = 0.1
        grids = _lambda_grids(kernel, self.XS)
        assert eigen_solves == [(25, 25, 25, 3, 3)]
        assert all(map(same_bits, grids, eigvalsh_lambda_grids(kernel, self.XS)))
        gram, _ = grid_grams(kernel, self.XS)
        assert np.any(gram[..., 0, 1] != 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_coefficient_fails_in_the_solve(self, bad):
        """A non-finite coefficient in a row-disjoint kernel goes to the eigen-solve and fails there."""
        kernel = _filter_kernel(build_ghz_noise_state(0.5))
        kernel[0, 13] = bad
        # inf * 0.0 in the Gram product is an invalid value before the solve fails.
        with np.errstate(invalid="ignore"):
            want = outcome(eigvalsh_lambda_grids, kernel, self.XS)
            assert want[0] is np.linalg.LinAlgError
            assert outcome(_lambda_grids, kernel, self.XS) == want

    def test_real_x_states_within_rounding(self, eigen_solves):
        """Real X-states outside the families take the row norms; the bits may differ from LAPACK's, by rounding."""
        rng = np.random.default_rng(11)
        for _ in range(10):
            kernel = _filter_kernel(real_x_state(rng))
            grids = _lambda_grids(kernel, self.XS)
            assert eigen_solves == []
            for grid, ref in zip(grids, eigvalsh_lambda_grids(kernel, self.XS)):
                np.testing.assert_allclose(grid, ref, rtol=1e-15, atol=0.0)
            eigen_solves.clear()

    def test_real_x_states_same_supremum(self, monkeypatch):
        """Grid ties may break differently on real X-states, but the search reaches the same value."""
        rng = np.random.default_rng(12)
        states = [real_x_state(rng) for _ in range(4)]
        found = [optimize_filter(rho)[1].lambda1_prime for rho in states]
        monkeypatch.setattr(scan_module, "_lambda_grids", eigvalsh_lambda_grids)
        for rho, value in zip(states, found):
            assert value == pytest.approx(optimize_filter(rho)[1].lambda1_prime, abs=1e-12)


def outcome(fn, *args):
    """The bits ``fn(*args)`` returns, or the type and message of what it raises."""
    try:
        return np.asarray(fn(*args), dtype=float).tobytes()
    except Exception as exc:
        return type(exc), str(exc)


def direct_eigvalsh(a: np.ndarray) -> np.ndarray:
    """LAPACK's gufunc under np.linalg.eigvalsh's error state, as _singular_over_n calls it."""
    with scan_module._eigvalsh_errstate():
        return scan_module._eigvalsh_lo(a, signature="d->d")


class TestEigenSolver:
    """The direct eigen-solve and _singular_over_n against np.linalg.eigvalsh, bit for bit and error for error."""

    def test_random_kernels(self, rng):
        for _ in range(20):
            kernel = _filter_kernel(random_density(rng))
            for log_xyz in rng.uniform(*FILTER_LOG_RANGE, size=(20, 3)):
                assert outcome(_singular_over_n, kernel, log_xyz) == outcome(eigvalsh_singular_over_n, kernel, log_xyz)

    def test_degenerate_ghz_branch(self):
        """Every point the leading-value runs visit on ghz-noise p = 0.5, where lambda1 == lambda2 exactly."""
        kernel, starts = grid_starts(build_ghz_noise_state(0.5))
        visited = []
        for which, start in starts:
            minimize(lambda v: visited.append(v) or -_singular_over_n(kernel, v)[which], start)
        ties = 0
        for v in visited:
            pair = _singular_over_n(kernel, v)
            assert np.asarray(pair).tobytes() == np.asarray(eigvalsh_singular_over_n(kernel, v)).tobytes()
            ties += pair[0] == pair[1]
        assert ties > len(visited) // 2

    @pytest.mark.parametrize(
        "gram",
        [
            np.diag([np.nan, 1.0, 2.0]),
            np.diag([np.inf, 1.0, 2.0]),
            np.diag([-np.inf, 1.0, 2.0]),
            np.full((3, 3), np.nan),
            np.array([[np.inf, np.inf, np.inf], [np.inf, 2.0, 1.0], [np.inf, 1.0, 2.0]]),
            np.array([[1.0, np.nan, 0.0], [np.nan, 2.0, 0.0], [0.0, 0.0, 3.0]]),
        ],
    )
    def test_non_finite_matrix(self, gram):
        assert outcome(direct_eigvalsh, gram) == outcome(np.linalg.eigvalsh, gram)

    @pytest.mark.parametrize("log_xyz", [[np.nan, 0.0, 0.0], [0.0, np.inf, 0.0], [0.0, 0.0, -np.inf]])
    def test_non_finite_strengths(self, log_xyz):
        kernel = _filter_kernel(build_chi_state(0.5))
        with np.errstate(invalid="ignore"):
            want = outcome(eigvalsh_singular_over_n, kernel, np.array(log_xyz))
            assert outcome(_singular_over_n, kernel, np.array(log_xyz)) == want

    def test_failed_solve_raises_linalgerror(self, monkeypatch):
        """A solve LAPACK reports as failed raises LinAlgError, as np.linalg.eigvalsh does, not a warning."""
        solve = scan_module._eigvalsh_lo
        monkeypatch.setattr(scan_module, "_eigvalsh_lo", lambda a, **kw: solve(np.full_like(a, np.nan), **kw))
        kernel = _filter_kernel(build_ghz_noise_state(0.5))
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            _singular_over_n(kernel, np.zeros(3))


def mp_singular_over_n(rho: np.ndarray, xyz, dps: int = 40) -> tuple[float, float]:
    """Leading and second singular values of X/N for diag(x, 1) (x) diag(y, 1) (x) diag(z, 1), in mpmath.

    rho' = (f f^T) o rho with f = (x, 1) (x) (y, 1) (x) (z, 1), taken exactly from
    the double-precision entries of rho.
    """
    with mpmath.workdps(dps):
        f = [mpmath.mpf(1)]
        for v in xyz:
            f = [fi * w for fi in f for w in (mpmath.mpf(v), mpmath.mpf(1))]
        rp = [[f[r] * f[s] * mpmath.mpc(complex(rho[r, s])) for s in range(8)] for r in range(8)]
        n = sum(rp[r][r] for r in range(8)).real
        x = mpmath.matrix(3, 9)
        for l in range(3):
            for m in range(3):
                for k in range(3):
                    op = _PAULI_PRODUCTS[16 * (l + 1) + 4 * (m + 1) + (k + 1)]
                    val = sum(
                        rp[r][s] * mpmath.mpc(complex(op[s, r]))
                        for r in range(8) for s in range(8) if op[s, r] != 0
                    )
                    x[m, 3 * l + k] = val.real
        w = sorted(mpmath.eigsy(x * x.T, eigvals_only=True), reverse=True)
        return float(mpmath.sqrt(w[0]) / n), float(mpmath.sqrt(max(w[1], 0)) / n)


class TestKernelReference:
    """The per-state polynomial kernel against mpmath at the box corners and inside."""

    @pytest.mark.parametrize("which", ["chi", "ghz-noise", "random"])
    def test_grid_and_point_values(self, which):
        if which == "random":
            rho = random_density(np.random.default_rng(7))
        else:
            rho = build_family_state(which, 0.5)
        kernel = _filter_kernel(rho)
        lo, hi = FILTER_LOG_RANGE
        logs = np.array([lo, -0.7, 0.4, hi])
        lam1, lam2 = _lambda_grids(kernel, 10.0**logs)
        for idx in np.ndindex(lam1.shape):
            point = logs[list(idx)]
            ref1, ref2 = mp_singular_over_n(rho, 10.0**point)
            assert lam1[idx] == pytest.approx(ref1, abs=1e-9)
            assert lam2[idx] == pytest.approx(ref2, abs=1e-9)
            first, second = _singular_over_n(kernel, point)
            assert first == pytest.approx(ref1, abs=1e-9)
            assert second == pytest.approx(ref2, abs=1e-9)

    @pytest.mark.parametrize("point", [(-12.0, 6.0, 6.0), (-16.0, 8.0, 8.0)])
    @pytest.mark.parametrize("which", ["chi", "ghz-noise", "random"])
    def test_extreme_strengths(self, which, point):
        """Far outside the box, where the monomials span up to 64 decades, X/N stays accurate and lambda1 <= sqrt(2)."""
        if which == "random":
            rho = random_density(np.random.default_rng(7))
        else:
            rho = build_family_state(which, 0.5)
        kernel = _filter_kernel(rho)
        ref1, ref2 = mp_singular_over_n(rho, 10.0 ** np.array(point))
        # The grid takes x from its first and y, z from its second strength.
        lam1, lam2 = _lambda_grids(kernel, 10.0 ** np.array(point[:2]))
        for first, second in [_singular_over_n(kernel, np.array(point)), (lam1[0, 1, 1], lam2[0, 1, 1])]:
            assert first == pytest.approx(ref1, abs=1e-9)
            assert second == pytest.approx(ref2, abs=1e-9)
            assert first <= SQ2

    @pytest.mark.parametrize("family, p, columns", [("ghz-noise", 0.5, 6), ("chi", 0.2, 4)])
    def test_absent_monomials_are_exact_zeros(self, family, p, columns):
        """Only the monomials z_i + z_j of the state's nonzero entries have nonzero coefficients."""
        kernel = _filter_kernel(build_family_state(family, p))
        assert np.count_nonzero(kernel.any(axis=0)) == columns


def dense_box_supremum(rho: np.ndarray, points: int = 41, starts: int = 20) -> float:
    """Box supremum of the leading value from many starts on a finer grid.

    Both the leading and the second value are refined from their own top
    grid maxima, far tighter than the search does, and every end point is
    ranked by the leading value.
    """
    kernel = _filter_kernel(rho)
    lo, hi = FILTER_LOG_RANGE
    logs = np.linspace(lo, hi, points)
    grids = _lambda_grids(kernel, 10.0**logs)
    best = float(grids[0].max())
    for which, grid in enumerate(grids):
        for start in _top_starts(grid, logs, starts):
            res = scipy_minimize(
                lambda v: -_singular_over_n(kernel, v)[which],
                start,
                method="Nelder-Mead",
                bounds=[(lo, hi)] * 3,
                options={
                    "xatol": 1e-10, "fatol": 1e-15, "maxfev": 20000,
                    "initial_simplex": _initial_simplex(start),
                },
            )
            best = max(best, _singular_over_n(kernel, res.x)[0])
    return best


def scipy_refinement(objective, start: np.ndarray, maxfev: int = REFINE_MAX_EVALS):
    """scipy's bounded Nelder-Mead with the box, simplex and tolerances of ``minimize``."""
    return scipy_minimize(
        objective,
        start,
        method="Nelder-Mead",
        bounds=[FILTER_LOG_RANGE] * 3,
        options={"maxfev": maxfev, "initial_simplex": _initial_simplex(start), **REFINE_TOLS},
    )


def grid_starts(rho: np.ndarray) -> tuple[np.ndarray, list[tuple[int, np.ndarray]]]:
    """The kernel of ``rho`` and every (value index, start) optimize_filter refines from."""
    kernel = _filter_kernel(rho)
    lo, hi = FILTER_LOG_RANGE
    logs = np.linspace(lo, hi, ScanSpec.filter_grid_points)
    grids = _lambda_grids(kernel, 10.0**logs)
    return kernel, [(which, start) for which, grid in enumerate(grids) for start in _top_starts(grid, logs, 2)]


@pytest.fixture
def refinements(monkeypatch) -> list:
    """(start, result) of every Nelder-Mead run that optimize_filter makes."""
    runs = []
    inner = scan_module.minimize

    def spy(fun, start):
        res = inner(fun, start)
        runs.append((np.array(start), res))
        return res

    monkeypatch.setattr(scan_module, "minimize", spy)
    return runs


class TestNelderMead:
    @pytest.mark.parametrize("source", ["chi", "ghz-noise", "random"])
    def test_nelder_mead_matches_scipy(self, monkeypatch, source):
        """Bit for bit against scipy's bounded Nelder-Mead from every grid start, and under a cap."""
        if source == "random":
            states = [random_density(np.random.default_rng(seed)) for seed in range(5)]
        else:
            states = [build_family_state(source, p) for p in np.round(np.arange(0.0, 1.0001, 0.05), 10)]
        # Starts on the upper face, whose simplex steps inward, are among them.
        upper_face = 0
        for rho in states:
            kernel, starts = grid_starts(rho)
            for which, start in starts:

                def objective(v, kernel=kernel, which=which):
                    return -_singular_over_n(kernel, v)[which]

                upper_face += bool(np.any(start == FILTER_LOG_RANGE[1]))
                ref = scipy_refinement(objective, start)
                lean = minimize(objective, start)
                assert np.array_equal(lean.x, ref.x)
                assert (lean.fun, lean.nfev, lean.status, lean.success) == (
                    ref.fun, ref.nfev, ref.status, ref.success
                )
        assert upper_face

        # A run the cap stops: ghz-noise p = 0.5 needs over 400 evaluations from its best start.
        kernel, starts = grid_starts(build_ghz_noise_state(0.5))
        which, start = starts[0]

        def objective(v):
            return -_singular_over_n(kernel, v)[which]

        ref = scipy_refinement(objective, start, maxfev=40)
        monkeypatch.setattr(scan_module, "REFINE_MAX_EVALS", 40)
        lean = minimize(objective, start)
        assert lean.status == ref.status == 1 and not lean.success
        assert lean.nfev == ref.nfev <= 40
        assert np.array_equal(lean.x, ref.x) and lean.fun == ref.fun


def same_bits(a, b) -> bool:
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


def plateaus(v) -> float:
    """Piecewise constant on cells of the box, so whole simplices tie exactly."""
    return float(np.floor(v[0]) + np.floor(2.0 * v[1]) - np.floor(v[2] / 2.0))


def holed_bowl(v) -> float:
    """A smooth bowl that is NaN on part of the box, its minimum included."""
    if v[0] + v[1] > 1.0:
        return math.nan
    return float((v[0] - 1.0) ** 2 + (v[1] - 0.5) ** 2 + (v[2] + 2.0) ** 2)


class TestNelderMeadOrdering:
    """minimize against scipy where _by_value must order exact ties and NaN as scipy does."""

    # The origin, a start near and one on the upper face, one whose simplex
    # straddles holed_bowl's NaN edge and one inside its NaN part.
    STARTS = [
        np.zeros(3),
        np.array([0.3, -1.7, 2.95]),
        np.array([3.0, 3.0, -3.0]),
        np.array([0.45, 0.5, 0.0]),
        np.array([0.9, 0.9, 0.0]),
    ]

    @pytest.fixture
    def orderings(self, monkeypatch) -> list:
        """Every value list minimize hands _by_value."""
        seen = []
        inner = scan_module._by_value

        def spy(sim, fsim):
            seen.append(list(fsim))
            return inner(sim, fsim)

        monkeypatch.setattr(scan_module, "_by_value", spy)
        return seen

    def assert_matches_scipy(self, objective, start, maxfev=REFINE_MAX_EVALS):
        ref = scipy_refinement(objective, start, maxfev=maxfev)
        lean = minimize(objective, start)
        assert same_bits(lean.x, ref.x) and same_bits(lean.fun, ref.fun)
        assert (lean.nfev, lean.status, lean.success) == (ref.nfev, ref.status, ref.success)
        return lean

    def test_exact_ties(self, orderings):
        for start in self.STARTS:
            self.assert_matches_scipy(plateaus, start)
        assert any(len(set(fsim)) < len(fsim) for fsim in orderings)

    def test_nan_on_part_of_the_box(self, orderings):
        nan_results = 0
        for start in self.STARTS:
            nan_results += math.isnan(self.assert_matches_scipy(holed_bowl, start).fun)
        # Some orderings mix NaN with numbers, and some runs end on a NaN vertex.
        assert any(0 < sum(map(math.isnan, fsim)) < len(fsim) for fsim in orderings)
        assert nan_results

    @pytest.mark.parametrize("cap", [4, 25])
    @pytest.mark.parametrize("objective", [plateaus, holed_bowl, lambda v: math.nan])
    def test_capped(self, monkeypatch, objective, cap):
        """Four evaluations leave the initial simplex, with NaN and numbers on the straddling start."""
        monkeypatch.setattr(scan_module, "REFINE_MAX_EVALS", cap)
        statuses = [self.assert_matches_scipy(objective, start, maxfev=cap).status for start in self.STARTS]
        assert 1 in statuses


class TestSearchErrorState:
    """optimize_filter enters np.linalg.eigvalsh's error state once, around the whole search."""

    @pytest.mark.parametrize("failing", [2, 500])
    def test_failed_solve_inside_a_refinement_raises(self, monkeypatch, failing):
        """Solve 2 fails in the first refinement, solve 500 in the second (423 + 347 solves)."""
        solve = scan_module._eigvalsh_lo
        calls = 0

        def flaky(a, **kw):
            nonlocal calls
            calls += 1
            return solve(np.full_like(a, np.nan) if calls == failing else a, **kw)

        monkeypatch.setattr(scan_module, "_eigvalsh_lo", flaky)
        before = np.geterr(), np.geterrcall()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(np.linalg.LinAlgError, match="^Eigenvalues did not converge$"):
                optimize_filter(build_ghz_noise_state(0.5))
        assert calls == failing
        assert caught == []
        assert (np.geterr(), np.geterrcall()) == before

    def test_error_state_restored_after_return(self):
        before = np.geterr(), np.geterrcall()
        params, fa = optimize_filter(build_ghz_noise_state(0.5))
        assert (np.geterr(), np.geterrcall()) == before
        assert all(map(math.isfinite, (params.x, params.y, params.z, fa.lambda1_prime)))


def pad_roll_local_maxima(grid: np.ndarray) -> np.ndarray:
    """The pad-and-roll form of _local_maxima_mask, kept as its reference."""
    padded = np.pad(grid, 1, constant_values=-np.inf)
    mask = np.ones(grid.shape, dtype=bool)
    core = (slice(1, -1),) * 3
    for axis in range(3):
        for shift in (-1, 1):
            mask &= grid >= np.roll(padded, shift, axis=axis)[core]
    return mask


class TestLocalMaxima:
    @given(
        grid=hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=3, max_dims=3, min_side=1, max_side=4),
            elements=st.one_of(
                st.sampled_from([0.0, 1.0, -1.0, math.inf, -math.inf, math.nan]),
                st.floats(allow_nan=True, allow_infinity=True),
            ),
        )
    )
    @example(grid=np.full((1, 1, 1), np.nan))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_matches_pad_roll(self, grid):
        assert np.array_equal(_local_maxima_mask(grid), pad_roll_local_maxima(grid))


class TestOptimizeFilter:
    def test_frozen_ghz_optimum(self):
        params, fa = optimize_filter(build_ghz_noise_state(0.5))
        assert fa.lambda1_prime == pytest.approx(1.1542290377905464, abs=1e-9)
        assert fa.bound > 4.0

    def test_frozen_chi_optimum(self):
        params, fa = optimize_filter(build_chi_state(0.5))
        assert fa.lambda1_prime == pytest.approx(1.123033129109576, abs=1e-9)
        assert fa.bound > 4.0

    @pytest.mark.parametrize("family", ["chi", "ghz-noise"])
    @pytest.mark.parametrize("p", [0.37, 0.5, 0.9])
    def test_reaches_box_supremum(self, family, p):
        rho = build_family_state(family, p)
        _, fa = optimize_filter(rho)
        assert fa.lambda1_prime == pytest.approx(dense_box_supremum(rho), abs=1e-9)

    def test_refinements_stop_on_tolerance(self, refinements):
        """Every Nelder-Mead run ends on its own tolerances, well before the cap.

        Of the 32 refinements, 8 second-value runs retrace a leading-value run
        and are skipped: ghz-noise at p = 0.37, 0.5 and 0.9 two each, chi at
        p = 0.5 and 0.9 one each.
        """
        for build in (build_chi_state, build_ghz_noise_state):
            for p in (0.0, 0.37, 0.5, 0.9):
                optimize_filter(build(p))
        assert len(refinements) == 24
        for _, res in refinements:
            assert res.success and res.status == 0
            assert res.nfev < REFINE_MAX_EVALS

    def test_skipped_refinement_is_exact(self, refinements):
        """On ghz-noise p = 0.5 both second-value runs are skipped; run, they end where the reused runs do."""
        rho = build_ghz_noise_state(0.5)
        optimize_filter(rho)
        kernel, starts = grid_starts(rho)
        leading = [start for which, start in starts if which == 0]
        second = [start for which, start in starts if which == 1]
        assert len(refinements) == len(leading) == len(second) == 2
        ends = {start.tobytes(): res for start, res in refinements}
        for start in second:
            reused = ends[start.tobytes()]
            rerun = minimize(lambda v: -_singular_over_n(kernel, v)[1], start)
            assert np.array_equal(rerun.x, reused.x)
            assert rerun.nfev == reused.nfev

    @pytest.mark.parametrize("shared_starts", [False, True])
    def test_nondegenerate_path_is_refined(self, monkeypatch, refinements, shared_starts):
        """On ghz-noise p = 0.2 the second value splits from the first, so all four refinements run.

        With the second-value starts forced onto the leading ones, the values
        still differ along the way, so no run is skipped.
        """
        if shared_starts:
            inner, leading = scan_module._top_starts, []

            def same_starts(grid, logs, count):
                if not leading:
                    leading.extend(inner(grid, logs, count))
                return list(leading)

            monkeypatch.setattr(scan_module, "_top_starts", same_starts)
        optimize_filter(build_ghz_noise_state(0.2))
        assert len(refinements) == 4
        starts = [start.tobytes() for start, _ in refinements]
        assert (starts[:2] == starts[2:]) == shared_starts

    def test_kernel_disagreement_raises(self, monkeypatch):
        inner = scan_module.filtered_bound

        def shifted(rho, filters):
            fa = inner(rho, filters)
            fa.lambda1_prime += 1e-6
            return fa

        monkeypatch.setattr(scan_module, "filtered_bound", shifted)
        with pytest.raises(ConsistencyError, match="kernel check failed"):
            optimize_filter(build_ghz_noise_state(0.5))

    def test_value_above_sqrt2_raises(self, monkeypatch):
        """Two routes that agree still fail when they pass the physical maximum."""
        inner_kernel, inner_bound = scan_module._filter_kernel, scan_module.filtered_bound

        def scaled_kernel(rho):
            kernel = inner_kernel(rho)
            kernel[:27] *= 1.5
            return kernel

        def scaled_bound(rho, filters):
            fa = inner_bound(rho, filters)
            fa.lambda1_prime *= 1.5
            return fa

        monkeypatch.setattr(scan_module, "_filter_kernel", scaled_kernel)
        monkeypatch.setattr(scan_module, "filtered_bound", scaled_bound)
        with pytest.raises(ConsistencyError):
            optimize_filter(build_ghz_noise_state(0.5))

    def test_deterministic(self):
        rho = build_ghz_noise_state(0.4)
        p1, fa1 = optimize_filter(rho)
        p2, fa2 = optimize_filter(rho)
        assert (p1.x, p1.y, p1.z) == (p2.x, p2.y, p2.z)
        assert fa1.lambda1_prime == fa2.lambda1_prime

    def test_never_below_identity(self, rng):
        """The identity filter is always a candidate, so the result can't lose to it."""
        for p in (0.1, 0.6, 0.95):
            rho = build_ghz_noise_state(p)
            plain = correlation_matrix(rho).svd.singular_values[0]
            _, fa = optimize_filter(rho)
            assert fa.lambda1_prime >= plain - 1e-9

    def test_vanishing_weight_never_violates(self):
        """At p = 0 filtering pushes the bound toward 4 but cannot cross it."""
        for build in (build_chi_state, build_ghz_noise_state):
            _, fa = optimize_filter(build(0.0))
            assert fa.lambda1_prime < 1.0
            assert fa.bound < 4.0


class TestThresholdBisect:
    def test_ghz_unfiltered_matches_closed_form(self):
        """Violation starts where 4 sqrt(2) p crosses 4, at p = 1/sqrt(2)."""
        spec = ScanSpec(family="ghz-noise", p_grid=np.round(np.arange(0.5, 0.9001, 0.1), 10))
        threshold = threshold_bisect(spec, "unfiltered")
        assert threshold == pytest.approx(1.0 / SQ2, abs=1e-3)

    def test_no_change_returns_none(self):
        spec = ScanSpec(family="ghz-noise", p_grid=np.array([0.1, 0.3, 0.5]))
        assert threshold_bisect(spec, "unfiltered") is None

    def test_non_monotone_grid_refused(self, monkeypatch):
        import svetbound.scan as scan_module

        # A pure function of p: grid points may be certified in forked workers.
        flags = {0.1: False, 0.2: True, 0.3: False, 0.4: True}
        monkeypatch.setattr(scan_module, "_violates_at", lambda spec, p, mode: flags[p])
        spec = ScanSpec(family="chi", p_grid=np.array([0.1, 0.2, 0.3, 0.4]))
        with pytest.raises(NonMonotonePredicateError) as err:
            scan_module.threshold_bisect(spec, "unfiltered")
        assert err.value.brackets == [(0.1, 0.2), (0.2, 0.3), (0.3, 0.4)]

    def test_non_monotone_error_pickles(self):
        """The error crosses a process boundary with its message and brackets."""
        err = NonMonotonePredicateError("two crossings", [(0.1, 0.2), (0.3, 0.4)])
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is NonMonotonePredicateError
        assert str(back) == "two crossings"
        assert back.brackets == [(0.1, 0.2), (0.3, 0.4)]

    def test_bad_mode(self, monkeypatch):
        """An unknown mode is refused before a pool starts or a point is certified."""
        monkeypatch.setattr(scan_module, "_pool", lambda points: pytest.fail("the scan started"))
        spec = ScanSpec(family="chi", p_grid=np.array([0.1, 0.2]))
        with pytest.raises(ValueError, match="mode"):
            threshold_bisect(spec, "sideways")


class TestRecordsThreshold:
    """The filtered sign change read off the grid records, through figure_data."""

    def test_multiple_flips_raise_with_brackets(self, fake_scan):
        flags = {0.1: False, 0.2: True, 0.3: False}
        fake_scan(lambda p: fake_record(p, after=flags[p]), lambda p, mode: p > 0.15)
        with pytest.raises(NonMonotonePredicateError, match="violates_after") as err:
            figure_data("fig2", ScanSpec(family="ghz-noise", p_grid=list(flags)))
        assert err.value.brackets == [(0.1, 0.2), (0.2, 0.3)]

    def test_no_flip_returns_none(self, fake_scan):
        fake_scan(lambda p: fake_record(p), lambda p, mode: pytest.fail("bisected"))
        report = figure_data("fig2", ScanSpec(family="ghz-noise", p_grid=[0.1, 0.2]))
        assert report.p_violation_filtered is None and report.p_violation_unfiltered is None


@pytest.fixture(scope="module")
def fig2_coarse():
    spec = ScanSpec(family="ghz-noise", p_grid=np.round(np.arange(0.0, 1.0001, 0.25), 10))
    return figure_data("fig2", spec)


class TestFigureData:
    def test_report_structure(self, fig2_coarse):
        report = fig2_coarse
        assert report.family == "ghz-noise"
        assert [r.p for r in report.records] == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert report.p_violation_unfiltered == pytest.approx(1.0 / SQ2, abs=1e-3)
        assert report.p_violation_filtered == pytest.approx(1.0 / 3.0, abs=2e-3)
        lo, hi = report.activation_window
        assert lo == report.p_violation_filtered
        assert hi == report.p_violation_unfiltered

    def test_pure_state_record(self, fig2_coarse):
        last = fig2_coarse.records[-1]
        assert last.unfiltered_attained == pytest.approx(4.0 * SQ2, abs=1e-6)
        assert last.filtered_attained == pytest.approx(4.0 * SQ2, abs=1e-6)
        assert last.violates_before and last.violates_after

    def test_csv_json_roundtrip(self, fig2_coarse, tmp_path):
        csv_path = tmp_path / "out.csv"
        json_path = tmp_path / "out.json"
        write_csv(fig2_coarse, str(csv_path))
        write_json(fig2_coarse, str(json_path))
        lines = csv_path.read_text().splitlines()
        assert lines[0].startswith("p,unfiltered_bound")
        assert len(lines) == 1 + len(fig2_coarse.records)
        payload = json.loads(json_path.read_text())
        assert payload["family"] == "ghz-noise"
        assert len(payload["records"]) == len(fig2_coarse.records)
        # full precision survives the round trip
        assert payload["records"][-1]["filtered_attained"] == fig2_coarse.records[-1].filtered_attained

    def test_deterministic_outputs(self, fig2_coarse, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(fig2_coarse, str(a))
        write_csv(fig2_coarse, str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_fig1_spec_mismatch_rejected(self):
        with pytest.raises(ValueError, match="fig1"):
            figure_data("fig1", ScanSpec(family="ghz-noise"))

    def test_unknown_figure(self):
        with pytest.raises(ValueError, match="figure"):
            figure_data("fig3")


@pytest.fixture
def cores(monkeypatch):
    """Set the usable cores the scan pool sees: cores(n) reports n of them."""

    def use(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))

    return use


def fake_record(p: float, before: bool = False, after: bool = False) -> PointRecord:
    return PointRecord(
        p=p, unfiltered_bound=0.0, unfiltered_attained=0.0, x=1.0, y=1.0, z=1.0,
        filtered_bound=0.0, filtered_attained=0.0, violates_before=before, violates_after=after,
    )


@pytest.fixture
def fake_scan(monkeypatch, tmp_path):
    """Replace _point_record and _violates_at by functions of p alone that log each call.

    ``fake_scan(record, predicate)`` installs ``record(p)`` as the grid task and
    ``predicate(p, mode)`` as the bisection step (and the threshold_bisect grid
    task); either may raise. Each call appends one JSON line to a log shared
    by every process: its kind ("record" or "predicate"), p, mode, pid and,
    once it has returned, ``"ok": true``. It returns a function reading that
    log.
    """
    log = tmp_path / "tasks.log"

    def append(**entry):
        with open(log, "a") as fh:
            fh.write(json.dumps(entry) + "\n")

    def install(record, predicate):
        def point_record(spec, p):
            append(kind="record", p=p, pid=os.getpid())
            out = record(p)
            append(kind="record", p=p, pid=os.getpid(), ok=True)
            return out

        def violates_at(spec, p, mode):
            append(kind="predicate", p=p, mode=mode, pid=os.getpid())
            out = predicate(p, mode)
            append(kind="predicate", p=p, mode=mode, pid=os.getpid(), ok=True)
            return out

        monkeypatch.setattr(scan_module, "_point_record", point_record)
        monkeypatch.setattr(scan_module, "_violates_at", violates_at)
        return lambda: [json.loads(line) for line in log.read_text().splitlines()] if log.exists() else []

    return install


def plain_bisection(lo: float, hi: float, above) -> tuple[float, list[float]]:
    """Threshold and midpoints of a serial bisection of ``above`` (False at lo) to BISECT_TOL."""
    mids = []
    while hi - lo > BISECT_TOL:
        mid = 0.5 * (lo + hi)
        mids.append(mid)
        if above(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi), mids


def slow(seconds: float, value):
    time.sleep(seconds)
    return value


def pinned(value):
    """``value``, once every OpenBLAS of the calling process is seen to run one thread."""
    threads = openblas_threads()
    if set(threads) != {1}:
        raise AssertionError(f"a scan task ran with OpenBLAS threads {threads}")
    return value


GRID = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8]


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no core affinity to report")
class TestParallelScan:
    SPEC = dict(family="ghz-noise", p_grid=np.round(np.arange(0.0, 1.0001, 0.25), 10))

    def test_worker_count_does_not_change_results(self, cores):
        cores(1)
        serial = figure_data("fig2", ScanSpec(**self.SPEC))
        cores(2)
        parallel = figure_data("fig2", ScanSpec(**self.SPEC))
        assert parallel == serial
        assert parallel.p_violation_filtered is not None and parallel.p_violation_unfiltered is not None

    def test_tasks_run_in_pinned_workers(self, cores, fake_scan):
        """Grid points and bisection steps on two cores run in forked workers with every OpenBLAS on one thread."""
        read = fake_scan(lambda p: pinned(fake_record(p, before=p > 0.15)), lambda p, mode: pinned(p > 0.15))
        cores(2)
        # Two threads in the parent, inherited by a fork unless the worker pins them.
        with openblas_threads_set(2):
            report = figure_data("fig2", ScanSpec(family="ghz-noise", p_grid=[0.1, 0.2]))
        assert report.p_violation_unfiltered == plain_bisection(0.1, 0.2, lambda p: p > 0.15)[0]
        tasks = read()
        assert {t["kind"] for t in tasks} == {"record", "predicate"}
        assert os.getpid() not in {t["pid"] for t in tasks}
        assert multiprocessing.active_children() == []

    def test_one_core_runs_in_process(self, cores, fake_scan):
        read = fake_scan(lambda p: fake_record(p, before=p > 0.15), lambda p, mode: p > 0.15)
        cores(1)
        report = figure_data("fig2", ScanSpec(family="ghz-noise", p_grid=GRID))
        assert report.p_violation_unfiltered == plain_bisection(0.1, 0.2, lambda p: p > 0.15)[0]
        assert {t["pid"] for t in read()} == {os.getpid()}
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_bisection_overlaps_the_grid(self, cores, fake_scan, workers):
        """The bisection starts once 0.1 and 0.2 are in, before the last grid point, at a serial bisection's midpoints."""
        read = fake_scan(lambda p: slow(0.05, fake_record(p, before=p > 0.15)), lambda p, mode: p > 0.15)
        cores(workers)
        report = figure_data("fig2", ScanSpec(family="ghz-noise", p_grid=GRID))
        threshold, mids = plain_bisection(0.1, 0.2, lambda p: p > 0.15)
        assert report.p_violation_unfiltered == threshold and report.p_violation_filtered is None
        started = [t for t in read() if not t.get("ok")]
        steps = [t for t in started if t["kind"] == "predicate"]
        assert [t["p"] for t in steps] == mids and {t["mode"] for t in steps} == {"unfiltered"}
        assert started.index(steps[0]) < [t["p"] for t in started].index(GRID[-1])
        assert multiprocessing.active_children() == []

    def test_grid_turning_non_monotone_after_a_chain_started(self, cores, fake_scan):
        """Both grids change sign twice; the unfiltered one is refused, with every bracket."""
        before = {0.1: False, 0.2: True, 0.3: True, 0.4: True, 0.5: True, 0.6: False}
        after = {0.1: False, 0.2: False, 0.3: True, 0.4: False, 0.5: False, 0.6: False}
        read = fake_scan(
            lambda p: slow(0.1 if p > 0.3 else 0.0, fake_record(p, before=before[p], after=after[p])),
            lambda p, mode: p > 0.15,
        )
        cores(2)
        with pytest.raises(NonMonotonePredicateError, match="violates_before") as err:
            figure_data("fig2", ScanSpec(family="ghz-noise", p_grid=list(before)))
        assert err.value.brackets == [(0.1, 0.2), (0.5, 0.6)]
        assert any(t["kind"] == "predicate" for t in read())
        assert multiprocessing.active_children() == []

    def test_first_failing_grid_point_raises(self, cores, fake_scan):
        """0.6 fails first, but 0.5 fails too and comes first in p order; a bisection step is in flight.

        0.6 fails only once a step has started: a worker slow to return 0.2
        would otherwise let 0.6 fail before the bisection could start.
        """

        def record(p):
            if p == 0.5:
                time.sleep(0.3)
            deadline = time.monotonic() + 10.0
            while p == 0.6 and time.monotonic() < deadline and not any(t["kind"] == "predicate" for t in read()):
                time.sleep(0.005)
            if p in (0.5, 0.6):
                raise ValueError(f"grid point {p}")
            return fake_record(p, before=p > 0.15)

        read = fake_scan(record, lambda p, mode: slow(0.05, p > 0.15))
        cores(3)
        with pytest.raises(ValueError, match="grid point 0.5"):
            figure_data("fig2", ScanSpec(family="ghz-noise", p_grid=GRID))
        tasks = read()
        started = [t["p"] for t in tasks if t["kind"] == "record"]
        assert 0.6 in started and 0.7 not in started
        assert any(t["kind"] == "predicate" for t in tasks)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failing_step_raises_after_the_grid_checks(self, cores, fake_scan, workers):
        """A failed bisection step is raised once the grid is in and monotone, and not over a non-monotone grid."""

        def step(p, mode):
            raise RuntimeError(f"step at {p}")

        read = fake_scan(lambda p: fake_record(p, after=p > 0.15), step)
        cores(workers)
        with pytest.raises(RuntimeError, match="step at 0.15"):
            figure_data("fig2", ScanSpec(family="ghz-noise", p_grid=GRID))
        assert sorted(t["p"] for t in read() if t["kind"] == "record" and t.get("ok")) == GRID

        read = fake_scan(lambda p: fake_record(p, after=p in (0.2, 0.3) or p > 0.65), step)
        with pytest.raises(NonMonotonePredicateError) as err:
            figure_data("fig2", ScanSpec(family="ghz-noise", p_grid=GRID))
        assert err.value.brackets == [(0.1, 0.2), (0.3, 0.4), (0.6, 0.7)]
        assert multiprocessing.active_children() == []

    def test_threshold_bisect_overlaps_the_grid(self, cores, fake_scan):
        read = fake_scan(None, lambda p, mode: slow(0.02, p > 0.45))
        cores(2)
        threshold = threshold_bisect(ScanSpec(family="chi", p_grid=GRID), "filtered")
        threshold_ref, mids = plain_bisection(0.4, 0.5, lambda p: p > 0.45)
        assert threshold == threshold_ref
        started = [t["p"] for t in read() if not t.get("ok")]
        assert sorted(started) == sorted(GRID + mids)
        assert started.index(mids[0]) < started.index(GRID[-1])
        assert multiprocessing.active_children() == []

    def test_no_worker_outlives_the_scan(self, cores, monkeypatch):
        cores(2)
        figure_data("fig2", ScanSpec(family="ghz-noise", p_grid=[0.9, 1.0]))
        assert multiprocessing.active_children() == []
        inner = scan_module.filtered_bound

        def shifted(rho, filters):
            fa = inner(rho, filters)
            fa.lambda1_prime += 1e-6
            return fa

        monkeypatch.setattr(scan_module, "filtered_bound", shifted)
        with pytest.raises(ConsistencyError, match="filter kernel check failed"):
            figure_data("fig2", ScanSpec(family="ghz-noise", p_grid=[0.9, 1.0]))
        assert multiprocessing.active_children() == []


class TestScanSpec:
    def test_rejects_unknown_family(self):
        with pytest.raises(ValueError, match="family"):
            ScanSpec(family="w-state")

    @pytest.mark.parametrize(
        "grid",
        [[0.9, 0.6], [0.5, 1.5], [-0.1, 0.5], [0.2, 0.2], [0.1, np.nan], [[0.1, 0.2]], 0.5],
    )
    def test_rejects_bad_grid_before_certifying(self, monkeypatch, grid):
        """A descending grid would bisect an unrefined midpoint; [0.5, 1.5] used to fail late."""
        import svetbound.scan as scan_module

        calls = []
        monkeypatch.setattr(scan_module, "certify_unfiltered", lambda *a, **k: calls.append(a))
        with pytest.raises(ValueError, match="p_grid"):
            threshold_bisect(ScanSpec(family="ghz-noise", p_grid=grid), "unfiltered")
        assert calls == []

    def test_build_family_state_dispatch(self):
        np.testing.assert_allclose(
            build_family_state("chi", 0.3), build_chi_state(0.3), atol=1e-15
        )
        np.testing.assert_allclose(
            build_family_state("ghz-noise", 0.3), build_ghz_noise_state(0.3), atol=1e-15
        )
        with pytest.raises(ValueError):
            build_family_state("other", 0.3)
