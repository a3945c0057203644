import dataclasses
import json
import math
import multiprocessing
import os
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.optimize import minimize as scipy_minimize

import svetbound.analysis as analysis_module
import svetbound.scan as scan_module
import svetbound.tightness as tightness_module
from conftest import random_density
from svetbound.analysis import certify_filtered
from svetbound.errors import ConsistencyError, NonMonotonePredicateError
from svetbound.filtering import FilterParams, FilterTriple, filtered_bound
from svetbound.linalg import _PAULI_PRODUCTS, pauli_moments
from svetbound.scan import (
    FIGURE_FAMILY,
    FILTER_LOG_RANGE,
    REFINE_MAX_EVALS,
    REFINE_TOLS,
    ROOT_TOL,
    PointRecord,
    ScanSpec,
    _box_search,
    _filter_kernel,
    _initial_simplex,
    _lambda_grids,
    _local_maxima_mask,
    _singular_over_n,
    _top_starts,
    build_family_state,
    figure_data,
    optimize_filter,
    threshold_bisect,
    write_csv,
    write_json,
)
from svetbound.seesaw import OracleConfig
from svetbound.states import CHI_THETA, build_chi_state, build_ghz_noise_state
from svetbound.svetlichny import BoundReport, MeasurementSettings, correlation_matrix

SQ2 = math.sqrt(2.0)


def ghz_supremum(p: float) -> float:
    """sup lambda1' over diagonal filters on ghz-noise: the face {+-(1, 1, 1)} of its population hull."""
    return max(1.0, 2.0 * math.sqrt(p / (1.0 + p)))


def chi_supremum(p: float, theta: float = CHI_THETA) -> float:
    """sup lambda1' over diagonal filters on chi, on the same face."""
    c = math.cos(theta)
    return max(1.0, 2.0 * c * math.sqrt(p) / math.sqrt(1.0 - p + 2.0 * p * c * c))


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
        """The batched grid against the point evaluation, on both families and a random density."""
        rho = random_density(rng) if source == "random" else build_family_state(source, 0.5)
        kernel = _filter_kernel(rho)
        logs = np.linspace(-1.0, 1.0, 5)
        lam1, lam2 = _lambda_grids(kernel, 10.0**logs)
        for idx in ((0, 0, 0), (1, 2, 3), (4, 4, 4), (2, 0, 3)):
            first, second = _singular_over_n(kernel, logs[list(idx)])
            assert lam1[idx] == pytest.approx(first, abs=1e-12)
            assert lam2[idx] == pytest.approx(second, abs=1e-12)


def grid_x_and_n(kernel: np.ndarray, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """X and N at every point of the filter grid, by the contraction of _lambda_grids."""
    g = xs.size
    v = xs[:, None] ** np.arange(3.0)
    t = (v @ kernel.T.reshape(3, 9 * 28)).reshape(g, 3, 3, 28)
    t = np.einsum("yb,xbce->xyce", v, t).reshape(g * g, 3, 28)
    t = (v @ t).reshape(g, g, g, 28)
    return t[..., :27].reshape(g, g, g, 3, 9), t[..., 27]


def row_norm_lambda_grids(kernel: np.ndarray, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The grid values when the Gram X X^T is diagonal, as it is when X's rows share no column.

    Its eigenvalues are then the three squared row norms, and the top two are
    selected exactly (max and median), with no eigen-solve: the reference the
    batched eigen-solve must meet on such kernels.
    """
    x_all, n_all = grid_x_and_n(kernel, xs)
    r = np.einsum("...ij,...ij->...i", x_all, x_all)
    a, b, c = r[..., 0], r[..., 1], r[..., 2]
    high, low = np.maximum(a, b), np.minimum(a, b)
    median = np.maximum(low, np.minimum(high, c))
    return np.sqrt(np.maximum(high, c)) / n_all, np.sqrt(median) / n_all


def off_diagonal_gram(kernel: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """The off-diagonal entries of the Gram X X^T at every grid point."""
    x_all, _ = grid_x_and_n(kernel, xs)
    return (x_all @ x_all.swapaxes(-1, -2))[..., ~np.eye(3, dtype=bool)]


def same_bits(a, b) -> bool:
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


def real_x_state(rng: np.random.Generator) -> np.ndarray:
    """A three-qubit X-state with random populations and four real coherences rho[i, 7 - i]."""
    pops = rng.uniform(0.05, 1.0, size=8)
    rho = np.diag(pops)
    for i in range(4):
        rho[i, 7 - i] = rho[7 - i, i] = rng.uniform(-1.0, 1.0) * math.sqrt(pops[i] * pops[7 - i])
    return rho / pops.sum()


def row_disjoint_state(rng: np.random.Generator) -> np.ndarray:
    """A non-X state whose X rows share no column: random populations and real coherences rho[0, 5], rho[2, 7]."""
    pops = rng.uniform(0.05, 1.0, size=8)
    rho = np.diag(pops)
    for i, j in ((0, 5), (2, 7)):
        rho[i, j] = rho[j, i] = rng.uniform(-1.0, 1.0) * math.sqrt(pops[i] * pops[j])
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
    """_lambda_grids takes one batched eigen-solve on every kernel; where X's rows share no column it meets the row norms."""

    XS = 10.0 ** np.linspace(*FILTER_LOG_RANGE, ScanSpec.filter_grid_points)
    ONE_SOLVE = [(25, 25, 25, 3, 3)]

    @pytest.mark.parametrize("family", ["chi", "ghz-noise"])
    def test_families_bit_for_bit(self, eigen_solves, family):
        """Every p of the 0.05 grid: the row norms' bits, from a Gram that is diagonal to the last bit.

        The bits agree because each family row of X holds one entry, or two of
        equal magnitude, whose squares sum to the same double in any order,
        fused or not.
        """
        for p in np.round(np.arange(0.0, 1.0001, 0.05), 10):
            kernel = _filter_kernel(build_family_state(family, p))
            grids = _lambda_grids(kernel, self.XS)
            assert eigen_solves == self.ONE_SOLVE
            assert all(map(same_bits, grids, row_norm_lambda_grids(kernel, self.XS)))
            assert np.all(off_diagonal_gram(kernel, self.XS) == 0.0)
            eigen_solves.clear()

    def test_random_density_takes_eigen_solve(self, eigen_solves, rng):
        kernel = _filter_kernel(random_density(rng))
        lam1, lam2 = _lambda_grids(kernel, self.XS)
        assert eigen_solves == self.ONE_SOLVE
        assert np.all(lam1 >= lam2) and np.all(lam2 >= 0.0)

    def test_shared_column_takes_eigen_solve(self, eigen_solves):
        """One coefficient puts X[y, 0] next to X[x, 0]: the Gram has off-diagonals, which the row norms miss."""
        kernel = _filter_kernel(build_ghz_noise_state(0.5))
        kernel[9, 13] = 0.1
        grids = _lambda_grids(kernel, self.XS)
        assert eigen_solves == self.ONE_SOLVE
        assert np.any(off_diagonal_gram(kernel, self.XS) != 0.0)
        assert not all(map(same_bits, grids, row_norm_lambda_grids(kernel, self.XS)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_coefficient_fails_in_the_solve(self, bad):
        kernel = _filter_kernel(build_ghz_noise_state(0.5))
        kernel[0, 13] = bad
        # inf * 0.0 in the Gram product is an invalid value before the solve fails.
        with np.errstate(invalid="ignore"), pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            _lambda_grids(kernel, self.XS)

    def test_real_x_states_within_rounding(self, eigen_solves):
        """On real X-states outside the families the bits may differ from the row norms', by rounding."""
        rng = np.random.default_rng(11)
        for _ in range(10):
            kernel = _filter_kernel(real_x_state(rng))
            grids = _lambda_grids(kernel, self.XS)
            assert eigen_solves == self.ONE_SOLVE
            for grid, ref in zip(grids, row_norm_lambda_grids(kernel, self.XS)):
                np.testing.assert_allclose(grid, ref, rtol=1e-15, atol=0.0)
            eigen_solves.clear()

    def test_real_x_states_same_supremum(self, monkeypatch):
        """Grid ties may break differently on real X-states, but the search reaches the same value."""
        rng = np.random.default_rng(12)
        states = [real_x_state(rng) for _ in range(4)]
        found = [_box_search(rho)[1].lambda1_prime for rho in states]
        monkeypatch.setattr(scan_module, "_lambda_grids", row_norm_lambda_grids)
        for rho, value in zip(states, found):
            assert value == pytest.approx(_box_search(rho)[1].lambda1_prime, abs=1e-12)


class TestEigenSolver:
    """Kernel evaluations through np.linalg.eigvalsh: the ladder's scaled monomials, exact ties and failed solves."""

    def test_random_kernels(self, rng):
        """Dividing every monomial by the largest, as the X-state ladder does, moves the values only by rounding.

        Both squared values are eigenvalues of one Gram, so their rounding is
        relative to the leading one's square.
        """
        for _ in range(20):
            kernel = _filter_kernel(random_density(rng))
            for log_xyz in rng.uniform(*FILTER_LOG_RANGE, size=(20, 3)):
                monomials = scan_module._EXPONENTS @ (math.log(10.0) * log_xyz)
                scaled = np.array(scan_module._pair_at(kernel, np.exp(monomials - monomials.max())))
                plain = np.array(_singular_over_n(kernel, log_xyz))
                np.testing.assert_allclose(scaled**2, plain**2, rtol=0.0, atol=1e-12 * plain[0] ** 2)

    def test_degenerate_ghz_branch(self):
        """On ghz-noise p = 0.5 most points the refinements visit tie lambda1 == lambda2 to the last bit.

        The box search skips a second-value run that would retrace such a tie.
        """
        kernel, starts = grid_starts(build_ghz_noise_state(0.5))
        visited = []
        for which, start in starts:
            scipy_refinement(lambda v: visited.append(np.array(v)) or -_singular_over_n(kernel, v)[which], start)
        ties = sum(first == second for first, second in (_singular_over_n(kernel, v) for v in visited))
        assert ties > len(visited) // 2

    @pytest.mark.parametrize("log_xyz", [[np.nan, 0.0, 0.0], [0.0, np.inf, 0.0], [0.0, 0.0, -np.inf]])
    def test_non_finite_strengths(self, log_xyz):
        """A non-finite log strength makes NaN monomials (0 * inf in the exponents), so the solve fails."""
        kernel = _filter_kernel(build_chi_state(0.5))
        with np.errstate(invalid="ignore"), pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            _singular_over_n(kernel, np.array(log_xyz))

    def test_failed_solve_raises_linalgerror(self):
        """A NaN kernel coefficient fails the solve: LinAlgError, not a warning."""
        kernel = _filter_kernel(build_ghz_noise_state(0.5))
        kernel[0, 13] = np.nan
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
        """Far outside the box, where the monomials span up to 64 decades, X/N stays accurate.

        lambda1 also stays within sqrt(2) on these three states, inside the physical maximum sqrt(3).
        """
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
    """scipy's bounded Nelder-Mead with the box, simplex and tolerances the box search states."""
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
    """(objective, start, result) of every Nelder-Mead run that optimize_filter makes."""
    runs = []
    inner = scan_module.minimize

    def spy(fun, start, **kwargs):
        res = inner(fun, start, **kwargs)
        runs.append((fun, np.array(start), res))
        return res

    monkeypatch.setattr(scan_module, "minimize", spy)
    return runs


class TestNelderMead:
    @pytest.mark.parametrize("source", ["chi", "ghz-noise", "random"])
    def test_nelder_mead_matches_scipy(self, monkeypatch, refinements, source):
        """Every refinement is scipy_refinement from its start, bit for bit, also under a lowered cap."""
        if source == "random":
            states = [random_density(np.random.default_rng(seed)) for seed in range(5)]
        else:
            states = [build_family_state(source, p) for p in np.round(np.arange(0.0, 1.0001, 0.05), 10)]
        for rho in states:
            _box_search(rho)
        # Starts on the upper face, whose simplex steps inward, are among them.
        assert any(np.any(start == FILTER_LOG_RANGE[1]) for _, start, _ in refinements)
        for fun, start, res in refinements:
            ref = scipy_refinement(fun, start)
            assert np.array_equal(res.x, ref.x)
            assert (res.fun, res.nfev, res.status, res.success) == (ref.fun, ref.nfev, ref.status, ref.success)

        # A run the cap stops: ghz-noise p = 0.5 needs over 400 evaluations from its best start.
        refinements.clear()
        monkeypatch.setattr(scan_module, "REFINE_MAX_EVALS", 40)
        _box_search(build_ghz_noise_state(0.5))
        fun, start, res = refinements[0]
        ref = scipy_refinement(fun, start, maxfev=40)
        assert res.status == ref.status == 1 and not res.success
        assert res.nfev == ref.nfev <= 40
        assert np.array_equal(res.x, ref.x) and res.fun == ref.fun


class TestSearchErrorState:
    """A failed eigen-solve on either route raises LinAlgError, warns nothing and leaves the error state as it was."""

    @staticmethod
    def assert_failed_solve_raises(monkeypatch, search, failing):
        """Solve number ``failing`` of ``search`` on ghz-noise p = 0.5 fails: LinAlgError, no warning, state restored."""
        solve = np.linalg.eigvalsh
        calls = 0

        def flaky(a, *args, **kwargs):
            nonlocal calls
            calls += 1
            return solve(np.full_like(a, np.nan) if calls == failing else a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", flaky)
        before = np.geterr(), np.geterrcall()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(np.linalg.LinAlgError, match="^Eigenvalues did not converge$"):
                search(build_ghz_noise_state(0.5))
        assert calls == failing
        assert caught == []
        assert (np.geterr(), np.geterrcall()) == before

    @pytest.mark.parametrize("failing", [2, 500])
    def test_failed_solve_inside_a_refinement_raises(self, monkeypatch, failing):
        """Solve 1 is the grid's; solve 2 fails in the first refinement, solve 500 in the second (423 + 347 solves)."""
        self.assert_failed_solve_raises(monkeypatch, _box_search, failing)

    def test_failed_solve_on_the_ladder_raises(self, monkeypatch):
        """The X-state route's only solve, the ladder's batch over every t, fails."""
        self.assert_failed_solve_raises(monkeypatch, optimize_filter, 1)

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
        """The exact supremum 2 / sqrt(3), and the box search's frozen value below it."""
        params, fa = optimize_filter(build_ghz_noise_state(0.5))
        assert fa.lambda1_prime == pytest.approx(ghz_supremum(0.5), abs=1e-12)
        assert fa.bound > 4.0
        params, fa = _box_search(build_ghz_noise_state(0.5))
        assert fa.lambda1_prime == pytest.approx(1.1542290377905464, abs=1e-9)
        assert fa.bound > 4.0

    def test_frozen_chi_optimum(self):
        params, fa = optimize_filter(build_chi_state(0.5))
        assert fa.lambda1_prime == pytest.approx(chi_supremum(0.5), abs=1e-12)
        assert fa.bound > 4.0
        params, fa = _box_search(build_chi_state(0.5))
        assert fa.lambda1_prime == pytest.approx(1.123033129109576, abs=1e-9)
        assert fa.bound > 4.0

    @pytest.mark.parametrize(
        "rho",
        [
            *(
                pytest.param(build_family_state(family, p), id=f"{p}-{family}")
                for p in (0.37, 0.5, 0.9)
                for family in ("chi", "ghz-noise")
            ),
            pytest.param(row_disjoint_state(np.random.default_rng(5)), id="row-disjoint"),
        ],
    )
    def test_reaches_box_supremum(self, rho):
        _, fa = _box_search(rho)
        assert fa.lambda1_prime == pytest.approx(dense_box_supremum(rho), abs=1e-9)

    def test_refinements_stop_on_tolerance(self, refinements):
        """Every Nelder-Mead run ends on its own tolerances, well before the cap.

        Of the 32 refinements, 8 second-value runs retrace a leading-value run
        and are skipped: ghz-noise at p = 0.37, 0.5 and 0.9 two each, chi at
        p = 0.5 and 0.9 one each.
        """
        for build in (build_chi_state, build_ghz_noise_state):
            for p in (0.0, 0.37, 0.5, 0.9):
                _box_search(build(p))
        assert len(refinements) == 24
        for _, _, res in refinements:
            assert res.success and res.status == 0
            assert res.nfev < REFINE_MAX_EVALS

    def test_skipped_refinement_is_exact(self, refinements):
        """On ghz-noise p = 0.5 both second-value runs are skipped; run, they end where the reused runs do."""
        rho = build_ghz_noise_state(0.5)
        _box_search(rho)
        kernel, starts = grid_starts(rho)
        leading = [start for which, start in starts if which == 0]
        second = [start for which, start in starts if which == 1]
        assert len(refinements) == len(leading) == len(second) == 2
        ends = {start.tobytes(): res for _, start, res in refinements}
        for start in second:
            reused = ends[start.tobytes()]
            rerun = scipy_refinement(lambda v: -_singular_over_n(kernel, v)[1], start)
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
        _box_search(build_ghz_noise_state(0.2))
        assert len(refinements) == 4
        starts = [start.tobytes() for _, start, _ in refinements]
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
        """Two routes that agree still fail when they pass the physical maximum sqrt(3).

        Pure GHZ sits at lambda1 = sqrt(2) on the identity filter, so the scaled
        routes agree on 1.5 sqrt(2) ~ 2.12. At p = 0.5 they would give
        1.5 * 2 / sqrt(3) = sqrt(3), exactly at the maximum.
        """
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
            optimize_filter(build_ghz_noise_state(1.0))

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


def x_state(pops, ratios, phases) -> np.ndarray:
    """The X-state with populations ``pops`` and coherences rho[k, 7 - k] = r_k sqrt(p_k p_{7-k}) e^{i phi_k}.

    Each 2x2 block on (k, 7 - k) is PSD for r_k in [0, 1]; the trace is normalized to 1.
    """
    pops = np.asarray(pops, dtype=float)
    rho = np.diag(pops).astype(complex)
    for k in range(4):
        rho[k, 7 - k] = ratios[k] * math.sqrt(pops[k] * pops[7 - k]) * np.exp(1j * phases[k])
        rho[7 - k, k] = np.conj(rho[k, 7 - k])
    return rho / pops.sum()


def x_state_supremum(rho: np.ndarray) -> float:
    w, d, supremum = scan_module._x_state_path(rho, _filter_kernel(rho))
    return supremum


# Populations, coherence ratios and phases of random X-states, for x_state.
X_STATE_ARGS = dict(
    pops=st.lists(
        st.one_of(st.just(0.0), st.floats(0.02, 1.0)), min_size=8, max_size=8
    ).filter(lambda pops: sum(pops) > 0.0),
    ratios=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
    phases=st.lists(st.floats(-math.pi, math.pi), min_size=4, max_size=4),
)

# X-states whose population hull holds 0 on a face of six and of eight vertices.
SPARSE_COMPLEX = x_state([0.3, 0.1, 0.0, 0.2, 0.05, 0.0, 0.15, 0.2], [0.9, 0.0, 0.5, 1.0], [0.3, 0.0, -2.0, 1.1])
FULL_COMPLEX = x_state([0.1, 0.2, 0.3, 0.4, 0.05, 0.1, 0.2, 0.3], [1.0, 0.8, 0.6, 0.4], [0.0, 1.0, 2.0, 3.0])


def linprog_face(populated: np.ndarray) -> np.ndarray:
    """The minimal face of conv{v_i : populated} holding 0, one LP per state; empty when 0 is outside.

    State i is on that face exactly when some convex combination of the
    populated vertices with weight on i is 0.
    """
    from scipy.optimize import linprog

    index = np.flatnonzero(populated)
    vertices = scan_module._VERTICES[index].T
    a_eq = np.vstack([vertices, np.ones(index.size)])
    b_eq = np.append(np.zeros(3), 1.0)
    face = np.zeros(8, dtype=bool)
    for j, i in enumerate(index):
        res = linprog(-np.eye(index.size)[j], A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
        face[i] = res.status == 0 and -res.fun > 1e-9
    return face


class TestXStateRoute:
    """optimize_filter's exact route on X-states."""

    GHZ_GRID = (0.0, 0.1, 0.3, 1 / 3 - 1e-4, 1 / 3 + 1e-4, 0.4, 0.5, 0.75, 0.9, 0.99, 1.0)
    CHI_THRESHOLD = 1 / (2 + math.cos(2 * CHI_THETA))
    CHI_GRID = (0.0, 0.2, 0.35, CHI_THRESHOLD - 1e-4, CHI_THRESHOLD + 1e-4, 0.5, 0.75, 0.9, 0.99, 1.0)

    @pytest.mark.parametrize(
        "family, grid, closed_form",
        [("ghz-noise", GHZ_GRID, ghz_supremum), ("chi", CHI_GRID, chi_supremum)],
    )
    def test_closed_forms(self, refinements, family, grid, closed_form):
        """Both families reach their closed forms, on both sides of each threshold, with no box search."""
        for p in grid:
            rho = build_family_state(family, p)
            _, fa = optimize_filter(rho)
            assert fa.lambda1_prime == pytest.approx(closed_form(p), abs=1e-12), p
            assert x_state_supremum(rho) == pytest.approx(closed_form(p), abs=1e-12), p
            assert (fa.lambda1_prime > 1.0) == (closed_form(p) > 1.0)
        assert refinements == []

    def test_face_matches_linprog(self):
        """All 255 nonempty support patterns: the same face, and d exposes it with v_i . d <= -1 off it."""
        for bits in range(1, 256):
            populated = np.array([(bits >> i) & 1 for i in range(8)], dtype=bool)
            face, d = scan_module._face(populated)
            assert np.array_equal(face, linprog_face(populated)), bits
            along = scan_module._VERTICES @ d
            assert np.all(along[face] == 0.0)
            off = along[populated & ~face]
            if off.size:
                assert off.max() == -1.0 and np.all(off <= -1.0)
            else:
                assert np.all(d == 0.0)

    def test_face_is_cached_and_read_only(self):
        """A repeated support pattern gets the same read-only arrays, whatever array holds it."""
        for bits in (0b10000001, 0b11111111, 0b00001111, 0b01101001):
            populated = np.array([(bits >> i) & 1 for i in range(8)], dtype=bool)
            face, d = scan_module._face(populated)
            again = scan_module._face(populated.astype(int) * 3 > 0)
            assert again[0] is face and again[1] is d
            for array in (face, d):
                assert not array.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = array[0]
        assert scan_module._pattern_face.cache_info().maxsize == 256

    @pytest.mark.parametrize(
        "rho",
        [
            build_ghz_noise_state(0.5),
            build_chi_state(0.5),
            build_ghz_noise_state(0.2),
            SPARSE_COMPLEX,
            FULL_COMPLEX,
        ],
        ids=["ghz-noise-0.5", "chi-0.5", "ghz-noise-0.2", "sparse-complex", "full-complex"],
    )
    def test_filter_matches_mpmath(self, rho):
        """lambda1' at the returned, possibly extreme, filter against 40-digit arithmetic."""
        params, fa = optimize_filter(rho)
        ref, _ = mp_singular_over_n(rho, (params.x, params.y, params.z))
        assert fa.lambda1_prime == pytest.approx(ref, abs=1e-12)
        assert ref == pytest.approx(x_state_supremum(rho), abs=1e-12)

    @given(**X_STATE_ARGS)
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_box_search_never_exceeds_supremum(self, pops, ratios, phases):
        rho = x_state(pops, ratios, phases)
        supremum = x_state_supremum(rho)
        _, box = _box_search(rho)
        assert box.lambda1_prime <= supremum + 1e-12
        _, fa = optimize_filter(rho)
        assert fa.lambda1_prime == pytest.approx(supremum, abs=1e-12)

    def test_off_x_entry_takes_the_box(self, refinements):
        rho = build_ghz_noise_state(0.5)
        rho[0, 1] = rho[1, 0] = 1e-3
        params, fa = optimize_filter(rho)
        assert refinements
        box_params, box = _box_search(rho)
        assert (params, fa.lambda1_prime) == (box_params, box.lambda1_prime)

    def test_plateau_takes_the_largest_population(self):
        """Below the threshold the supremum is 1, approached at the vertex of the largest population."""
        rho = build_chi_state(0.3)
        w, d, supremum = scan_module._x_state_path(rho, _filter_kernel(rho))
        assert supremum == 1.0
        assert np.array_equal(w, np.zeros(3)) and np.array_equal(d, np.ones(3))

    def test_ladder_cap_raises(self, monkeypatch):
        monkeypatch.setattr(scan_module, "LADDER_STEPS", (0.0, 1.0))
        with pytest.raises(ConsistencyError, match="filter ladder"):
            optimize_filter(build_ghz_noise_state(0.5))


def mp_window_point(log_weights: np.ndarray, vertices: np.ndarray, dps: int = 40):
    """Minimizer w of phi(l) = ln sum_i exp(lw_i + v_i . l) on the span of the vertices, and phi there, in mpmath.

    Damped Newton in the coordinates of linearly independent vertices, until
    the squared Newton decrement is below 1e-70. The Hessian is summed as a
    covariance, so no term cancels, and a step is capped at length 8: weights
    1e-300 apart start far out on a nearly flat slope.
    """
    rows = []
    for v in vertices:
        if np.linalg.matrix_rank(np.array([*rows, v])) > len(rows):
            rows.append(v)
    with mpmath.workdps(dps):
        lw = [mpmath.mpf(float(x)) for x in log_weights]
        # proj[i][j] = v_i . b_j, exact integers.
        proj = [[int(np.dot(v, b)) for b in rows] for v in vertices]
        r = len(rows)

        def phi(beta):
            terms = [lw[i] + sum(proj[i][j] * beta[j] for j in range(r)) for i in range(len(lw))]
            top = max(terms)
            return top + mpmath.log(sum(mpmath.exp(t - top) for t in terms)), terms

        beta = mpmath.matrix(r, 1)
        for _ in range(500):
            value, terms = phi(beta)
            p = [mpmath.exp(t - value) for t in terms]
            grad = mpmath.matrix([sum(p[i] * proj[i][j] for i in range(len(p))) for j in range(r)])
            hess = mpmath.matrix(r, r)
            for j in range(r):
                for k in range(r):
                    hess[j, k] = sum(p[i] * (proj[i][j] - grad[j]) * (proj[i][k] - grad[k]) for i in range(len(p)))
            step = mpmath.lu_solve(hess, -grad)
            decrement = -sum(grad[j] * step[j] for j in range(r))
            if decrement < mpmath.mpf(10) ** -70:
                break
            length = mpmath.norm(step)
            if length > 8:
                step, decrement = step * (8 / length), decrement * (8 / length)
            scale = mpmath.mpf(1)
            while phi(beta + scale * step)[0] > value - scale * decrement / 4:
                scale /= 2
            beta = beta + scale * step
        else:
            raise AssertionError("mpmath window point did not converge")
        w = [sum(rows[j][i] * beta[j] for j in range(r)) for i in range(3)]
        return w, phi(beta)[0]


class TestWindowPoint:
    """_window_point against 40-digit minimizers: closed form on two-vertex faces, damped Newton on larger ones."""

    @staticmethod
    def assert_near(got, ref, w_tol: float, phi_tol: float):
        """Each entry of w within w_tol (1 + |.|) of the reference, phi within phi_tol (1 + |.|)."""
        (w, phi), (ref_w, ref_phi) = got, ref
        for value, want in zip(w, ref_w):
            assert abs(mpmath.mpf(float(value)) - want) <= w_tol * (1 + abs(want)), (w, ref_w)
        assert abs(mpmath.mpf(phi) - ref_phi) <= phi_tol * (1 + abs(ref_phi)), (phi, ref_phi)

    @pytest.mark.parametrize("family", scan_module.FAMILIES)
    def test_closed_form_on_family_faces(self, family):
        """Every state of the default grid with p > 0 has a two-vertex face; p = 0 has none."""
        for p in ScanSpec().p_grid:
            pops = np.diagonal(build_family_state(family, p)).real
            face, _ = scan_module._face(pops > 0)
            assert face.sum() == (2 if p > 0 else 0), p
            if p > 0:
                lw, vertices = np.log(pops[face]), scan_module._VERTICES[face]
                got = scan_module._window_point(lw, vertices)
                self.assert_near(got, mp_window_point(lw, vertices), 1e-15, 1e-15)

    def test_closed_form_on_random_antipodal_pairs(self):
        """Pairs {v, -v} in either order, with populations from 1e-300 to 1, equal ones included."""
        rng = np.random.default_rng(2025)
        cases = [(0, [1e-300, 1.0]), (3, [1.0, 1e-300]), (1, [0.25, 0.25]), (2, [1.0, 1.0])]
        cases += [(int(rng.integers(4)), 10.0 ** rng.uniform(-300.0, 0.0, size=2)) for _ in range(60)]
        for k, pops in cases:
            for pair in ([k, 7 - k], [7 - k, k]):
                lw, vertices = np.log(pops), scan_module._VERTICES[pair]
                assert np.array_equal(vertices[0], -vertices[1])
                got = scan_module._window_point(lw, vertices)
                self.assert_near(got, mp_window_point(lw, vertices), 1e-15, 1e-15)

    def test_families_make_no_least_squares_solve(self, monkeypatch):
        """optimize_filter on both default grids never reaches Newton; a six-vertex face does."""
        calls = []
        lstsq = np.linalg.lstsq

        def spy(*args, **kwargs):
            calls.append(args)
            return lstsq(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", spy)
        for family in scan_module.FAMILIES:
            for p in ScanSpec().p_grid:
                optimize_filter(build_family_state(family, p))
        assert calls == []
        optimize_filter(SPARSE_COMPLEX)
        assert calls

    @pytest.mark.parametrize("rho", [SPARSE_COMPLEX, FULL_COMPLEX], ids=["sparse-complex", "full-complex"])
    def test_newton_on_larger_faces(self, rho):
        """Newton stops within the tolerances that NEWTON_TOL's comment states."""
        pops = np.diagonal(rho).real
        face, _ = scan_module._face(pops > 0)
        assert face.sum() >= 3
        lw, vertices = np.log(pops[face]), scan_module._VERTICES[face]
        self.assert_near(scan_module._window_point(lw, vertices), mp_window_point(lw, vertices), 1e-10, 1e-15)


def sequential_ladder(rho: np.ndarray):
    """The ladder one t at a time, kept as the reference: the first t within SUPREMUM_TOL and its filter, or None."""
    kernel = _filter_kernel(rho)
    w, d, supremum = scan_module._x_state_path(rho, kernel)
    for t in scan_module.LADDER_STEPS:
        ell = w + t * d
        monomials = scan_module._EXPONENTS.dot(ell)
        out = kernel.dot(np.exp(monomials - monomials.max()))
        xm = out[:27].reshape(3, 9)
        value = math.sqrt(max(np.linalg.eigvalsh(xm.dot(xm.T))[2], 0.0)) / float(out[27])
        if abs(value - supremum) <= scan_module.SUPREMUM_TOL:
            x, y, z = np.exp(ell)
            return t, FilterParams(float(x), float(y), float(z))
    return None


class TestBatchedLadder:
    """optimize_filter's one batched solve picks the t and filter of the sequential ladder."""

    @staticmethod
    def assert_same_ladder(rho: np.ndarray):
        kernel = _filter_kernel(rho)
        path = scan_module._x_state_path(rho, kernel)
        if path is None:
            return
        reference = sequential_ladder(rho)
        if reference is None:
            with pytest.raises(ConsistencyError, match="filter ladder"):
                optimize_filter(rho)
            return
        t, want = reference
        got, _ = optimize_filter(rho)
        assert got == want
        w, d, _ = path
        steps = [s for s in scan_module.LADDER_STEPS if FilterParams(*map(float, np.exp(w + s * d))) == got]
        assert steps[0] == t

    @pytest.mark.parametrize("family", scan_module.FAMILIES)
    def test_family_grids(self, family):
        for p in ScanSpec().p_grid:
            self.assert_same_ladder(build_family_state(family, p))

    @given(**X_STATE_ARGS)
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_random_x_states(self, pops, ratios, phases):
        self.assert_same_ladder(x_state(pops, ratios, phases))

    def test_later_steps_stay_silent(self, monkeypatch):
        """A step past the first that qualifies, here one whose N underflows to 0, neither warns nor raises."""
        rho = build_ghz_noise_state(0.5)
        monkeypatch.setattr(scan_module, "LADDER_STEPS", (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 1e6))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            params, _ = optimize_filter(rho)
        assert params == sequential_ladder(rho)[1]

    def test_sigma1_is_the_matrix_two_norm(self):
        """The supremum takes sigma1 of the coherence block bit for bit as np.linalg.norm(C, 2) did."""
        states = [build_family_state(f, p) for f in scan_module.FAMILIES for p in ScanSpec().p_grid]
        states += [SPARSE_COMPLEX, FULL_COMPLEX]
        checked = 0
        for rho in states:
            kernel = _filter_kernel(rho)
            pops = np.diagonal(rho).real
            face, _ = scan_module._face(pops > 0)
            _, _, supremum = scan_module._x_state_path(rho, kernel)
            if supremum == 1.0:
                continue
            coherence = kernel[:27, scan_module._COHERENCE_COLUMN].reshape(3, 9)
            _, phi = scan_module._window_point(np.log(pops[face]), scan_module._VERTICES[face])
            assert supremum == float(np.linalg.norm(coherence, 2)) * math.exp(-phi)
            checked += 1
        assert checked > 100


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

        flags = {0.1: False, 0.2: True, 0.3: False, 0.4: True}
        monkeypatch.setattr(scan_module, "_violates_at", lambda spec, p, mode: flags[p])
        spec = ScanSpec(family="chi", p_grid=np.array([0.1, 0.2, 0.3, 0.4]))
        with pytest.raises(NonMonotonePredicateError) as err:
            scan_module.threshold_bisect(spec, "unfiltered")
        assert err.value.brackets == [(0.1, 0.2), (0.2, 0.3), (0.3, 0.4)]

    def test_bad_mode(self, monkeypatch):
        """An unknown mode is refused before a point is certified."""
        monkeypatch.setattr(scan_module, "_violates_at", lambda spec, p, mode: pytest.fail("the scan started"))
        monkeypatch.setattr(scan_module, "_point_record", lambda spec, p: pytest.fail("the scan started"))
        spec = ScanSpec(family="chi", p_grid=np.array([0.1, 0.2]))
        with pytest.raises(ValueError, match="mode"):
            threshold_bisect(spec, "sideways")


CRITERION_GRID = np.round(np.arange(0.0, 1.0001, 0.05), 10)
# Criterion 6's thresholds and their closed forms: 4 sqrt(2) p = 4, and the
# filtered supremum 1 at 1/3 for ghz-noise and 1/(2 + cos 2 theta) for chi.
CLOSED_FORMS = (
    ("ghz-noise", "unfiltered", 1.0 / SQ2),
    ("ghz-noise", "filtered", 1.0 / 3.0),
    ("chi", "filtered", 1.0 / (2.0 + math.cos(2.0 * CHI_THETA))),
)


class TestMarginRoots:
    """Each threshold is the root of its mode's margin, checked by one certification past it."""

    @pytest.mark.parametrize("family, mode, closed_form", CLOSED_FORMS)
    def test_closed_form_on_the_criterion_grid(self, family, mode, closed_form):
        threshold = threshold_bisect(ScanSpec(family=family, p_grid=CRITERION_GRID), mode)
        assert abs(threshold - closed_form) <= 1e-9

    def test_closed_forms_on_the_default_grid(self):
        fig2, fig1 = figure_data("fig2"), figure_data("fig1")
        found = (fig2.p_violation_unfiltered, fig2.p_violation_filtered, fig1.p_violation_filtered)
        for threshold, (_, _, closed_form) in zip(found, CLOSED_FORMS):
            assert abs(threshold - closed_form) <= 1e-9
        assert fig1.activation_window == (fig1.p_violation_filtered, scan_module.BILOCAL_BOUNDARY_P)

    def test_one_certification_per_mode(self, monkeypatch):
        """After the grid's certifications, each mode certifies once, on its violating side of the threshold."""
        calls = []
        inner = scan_module._certify_at

        def spy(spec, rho, mode):
            calls.append(mode)
            return inner(spec, rho, mode)

        monkeypatch.setattr(scan_module, "_certify_at", spy)
        report = figure_data("fig2", ScanSpec(family="ghz-noise", p_grid=CRITERION_GRID))
        points = len(CRITERION_GRID)
        assert calls == ["unfiltered", "filtered"] * points + ["unfiltered", "filtered"]
        assert report.p_violation_unfiltered is not None and report.p_violation_filtered is not None

        calls.clear()
        assert threshold_bisect(ScanSpec(family="chi", p_grid=CRITERION_GRID), "filtered") is not None
        assert calls == ["filtered"] * (points + 1)

    @pytest.mark.parametrize("family, mode, closed_form", CLOSED_FORMS)
    def test_few_margin_evaluations(self, monkeypatch, family, mode, closed_form):
        """Smooth margins, the filtered one unclamped, let the interpolation converge in a few steps."""
        calls = []
        inner = scan_module._margin_at

        def spy(spec, p, m):
            calls.append(p)
            return inner(spec, p, m)

        monkeypatch.setattr(scan_module, "_margin_at", spy)
        threshold_bisect(ScanSpec(family=family, p_grid=CRITERION_GRID), mode)
        assert len(calls) <= 8

    def test_unconfirmed_violation_raises(self, monkeypatch):
        """A certification past the root that reports no violation is a ConsistencyError."""
        grid = [0.6, 0.8]
        inner = scan_module._violates_at
        monkeypatch.setattr(scan_module, "_violates_at", lambda spec, p, mode: inner(spec, p, mode) and p in grid)
        with pytest.raises(ConsistencyError, match="no violation"):
            threshold_bisect(ScanSpec(family="ghz-noise", p_grid=grid), "unfiltered")

    @pytest.mark.parametrize("shift", [-1.0, 1.0])
    def test_grid_end_margin_contradiction_raises(self, monkeypatch, shift):
        """A margin whose sign at a grid end contradicts that end's certified verdict is a ConsistencyError."""
        inner = scan_module._margin_at
        monkeypatch.setattr(scan_module, "_margin_at", lambda spec, p, mode: inner(spec, p, mode) + shift)
        with pytest.raises(ConsistencyError, match="contradicts its certified verdict"):
            threshold_bisect(ScanSpec(family="ghz-noise", p_grid=[0.2, 0.5]), "filtered")

    def test_margin_without_a_limit_raises(self, monkeypatch):
        monkeypatch.setattr(scan_module, "_coherence_limit", lambda rho, kernel: None)
        with pytest.raises(ConsistencyError, match="population hull"):
            threshold_bisect(ScanSpec(family="chi", p_grid=[0.2, 0.5]), "filtered")


def bisection_steps(lo: float, hi: float) -> int:
    """Midpoints a plain bisection evaluates until hi - lo <= ROOT_TOL."""
    steps = 0
    while hi - lo > ROOT_TOL:
        hi = 0.5 * (lo + hi)
        steps += 1
    return steps


class TestRoot:
    """scan._root: a bracket ROOT_TOL wide up to rounding, within one evaluation of bisection's count."""

    @staticmethod
    def solve(f, lo, hi):
        evaluations = []

        def counted(x):
            evaluations.append(x)
            return f(x)

        b, fb, c, fc = scan_module._root(counted, lo, hi, f(lo), f(hi))
        assert abs(c - b) <= ROOT_TOL + 4.0 * np.finfo(float).eps * abs(b)
        assert (fb > 0.0) != (fc > 0.0)
        assert all(min(lo, hi) < x < max(lo, hi) for x in evaluations)
        return b, c, len(evaluations)

    def test_jumps(self):
        """Steps, a linear margin with a jump and flat cubics with one: no worse than bisection plus one."""
        rng = np.random.default_rng(3)
        lo, hi = 0.3, 0.4
        for trial in range(400):
            r = rng.uniform(lo, hi)
            below, above = -rng.uniform(0.01, 10.0), rng.uniform(0.01, 10.0)
            kind = trial % 4
            sign = -1.0 if kind == 3 else 1.0

            def f(x, r=r, below=below, above=above, kind=kind, sign=sign):
                jump = below if x <= r else above
                if kind == 0:
                    return jump
                if kind == 1:
                    return (x - r) + 1e-3 * jump
                return sign * ((x - r) ** 3 + (0.0 if x <= r else above))

            b, c, used = self.solve(f, lo, hi)
            assert min(b, c) <= r <= max(b, c) + ROOT_TOL
            assert used <= bisection_steps(lo, hi) + 1

    def test_smooth_margins_converge_fast(self):
        """A linear margin takes the secant root and one step past it; a curved one a few more."""
        assert self.solve(lambda x: 4.0 * x - 1.5, 0.3, 0.4)[2] <= 2
        b, _, used = self.solve(lambda x: math.sqrt(x) - 0.6, 0.3, 0.4)
        assert b == pytest.approx(0.36, abs=ROOT_TOL)
        assert used <= 6


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


class TestExactCertification:
    """Every family point, filtered or not, certifies through the exact tightness route."""

    def test_no_seesaw_or_lbfgs(self, monkeypatch):
        """Default-grid figures and criterion 6's thresholds make no see-saw call and no L-BFGS run."""
        calls = []

        def spy(module, name):
            inner = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return inner(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        spy(analysis_module, "seesaw_from_matrix")
        spy(tightness_module, "minimize")
        figure_data("fig1")
        figure_data("fig2")
        grid = np.round(np.arange(0.0, 1.0001, 0.05), 10)
        for family, mode in (("ghz-noise", "unfiltered"), ("ghz-noise", "filtered"), ("chi", "filtered")):
            assert threshold_bisect(ScanSpec(family=family, p_grid=grid), mode) is not None
        assert calls == []


def assert_same_report(got: BoundReport, want: BoundReport) -> None:
    """Every field equal: numbers with ==, each setting vector with np.array_equal."""
    for f in dataclasses.fields(BoundReport):
        if f.name != "settings":
            assert getattr(got, f.name) == getattr(want, f.name), f.name
    for f in dataclasses.fields(MeasurementSettings):
        assert np.array_equal(getattr(got.settings, f.name), getattr(want.settings, f.name)), f.name


class TestFilteredReuse:
    """A filtered point certifies optimize_filter's filtered state: certify_filtered's report, bit for bit."""

    @staticmethod
    def certified_twice(spec: ScanSpec, rho: np.ndarray) -> tuple[BoundReport, BoundReport]:
        report, params = scan_module._certify_at(spec, rho, "filtered")
        config = OracleConfig(seed=spec.seed)
        _, want = certify_filtered(rho, params.triple(), oracle_config=config)
        return report, want

    @pytest.mark.parametrize("figure", ["fig1", "fig2"])
    def test_default_grid(self, figure):
        spec = ScanSpec(family=FIGURE_FAMILY[figure])
        for p in spec.p_grid:
            assert_same_report(*self.certified_twice(spec, build_family_state(spec.family, p)))

    def test_box_search_state(self, refinements):
        """A seeded Ginibre state is no X-state, and its nondegenerate bound is certified by the see-saw."""
        report, want = self.certified_twice(ScanSpec(), random_density(np.random.default_rng(1)))
        assert refinements
        assert not report.tight
        assert_same_report(report, want)


def fake_record(p: float, before: bool = False, after: bool = False) -> PointRecord:
    return PointRecord(
        p=p, unfiltered_bound=0.0, unfiltered_attained=0.0, x=1.0, y=1.0, z=1.0,
        filtered_bound=0.0, filtered_attained=0.0, violates_before=before, violates_after=after,
    )


@pytest.fixture
def fake_scan(monkeypatch):
    """Replace _point_record, _violates_at and _margin_at by functions of p alone that log each call.

    ``fake_scan(record, predicate, margin)`` installs ``record(p)`` as the grid
    task, ``predicate(p, mode)`` as the certified verdict (the threshold_bisect
    grid task and the root phase's one certification) and ``margin(p, mode)``
    as the margin; any of them may raise, and without ``margin`` a margin
    evaluation fails the test. Each call appends one entry to a list: its kind
    ("record", "predicate" or "margin"), p, mode and, once it has returned,
    ``"ok": True``. It returns that list.
    """

    def install(record, predicate, margin=None):
        log = []

        def logged(kind, fn):
            def call(spec, p, *mode):
                entry = dict(kind=kind, p=p, mode=mode[0] if mode else None)
                log.append(entry)
                out = fn(p, *mode)
                log.append(dict(entry, ok=True))
                return out

            return call

        def unexpected_margin(p, mode):
            pytest.fail("a margin was evaluated")

        monkeypatch.setattr(scan_module, "_point_record", logged("record", record))
        monkeypatch.setattr(scan_module, "_violates_at", logged("predicate", predicate))
        monkeypatch.setattr(scan_module, "_margin_at", logged("margin", margin or unexpected_margin))
        return log

    return install


GRID = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8]
# Where each mode's fake predicate turns True, inside the GRID intervals (0.5, 0.6) and (0.2, 0.3).
CROSSING = {"unfiltered": 0.55, "filtered": 0.25}


def crossing_record(p: float) -> PointRecord:
    return fake_record(p, before=p > CROSSING["unfiltered"], after=p > CROSSING["filtered"])


def crossing_predicate(p: float, mode: str) -> bool:
    return p > CROSSING[mode]


def crossing_margin(p: float, mode: str) -> float:
    """A smooth margin with its root at the crossing: positive exactly where the fake predicate holds."""
    return math.expm1(p - CROSSING[mode])


class TestParallelScan:
    """Task order and error precedence of a scan, which runs every task in the calling process."""

    def test_thresholds_are_margin_roots(self, fake_scan):
        """The records are the grid's, and each threshold is its own margin's root, to ROOT_TOL."""
        fake_scan(crossing_record, crossing_predicate, crossing_margin)
        report = figure_data("fig2", ScanSpec(family="ghz-noise", p_grid=GRID))
        assert report.records == [crossing_record(p) for p in GRID]
        assert report.p_violation_unfiltered == pytest.approx(CROSSING["unfiltered"], abs=ROOT_TOL)
        assert report.p_violation_filtered == pytest.approx(CROSSING["filtered"], abs=ROOT_TOL)

    def test_root_phase_follows_the_grid(self, fake_scan):
        """After the grid, each mode in turn takes its margin at the bracket ends, then inside, then one certification."""
        log = fake_scan(crossing_record, crossing_predicate, crossing_margin)
        figure_data("fig2", ScanSpec(family="ghz-noise", p_grid=GRID))
        started = [t for t in log if not t.get("ok")]
        assert [t["p"] for t in started[: len(GRID)]] == GRID
        assert {t["kind"] for t in started[: len(GRID)]} == {"record"}
        phases = started[len(GRID) :]
        split = next(k for k, t in enumerate(phases) if t["mode"] == "filtered")
        for m, calls, (lo, hi) in (
            ("unfiltered", phases[:split], (0.5, 0.6)),
            ("filtered", phases[split:], (0.2, 0.3)),
        ):
            assert {t["mode"] for t in calls} == {m}
            assert [t["kind"] for t in calls] == ["margin"] * (len(calls) - 1) + ["predicate"]
            assert [t["p"] for t in calls[:2]] == [lo, hi]
            assert all(lo < t["p"] < hi for t in calls[2:])
            certified = calls[-1]["p"]
            assert 0.0 < certified - CROSSING[m] <= 3 * ROOT_TOL

        log = fake_scan(None, lambda p, mode: p > 0.45, lambda p, mode: p - 0.45)
        threshold = threshold_bisect(ScanSpec(family="chi", p_grid=GRID), "filtered")
        assert threshold == pytest.approx(0.45, abs=ROOT_TOL)
        started = [t for t in log if not t.get("ok")]
        assert [t["p"] for t in started[: len(GRID)]] == GRID
        root_phase = [t["kind"] for t in started[len(GRID) :]]
        assert root_phase == ["margin"] * (len(root_phase) - 1) + ["predicate"]

    def test_no_step_over_a_non_monotone_grid(self, fake_scan):
        """Both grids change sign twice; the unfiltered one is refused, with every bracket, before any step."""
        before = {0.1: False, 0.2: True, 0.3: True, 0.4: True, 0.5: True, 0.6: False}
        after = {0.1: False, 0.2: False, 0.3: True, 0.4: False, 0.5: False, 0.6: False}
        log = fake_scan(lambda p: fake_record(p, before=before[p], after=after[p]), lambda p, mode: p > 0.15)
        with pytest.raises(NonMonotonePredicateError, match="violates_before") as err:
            figure_data("fig2", ScanSpec(family="ghz-noise", p_grid=list(before)))
        assert err.value.brackets == [(0.1, 0.2), (0.5, 0.6)]
        assert [t["p"] for t in log if t.get("ok")] == list(before)
        assert not any(t["kind"] == "predicate" for t in log)

    def test_first_failing_grid_point_raises(self, fake_scan):
        """0.5 fails first in p order, so 0.6, which would fail too, is never started, nor is a step."""

        def record(p):
            if p in (0.5, 0.6):
                raise ValueError(f"grid point {p}")
            return fake_record(p, before=p > 0.15)

        log = fake_scan(record, lambda p, mode: p > 0.15)
        with pytest.raises(ValueError, match="grid point 0.5"):
            figure_data("fig2", ScanSpec(family="ghz-noise", p_grid=GRID))
        assert [t["p"] for t in log if not t.get("ok")] == [0.1, 0.2, 0.3, 0.4, 0.5]
        assert {t["kind"] for t in log} == {"record"}

    @pytest.mark.parametrize("case", [1, 2])
    def test_failing_step_raises_after_the_grid_checks(self, fake_scan, case):
        """A failed root-phase step is raised once the whole grid is in and monotone, not over a non-monotone grid."""

        def step(p, mode):
            raise RuntimeError(f"step at {p}")

        if case == 1:
            log = fake_scan(lambda p: fake_record(p, after=p > 0.15), step, step)
            with pytest.raises(RuntimeError, match=r"step at 0\.1$"):
                figure_data("fig2", ScanSpec(family="ghz-noise", p_grid=GRID))
            assert [t["p"] for t in log if t["kind"] == "record" and t.get("ok")] == GRID
            assert [t["kind"] for t in log if t["kind"] != "record"] == ["margin"]
        else:
            log = fake_scan(lambda p: fake_record(p, after=p in (0.2, 0.3) or p > 0.65), step, step)
            with pytest.raises(NonMonotonePredicateError) as err:
                figure_data("fig2", ScanSpec(family="ghz-noise", p_grid=GRID))
            assert err.value.brackets == [(0.1, 0.2), (0.3, 0.4), (0.6, 0.7)]
            assert not any(t["kind"] == "predicate" for t in log)

    def test_no_worker_outlives_the_scan(self, monkeypatch):
        """A scan, one that fails included, starts no child process."""
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("the scan forked"))
        monkeypatch.setattr(
            multiprocessing.process.BaseProcess, "start", lambda self: pytest.fail("the scan started a process")
        )
        figure_data("fig2", ScanSpec(family="ghz-noise", p_grid=[0.9, 1.0]))
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
