import numpy as np
import pytest

import svetbound.tightness as tightness
from conftest import random_density, random_su2
from svetbound.filtering import FilterTriple, filtered_bound
from svetbound.linalg import svd_3x9, tensor
from svetbound.scan import optimize_filter
from svetbound.states import build_chi_state, build_ghz_noise_state
from svetbound.svetlichny import correlation_matrix, svetlichny_value
from svetbound.tightness import RESIDUAL_TOL, assemble_settings, check_tightness


def subspace_projector(rows: np.ndarray) -> np.ndarray:
    q, _ = np.linalg.qr(rows.T)
    return q @ q.T


def unattainable_matrix() -> np.ndarray:
    """Leading right vectors I/sqrt(3) and (E01 - E10)/sqrt(2): degenerate, deficit 2/3."""
    v1 = (np.eye(3) / np.sqrt(3.0)).ravel()
    j = np.zeros((3, 3))
    j[0, 1], j[1, 0] = 1.0, -1.0
    v2 = (j / np.sqrt(2.0)).ravel()
    return np.outer([1.0, 0.0, 0.0], v1) + np.outer([0.0, 1.0, 0.0], v2)


def residual_of(fun: float) -> float:
    return float(np.sqrt(max(fun, 0.0)))


@pytest.fixture
def lbfgs_runs(monkeypatch):
    """Final objective values of every L-BFGS run that check_tightness makes."""
    funs = []
    inner = tightness.minimize

    def spy(*args, **kwargs):
        res = inner(*args, **kwargs)
        funs.append(float(res.fun))
        return res

    monkeypatch.setattr(tightness, "minimize", spy)
    return funs


def exhaustive_found(svd, seed: int = 42) -> bool:
    """Whether any of all the seeded restarts reaches RESIDUAL_TOL, none skipped."""
    if svd.degeneracy() < 2:
        return False
    basis = svd.leading_right_basis()
    rng = np.random.default_rng(seed)
    best = np.inf
    for _ in range(tightness._RESTARTS):
        ang0 = rng.uniform(0.0, np.pi, size=8)
        ang0[1::2] *= 2.0
        res = tightness.minimize(
            tightness._objective_and_grad, ang0, args=(basis,), jac=True, method="L-BFGS-B",
            options=tightness._LBFGS_OPTIONS,
        )
        best = min(best, res.fun)
    return residual_of(best) <= RESIDUAL_TOL


class TestFamilyDecompositions:
    @pytest.mark.parametrize("build", [build_chi_state, build_ghz_noise_state])
    @pytest.mark.parametrize("p", [0.2, 0.5, 0.8])
    def test_found_with_tiny_residual(self, build, p):
        corr = correlation_matrix(build(p))
        dec = check_tightness(corr.svd)
        assert dec.found
        assert dec.residual <= 1e-6
        for vec in (dec.a, dec.a_prime, dec.c, dec.c_prime):
            assert abs(np.linalg.norm(vec) - 1.0) < 1e-9

    @pytest.mark.parametrize("build", [build_chi_state, build_ghz_noise_state])
    def test_pair_spans_leading_subspace(self, build):
        """t1 and t2 must land in span{v1, v2} of the degenerate leading pair."""
        corr = correlation_matrix(build(0.5))
        dec = check_tightness(corr.svd)
        t1 = np.kron(dec.a, dec.c) - np.kron(dec.a_prime, dec.c_prime)
        t2 = np.kron(dec.a, dec.c_prime) + np.kron(dec.a_prime, dec.c)
        assert abs(t1 @ t2) < 1e-9
        found = subspace_projector(np.stack([t1, t2]))
        reference = subspace_projector(corr.svd.leading_right_basis())
        np.testing.assert_allclose(found, reference, atol=1e-6)

    @pytest.mark.parametrize("build", [build_chi_state, build_ghz_noise_state])
    @pytest.mark.parametrize("p", [0.3, 0.7])
    def test_assembled_value_attains_bound(self, build, p):
        rho = build(p)
        corr = correlation_matrix(rho)
        dec = check_tightness(corr.svd)
        settings, value = assemble_settings(dec, corr)
        bound = 4.0 * corr.svd.singular_values[0]
        assert value == pytest.approx(bound, abs=1e-9)
        assert svetlichny_value(rho, settings) == pytest.approx(bound, abs=1e-9)


class TestInvariance:
    def test_survives_local_rotations(self, rng):
        """Unitary rotations move the singular vectors but not attainability."""
        rho = build_ghz_noise_state(0.6)
        for _ in range(5):
            u = tensor(random_su2(rng), random_su2(rng), random_su2(rng))
            rotated = u @ rho @ u.conj().T
            corr = correlation_matrix(rotated)
            dec = check_tightness(corr.svd)
            assert dec.found
            _, value = assemble_settings(dec, corr)
            assert value == pytest.approx(4.0 * corr.svd.singular_values[0], abs=1e-8)

    def test_filtered_family_state(self):
        """The optimally filtered states keep the degenerate attainable pair."""
        fa = filtered_bound(build_ghz_noise_state(0.5), FilterTriple.diagonal(0.001, 25.0, 32.0))
        assert fa.m_prime.svd.degeneracy() >= 2
        dec = check_tightness(fa.m_prime.svd)
        assert dec.found
        settings, value = assemble_settings(dec, fa.m_prime)
        assert value == pytest.approx(fa.bound, abs=1e-8)


class TestFailurePaths:
    def test_nondegenerate_leading_value_skips_search(self, rng):
        # a generic random state has three distinct singular values
        for _ in range(10):
            corr = correlation_matrix(random_density(rng))
            if corr.svd.degeneracy() == 1:
                break
        dec = check_tightness(corr.svd)
        assert not dec.found
        assert dec.residual == np.inf
        assert dec.a is None

    def test_degenerate_but_unattainable(self, lbfgs_runs):
        """A degenerate subspace without product vectors admits no settings pair.

        With leading right vectors I/sqrt(3) and (E01 - E10)/sqrt(2) the best
        captured weight is 10/3, leaving a deficit of exactly 2/3. No restart
        certifies, so all of them run.
        """
        dec = check_tightness(svd_3x9(unattainable_matrix()))
        assert len(lbfgs_runs) == tightness._RESTARTS
        assert not dec.found
        assert dec.residual == pytest.approx(np.sqrt(2.0 / 3.0), abs=1e-6)

    def test_assemble_requires_found(self):
        corr = correlation_matrix(build_chi_state(0.5))
        dec = check_tightness(corr.svd)
        broken = type(dec)(
            found=False, a=None, a_prime=None, c=None, c_prime=None, residual=np.inf,
        )
        with pytest.raises(ValueError):
            assemble_settings(broken, corr)


class TestStopRule:
    """The search stops on the same comparison that sets ``found``."""

    @pytest.mark.parametrize("build", [build_chi_state, build_ghz_noise_state])
    @pytest.mark.parametrize("p", [0.2, 0.5, 0.8])
    def test_stops_at_first_certifying_run(self, lbfgs_runs, build, p):
        dec = check_tightness(correlation_matrix(build(p)).svd)
        residuals = [residual_of(f) for f in lbfgs_runs]
        assert dec.found
        assert residuals[-1] <= RESIDUAL_TOL
        assert all(r > RESIDUAL_TOL for r in residuals[:-1])
        assert dec.residual == residuals[-1]

    @pytest.mark.parametrize(
        "make_svd",
        [
            lambda: correlation_matrix(build_chi_state(0.35)).svd,
            lambda: correlation_matrix(build_ghz_noise_state(0.45)).svd,
            lambda: correlation_matrix(build_ghz_noise_state(1.0)).svd,
            lambda: optimize_filter(build_chi_state(0.5))[1].m_prime.svd,
            lambda: optimize_filter(build_ghz_noise_state(0.4))[1].m_prime.svd,
            lambda: svd_3x9(unattainable_matrix()),
        ],
        ids=[
            "chi-0.35", "ghz-noise-0.45", "ghz-noise-1",
            "filtered-chi-0.5", "filtered-ghz-noise-0.4", "unattainable",
        ],
    )
    def test_found_matches_exhaustive_search(self, make_svd):
        svd = make_svd()
        assert check_tightness(svd).found == exhaustive_found(svd)
