import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import null_space
from scipy.optimize import minimize as scipy_minimize

import svetbound.tightness as tightness
from conftest import random_density, random_su2
from svetbound.filtering import FilterTriple, filtered_bound
from svetbound.linalg import SVDResult, svd_3x9, tensor
from svetbound.scan import optimize_filter
from svetbound.states import build_chi_state, build_ghz_noise_state
from svetbound.svetlichny import CorrelationMatrix, correlation_matrix, svetlichny_value
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


def threefold_unattainable_matrix() -> np.ndarray:
    """Rows I/sqrt(3), (E01 - E10)/sqrt(2) and (E02 - E20)/sqrt(2): a threefold span with no complex rank-one member."""
    j = np.zeros((3, 3))
    j[0, 2], j[2, 0] = 1.0, -1.0
    return unattainable_matrix() + np.outer([0.0, 0.0, 1.0], j.ravel() / np.sqrt(2.0))


def leading_corr(rows: np.ndarray) -> CorrelationMatrix:
    """M = rows stacked over zero rows, with an SVD whose leading right basis is exactly ``rows``.

    A computed SVD would choose its own basis of a degenerate subspace; this
    one keeps the given rows in their order.
    """
    k = len(rows)
    svd = SVDResult(
        singular_values=np.r_[np.ones(k), np.zeros(3 - k)],
        left_vectors=np.eye(3),
        right_vectors=np.hstack([rows.T, null_space(rows)]),
    )
    return CorrelationMatrix(matrix=np.vstack([rows, np.zeros((3 - k, 9))]), svd=svd)


def planted_corr(rng: np.random.Generator, leading: np.ndarray) -> CorrelationMatrix:
    """M = U diag(s) V^T with distinct random s, V's first column the unit vector ``leading``, and M's computed SVD."""
    v = np.linalg.qr(np.column_stack([leading, rng.normal(size=(9, 2))]))[0]
    u = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    s = np.sort(rng.uniform(0.1, 1.7, size=3))[::-1]
    matrix = (u * s) @ v.T
    return CorrelationMatrix(matrix=matrix, svd=svd_3x9(matrix))


def settings_pair(a, ap, c, cp) -> np.ndarray:
    """The rows t1 = a (x) c - a' (x) c' and t2 = a (x) c' + a' (x) c."""
    return np.stack([np.kron(a, c) - np.kron(ap, cp), np.kron(a, cp) + np.kron(ap, c)])


def unit_rows(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def planted_rows(rng: np.random.Generator) -> np.ndarray:
    """An orthonormal basis of the (t1, t2) plane of random unit settings, turned by a random angle in the plane."""
    plane = np.linalg.qr(settings_pair(*unit_rows(rng, 4)).T)[0].T
    angle = rng.uniform(0.0, 2.0 * np.pi)
    turn = np.array([[np.cos(angle), np.sin(angle)], [-np.sin(angle), np.cos(angle)]])
    return turn @ plane


def assert_attains_bound(dec, corr: CorrelationMatrix) -> None:
    _, value = assemble_settings(dec, corr)
    assert value == pytest.approx(4.0 * corr.svd.singular_values[0], abs=1e-9)


def residual_of(fun: float) -> float:
    return float(np.sqrt(max(fun, 0.0)))


RESTARTS = 64
LBFGS_OPTIONS = {"maxiter": 2000, "ftol": 1e-18, "gtol": 1e-14}


def units_from_angles(ang: np.ndarray) -> np.ndarray:
    """Four unit vectors (a, a', c, c') from interleaved polar/azimuthal angles."""
    th, ph = ang[0::2], ang[1::2]
    st, ct = np.sin(th), np.cos(th)
    return np.stack([st * np.cos(ph), st * np.sin(ph), ct], axis=1)


def per_vector_objective(ang: np.ndarray, basis: np.ndarray) -> tuple[float, np.ndarray]:
    """The deficit 4 - |B t1|^2 - |B t2|^2 and its gradient, one chain-rule step per vector."""
    a, ap, c, cp = units_from_angles(ang)
    t1 = np.kron(a, c) - np.kron(ap, cp)
    t2 = np.kron(a, cp) + np.kron(ap, c)
    bt1, bt2 = basis @ t1, basis @ t2
    f = 4.0 - bt1 @ bt1 - bt2 @ bt2
    h1 = (2.0 * basis.T @ bt1).reshape(3, 3)
    h2 = (2.0 * basis.T @ bt2).reshape(3, 3)
    grads = (-(h1 @ c + h2 @ cp), h1 @ cp - h2 @ c, -(h1.T @ a + h2.T @ ap), h1.T @ ap - h2.T @ a)
    grad = np.empty(8)
    for idx, (vec_grad, th, ph) in enumerate(zip(grads, ang[0::2], ang[1::2])):
        st, ct = np.sin(th), np.cos(th)
        sp, cs = np.sin(ph), np.cos(ph)
        grad[2 * idx] = vec_grad @ np.array([ct * cs, ct * sp, -st])
        grad[2 * idx + 1] = vec_grad @ np.array([-st * sp, st * cs, 0.0])
    return f, grad


def exhaustive_found(svd, seed: int = 42) -> bool:
    """Whether any of 64 seeded L-BFGS descents on the deficit reaches RESIDUAL_TOL: the reference search."""
    basis = svd.leading_right_basis()
    rng = np.random.default_rng(seed)
    for _ in range(RESTARTS):
        ang0 = rng.uniform(0.0, np.pi, size=8)
        ang0[1::2] *= 2.0
        res = scipy_minimize(
            per_vector_objective, ang0, args=(basis,), jac=True, method="L-BFGS-B", options=LBFGS_OPTIONS,
        )
        if residual_of(res.fun) <= RESIDUAL_TOL:
            return True
    return False


def real_rank_one(rng: np.random.Generator) -> np.ndarray:
    return np.kron(*rng.normal(size=(2, 3)))


def tangent_and_real(rng: np.random.Generator) -> list:
    """x y^T, the tangent x b^T + a y^T to the rank-one matrices there, and a real rank-one."""
    x, y, a, b = rng.normal(size=(4, 3))
    return [np.kron(x, y), np.kron(x, b) + np.kron(a, y), real_rank_one(rng)]


# Spanning sets of threefold spans, drawn from a generator. A complex pair's
# t1 and t2 plant the conjugate roots (a + i a')(c + i c')^T and
# (a - i a')(c - i c')^T.
THREEFOLD = {
    "pair-and-random": lambda rng: [*settings_pair(*unit_rows(rng, 4)), rng.normal(size=9)],
    "pair-and-real": lambda rng: [*settings_pair(*unit_rows(rng, 4)), real_rank_one(rng)],
    "three-real": lambda rng: [real_rank_one(rng) for _ in range(3)],
    "one-real": lambda rng: [real_rank_one(rng), *rng.normal(size=(2, 9))],
    "two-real": lambda rng: [real_rank_one(rng), real_rank_one(rng), rng.normal(size=9)],
    "a-in-plane": lambda rng: [
        np.kron(a, c) for a, c in zip(rng.normal(size=(3, 2)) @ rng.normal(size=(2, 3)), rng.normal(size=(3, 3)))
    ],
    "c-in-plane": lambda rng: [
        np.kron(a, c) for a, c in zip(rng.normal(size=(3, 3)), rng.normal(size=(3, 2)) @ rng.normal(size=(2, 3)))
    ],
    "shared-a": lambda rng: [np.kron(a, c) for a in rng.normal(size=(1, 3)) for c in rng.normal(size=(3, 3))],
    "block-conic": lambda rng: [np.pad(block, ((0, 1), (0, 1))).ravel() for block in rng.normal(size=(3, 2, 2))],
    "tangent-and-real": tangent_and_real,
    "random": lambda rng: list(rng.normal(size=(3, 9))),
    "identity-antisymmetric": lambda rng: list(threefold_unattainable_matrix()),
    "identity-and-antisymmetric": lambda rng: [np.eye(3).ravel(), *((m - m.T).ravel() for m in rng.normal(size=(2, 3, 3)))],
    "symmetric-off-diagonal": lambda rng: [(e + e.T).ravel() for e in np.eye(9).reshape(9, 3, 3)[[1, 2, 5]]],
}
UNATTAINABLE = ["random", "identity-antisymmetric", "identity-and-antisymmetric", "symmetric-off-diagonal"]
ATTAINABLE = [name for name in THREEFOLD if name not in UNATTAINABLE]
# Spans whose rank-one members form a curve, which meets the sub-pencil's line.
CURVES = ["shared-a", "block-conic"]


def threefold_rows(name: str, seed: int) -> np.ndarray:
    """An orthonormal basis of a THREEFOLD span, turned by a random rotation so that no basis vector is special."""
    rng = np.random.default_rng(seed)
    rows = np.linalg.qr(np.reshape(THREEFOLD[name](rng), (3, 9)).T)[0].T
    return np.linalg.qr(rng.normal(size=(3, 3)))[0] @ rows


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
    def test_residual_at_rounding_level(self, build):
        """Every degenerate subspace of the 0.01 grid is certified with a residual of rounding size.

        4 - |B t1|^2 - |B t2|^2 would cancel to about 1e-16, so its square root
        would read up to about 1e-8 on an exact decomposition.
        """
        for p in np.round(np.arange(0.0, 1.0001, 0.01), 10):
            svd = correlation_matrix(build(p)).svd
            if svd.degeneracy() >= 2:
                dec = check_tightness(svd)
                assert dec.found, p
                assert dec.residual <= 1e-12, p

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

    def test_twofold_unattainable_runs_no_search(self):
        """The pencil of a twofold value is complete: what it does not certify is reported with no search."""
        dec = check_tightness(svd_3x9(unattainable_matrix()))
        assert not dec.found
        assert dec.residual == np.inf
        assert dec.a is None

    def test_degenerate_but_unattainable(self):
        """A threefold subspace without complex rank-one members admits no settings pair.

        Adding (E02 - E20)/sqrt(2) to the leading pair I/sqrt(3) and
        (E01 - E10)/sqrt(2) keeps the best captured weight at 10/3, a deficit
        of exactly 2/3. Neither the sub-pencil nor the kernel route certifies,
        and what they do not certify is reported with no search.
        """
        svd = svd_3x9(threefold_unattainable_matrix())
        assert svd.degeneracy() == 3
        dec = check_tightness(svd)
        assert not dec.found
        assert dec.residual == np.inf
        assert dec.a is None

    def test_assemble_requires_found(self):
        corr = correlation_matrix(build_chi_state(0.5))
        dec = check_tightness(corr.svd)
        broken = type(dec)(
            found=False, a=None, a_prime=None, c=None, c_prime=None, residual=np.inf,
        )
        with pytest.raises(ValueError):
            assemble_settings(broken, corr)


class TestRankOneRoute:
    """At a nondegenerate leading value the pencil is V1 alone: a real rank-one V1 = a c^T certifies."""

    def test_planted_rank_one(self, rng):
        """a = a' and c = c' give t1 = 0 and t2 = 2 a (x) c, and the B update completes them with b' = -b."""
        for _ in range(200):
            a, c = (v / np.linalg.norm(v) for v in rng.normal(size=(2, 3)))
            corr = planted_corr(rng, np.kron(a, c))
            assert corr.svd.degeneracy() == 1
            dec = check_tightness(corr.svd)
            assert dec.found
            assert dec.residual <= 1e-12
            for got, planted in ((dec.a, a), (dec.a_prime, a), (dec.c, c), (dec.c_prime, c)):
                assert abs(got @ planted) == pytest.approx(1.0, abs=1e-12)
            settings, value = assemble_settings(dec, corr)
            assert value == pytest.approx(4.0 * corr.svd.singular_values[0], abs=1e-12)
            np.testing.assert_allclose(settings.b_prime, -settings.b, atol=1e-12)

    def test_minor_check_never_rejects_a_certifying_candidate(self, rng):
        """Around RESIDUAL_TOL, found is the ungated candidate's residual test.

        V1 has singular values (s1, s2, s3), which put its candidate's
        residual 2 sqrt(s2^2 + s3^2) within 50% of RESIDUAL_TOL, or within
        1e-9 of it, where the rounding of the minors and of the residual is
        as large as the bound's own slack.
        """
        outcomes = set()
        for spread in (0.5, 1e-9) * 1000:
            target = 0.5 * RESIDUAL_TOL * (1.0 + rng.uniform(-spread, spread))
            s2 = target * rng.uniform(0.5, 1.0)
            s3 = np.sqrt(target**2 - s2**2)
            q1, q2 = (np.linalg.qr(rng.normal(size=(3, 3)))[0] for _ in range(2))
            v = ((q1 * [np.sqrt(1.0 - target**2), s2, s3]) @ q2.T).ravel()
            basis = (v / np.linalg.norm(v))[None, :]
            u, _, vh = np.linalg.svd(basis[0].reshape(3, 3))
            a, ap = tightness._balanced_pair(u[:, 0])
            c, cp = tightness._balanced_pair(vh[0])
            ungated = tightness._residual(basis, a, ap, c, cp) <= RESIDUAL_TOL
            assert check_tightness(leading_corr(basis).svd).found == ungated
            outcomes.add(ungated)
        assert outcomes == {True, False}


class TestStopRule:
    """The exact route reports found exactly where the exhaustive L-BFGS reference does."""

    @pytest.mark.parametrize("build", [build_chi_state, build_ghz_noise_state])
    @pytest.mark.parametrize("p", [0.2, 0.5, 0.8])
    def test_pencil_certifies_without_lbfgs(self, build, p):
        dec = check_tightness(correlation_matrix(build(p)).svd)
        assert dec.found
        assert dec.residual <= RESIDUAL_TOL

    @pytest.mark.parametrize(
        "make_svd",
        [
            lambda: correlation_matrix(build_chi_state(0.35)).svd,
            lambda: correlation_matrix(build_ghz_noise_state(0.45)).svd,
            lambda: correlation_matrix(build_ghz_noise_state(1.0)).svd,
            lambda: optimize_filter(build_chi_state(0.5))[1].m_prime.svd,
            lambda: optimize_filter(build_ghz_noise_state(0.4))[1].m_prime.svd,
            lambda: svd_3x9(unattainable_matrix()),
            *(lambda name=name: leading_corr(threefold_rows(name, 0)).svd for name in THREEFOLD),
        ],
        ids=[
            "chi-0.35", "ghz-noise-0.45", "ghz-noise-1",
            "filtered-chi-0.5", "filtered-ghz-noise-0.4", "unattainable",
            *(f"threefold-{name}" for name in THREEFOLD),
        ],
    )
    def test_found_matches_exhaustive_search(self, make_svd):
        svd = make_svd()
        assert check_tightness(svd).found == exhaustive_found(svd)


class TestPencilRoute:
    """A rank-one member of the complexified pencil certifies."""

    def test_planted_planes(self, rng):
        for _ in range(200):
            corr = leading_corr(planted_rows(rng))
            dec = check_tightness(corr.svd)
            assert dec.found
            assert dec.residual <= RESIDUAL_TOL
            assert_attains_bound(dec, corr)

    @pytest.mark.parametrize("build", [build_chi_state, build_ghz_noise_state])
    @pytest.mark.parametrize("p", [0.3, 0.6, 0.9])
    def test_rotated_family_states(self, rng, build, p):
        rho = build(p)
        for _ in range(4):
            u = tensor(random_su2(rng), random_su2(rng), random_su2(rng))
            corr = correlation_matrix(u @ rho @ u.conj().T)
            assert corr.svd.degeneracy() == 2
            dec = check_tightness(corr.svd)
            assert dec.found
            assert_attains_bound(dec, corr)

    def test_zero_matrix_through_the_sub_pencil(self):
        """M = 0 has a threefold leading value; the pencil of its first two basis vectors certifies."""
        corr = correlation_matrix(np.eye(8) / 8.0)
        assert corr.svd.degeneracy() == 3
        dec = check_tightness(corr.svd)
        assert dec.found
        assert dec.residual == 0.0
        assert_attains_bound(dec, corr)

    def test_root_at_infinity(self):
        """In the pencil of I/sqrt(3) and E01 only s = 0, V2 itself, is rank one."""
        e01 = np.zeros((3, 3))
        e01[0, 1] = 1.0
        corr = leading_corr(np.stack([np.eye(3).ravel() / np.sqrt(3.0), e01.ravel()]))
        dec = check_tightness(corr.svd)
        assert dec.found
        # a = a' = +-e0 and c = c' = +-e1: t1 = 0 and t2 = +-2 E01.
        for vec, axis in ((dec.a, 0), (dec.a_prime, 0), (dec.c, 1), (dec.c_prime, 1)):
            np.testing.assert_allclose(np.abs(vec), np.eye(3)[axis], atol=1e-12)
        assert_attains_bound(dec, corr)

    def test_both_ends_of_the_pencil(self):
        """The minors of s E00 + t E11 reduce to s t, whose roots are V1 and V2 themselves."""
        e00, e11 = np.eye(9)[0], np.eye(9)[4]
        assert tightness._pencil_roots(tightness._pencil_quadratic(e00, e11)) == [(1.0, 0.0), (0.0, 1.0)]
        corr = leading_corr(np.stack([e00, e11]))
        dec = check_tightness(corr.svd)
        assert dec.found
        assert_attains_bound(dec, corr)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), span=st.sampled_from(["planted", "random-pair", *THREEFOLD]))
    @example(seed=0, span="random-pair")
    def test_found_matches_exhaustive_search(self, seed, span):
        rng = np.random.default_rng(seed)
        if span == "planted":
            rows = planted_rows(rng)
        elif span == "random-pair":
            rows = np.linalg.qr(rng.normal(size=(9, 2)))[0].T
        else:
            rows = threefold_rows(span, seed)
        corr = leading_corr(rows)
        dec = check_tightness(corr.svd)
        assert dec.found == exhaustive_found(corr.svd)
        if dec.found:
            assert_attains_bound(dec, corr)


class TestKernelRoute:
    """A threefold span whose sub-pencil certifies nothing takes its candidates from the kernel of the minors."""

    @pytest.mark.parametrize("name", ATTAINABLE)
    def test_attainable_spans(self, monkeypatch, name):
        """Isolated roots lie off the sub-pencil's line, so only the kernel route certifies them."""
        spans = [leading_corr(threefold_rows(name, seed)) for seed in range(20)]
        for corr in spans:
            dec = check_tightness(corr.svd)
            assert dec.found
            assert dec.residual <= RESIDUAL_TOL
            assert_attains_bound(dec, corr)
        monkeypatch.setattr(tightness, "_kernel_roots", lambda basis: [])
        by_sub_pencil = [check_tightness(corr.svd).found for corr in spans]
        assert all(by_sub_pencil) if name in CURVES else not any(by_sub_pencil)

    @pytest.mark.parametrize("name", UNATTAINABLE)
    def test_unattainable_spans(self, name):
        for seed in range(20):
            dec = check_tightness(leading_corr(threefold_rows(name, seed)).svd)
            assert not dec.found
            assert dec.residual == np.inf
            assert dec.a is None

    def test_roots_on_lines_through_the_sub_pencil(self, rng):
        """Every root is among the candidates when each pair of roots shares one shift's eigenvalue.

        The members x1 V1 + x2 V2 + x3 V3 at the roots (0, 0, 1), (0, 1, 1)
        and (1, 0, 1) are random real rank-ones. The lines through pairs of
        roots pass through V2, V1 and V1 - V2, so each pair shares an
        eigenvalue of the shift by s, by t or by s + t.
        """
        roots = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0]])
        basis = np.linalg.solve(roots, np.stack([real_rank_one(rng) for _ in range(3)]))
        candidates = [x / np.linalg.norm(x) for x in tightness._kernel_roots(basis)]
        for root in roots / np.linalg.norm(roots, axis=1, keepdims=True):
            assert max(abs(np.vdot(x, root)) for x in candidates) == pytest.approx(1.0, abs=1e-12)


def stacked_residual(basis, a, ap, c, cp) -> float:
    """_residual with np.stack, kept as the reference."""
    outer = np.multiply.outer
    t = np.stack([(outer(a, c) - outer(ap, cp)).ravel(), (outer(a, cp) + outer(ap, c)).ravel()])
    off = t - (t @ basis.T) @ basis
    return float(np.sqrt(np.sum(off * off)))


def stacked_pencil_quadratic(v1, v2) -> np.ndarray:
    """_pencil_quadratic with np.stack, kept as the reference."""
    (a1, b1, c1, d1), (a2, b2, c2, d2) = v1[tightness._MINOR_CORNERS], v2[tightness._MINOR_CORNERS]
    coefficients = np.stack(
        [a1 * d1 - b1 * c1, a1 * d2 + a2 * d1 - b1 * c2 - b2 * c1, a2 * d2 - b2 * c2], axis=-1
    ).reshape(9, 3)
    return np.linalg.svd(coefficients)[2][0]


def norm_balanced_pair(v):
    """_balanced_pair with np.linalg.norm, kept as the reference."""
    w = v * np.exp(0.5j * (0.5 * np.pi - np.angle(v @ v)))
    return w.real / np.linalg.norm(w.real), w.imag / np.linalg.norm(w.imag)


class TestKernelBytes:
    """The preallocated and sqrt(x . x) forms give the reference formulas' bytes."""

    @staticmethod
    def subspaces(rng):
        """Leading bases of both families' degenerate subspaces and random two- and threefold ones."""
        bases = []
        for build in (build_ghz_noise_state, build_chi_state):
            for p in np.linspace(0.05, 1.0, 20):
                svd = correlation_matrix(build(p)).svd
                if svd.degeneracy() >= 2:
                    bases.append(svd.leading_right_basis())
        for k in (2, 3) * 100:
            bases.append(np.linalg.qr(rng.normal(size=(9, k)))[0].T.copy())
        return bases

    def test_residual(self, rng):
        for basis in self.subspaces(rng):
            a, ap, c, cp = (v / np.linalg.norm(v) for v in rng.normal(size=(4, 3)))
            got, want = tightness._residual(basis, a, ap, c, cp), stacked_residual(basis, a, ap, c, cp)
            assert got.hex() == want.hex()

    def test_pencil_quadratic(self, rng):
        for basis in self.subspaces(rng):
            got, want = tightness._pencil_quadratic(basis[0], basis[1]), stacked_pencil_quadratic(basis[0], basis[1])
            assert got.tobytes() == want.tobytes()

    def test_balanced_pair(self, rng):
        vectors = [rng.normal(size=3) + 1j * rng.normal(size=3) for _ in range(500)]
        vectors += [10.0 ** rng.uniform(-150, 150) * v for v in vectors[:100]]
        vectors += [np.array([1.0, 1j, 0.0]), np.array([1.0, 0.0, 0.0]) + 0j]
        for v in vectors:
            for got, want in zip(tightness._balanced_pair(v), norm_balanced_pair(v)):
                assert got.tobytes() == want.tobytes()
