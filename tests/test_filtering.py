import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_density, random_psd_2x2
from svetbound.errors import ConsistencyError, FilterAnnihilationError
from svetbound.filtering import (
    FilterParams,
    FilterTriple,
    apply_filter,
    canonical_normalization,
    filtered_bound,
    x_matrix,
)
from svetbound.linalg import lorentz_map, pauli, pauli_moments
from svetbound.scan import optimize_filter
from svetbound.states import build_chi_state, build_ghz_noise_state, validate_state
from svetbound.svetlichny import correlation_block, correlation_matrix

SQ2 = math.sqrt(2.0)


def n_closed_chi(p, x, y, z):
    return (
        (2 - SQ2) * p / 4
        + (1 - p) * x**2 * y**2 / 2
        + (2 + SQ2 * p) * x**2 * y**2 * z**2 / 4
    )


def d_closed_chi(p, x, y, z):
    return (
        -(2 - SQ2) * p / 4
        - (1 - p) * x**2 * y**2 / 2
        + (2 + SQ2 * p) * x**2 * y**2 * z**2 / 4
    )


def n_closed_ghz(p, x, y, z):
    return (
        p / 2
        + (1 - p) * x**2 / 4
        + (1 - p) * x**2 * y**2 / 4
        + (1 - p) * x**2 * z**2 / 4
        + (1 + p) * x**2 * y**2 * z**2 / 4
    )


def d_closed_ghz(p, x, y, z):
    return (
        -p / 2
        + (1 - p) * x**2 / 4
        - (1 - p) * x**2 * y**2 / 4
        - (1 - p) * x**2 * z**2 / 4
        + (1 + p) * x**2 * y**2 * z**2 / 4
    )


def bloch_rotation(u):
    """3x3 rotation induced on Bloch vectors by a 2x2 unitary."""
    o = np.empty((3, 3))
    for i in range(3):
        for l in range(3):
            o[i, l] = 0.5 * np.trace(pauli(l + 1) @ u.conj().T @ pauli(i + 1) @ u).real
    return o


class TestFilterTriple:
    def test_canonical_factors_reconstruct(self, rng):
        for _ in range(20):
            ops = [random_psd_2x2(rng) for _ in range(3)]
            ft = FilterTriple.from_operators(*ops)
            for op, u, s in zip(ops, ft.unitaries, ft.scales):
                rebuilt = u @ np.diag(s) @ u.conj().T
                # canonical scale differs from the original by a positive factor
                ratio = np.trace(op) / np.trace(rebuilt)
                np.testing.assert_allclose(ratio.real * rebuilt, op, atol=1e-12)
                assert s[1] in (0.0, 1.0) or s[1] == pytest.approx(1.0)

    def test_diagonal_rejects_negative(self):
        with pytest.raises(ValueError):
            FilterTriple.diagonal(-0.5, 1.0, 1.0)

    def test_params_require_positive(self):
        with pytest.raises(ValueError):
            FilterParams(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            FilterParams(1.0, -2.0, 1.0)


class TestApplyFilter:
    def test_output_is_physical(self, rng):
        for _ in range(20):
            rho = random_density(rng)
            ft = FilterTriple.from_operators(*(random_psd_2x2(rng) for _ in range(3)))
            rho_prime, n = apply_filter(rho, ft)
            assert n > 0.0
            validate_state(rho_prime)

    @pytest.mark.parametrize("family,n_closed", [("chi", n_closed_chi), ("ghz-noise", n_closed_ghz)])
    def test_normalization_closed_form(self, rng, family, n_closed):
        build = build_chi_state if family == "chi" else build_ghz_noise_state
        for _ in range(50):
            p = rng.uniform(0.0, 1.0)
            x, y, z = 10.0 ** rng.uniform(-1.0, 1.0, size=3)
            _, n = apply_filter(build(p), FilterTriple.diagonal(x, y, z))
            assert n == pytest.approx(n_closed(p, x, y, z), rel=1e-13, abs=1e-13)

    def test_annihilation_raises(self):
        pure = np.zeros((8, 8), dtype=complex)
        pure[0, 0] = 1.0
        with pytest.raises(FilterAnnihilationError):
            apply_filter(pure, FilterTriple.diagonal(0.0, 1.0, 1.0))


class TestFilteredSingularValues:
    @pytest.mark.parametrize("p", [0.2, 0.5, 0.9])
    def test_chi_closed_form(self, rng, p):
        """Filtered values {p x y z / N (twice), |D|/N} for diagonal filters."""
        for _ in range(10):
            x, y, z = 10.0 ** rng.uniform(-0.8, 0.8, size=3)
            fa = filtered_bound(build_chi_state(p), FilterTriple.diagonal(x, y, z))
            n = n_closed_chi(p, x, y, z)
            pair = p * x * y * z / n
            expected = np.sort([pair, pair, abs(d_closed_chi(p, x, y, z)) / n])[::-1]
            np.testing.assert_allclose(fa.m_prime.svd.singular_values, expected, atol=1e-9)

    @pytest.mark.parametrize("p", [0.2, 0.5, 0.9])
    def test_ghz_closed_form(self, rng, p):
        for _ in range(10):
            x, y, z = 10.0 ** rng.uniform(-0.8, 0.8, size=3)
            fa = filtered_bound(build_ghz_noise_state(p), FilterTriple.diagonal(x, y, z))
            n = n_closed_ghz(p, x, y, z)
            pair = SQ2 * p * x * y * z / n
            expected = np.sort([pair, pair, abs(d_closed_ghz(p, x, y, z)) / n])[::-1]
            np.testing.assert_allclose(fa.m_prime.svd.singular_values, expected, atol=1e-9)


class TestFilteredAnalysis:
    @pytest.mark.parametrize("source", ["explicit", "optimized"])
    def test_literal_normalization(self, source):
        """``n`` is the normalization apply_filter divides by, so callers need no second call."""
        rho = build_ghz_noise_state(0.5)
        if source == "explicit":
            triple = FilterTriple.diagonal(2.0, 0.5, 1.5)
            fa = filtered_bound(rho, triple)
        else:
            params, fa = optimize_filter(rho)
            triple = params.triple()
        assert fa.n == apply_filter(rho, triple)[1]


class TestCorrelationTransport:
    def test_x_over_n_matches_filtered_state(self, rng):
        """singulars(X/N) must equal singulars(M') for arbitrary PSD filters."""
        for _ in range(200):
            rho = random_density(rng)
            ft = FilterTriple.from_operators(*(random_psd_2x2(rng) for _ in range(3)))
            try:
                fa = filtered_bound(rho, ft)
            except FilterAnnihilationError:
                continue
            sx = np.linalg.svd(fa.x_matrix / fa.n_factor, compute_uv=False)
            np.testing.assert_allclose(sx, fa.m_prime.svd.singular_values, atol=1e-9)

    def test_entrywise_rotation_identity(self, rng):
        """M' = O_B X (O_A kron O_C)^T / N with O the induced Bloch rotations."""
        for _ in range(50):
            rho = random_density(rng)
            ft = FilterTriple.from_operators(*(random_psd_2x2(rng) for _ in range(3)))
            fa = filtered_bound(rho, ft)
            oa, ob, oc = (bloch_rotation(u) for u in ft.unitaries)
            transported = ob @ (fa.x_matrix / fa.n_factor) @ np.kron(oa, oc).T
            np.testing.assert_allclose(transported, fa.m_prime.matrix, atol=1e-9)

    def test_matches_moment_route(self, rng):
        """X against the Lorentz-map transport of the Pauli moments, accurate for filters of moderate strength."""
        for _ in range(100):
            rho = random_density(rng)
            ft = FilterTriple.from_operators(*(random_psd_2x2(rng) for _ in range(3)))
            maps = lorentz_map(np.stack([u * s for u, s in zip(ft.unitaries, ft.scales)]))
            old = correlation_block(np.einsum("ia,jb,kc,abc->ijk", *maps, pauli_moments(rho)))
            np.testing.assert_allclose(x_matrix(rho, ft), old, rtol=0.0, atol=1e-12 * np.abs(old).max())

    def test_rejects_non_hermitian_state(self, rng):
        rho = random_density(rng)
        rho[0, 7] += 1e-6
        with pytest.raises(ConsistencyError, match="imaginary residue"):
            x_matrix(rho, FilterTriple.diagonal(0.5, 2.0, 1.5))

    def test_identity_filter_reduces_to_plain_matrix(self, rng):
        rho = random_density(rng)
        fa = filtered_bound(rho, FilterTriple.identity())
        corr = correlation_matrix(rho)
        np.testing.assert_allclose(fa.x_matrix, corr.matrix, atol=1e-12)
        assert fa.n_factor == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(
            fa.m_prime.svd.singular_values, corr.svd.singular_values, atol=1e-12
        )
        np.testing.assert_allclose(fa.rho_prime, rho, atol=1e-12)

    @given(
        sa=st.floats(0.05, 20.0),
        sb=st.floats(0.05, 20.0),
        sc=st.floats(0.05, 20.0),
    )
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_scale_invariance(self, sa, sb, sc):
        """Rescaling any filter leaves the filtered state and bound unchanged."""
        rho = build_chi_state(0.45)
        base = FilterTriple.diagonal(0.7, 1.8, 0.4)
        scaled = FilterTriple.from_operators(
            sa * base.f_a, sb * base.f_b, sc * base.f_c
        )
        fa0 = filtered_bound(rho, base)
        fa1 = filtered_bound(rho, scaled)
        np.testing.assert_allclose(fa1.rho_prime, fa0.rho_prime, atol=1e-10)
        assert fa1.lambda1_prime == pytest.approx(fa0.lambda1_prime, abs=1e-10)
        assert fa1.n_factor == pytest.approx(fa0.n_factor, abs=1e-10)


class TestCanonicalNormalization:
    def test_matches_literal_for_canonical_filters(self, rng):
        # diag(v, 1) with v >= 1 is already canonical
        rho = random_density(rng)
        ft = FilterTriple.diagonal(2.0, 3.0, 1.5)
        _, literal = apply_filter(rho, ft)
        assert canonical_normalization(rho, ft) == pytest.approx(literal, abs=1e-12)

    @pytest.mark.parametrize(
        "family, p, xyz",
        [("ghz-noise", 0.34, (1e-12, 1e6, 1e6)), ("chi", 0.5, (1e-9, 1e-7, 1e8)), ("ghz-noise", 0.9, (1e7, 1e-7, 3.0))],
    )
    def test_extreme_strengths_match_literal(self, family, p, xyz):
        """The canonical N, rescaled by each filter's smaller entry squared, is the literal N."""
        build = build_chi_state if family == "chi" else build_ghz_noise_state
        n_closed = n_closed_chi if family == "chi" else n_closed_ghz
        rho = build(p)
        ft = FilterTriple.diagonal(*xyz)
        rescale = np.prod([min(v, 1.0) ** 2 for v in xyz])
        assert canonical_normalization(rho, ft) * rescale == pytest.approx(n_closed(p, *xyz), rel=1e-9)
        fa = filtered_bound(rho, ft)
        assert fa.n_factor * rescale == pytest.approx(apply_filter(rho, ft)[1], rel=1e-9)
        sx = np.linalg.svd(fa.x_matrix / fa.n_factor, compute_uv=False)
        np.testing.assert_allclose(sx, fa.m_prime.svd.singular_values, rtol=0.0, atol=1e-9)

    def test_pairs_with_x_matrix(self, rng):
        # scaling the filters must not move the ratio singulars(X)/N
        rho = random_density(rng)
        ft = FilterTriple.diagonal(0.3, 5.0, 0.9)
        n = canonical_normalization(rho, ft)
        sx = np.linalg.svd(x_matrix(rho, ft) / n, compute_uv=False)
        m_prime = correlation_matrix(apply_filter(rho, ft)[0])
        np.testing.assert_allclose(sx, m_prime.svd.singular_values, atol=1e-10)
