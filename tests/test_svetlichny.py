import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_density
from svetbound.linalg import pauli, tensor
from svetbound.seesaw import bilinear_value, correlation_tensor, update_b_pair
from svetbound.states import build_chi_state, build_ghz_noise_state
from svetbound.svetlichny import (
    ALGEBRAIC_MAX,
    MeasurementSettings,
    correlation_matrix,
    svetlichny_operator,
    svetlichny_value,
    unfiltered_bound,
)
from svetbound.tightness import assemble_settings, check_tightness

SQ2 = math.sqrt(2.0)


class TestCorrelationMatrix:
    def test_chi_structure(self):
        """At theta = pi/8 the chi matrix has five entries, all +-sqrt(2)p/2."""
        p = 0.3
        m = correlation_matrix(build_chi_state(p)).matrix
        expected = np.zeros((3, 9))
        e = SQ2 * p / 2.0
        expected[0, 0], expected[0, 4] = e, -e
        expected[1, 1], expected[1, 3] = -e, -e
        expected[2, 8] = e
        np.testing.assert_allclose(m, expected, atol=1e-14)

    def test_ghz_noise_structure(self):
        p = 0.6
        m = correlation_matrix(build_ghz_noise_state(p)).matrix
        expected = np.zeros((3, 9))
        expected[0, 0], expected[0, 4] = p, -p
        expected[1, 1], expected[1, 3] = -p, -p
        np.testing.assert_allclose(m, expected, atol=1e-14)

    @given(p=st.floats(0.0, 1.0))
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_chi_singular_values(self, p):
        """Closed form {p, p, sqrt(2)p/2} for the default angle."""
        s = correlation_matrix(build_chi_state(p)).svd.singular_values
        np.testing.assert_allclose(s, [p, p, SQ2 * p / 2.0], atol=1e-12)

    @given(p=st.floats(0.0, 1.0))
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_ghz_noise_singular_values(self, p):
        s = correlation_matrix(build_ghz_noise_state(p)).svd.singular_values
        np.testing.assert_allclose(s, [SQ2 * p, SQ2 * p, 0.0], atol=1e-12)

    def test_general_theta_entries(self):
        p, theta = 0.8, 0.22
        m = correlation_matrix(build_chi_state(p, theta)).matrix
        assert m[0, 0] == pytest.approx(p * math.sin(2 * theta), abs=1e-14)
        assert m[2, 8] == pytest.approx(p * math.cos(2 * theta), abs=1e-14)


class TestSettings:
    def test_rejects_non_unit(self):
        v = np.array([1.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="unit"):
            MeasurementSettings(2 * v, v, v, v, v, v)

    def test_rejects_wrong_shape(self):
        v = np.array([1.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            MeasurementSettings(np.ones(4), v, v, v, v, v)

    @pytest.mark.parametrize("index, name", list(enumerate(["a", "a_prime", "b", "b_prime", "c", "c_prime"])))
    def test_first_failure_is_named(self, index, name):
        """Each field is checked in order, so the first failing field names the error."""
        vecs = [np.array([1.0, 0.0, 0.0]) for _ in range(6)]
        vecs[index] = np.array([0.0, 1.0 + 2e-11, 0.0])
        vecs[-1] = np.ones(4) if index < 5 else vecs[-1]
        with pytest.raises(ValueError, match=f"^{name} must be a unit vector, norm 1.00000000002$"):
            MeasurementSettings(*vecs)
        vecs[index] = np.ones(2)
        with pytest.raises(ValueError, match=rf"^{name} must be a 3-vector, got shape \(2,\)$"):
            MeasurementSettings(*vecs)

    @pytest.mark.parametrize("excess", [0.4e-12, 0.6e-12, 0.99e-12, -0.99e-12])
    def test_accepts_within_tolerance(self, excess):
        """Norms within 1e-12 of 1 pass, on either side of 1."""
        v = np.array([1.0, 0.0, 0.0])
        s = MeasurementSettings(v, v, v, v, v, np.array([0.0, 0.0, 1.0 + excess]))
        assert s.c_prime[2] == 1.0 + excess

    def test_keeps_the_given_arrays(self):
        """Float vectors are stored as given, not copied."""
        vecs = [np.array([1.0, 0.0, 0.0]) for _ in range(6)]
        s = MeasurementSettings(*vecs)
        assert all(got is want for got, want in zip((s.a, s.a_prime, s.b, s.b_prime, s.c, s.c_prime), vecs))
        assert MeasurementSettings(*[[0.0, 1.0, 0.0]] * 6).b.dtype == float

    def test_random_is_unit(self, rng):
        s = MeasurementSettings.random(rng)
        for vec in (s.a, s.a_prime, s.b, s.b_prime, s.c, s.c_prime):
            assert abs(np.linalg.norm(vec) - 1.0) < 1e-12


def chained_operator(s: MeasurementSettings) -> np.ndarray:
    """The Svetlichny operator from six Bloch observables and four chained tensor products."""
    oa, oap, ob, obp, oc, ocp = (
        v[0] * pauli(1) + v[1] * pauli(2) + v[2] * pauli(3)
        for v in (s.a, s.a_prime, s.b, s.b_prime, s.c, s.c_prime)
    )
    plus, minus = ob + obp, ob - obp
    return tensor(oa, plus, oc) + tensor(oa, minus, ocp) + tensor(oap, minus, oc) - tensor(oap, plus, ocp)


class TestValueRoutes:
    def test_operator_matches_chained_tensors(self, rng):
        """The batched operator equals the chained-tensor formula bit for bit."""
        axes = np.eye(3)
        cases = [MeasurementSettings(*axes[[0, 1, 2, 0, 1, 2]]), *(MeasurementSettings.random(rng) for _ in range(500))]
        for s in cases:
            assert np.array_equal(svetlichny_operator(s), chained_operator(s))

    def test_operator_is_hermitian(self, rng):
        s = MeasurementSettings.random(rng)
        op = svetlichny_operator(s)
        np.testing.assert_allclose(op, op.conj().T, atol=1e-14)

    def test_ghz_known_settings(self):
        """In-plane settings at 45 degree spacing reach 4 sqrt(2) on the GHZ state."""
        rho = build_ghz_noise_state(1.0)
        inplane = lambda ang: np.array([math.cos(ang), math.sin(ang), 0.0])
        s = MeasurementSettings(
            a=inplane(0.0),
            a_prime=inplane(math.pi / 2),
            b=inplane(-math.pi / 4),
            b_prime=inplane(math.pi / 4),
            c=inplane(0.0),
            c_prime=inplane(math.pi / 2),
        )
        assert abs(svetlichny_value(rho, s)) == pytest.approx(ALGEBRAIC_MAX, abs=1e-12)


class TestOptimalBB:
    """The middle-party pair (b, b') that completes fixed outer settings."""

    def test_beats_random_b_pairs(self, rng):
        for _ in range(10):
            t = correlation_tensor(correlation_matrix(random_density(rng)).matrix)
            s = MeasurementSettings.random(rng)
            a, ap, c, cp = s.a, s.a_prime, s.c, s.c_prime
            b, bp = update_b_pair(t, a, ap, c, cp, previous=(s.b, s.b_prime))
            best_random = max(
                bilinear_value(t, a, ap, r.b, r.b_prime, c, cp)
                for r in (MeasurementSettings.random(rng) for _ in range(200))
            )
            assert bilinear_value(t, a, ap, b, bp, c, cp) >= best_random - 1e-12

    def test_degenerate_direction_fallback(self):
        """Without correlations both images vanish: b = e_x, b' = e_y, value 0."""
        rho = np.eye(8) / 8.0
        corr = correlation_matrix(rho)
        dec = check_tightness(corr.svd)
        assert dec.found
        settings, value = assemble_settings(dec, corr)
        assert value == 0.0
        np.testing.assert_array_equal(settings.b, [1.0, 0.0, 0.0])
        np.testing.assert_array_equal(settings.b_prime, [0.0, 1.0, 0.0])
        assert svetlichny_value(rho, settings) == 0.0


class TestUnfilteredBound:
    def test_ghz_noise_bound(self):
        report = unfiltered_bound(build_ghz_noise_state(0.8))
        assert report.lambda1 == pytest.approx(SQ2 * 0.8, abs=1e-12)
        assert report.bound == pytest.approx(4 * SQ2 * 0.8, abs=1e-12)
        assert report.degeneracy == 2
        assert report.achieved is None and not report.tight

    def test_chi_degeneracy(self):
        assert unfiltered_bound(build_chi_state(0.5)).degeneracy == 2
        assert unfiltered_bound(build_chi_state(0.0)).degeneracy == 3
