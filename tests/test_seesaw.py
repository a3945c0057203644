import math

import numpy as np
import pytest

from conftest import random_density
from svetbound.seesaw import (
    CONVERGENCE_TOL,
    MAX_RESTARTS,
    OracleConfig,
    _starts,
    bilinear_value,
    correlation_tensor,
    seesaw_from_matrix,
    seesaw_max,
    update_a_pair,
    update_b_pair,
    update_c_pair,
)
from svetbound.states import build_chi_state, build_ghz_noise_state
from svetbound.svetlichny import (
    MeasurementSettings,
    correlation_matrix,
    svetlichny_value,
)


class TestTensorLayout:
    def test_matches_matrix_convention(self, rng):
        m = rng.normal(size=(3, 9))
        t = correlation_tensor(m)
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    assert t[i, j, k] == m[j, 3 * i + k]

    def test_bilinear_value_matches_trace(self, rng):
        for _ in range(10):
            rho = random_density(rng)
            t = correlation_tensor(correlation_matrix(rho).matrix)
            s = MeasurementSettings.random(rng)
            val = bilinear_value(t, s.a, s.a_prime, s.b, s.b_prime, s.c, s.c_prime)
            assert val == pytest.approx(svetlichny_value(rho, s), abs=1e-12)


class TestBlockUpdates:
    def test_each_update_is_monotone(self, rng):
        """No exact block update may ever lower the objective."""
        for _ in range(30):
            t = correlation_tensor(correlation_matrix(random_density(rng)).matrix)
            s = MeasurementSettings.random(rng)
            a, ap, b, bp, c, cp = s.a, s.a_prime, s.b, s.b_prime, s.c, s.c_prime
            value = bilinear_value(t, a, ap, b, bp, c, cp)
            for _ in range(5):
                b, bp = update_b_pair(t, a, ap, c, cp, previous=(b, bp))
                after = bilinear_value(t, a, ap, b, bp, c, cp)
                assert after >= value - 1e-12
                value = after
                a, ap = update_a_pair(t, b, bp, c, cp, previous=(a, ap))
                after = bilinear_value(t, a, ap, b, bp, c, cp)
                assert after >= value - 1e-12
                value = after
                c, cp = update_c_pair(t, a, ap, b, bp, previous=(c, cp))
                after = bilinear_value(t, a, ap, b, bp, c, cp)
                assert after >= value - 1e-12
                value = after

    def test_degenerate_update_keeps_previous(self):
        t = np.zeros((3, 3, 3))
        prev = (np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0]))
        b, bp = update_b_pair(t, prev[0], prev[1], prev[0], prev[1], previous=prev)
        np.testing.assert_allclose(b, prev[0])
        np.testing.assert_allclose(bp, prev[1])


class TestSeesawMax:
    def test_ghz_reaches_algebraic_max(self):
        result = seesaw_max(build_ghz_noise_state(1.0), OracleConfig(restarts=20))
        assert result.value == pytest.approx(4.0 * math.sqrt(2.0), abs=1e-9)
        assert result.converged

    def test_never_exceeds_bound(self, rng):
        for _ in range(60):
            rho = random_density(rng)
            corr = correlation_matrix(rho)
            result = seesaw_max(rho, OracleConfig(restarts=10))
            assert result.value <= 4.0 * corr.svd.singular_values[0] + 1e-8

    def test_value_verified_by_trace(self, rng):
        rho = random_density(rng)
        result = seesaw_max(rho, OracleConfig(restarts=10))
        assert svetlichny_value(rho, result.settings) == pytest.approx(result.value, abs=1e-10)

    def test_deterministic_given_seed(self):
        rho = build_chi_state(0.6)
        r1 = seesaw_max(rho, OracleConfig(restarts=15, seed=7))
        r2 = seesaw_max(rho, OracleConfig(restarts=15, seed=7))
        assert r1.value == r2.value
        np.testing.assert_array_equal(r1.settings.a, r2.settings.a)

    def test_warm_start_at_optimum_stays(self):
        """Feeding optimal settings back in cannot lose value."""
        rho = build_ghz_noise_state(1.0)
        first = seesaw_max(rho, OracleConfig(restarts=20))
        rerun = seesaw_max(rho, OracleConfig(restarts=0), warm_starts=(first.settings,))
        assert rerun.value >= first.value - 1e-12
        assert rerun.sweeps_used <= 2

    def test_respects_sweep_cap(self):
        rho = build_chi_state(0.5)
        result = seesaw_max(rho, OracleConfig(restarts=3, max_sweeps=1))
        assert result.sweeps_used == 1


def _reference_seesaw(t, starts, config):
    """The per-start loop, one start after another, from single-vector updates."""
    best = (-np.inf, None, False)
    for start in starts:
        a, ap, b, bp, c, cp = start.a, start.a_prime, start.b, start.b_prime, start.c, start.c_prime
        prev = bilinear_value(t, a, ap, b, bp, c, cp)
        converged = False
        for _ in range(config.max_sweeps):
            b, bp = update_b_pair(t, a, ap, c, cp, previous=(b, bp))
            a, ap = update_a_pair(t, b, bp, c, cp, previous=(a, ap))
            c, cp = update_c_pair(t, a, ap, b, bp, previous=(c, cp))
            value = bilinear_value(t, a, ap, b, bp, c, cp)
            if value - prev < CONVERGENCE_TOL:
                converged = True
                break
            prev = value
        if value > best[0]:
            best = (value, (a, ap, b, bp, c, cp), converged)
    return best


class TestBatchedSweep:
    def test_row_wise_updates_match_single_vectors(self, rng):
        t = correlation_tensor(correlation_matrix(random_density(rng)).matrix)
        blocks = rng.normal(size=(6, 7, 3))
        blocks /= np.linalg.norm(blocks, axis=-1, keepdims=True)
        a, ap, b, bp, c, cp = blocks
        batched = {
            "b": update_b_pair(t, a, ap, c, cp, previous=(b, bp)),
            "a": update_a_pair(t, b, bp, c, cp, previous=(a, ap)),
            "c": update_c_pair(t, a, ap, b, bp, previous=(c, cp)),
        }
        values = bilinear_value(t, a, ap, b, bp, c, cp)
        assert values.shape == (7,)
        for r in range(7):
            row = [v[r] for v in blocks]
            single = {
                "b": update_b_pair(t, row[0], row[1], row[4], row[5], previous=(row[2], row[3])),
                "a": update_a_pair(t, row[2], row[3], row[4], row[5], previous=(row[0], row[1])),
                "c": update_c_pair(t, row[0], row[1], row[2], row[3], previous=(row[4], row[5])),
            }
            for party, pair in single.items():
                for got, want in zip(batched[party], pair):
                    np.testing.assert_allclose(got[r], want, rtol=0, atol=1e-14)
            value = bilinear_value(t, *row)
            assert isinstance(value, float)
            assert abs(values[r] - value) <= 1e-14

    def test_degenerate_rows_keep_previous(self, rng):
        t = np.zeros((3, 3, 3))
        blocks = rng.normal(size=(4, 5, 3))
        blocks /= np.linalg.norm(blocks, axis=-1, keepdims=True)
        b, bp = update_b_pair(t, *blocks, previous=(blocks[0], blocks[1]))
        np.testing.assert_array_equal(b, blocks[0])
        np.testing.assert_array_equal(bp, blocks[1])

    def test_matches_per_start_loop(self, rng):
        config = OracleConfig(restarts=20, seed=11)
        for _ in range(50):
            t = correlation_tensor(correlation_matrix(random_density(rng)).matrix)
            warm = MeasurementSettings.random(rng)
            draws = np.random.default_rng(config.seed)
            starts = [warm] + [MeasurementSettings.random(draws) for _ in range(config.restarts)]
            value, _, converged = _reference_seesaw(t, starts, config)
            result = seesaw_from_matrix(
                t.transpose(1, 0, 2).reshape(3, 9), config, warm_starts=(warm,)
            )
            assert abs(result.value - value) <= 1e-12
            assert result.converged == converged

    def test_starts_equal_successive_draws(self, rng):
        warm = (MeasurementSettings.random(rng), MeasurementSettings.random(rng))
        starts = _starts(warm, 30, seed=5)
        draws = np.random.default_rng(5)
        expected = list(warm) + [MeasurementSettings.random(draws) for _ in range(30)]
        assert starts.shape == (32, 6, 3)
        for got, s in zip(starts, expected):
            want = np.array([s.a, s.a_prime, s.b, s.b_prime, s.c, s.c_prime])
            np.testing.assert_array_equal(got, want)

    def test_warm_start_at_optimum_is_returned(self):
        rho = build_ghz_noise_state(1.0)
        first = seesaw_max(rho, OracleConfig(restarts=20))
        rerun = seesaw_max(rho, OracleConfig(restarts=20, seed=3), warm_starts=(first.settings,))
        assert rerun.value >= first.value - 1e-12
        assert rerun.sweeps_used == 1
        for name in ("a", "a_prime", "b", "b_prime", "c", "c_prime"):
            np.testing.assert_allclose(
                getattr(rerun.settings, name), getattr(first.settings, name), atol=1e-9
            )

    def test_ties_go_to_the_earliest_start(self, rng):
        """On a zero tensor every start ties at 0 and keeps its vectors: the warm start wins."""
        warm = MeasurementSettings.random(rng)
        result = seesaw_from_matrix(np.zeros((3, 9)), OracleConfig(restarts=10), warm_starts=(warm,))
        assert result.value == 0.0
        np.testing.assert_array_equal(result.settings.c_prime, warm.c_prime)

    @pytest.mark.parametrize("restarts", [-1, MAX_RESTARTS + 1])
    def test_restarts_out_of_range(self, restarts):
        with pytest.raises(ValueError, match="between 0 and"):
            seesaw_from_matrix(np.eye(3, 9), OracleConfig(restarts=restarts))
