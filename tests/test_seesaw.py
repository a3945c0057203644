import math

import numpy as np
import pytest

import svetbound.seesaw as seesaw_module
from conftest import random_density, random_psd_2x2
from svetbound.filtering import FilterTriple, filtered_bound
from svetbound.seesaw import (
    CONVERGENCE_TOL,
    DEGENERATE_DIRECTION_TOL,
    MAX_RESTARTS,
    START_CACHE_SIZE,
    OracleConfig,
    _start_blocks,
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
        draws = np.random.default_rng(config.seed)
        starts = [MeasurementSettings.random(draws) for _ in range(config.restarts)]
        for _ in range(50):
            t = correlation_tensor(correlation_matrix(random_density(rng)).matrix)
            value, _, converged = _reference_seesaw(t, starts, config)
            result = seesaw_from_matrix(t.transpose(1, 0, 2).reshape(3, 9), config)
            assert abs(result.value - value) <= 1e-12
            assert result.converged == converged

    def test_starts_equal_successive_draws(self):
        starts = _starts(30, seed=5)
        draws = np.random.default_rng(5)
        expected = [MeasurementSettings.random(draws) for _ in range(30)]
        assert starts.shape == (30, 6, 3)
        for got, s in zip(starts, expected):
            want = np.array([s.a, s.a_prime, s.b, s.b_prime, s.c, s.c_prime])
            np.testing.assert_array_equal(got, want)

    def test_ties_go_to_the_earliest_start(self):
        """On a zero tensor every start ties at 0 and keeps its vectors: the first start wins."""
        config = OracleConfig(restarts=10, seed=4)
        result = seesaw_from_matrix(np.zeros((3, 9)), config)
        first = MeasurementSettings.random(np.random.default_rng(config.seed))
        assert result.value == 0.0
        np.testing.assert_array_equal(result.settings.c_prime, first.c_prime)

    @pytest.mark.parametrize("restarts", [-1, 0, MAX_RESTARTS + 1])
    def test_restarts_out_of_range(self, restarts):
        with pytest.raises(ValueError, match="between 1 and"):
            seesaw_from_matrix(np.eye(3, 9), OracleConfig(restarts=restarts))


# A copy of the previous batched see-saw, kept as the reference the in-place
# kernel must equal bit for bit: (R, 3) blocks, complex factors filled part by
# part, and the active rows compacted whenever one stops.


def _ref_columns(v):
    return v.reshape(-1, 3).T


def _ref_complex(re, im):
    out = np.empty(re.shape, dtype=complex)
    out.real, out.imag = re, im
    return out


def _ref_pair_images(x, xp, y, yp, layout):
    x, xp, y, yp = _ref_columns(x), _ref_columns(xp), _ref_columns(y), _ref_columns(yp)
    z = _ref_complex(x, -xp)
    w = _ref_complex(y + yp, y - yp)
    outer = np.multiply(z[:, None], w[None], order="C")
    return layout.T @ outer.reshape(9, -1).view(float)


def _ref_normalized_pair(images, previous):
    norms = np.sqrt((images * images).sum(axis=0))
    usable = norms > DEGENERATE_DIRECTION_TOL
    if not usable.all():
        images = np.where(usable, images, np.stack([_ref_columns(p) for p in previous], -1).reshape(3, -1))
        norms = np.where(usable, norms, 1.0)
    units = images / norms
    shape = previous[0].shape
    return units[:, 0::2].T.reshape(shape), units[:, 1::2].T.reshape(shape)


def _ref_paired_value(images, c, cp):
    return (_ref_columns(c) * images[:, 0::2] + _ref_columns(cp) * images[:, 1::2]).sum(axis=0)


def reference_seesaw(m, config):
    """Per start: final value, six vectors (R, 6, 3), sweeps used and whether it converged."""
    t = correlation_tensor(m)
    ends = _starts(config.restarts, config.seed)
    values = np.empty(len(ends))
    sweeps = np.full(len(ends), config.max_sweeps)
    converged = np.zeros(len(ends), dtype=bool)
    active = np.arange(len(ends))
    a, ap, b, bp, c, cp = ends.transpose(1, 0, 2)
    prev = _ref_paired_value(_ref_pair_images(a, ap, b, bp, t.reshape(9, 3)), c, cp)
    for sweep in range(1, config.max_sweeps + 1):
        b, bp = _ref_normalized_pair(_ref_pair_images(a, ap, c, cp, t.transpose(0, 2, 1).reshape(9, 3)), (b, bp))
        a, ap = _ref_normalized_pair(_ref_pair_images(c, cp, b, bp, t.transpose(2, 1, 0).reshape(9, 3)), (a, ap))
        images = _ref_pair_images(a, ap, b, bp, t.reshape(9, 3))
        c, cp = _ref_normalized_pair(images, (c, cp))
        value = _ref_paired_value(images, c, cp)
        done = value - prev < CONVERGENCE_TOL
        prev = value
        if done.any():
            stopped, keep = active[done], ~done
            ends[stopped] = np.stack([a, ap, b, bp, c, cp], axis=1)[done]
            values[stopped], sweeps[stopped], converged[stopped] = value[done], sweep, True
            active, prev = active[keep], prev[keep]
            a, ap, b, bp, c, cp = a[keep], ap[keep], b[keep], bp[keep], c[keep], cp[keep]
            if not active.size:
                break
    ends[active] = np.stack([a, ap, b, bp, c, cp], axis=1)
    values[active] = prev
    return values, ends, sweeps, converged


def assert_matches_reference(m, config):
    """The kernel's result equals the reference's best start: numbers with ==, vectors with array_equal."""
    values, ends, sweeps, converged = reference_seesaw(m, config)
    best = int(np.argmax(values))
    result = seesaw_from_matrix(m, config)
    assert result.value == values[best]
    assert result.sweeps_used == sweeps[best]
    assert result.converged == converged[best]
    got = [result.settings.a, result.settings.a_prime, result.settings.b,
           result.settings.b_prime, result.settings.c, result.settings.c_prime]
    for vector, want in zip(got, ends[best]):
        assert np.array_equal(vector, want)
    return values, converged


def seeded_matrices(count):
    """Correlation matrices of seeded Ginibre states, each under a random general PSD filter triple."""
    rng = np.random.default_rng(2024)
    for _ in range(count):
        rho = random_density(rng)
        filters = FilterTriple.from_operators(*(random_psd_2x2(rng) for _ in range(3)))
        yield filtered_bound(rho, filters).m_prime.matrix


class TestKernelMatchesReference:
    """The in-place kernel against the previous batched see-saw, bit for bit."""

    @pytest.mark.parametrize("restarts, seed", [(100, 42), (8, "per-state"), (20, 11)])
    def test_seeded_states(self, restarts, seed):
        """300 filtered Ginibre states; "per-state" seeds state k with k, which cycles the start cache."""
        for k, m in enumerate(seeded_matrices(300)):
            assert_matches_reference(m, OracleConfig(restarts=restarts, seed=k if seed == "per-state" else seed))

    def test_unfiltered_states(self, rng):
        """Unfiltered Ginibre states, whose slowest starts run for hundreds of sweeps."""
        for _ in range(10):
            assert_matches_reference(correlation_matrix(random_density(rng)).matrix, OracleConfig(restarts=20, seed=11))

    def test_one_b_update_per_batch_sweep(self, monkeypatch):
        """update_b_pair runs once per sweep of the batch: as often as the slowest start sweeps, or the cap."""
        calls = []
        inner = seesaw_module.update_b_pair

        def spy(*args, **kwargs):
            calls.append(1)
            return inner(*args, **kwargs)

        monkeypatch.setattr(seesaw_module, "update_b_pair", spy)
        for m in seeded_matrices(20):
            for config in (OracleConfig(restarts=20, seed=11), OracleConfig(restarts=20, seed=11, max_sweeps=3)):
                calls.clear()
                seesaw_from_matrix(m, config)
                assert len(calls) == reference_seesaw(m, config)[2].max()

    def test_zero_tensor(self):
        """Every image vanishes: each start keeps its vectors and stops at sweep 1 with value 0."""
        values, converged = assert_matches_reference(np.zeros((3, 9)), OracleConfig(restarts=10, seed=4))
        assert (values == 0.0).all() and converged.all()

    def test_rank_one_tensor_with_degenerate_rows(self, monkeypatch):
        """t = u (x) v (x) w with u normal to start 0's A pair and w to start 1's C pair.

        Both starts' first B images vanish to rounding, below DEGENERATE_DIRECTION_TOL,
        so those rows keep their B vectors while the others move.
        """
        shortest = []
        images = seesaw_module._images

        def spy(layout, z, w):
            out = images(layout, z, w)
            shortest.append(np.sqrt((out * out).sum(axis=0)).min())
            return out

        monkeypatch.setattr(seesaw_module, "_images", spy)
        config = OracleConfig(restarts=10, seed=6)
        starts = _starts(config.restarts, config.seed)
        u, w = np.cross(starts[0, 0], starts[0, 1]), np.cross(starts[1, 4], starts[1, 5])
        t = np.einsum("i,j,k->ijk", u, np.random.default_rng(3).normal(size=3), w)
        m = t.transpose(1, 0, 2).reshape(3, 9)
        np.testing.assert_array_equal(correlation_tensor(m), t)
        assert_matches_reference(m, config)
        assert min(shortest) <= DEGENERATE_DIRECTION_TOL

    def test_one_sweep_cap_where_no_start_converges(self):
        m = next(seeded_matrices(1))
        config = OracleConfig(restarts=20, seed=11, max_sweeps=1)
        _, converged = assert_matches_reference(m, config)
        assert not converged.any()
        result = seesaw_from_matrix(m, config)
        assert result.sweeps_used == 1 and not result.converged


class TestStartCache:
    def test_blocks_hold_the_starts(self):
        """Party k's block holds start r's two vectors in columns 2r and 2r + 1."""
        starts = _starts(7, 5)
        blocks = _start_blocks(7, 5)
        assert blocks.shape == (3, 3, 14)
        for party in range(3):
            np.testing.assert_array_equal(blocks[party][:, 0::2].T, starts[:, 2 * party])
            np.testing.assert_array_equal(blocks[party][:, 1::2].T, starts[:, 2 * party + 1])

    def test_fresh_writable_copy_each_call(self):
        first = _start_blocks(12, 9)
        want = first.copy()
        assert first.flags.writeable
        first[...] = 0.0
        second = _start_blocks(12, 9)
        assert second is not first and second.flags.writeable
        np.testing.assert_array_equal(second, want)

    def test_results_repeat_after_a_call_mutates_its_starts(self):
        m = next(seeded_matrices(1))
        config = OracleConfig(restarts=15, seed=2)
        before = seesaw_from_matrix(m, config)
        blocks = _start_blocks(15, 2)
        blocks[...] = np.nan
        after = seesaw_from_matrix(m, config)
        assert after.value == before.value
        np.testing.assert_array_equal(after.settings.c_prime, before.settings.c_prime)

    def test_size_is_bounded(self):
        for seed in range(1000, 1000 + 3 * START_CACHE_SIZE):
            _start_blocks(3, seed)
        info = seesaw_module._cached_start_blocks.cache_info()
        assert info.maxsize == START_CACHE_SIZE
        assert info.currsize <= START_CACHE_SIZE
