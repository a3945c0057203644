import numpy as np
import pytest

from svetbound.errors import ConsistencyError
from conftest import random_density
from svetbound.linalg import (
    lorentz_map,
    pauli,
    pauli_moments,
    real_expectation,
    spectral_2x2_psd,
    svd_3x9,
    tensor,
)

PAULI4 = [np.eye(2, dtype=complex), pauli(1), pauli(2), pauli(3)]


class TestPauli:
    def test_algebra(self):
        """sigma_i sigma_j = delta_ij I + i eps_ijk sigma_k."""
        eye = np.eye(2)
        eps = np.zeros((3, 3, 3))
        for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            eps[i, j, k], eps[j, i, k] = 1.0, -1.0
        for i in range(3):
            for j in range(3):
                expected = (i == j) * eye + 1j * sum(
                    eps[i, j, k] * pauli(k + 1) for k in range(3)
                )
                np.testing.assert_allclose(pauli(i + 1) @ pauli(j + 1), expected, atol=1e-15)

    def test_traceless_hermitian(self):
        for i in (1, 2, 3):
            s = pauli(i)
            assert abs(np.trace(s)) == 0.0
            np.testing.assert_allclose(s, s.conj().T)

    @pytest.mark.parametrize("bad", [0, 4, -1])
    def test_bad_index(self, bad):
        with pytest.raises(ValueError):
            pauli(bad)


class TestTensor:
    def test_matches_iterated_kron(self, rng):
        a, b, c = (rng.normal(size=(2, 2)) for _ in range(3))
        np.testing.assert_allclose(tensor(a, b, c), np.kron(np.kron(a, b), c))

    def test_equals_chained_kron_bit_for_bit(self, rng):
        """2x2 complex factors, 1-D scales over a wide range, and unequal shapes, two to four factors."""
        for k in range(300):
            count = 2 + k % 3
            if k % 3 == 0:
                ops = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(count)]
            elif k % 3 == 1:
                ops = [rng.normal(size=2) * 10.0 ** rng.uniform(-100, 100, size=2) for _ in range(count)]
            else:
                ops = [rng.normal(size=tuple(rng.integers(1, 4, size=2))) for _ in range(count)]
            want = ops[0]
            for op in ops[1:]:
                want = np.kron(want, op)
            got = tensor(*ops)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    def test_mixed_dimension_counts_rejected(self):
        with pytest.raises(ValueError, match="got 2 and 1"):
            tensor(np.eye(2), np.ones(2))

    def test_single_factor(self):
        a = np.arange(4).reshape(2, 2)
        np.testing.assert_allclose(tensor(a), a)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            tensor()


class TestSpectral2x2:
    def test_roundtrip(self, rng):
        for _ in range(50):
            g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            f = g @ g.conj().T
            u, s = spectral_2x2_psd(f)
            np.testing.assert_allclose(u @ np.diag(s) @ u.conj().T, f, atol=1e-12)
            assert s[0] >= s[1] >= 0.0
            np.testing.assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-12)

    def test_clips_tiny_negative(self):
        u, s = spectral_2x2_psd(np.diag([1.0, -1e-14]))
        assert s[1] == 0.0

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            spectral_2x2_psd(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="semidefinite"):
            spectral_2x2_psd(np.diag([1.0, -0.5]))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            spectral_2x2_psd(np.diag([bad, 1.0]))


class TestPauliMoments:
    def test_matches_direct_traces(self, rng):
        rho = random_density(rng)
        q = pauli_moments(rho)
        assert q[0, 0, 0] == pytest.approx(1.0, abs=1e-14)
        for a in range(4):
            for b in range(4):
                for c in range(4):
                    direct = np.trace(rho @ tensor(PAULI4[a], PAULI4[b], PAULI4[c])).real
                    assert q[a, b, c] == pytest.approx(direct, abs=1e-14)

    def test_rejects_non_hermitian(self):
        rho = np.eye(8, dtype=complex) / 8.0
        rho[0, 1] = 0.1
        with pytest.raises(ConsistencyError):
            pauli_moments(rho)


class TestLorentzMap:
    def test_expands_conjugated_paulis(self, rng):
        """sum_nu L(g)[mu, nu] sigma_nu = g sigma_mu g^dag for any complex g."""
        for _ in range(20):
            g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            lmap = lorentz_map(g)
            for mu in range(4):
                expanded = sum(lmap[mu, nu] * PAULI4[nu] for nu in range(4))
                np.testing.assert_allclose(expanded, g @ PAULI4[mu] @ g.conj().T, atol=1e-12)

    def test_diagonal_filter_closed_forms(self, rng):
        """Rows of L(diag(x, 1)): x sigma_x, x sigma_y, and the z and identity mixes."""
        xs = np.concatenate([np.logspace(-3.0, 3.0, 25), 10.0 ** rng.uniform(-3.0, 3.0, 200)])
        maps = lorentz_map([np.diag([x, 1.0]) for x in xs])
        expected = np.zeros((xs.size, 4, 4))
        expected[:, 0, 0] = (xs**2 + 1.0) / 2.0
        expected[:, 0, 3] = (xs**2 - 1.0) / 2.0
        expected[:, 1, 1] = xs
        expected[:, 2, 2] = xs
        expected[:, 3, 0] = (xs**2 - 1.0) / 2.0
        expected[:, 3, 3] = (xs**2 + 1.0) / 2.0
        # Exact equality keeps the filter-grid search bit-stable.
        np.testing.assert_array_equal(maps, expected)

    def test_transports_moments(self, rng):
        """Moments of G^dag rho G with G = g_A (x) g_B (x) g_C are (L_A (x) L_B (x) L_C) q."""
        for _ in range(20):
            rho = random_density(rng)
            gs = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3)]
            big = tensor(*gs)
            maps = [lorentz_map(g) for g in gs]
            transported = np.einsum("ia,jb,kc,abc->ijk", *maps, pauli_moments(rho))
            direct = pauli_moments(big.conj().T @ rho @ big)
            np.testing.assert_allclose(transported, direct, atol=1e-12 * np.abs(direct).max())


class TestSvd3x9:
    def test_reconstruction_and_orthonormality(self, rng):
        for _ in range(100):
            a = rng.normal(size=(3, 9))
            res = svd_3x9(a)
            scale = np.linalg.norm(a)
            np.testing.assert_allclose(res.reconstruct(), a, atol=1e-9 * max(scale, 1.0))
            np.testing.assert_allclose(
                res.left_vectors @ res.left_vectors.conj().T, np.eye(3), atol=1e-10
            )
            np.testing.assert_allclose(
                res.right_vectors @ res.right_vectors.T, np.eye(9), atol=1e-10
            )
            s = res.singular_values
            assert s[0] >= s[1] >= s[2] >= 0.0

    def test_degeneracy_counts(self):
        base = np.zeros((3, 9))
        base[0, 0], base[1, 1], base[2, 2] = 2.0, 2.0, 1.0
        assert svd_3x9(base).degeneracy() == 2
        base[2, 2] = 2.0 - 1e-12
        assert svd_3x9(base).degeneracy() == 3
        base[1, 1] = base[2, 2] = 0.5
        assert svd_3x9(base).degeneracy() == 1

    def test_degeneracy_computed_once(self, monkeypatch):
        """The first call fixes an SVD's degeneracy; a later tolerance applies to later SVDs only."""
        import svetbound.linalg as linalg_module

        base = np.zeros((3, 9))
        base[0, 0], base[1, 1], base[2, 2] = 2.0, 2.0, 1.0
        svd = svd_3x9(base)
        assert svd.degeneracy() == 2
        monkeypatch.setattr(linalg_module, "DEGENERACY_RTOL", 1.0)
        assert svd.degeneracy() == 2
        assert svd.leading_right_basis().shape == (2, 9)
        assert svd_3x9(base).degeneracy() == 3

    def test_leading_right_basis_shape(self):
        m = np.zeros((3, 9))
        m[0, 0] = m[1, 4] = 1.0
        basis = svd_3x9(m).leading_right_basis()
        assert basis.shape == (2, 9)
        np.testing.assert_allclose(basis @ basis.T, np.eye(2), atol=1e-12)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            svd_3x9(np.zeros((3, 8)))


class TestRealExpectation:
    def test_known_value(self):
        rho = np.diag([0.75, 0.25]).astype(complex)
        assert real_expectation(rho, pauli(3)) == pytest.approx(0.5)

    def test_rejects_imaginary_residue(self):
        rho = np.eye(2, dtype=complex) / 2.0
        op = 1.0j * np.eye(2)
        with pytest.raises(ConsistencyError):
            real_expectation(rho, op)

    def test_scale_widens_tolerance(self):
        rho = np.eye(2, dtype=complex) / 2.0
        op = 1e6 * pauli(2) @ pauli(3) @ pauli(2) @ pauli(3)
        # op is (-1e6) I exactly; perturb with a residue below the scaled tol
        op = op + 1j * 1e-8 * np.eye(2)
        assert real_expectation(rho, op, scale=1e6) == pytest.approx(-1e6)
