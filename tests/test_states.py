import json
import math

import numpy as np
import pytest

from svetbound.errors import PhysicalityError, StateFormatError
from svetbound.states import (
    build_chi_state,
    build_ghz_noise_state,
    load_state,
    save_state,
    validate_state,
)


class TestFamilies:
    @pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
    def test_chi_is_physical(self, p):
        validate_state(build_chi_state(p))

    @pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
    def test_ghz_noise_is_physical(self, p):
        validate_state(build_ghz_noise_state(p))

    def test_chi_entries(self):
        p, theta = 0.6, 0.3
        rho = build_chi_state(p, theta)
        assert rho[0, 0] == pytest.approx(p * math.cos(theta) ** 2 + (1 - p) / 2)
        assert rho[1, 1] == pytest.approx((1 - p) / 2)
        assert rho[7, 7] == pytest.approx(p * math.sin(theta) ** 2)
        assert rho[0, 7] == pytest.approx(p * math.cos(theta) * math.sin(theta))
        # nothing else on the diagonal
        np.testing.assert_allclose(np.diag(rho)[2:7], 0.0, atol=1e-15)

    def test_ghz_noise_entries(self):
        p = 0.4
        rho = build_ghz_noise_state(p)
        assert rho[0, 0] == pytest.approx(p / 2 + (1 - p) / 4)
        assert rho[7, 7] == pytest.approx(p / 2)
        assert rho[0, 7] == pytest.approx(p / 2)
        np.testing.assert_allclose(np.diag(rho)[1:4], (1 - p) / 4, atol=1e-15)
        np.testing.assert_allclose(np.diag(rho)[4:7], 0.0, atol=1e-15)

    @pytest.mark.parametrize("p", [-0.1, 1.1])
    def test_p_out_of_range(self, p):
        with pytest.raises(ValueError):
            build_chi_state(p)
        with pytest.raises(ValueError):
            build_ghz_noise_state(p)

    @pytest.mark.parametrize("theta", [-0.1, math.pi / 4 + 0.1])
    def test_theta_out_of_range(self, theta):
        with pytest.raises(ValueError):
            build_chi_state(0.5, theta)


class TestValidation:
    def test_trace_violation(self):
        rho = np.eye(8, dtype=complex) * 0.9 / 8
        with pytest.raises(PhysicalityError, match="trace deviates"):
            validate_state(rho)

    def test_hermiticity_violation(self):
        rho = np.eye(8, dtype=complex) / 8
        rho[0, 1] = 1e-3
        with pytest.raises(PhysicalityError, match="hermiticity"):
            validate_state(rho)

    def test_negative_eigenvalue(self):
        d = np.full(8, 1.0 / 8)
        d[7] -= 1.0 / 8 + 1e-6
        d[0] += 1.0 / 8 + 1e-6
        with pytest.raises(PhysicalityError, match="eigenvalue"):
            validate_state(np.diag(d).astype(complex))

    def test_wrong_shape(self):
        with pytest.raises(ValueError):
            validate_state(np.eye(4) / 4)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_non_finite_entry(self, bad):
        rho = np.eye(8, dtype=complex) / 8
        rho[2, 5] = bad
        with pytest.raises(ValueError, match="non-finite"):
            validate_state(rho)


class TestRoundTrip:
    def test_save_load(self, tmp_path, rng):
        g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        rho = g @ g.conj().T
        rho /= rho.trace()
        path = tmp_path / "state.json"
        save_state(rho, str(path))
        loaded = load_state(str(path))
        np.testing.assert_allclose(loaded, rho, atol=1e-15)

    def test_repairs_small_drift(self, tmp_path):
        rho = build_ghz_noise_state(0.5)
        re = rho.real.copy()
        re[0, 0] += 3e-11
        re[0, 1] += 2e-11
        payload = {"dim": 8, "re": re.tolist(), "im": rho.imag.tolist()}
        path = tmp_path / "drift.json"
        path.write_text(json.dumps(payload))
        loaded = load_state(str(path))
        assert abs(loaded.trace() - 1.0) < 1e-15
        np.testing.assert_allclose(loaded, loaded.conj().T, atol=1e-18)
        np.testing.assert_allclose(loaded, rho, atol=1e-9)

    def test_rejects_large_trace_drift(self, tmp_path):
        rho = build_ghz_noise_state(0.5)
        payload = {"dim": 8, "re": (rho.real * 0.9).tolist(), "im": (rho.imag * 0.9).tolist()}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(PhysicalityError, match="trace deviates by 0.1"):
            load_state(str(path))

    def test_rejects_large_asymmetry(self, tmp_path):
        rho = build_ghz_noise_state(0.5)
        re = rho.real.copy()
        re[0, 1] += 1e-6
        payload = {"dim": 8, "re": re.tolist(), "im": rho.imag.tolist()}
        path = tmp_path / "asym.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(PhysicalityError, match="hermiticity"):
            load_state(str(path))

    def test_rejects_negative_state(self, tmp_path):
        d = np.full(8, 1.0 / 8)
        d[7] -= 1.0 / 8 + 1e-6
        d[0] += 1.0 / 8 + 1e-6
        payload = {"dim": 8, "re": np.diag(d).tolist(), "im": np.zeros((8, 8)).tolist()}
        path = tmp_path / "neg.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(PhysicalityError, match="eigenvalue"):
            load_state(str(path))

    @pytest.mark.parametrize(
        "payload",
        [
            "{broken",
            '{"dim": 8, "re": []}',
            '{"dim": 4, "re": [], "im": []}',
            '{"dim": 8, "re": [[1]], "im": [[0]]}',
            '["not", "an", "object"]',
        ],
    )
    def test_rejects_malformed_files(self, tmp_path, payload):
        path = tmp_path / "malformed.json"
        path.write_text(payload)
        with pytest.raises(StateFormatError):
            load_state(str(path))

    def test_rejects_non_numeric(self, tmp_path):
        bad = [["x"] * 8 for _ in range(8)]
        payload = {"dim": 8, "re": bad, "im": bad}
        path = tmp_path / "nonnum.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(StateFormatError, match="numeric"):
            load_state(str(path))

    @pytest.mark.parametrize("key", ["re", "im"])
    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_rejects_non_finite(self, tmp_path, key, token):
        """json reads NaN and Infinity; the field that holds one is named."""
        parts = {"re": (np.eye(8) / 8).tolist(), "im": np.zeros((8, 8)).tolist()}
        parts[key][3][3] = "TOKEN"
        path = tmp_path / "nonfinite.json"
        path.write_text(json.dumps({"dim": 8, **parts}).replace('"TOKEN"', token))
        with pytest.raises(StateFormatError, match=f"field '{key}' has non-finite entries"):
            load_state(str(path))

    def test_rejects_missing_file(self, tmp_path):
        with pytest.raises(StateFormatError, match="cannot read"):
            load_state(str(tmp_path / "nowhere.json"))
