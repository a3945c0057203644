"""Three-qubit density matrices: built-in families, validation, JSON persistence.

Basis ordering puts party A on the most significant qubit: computational basis
index 4a + 2b + c for outcomes (a, b, c).
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import PhysicalityError, StateFormatError
from .fileio import atomic_write_text

STATE_DIM = 8
HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10
REPAIR_TOL = 1e-10
# Default angle of the chi family's generalized GHZ component.
CHI_THETA = math.pi / 8


def validate_state(rho: np.ndarray) -> np.ndarray:
    """Check density-matrix invariants and return the state as complex128.

    Raises ValueError for a wrong shape or a non-finite entry, and
    PhysicalityError if the matrix is not Hermitian to 1e-12, not unit trace
    to 1e-12, or has an eigenvalue below -1e-10.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (STATE_DIM, STATE_DIM):
        raise ValueError(f"state must be {STATE_DIM}x{STATE_DIM}, got shape {rho.shape}")
    if not np.isfinite(rho).all():
        raise ValueError("state has non-finite entries")
    herm = np.abs(rho - rho.conj().T).max()
    if herm > HERMITICITY_TOL:
        raise PhysicalityError(f"state hermiticity residual {herm:.3e} exceeds {HERMITICITY_TOL:g}")
    trace_dev = abs(rho.trace() - 1.0)
    if trace_dev > TRACE_TOL:
        raise PhysicalityError(f"state trace deviates by {trace_dev:.6g}")
    min_eig = float(np.linalg.eigvalsh(rho)[0])
    if min_eig < EIGENVALUE_FLOOR:
        raise PhysicalityError(f"state has eigenvalue {min_eig:.3e} below {EIGENVALUE_FLOOR:g}")
    return rho


def build_chi_state(p: float, theta: float = CHI_THETA) -> np.ndarray:
    """Mixture of a generalized GHZ state with a product-noise term.

    p * |psi><psi| + (1 - p) * |00><00| (x) I/2 with
    |psi> = cos(theta)|000> + sin(theta)|111>, theta in [0, pi/4].
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if not 0.0 <= theta <= math.pi / 4:
        raise ValueError(f"theta must lie in [0, pi/4], got {theta}")
    psi = np.zeros(STATE_DIM, dtype=complex)
    psi[0] = math.cos(theta)
    psi[7] = math.sin(theta)
    rho = p * np.outer(psi, psi.conj())
    rho[0, 0] += (1.0 - p) / 2.0
    rho[1, 1] += (1.0 - p) / 2.0
    return rho


def build_ghz_noise_state(p: float) -> np.ndarray:
    """GHZ state mixed with noise supported on A's |0> subspace.

    p * |GHZ><GHZ| + (1 - p)/4 * |0><0| (x) I_4.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    ghz = np.zeros(STATE_DIM, dtype=complex)
    ghz[0] = ghz[7] = 1.0 / math.sqrt(2.0)
    rho = p * np.outer(ghz, ghz.conj())
    for k in range(4):
        rho[k, k] += (1.0 - p) / 4.0
    return rho


def save_state(rho: np.ndarray, path: str) -> None:
    """Write a validated state as JSON with separate real and imaginary parts."""
    rho = validate_state(rho)
    payload = {
        "dim": STATE_DIM,
        "re": rho.real.tolist(),
        "im": rho.imag.tolist(),
    }
    atomic_write_text(path, json.dumps(payload, indent=2) + "\n")


def _parse_part(payload: dict, key: str) -> np.ndarray:
    try:
        part = np.asarray(payload[key], dtype=float)
    except (TypeError, ValueError) as exc:
        raise StateFormatError(f"field '{key}' is not a numeric matrix") from exc
    if part.shape != (STATE_DIM, STATE_DIM):
        raise StateFormatError(f"field '{key}' must be {STATE_DIM}x{STATE_DIM}, got shape {part.shape}")
    # json accepts NaN and Infinity, and NaN would pass every tolerance check in load_state.
    if not np.isfinite(part).all():
        raise StateFormatError(f"field '{key}' has non-finite entries")
    return part


def load_state(path: str) -> np.ndarray:
    """Load a state from JSON, repairing violations up to 1e-10.

    Small hermiticity or trace drift (at most 1e-10) is repaired by
    symmetrizing and renormalizing; anything larger raises PhysicalityError
    naming the violated invariant. Structural problems raise StateFormatError.
    """
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise StateFormatError(f"cannot read state file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise StateFormatError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise StateFormatError(f"{path} must hold a JSON object")
    for key in ("dim", "re", "im"):
        if key not in payload:
            raise StateFormatError(f"{path} is missing field '{key}'")
    if payload["dim"] != STATE_DIM:
        raise StateFormatError(f"only dim={STATE_DIM} states are supported, got {payload['dim']}")
    rho = _parse_part(payload, "re") + 1j * _parse_part(payload, "im")

    rho_h = rho.conj().T
    herm = np.abs(rho - rho_h).max()
    if herm > REPAIR_TOL:
        raise PhysicalityError(f"hermiticity residual {herm:.3e} exceeds repair tolerance {REPAIR_TOL:g}")
    trace_dev = abs(rho.trace() - 1.0)
    if trace_dev > REPAIR_TOL:
        raise PhysicalityError(f"trace deviates by {trace_dev:.6g}")
    rho = (rho + rho_h) / 2.0
    return validate_state(rho / rho.trace().real)
