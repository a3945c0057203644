"""Alternating see-saw maximization of the Svetlichny expectation.

Each block update is exact: with the other parties fixed, the optimal pair of
unit vectors for one party is a normalized linear image of the correlation
tensor, so every update is monotone and the sweep limit is a safety cap, not
a tuning knob. Restarts guard against the rare poor basin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .svetlichny import MeasurementSettings, correlation_matrix

_DEGENERATE_TOL = 1e-12


def correlation_tensor(m: np.ndarray) -> np.ndarray:
    """Reshape a 3x9 correlation matrix to t[i, j, k] = m[j, 3i + k]."""
    return np.ascontiguousarray(np.asarray(m, dtype=float).reshape(3, 3, 3).transpose(1, 0, 2))


def bilinear_value(t, a, ap, b, bp, c, cp) -> float:
    """Svetlichny expectation from the correlation tensor and raw vectors."""
    u = np.einsum("ijk,i,k->j", t, a, c) - np.einsum("ijk,i,k->j", t, ap, cp)
    w = np.einsum("ijk,i,k->j", t, a, cp) + np.einsum("ijk,i,k->j", t, ap, c)
    return float((b + bp) @ u + (b - bp) @ w)


def _normalized(g: np.ndarray, fallback: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(g)
    if n > _DEGENERATE_TOL:
        return g / n
    return fallback


def update_b_pair(t, a, ap, c, cp, previous):
    b_prev, bp_prev = previous
    u = np.einsum("ijk,i,k->j", t, a, c) - np.einsum("ijk,i,k->j", t, ap, cp)
    w = np.einsum("ijk,i,k->j", t, a, cp) + np.einsum("ijk,i,k->j", t, ap, c)
    return _normalized(u + w, b_prev), _normalized(u - w, bp_prev)


def update_a_pair(t, b, bp, c, cp, previous):
    a_prev, ap_prev = previous
    g = np.einsum("ijk,j,k->i", t, b + bp, c) + np.einsum("ijk,j,k->i", t, b - bp, cp)
    gp = np.einsum("ijk,j,k->i", t, b - bp, c) - np.einsum("ijk,j,k->i", t, b + bp, cp)
    return _normalized(g, a_prev), _normalized(gp, ap_prev)


def update_c_pair(t, a, ap, b, bp, previous):
    c_prev, cp_prev = previous
    g = np.einsum("ijk,i,j->k", t, a, b + bp) + np.einsum("ijk,i,j->k", t, ap, b - bp)
    gp = np.einsum("ijk,i,j->k", t, a, b - bp) - np.einsum("ijk,i,j->k", t, ap, b + bp)
    return _normalized(g, c_prev), _normalized(gp, cp_prev)


@dataclass
class OracleConfig:
    restarts: int = 100
    max_sweeps: int = 500
    convergence_tol: float = 1e-12
    seed: int = 42


@dataclass
class OracleResult:
    """Best value found by the see-saw together with the settings achieving it."""

    value: float
    settings: MeasurementSettings
    sweeps_used: int
    converged: bool


def seesaw_max(
    rho: np.ndarray,
    config: OracleConfig | None = None,
    *,
    warm_starts: tuple[MeasurementSettings, ...] = (),
) -> OracleResult:
    """Lower bound on the maximal Svetlichny expectation of a state.

    Runs seeded random restarts (warm starts first) of exact alternating
    updates until the per-sweep improvement drops below the configured
    tolerance. The returned value never exceeds 4 * lambda_1.
    """
    config = config or OracleConfig()
    corr = correlation_matrix(rho)
    return seesaw_from_matrix(corr.matrix, config, warm_starts=warm_starts)


def seesaw_from_matrix(
    m: np.ndarray,
    config: OracleConfig | None = None,
    *,
    warm_starts: tuple[MeasurementSettings, ...] = (),
) -> OracleResult:
    """See-saw driven by an already-computed correlation matrix."""
    config = config or OracleConfig()
    t = correlation_tensor(m)
    rng = np.random.default_rng(config.seed)
    starts = list(warm_starts) + [MeasurementSettings.random(rng) for _ in range(config.restarts)]
    if not starts:
        raise ValueError(f"see-saw has no start: restarts={config.restarts} and no warm start")
    if config.max_sweeps < 1:
        raise ValueError(f"see-saw needs max_sweeps >= 1, got {config.max_sweeps}")

    best_value = -np.inf
    best_vectors = None
    best_sweeps = 0
    best_converged = False
    for start in starts:
        a, ap = start.a.copy(), start.a_prime.copy()
        b, bp = start.b.copy(), start.b_prime.copy()
        c, cp = start.c.copy(), start.c_prime.copy()
        prev = bilinear_value(t, a, ap, b, bp, c, cp)
        converged = False
        sweeps = config.max_sweeps
        for sweep in range(1, config.max_sweeps + 1):
            b, bp = update_b_pair(t, a, ap, c, cp, previous=(b, bp))
            a, ap = update_a_pair(t, b, bp, c, cp, previous=(a, ap))
            c, cp = update_c_pair(t, a, ap, b, bp, previous=(c, cp))
            value = bilinear_value(t, a, ap, b, bp, c, cp)
            if value - prev < config.convergence_tol:
                converged = True
                sweeps = sweep
                break
            prev = value
        value = bilinear_value(t, a, ap, b, bp, c, cp)
        if value > best_value:
            best_value = value
            best_vectors = (a, ap, b, bp, c, cp)
            best_sweeps = sweeps
            best_converged = converged

    a, ap, b, bp, c, cp = best_vectors
    settings = MeasurementSettings(a=a, a_prime=ap, b=b, b_prime=bp, c=c, c_prime=cp)
    return OracleResult(
        value=best_value,
        settings=settings,
        sweeps_used=best_sweeps,
        converged=best_converged,
    )
