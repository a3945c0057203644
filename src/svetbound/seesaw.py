"""Alternating see-saw maximization of the Svetlichny expectation.

Each block update is exact: with the other parties fixed, the optimal pair of
unit vectors for one party is a normalized linear image of the correlation
tensor, so every update is monotone and the sweep limit is a safety cap, not
a tuning knob. Restarts guard against the rare poor basin.

All starts advance together. The seeded random restarts are stacked as six
(R, 3) blocks of Bloch vectors, and one sweep updates every row with matmuls
against 9x3 layouts of the tensor. A convergence mask drops a row from the
active blocks once its own gain in a sweep falls below CONVERGENCE_TOL; its
vectors and value are frozen from then on, so each start ends where it would
end alone. The update functions broadcast over a leading axis, so single (3,)
vectors work as well.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .svetlichny import MeasurementSettings, correlation_matrix

# An update image shorter than this keeps the party's previous vector.
DEGENERATE_DIRECTION_TOL = 1e-12
# A start stops once its value gains less than this in one sweep.
CONVERGENCE_TOL = 1e-12
# Starts are allocated up front as R x 6 x 3 floats: 100 000 starts take 14 MB.
MAX_RESTARTS = 100_000


def correlation_tensor(m: np.ndarray) -> np.ndarray:
    """Reshape a 3x9 correlation matrix to t[i, j, k] = m[j, 3i + k]."""
    return np.ascontiguousarray(np.asarray(m, dtype=float).reshape(3, 3, 3).transpose(1, 0, 2))


def _columns(v: np.ndarray) -> np.ndarray:
    """A (..., 3) block as a (3, N) array, one column per batch row."""
    return v.reshape(-1, 3).T


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    # Filling both parts costs about half of `re + 1j * im` on blocks this small.
    out = np.empty(re.shape, dtype=complex)
    out.real, out.imag = re, im
    return out


def _pair_images(x, xp, y, yp, layout) -> np.ndarray:
    """Both unnormalized images of the party that ``layout`` leaves free.

    The images are t contracted with x(y + y') + x'(y - y') and with
    x(y - y') - x'(y + y'): the real and imaginary parts of t contracted with
    (x - ix')(y + y' + i(y - y')). ``layout`` is a 9x3 view of t whose rows run
    over 3 * (x index) + (y index). Returns (3, 2N), the two images interleaved.
    """
    x, xp, y, yp = _columns(x), _columns(xp), _columns(y), _columns(yp)
    z = _complex(x, -xp)
    w = _complex(y + yp, y - yp)
    outer = np.multiply(z[:, None], w[None], order="C")
    return layout.T @ outer.reshape(9, -1).view(float)


def _normalized_pair(images: np.ndarray, previous):
    """Unit vectors along both images; a near-zero image keeps its previous value."""
    norms = np.sqrt((images * images).sum(axis=0))
    usable = norms > DEGENERATE_DIRECTION_TOL
    if not usable.all():
        images = np.where(usable, images, np.stack([_columns(p) for p in previous], -1).reshape(3, -1))
        norms = np.where(usable, norms, 1.0)
    units = images / norms
    shape = previous[0].shape
    return units[:, 0::2].T.reshape(shape), units[:, 1::2].T.reshape(shape)


def _paired_value(images: np.ndarray, c: np.ndarray, cp: np.ndarray) -> np.ndarray:
    """The expectation per column: c and c' against the images of C's update."""
    return (_columns(c) * images[:, 0::2] + _columns(cp) * images[:, 1::2]).sum(axis=0)


def bilinear_value(t, a, ap, b, bp, c, cp):
    """Svetlichny expectation from the correlation tensor and raw vectors.

    A float for single vectors; one value per row for (R, 3) blocks.
    """
    value = _paired_value(_pair_images(a, ap, b, bp, t.reshape(9, 3)), c, cp)
    return float(value[0]) if a.ndim == 1 else value.reshape(a.shape[:-1])


def update_b_pair(t, a, ap, c, cp, previous):
    return _normalized_pair(_pair_images(a, ap, c, cp, t.transpose(0, 2, 1).reshape(9, 3)), previous)


def update_a_pair(t, b, bp, c, cp, previous):
    return _normalized_pair(_pair_images(c, cp, b, bp, t.transpose(2, 1, 0).reshape(9, 3)), previous)


def _update_c_with_value(t, a, ap, b, bp, previous):
    """C's update and the expectation it reaches, equal to bilinear_value bit for bit."""
    images = _pair_images(a, ap, b, bp, t.reshape(9, 3))
    c, cp = _normalized_pair(images, previous)
    return c, cp, _paired_value(images, c, cp)


def update_c_pair(t, a, ap, b, bp, previous):
    return _update_c_with_value(t, a, ap, b, bp, previous)[:2]


@dataclass
class OracleConfig:
    restarts: int = 100
    max_sweeps: int = 500
    seed: int = 42


@dataclass
class OracleResult:
    """Best value found by the see-saw together with the settings achieving it."""

    value: float
    settings: MeasurementSettings
    sweeps_used: int
    converged: bool


def seesaw_max(rho: np.ndarray, config: OracleConfig | None = None) -> OracleResult:
    """Lower bound on the maximal Svetlichny expectation of a state.

    Runs seeded random restarts of exact alternating updates until the
    per-sweep improvement drops below CONVERGENCE_TOL. The returned value
    never exceeds 4 * lambda_1.
    """
    config = config or OracleConfig()
    corr = correlation_matrix(rho)
    return seesaw_from_matrix(corr.matrix, config)


def _starts(restarts: int, seed: int) -> np.ndarray:
    """``restarts`` seeded random starts as (R, 6, 3) unit vectors.

    One draw of R x 6 x 3 normals gives the same vectors, bit for bit, as R
    successive ``MeasurementSettings.random`` calls on the same generator.
    """
    drawn = np.random.default_rng(seed).normal(size=(restarts, 6, 3))
    drawn /= np.linalg.norm(drawn, axis=-1, keepdims=True)
    return drawn


def seesaw_from_matrix(m: np.ndarray, config: OracleConfig | None = None) -> OracleResult:
    """See-saw driven by an already-computed correlation matrix.

    The best start is the first with the largest final value;
    ``sweeps_used`` and ``converged`` are that start's own.
    """
    config = config or OracleConfig()
    if not 1 <= config.restarts <= MAX_RESTARTS:
        raise ValueError(
            f"see-saw restarts must be between 1 and {MAX_RESTARTS}, got {config.restarts}"
        )
    if config.max_sweeps < 1:
        raise ValueError(f"see-saw needs max_sweeps >= 1, got {config.max_sweeps}")
    t = correlation_tensor(m)
    # ends[r] holds start r's six vectors, overwritten with its final ones once it stops.
    ends = _starts(config.restarts, config.seed)
    values = np.empty(len(ends))
    sweeps = np.full(len(ends), config.max_sweeps)
    converged = np.zeros(len(ends), dtype=bool)
    active = np.arange(len(ends))
    a, ap, b, bp, c, cp = ends.transpose(1, 0, 2)
    prev = bilinear_value(t, a, ap, b, bp, c, cp)
    for sweep in range(1, config.max_sweeps + 1):
        b, bp = update_b_pair(t, a, ap, c, cp, previous=(b, bp))
        a, ap = update_a_pair(t, b, bp, c, cp, previous=(a, ap))
        c, cp, value = _update_c_with_value(t, a, ap, b, bp, previous=(c, cp))
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

    best = int(np.argmax(values))
    settings = MeasurementSettings(*ends[best].copy())
    return OracleResult(
        value=float(values[best]),
        settings=settings,
        sweeps_used=int(sweeps[best]),
        converged=bool(converged[best]),
    )
