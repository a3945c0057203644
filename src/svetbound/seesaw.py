"""Alternating see-saw maximization of the Svetlichny expectation.

Each block update is exact: with the other parties fixed, the optimal pair of
unit vectors for one party is a normalized linear image of the correlation
tensor, so every update is monotone and the sweep limit is a safety cap, not
a tuning knob. Restarts guard against the rare poor basin.

All starts advance together, in place, on one contiguous (3, 2R) float block
per party whose columns interleave each start's x_r and x'_r. The block's
complex view is x + ix', so its conjugate x - ix' and (1 + i) times that
conjugate, (x + x') + i(x - x'), are exact factors: an update takes the first
from one fixed party and the second from the other, and one matmul of a 3x9
layout of the tensor against their outer product gives the free party's two
images already in the block layout. A start stops once its own gain in a
sweep falls below CONVERGENCE_TOL: from then on its columns are frozen (the
updates skip them), so its vectors, its value and its sweep count are the
ones it stopped with, and each start ends where it would end alone. The
seeded starts depend only on (restarts, seed); they are drawn once, kept
read-only in a small cache, and copied per call.

The public update functions are adapters over the same routine and broadcast
over a leading axis, so single (3,) vectors work as well. The see-saw runs
B's update through update_b_pair, once per sweep, on (R, 3) views of the
blocks, and copies the result back into B's block.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .svetlichny import MeasurementSettings, correlation_matrix

# An update image shorter than this keeps the party's previous vector.
DEGENERATE_DIRECTION_TOL = 1e-12
# A start stops once its value gains less than this in one sweep.
CONVERGENCE_TOL = 1e-12
# Starts are allocated up front as R x 6 x 3 floats: 100 000 starts take 14 MB.
MAX_RESTARTS = 100_000
# Start blocks kept for distinct (restarts, seed) pairs, each at most 14 MB.
START_CACHE_SIZE = 4

# Axis orders of t that leave party A, B or C free: rows of the (9, 3) layout
# run over 3 * (z index) + (w index), columns over the free party's index.
_LAYOUT_AXES = ((2, 1, 0), (0, 2, 1), (0, 1, 2))
_TWIST = 1.0 + 1.0j


def correlation_tensor(m: np.ndarray) -> np.ndarray:
    """Reshape a 3x9 correlation matrix to t[i, j, k] = m[j, 3i + k]."""
    return np.ascontiguousarray(np.asarray(m, dtype=float).reshape(3, 3, 3).transpose(1, 0, 2))


def _layout(t: np.ndarray, party: int) -> np.ndarray:
    """The (3, 9) matrix that maps an outer product z w^T to party ``party``'s images."""
    return t.transpose(_LAYOUT_AXES[party]).reshape(9, 3).T


def _conj(block: np.ndarray) -> np.ndarray:
    """z = x - ix' for a C-contiguous (3, 2N) block, as (3, N) complex."""
    return np.conj(block.view(complex))


def _images(layout: np.ndarray, z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Both unnormalized images of the free party, as a (3, 2N) block.

    The images are t contracted with x(y + y') + x'(y - y') and with
    x(y - y') - x'(y + y'): the real and imaginary parts of t contracted with
    z w, where z = x - ix' and w = (1 + i)(y - iy') = y + y' + i(y - y').
    """
    outer = np.multiply(z[:, None], w[None], order="C")
    return layout @ outer.reshape(9, -1).view(float)


def _update(layout, z, w, out, live=True) -> np.ndarray:
    """Normalize the images into ``out`` in place and return the raw images.

    A column whose image is shorter than DEGENERATE_DIRECTION_TOL, or that
    ``live`` leaves out, keeps the vector ``out`` holds.
    """
    images = _images(layout, z, w)
    norms = np.sqrt(np.add.reduce(images * images, axis=0))
    np.divide(images, norms, out=out, where=(norms > DEGENERATE_DIRECTION_TOL) & live)
    return images


def _value(c: np.ndarray, images: np.ndarray) -> np.ndarray:
    """The expectation per start: c and c' against C's raw images, summed over axis 0."""
    terms = c * images
    return np.add.reduce(terms[:, 0::2] + terms[:, 1::2], axis=0)


def _block(x, xp) -> np.ndarray:
    """Two (..., 3) vector stacks as one (3, 2N) block, x and x' interleaved."""
    return np.ascontiguousarray(np.array((x, xp), dtype=float).reshape(2, -1, 3).T).reshape(3, -1)


def _pair_update(t, party, x, xp, y, yp, previous):
    """Party ``party``'s updated pair from the z pair (x, x') and the w pair (y, y')."""
    out = _block(*previous)
    _update(_layout(t, party), _conj(_block(x, xp)), _TWIST * _conj(_block(y, yp)), out)
    shape = np.shape(previous[0])
    return out[:, 0::2].T.reshape(shape), out[:, 1::2].T.reshape(shape)


def bilinear_value(t, a, ap, b, bp, c, cp):
    """Svetlichny expectation from the correlation tensor and raw vectors.

    A float for single vectors; one value per row for (R, 3) blocks.
    """
    images = _images(_layout(t, 2), _conj(_block(a, ap)), _TWIST * _conj(_block(b, bp)))
    value = _value(_block(c, cp), images)
    return float(value[0]) if np.ndim(a) == 1 else value.reshape(np.shape(a)[:-1])


def update_a_pair(t, b, bp, c, cp, previous):
    return _pair_update(t, 0, c, cp, b, bp, previous)


def update_b_pair(t, a, ap, c, cp, previous):
    return _pair_update(t, 1, a, ap, c, cp, previous)


def update_c_pair(t, a, ap, b, bp, previous):
    return _pair_update(t, 2, a, ap, b, bp, previous)


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


def _party_blocks(starts: np.ndarray) -> np.ndarray:
    """(R, 6, 3) starts as a (3, 3, 2R) array: per party, x_r and x'_r in columns 2r and 2r + 1."""
    restarts = len(starts)
    return np.ascontiguousarray(starts.reshape(restarts, 3, 2, 3).transpose(1, 3, 0, 2)).reshape(3, 3, 2 * restarts)


@functools.lru_cache(maxsize=START_CACHE_SIZE)
def _cached_start_blocks(restarts: int, seed: int) -> np.ndarray:
    blocks = _party_blocks(_starts(restarts, seed))
    blocks.flags.writeable = False
    return blocks


def _start_blocks(restarts: int, seed: int) -> np.ndarray:
    """The party blocks of ``_starts(restarts, seed)``, as a fresh writable array."""
    return _cached_start_blocks(restarts, seed).copy()


def _pair(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A (3, 2N) block as its (N, 3) stacks x and x', views into the block."""
    return block[:, 0::2].T, block[:, 1::2].T


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
    lay_a, lay_c = _layout(t, 0), _layout(t, 2)
    blocks = _start_blocks(config.restarts, config.seed)
    a, b, c = blocks
    prev = _value(c, _images(lay_c, _conj(a), _TWIST * _conj(b)))
    # Sweeps each start has begun: a start that stops at sweep s reads s, and
    # one still running after the last sweep reads max_sweeps + 1 until capped.
    sweeps = np.ones(config.restarts, dtype=int)
    # (R, 3) views into the blocks, which are updated in place.
    a_pair, b_pair, c_pair = _pair(a), _pair(b), _pair(c)
    live = keep = True
    for _ in range(config.max_sweeps):
        # B's update runs through update_b_pair, once per sweep: bench/spans.py
        # counts sweeps there. Its pair is copied into the running starts' rows.
        new_b = update_b_pair(t, *a_pair, *c_pair, previous=b_pair)
        for stack, new in zip(b_pair, new_b):
            np.copyto(stack, new, where=keep)
        # B's twisted conjugate serves A's update and C's.
        wb = _TWIST * _conj(b)
        _update(lay_a, _conj(c), wb, a, live)
        value = _value(c, _update(lay_c, _conj(a), wb, c, live))
        # A stopped start is frozen, so its value repeats exactly and it stays stopped.
        done = value - prev < CONVERGENCE_TOL
        prev = value
        if done.all():
            break
        running = ~done
        sweeps += running
        live, keep = np.repeat(running, 2), running[:, None]

    best = int(np.argmax(prev))
    settings = MeasurementSettings(*blocks[:, :, 2 * best : 2 * best + 2].transpose(0, 2, 1).reshape(6, 3))
    return OracleResult(
        value=float(prev[best]),
        settings=settings,
        sweeps_used=min(int(sweeps[best]), config.max_sweeps),
        converged=bool(done[best]),
    )
