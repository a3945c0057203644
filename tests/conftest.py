import contextlib

import numpy as np
import pytest

from svetbound.blas import set_threads, thread_counts
from svetbound.cli import _blas_pins


def random_density(rng: np.random.Generator, dim: int = 8) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / rho.trace()


def random_psd_2x2(rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    f = g @ g.conj().T
    return f / np.abs(f).max()


def random_su2(rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(42)


def _blas_pins_found() -> tuple[tuple[str, str], ...]:
    pins = _blas_pins()
    assert pins, "no OpenBLAS setter found among the loaded libraries"
    return pins


def openblas_threads() -> list[int]:
    """Thread count of every loaded OpenBLAS, read through its getter."""
    return thread_counts(_blas_pins_found())


@contextlib.contextmanager
def openblas_threads_set(count: int):
    """Every loaded OpenBLAS on ``count`` threads inside the block; the old counts restored after it."""
    pins = _blas_pins_found()
    before = thread_counts(pins)
    set_threads(pins, count)
    try:
        yield
    finally:
        for pin, old in zip(pins, before):
            set_threads((pin,), old)
