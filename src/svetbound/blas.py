"""The OpenBLAS libraries loaded in this process, and their thread counts.

A library is found by its file name among the mapped files that
/proc/self/maps lists, and is driven through the thread-count entry points it
exports: numpy's wheels export the first setter, scipy's the second.
"""

from __future__ import annotations

import ctypes
import os
import re
from collections.abc import Iterable

MAPS_PATH = "/proc/self/maps"

# Threaded BLAS libraries, by file name, and the OpenBLAS setters that pin them.
_BLAS_LIBRARY = re.compile(r"^lib(?:\w*openblas|mkl|blis)")
_OPENBLAS_SETTERS = (
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)

Pins = tuple[tuple[str, str], ...]


def openblas_pins(maps: Iterable[str]) -> Pins | None:
    """(library path, thread-count setter) of every threaded BLAS among the lines of /proc/self/maps.

    None when a listed BLAS (OpenBLAS, MKL or BLIS) cannot be opened or has no
    OpenBLAS setter to pin it with.
    """
    paths = {parts[5].strip() for parts in (line.split(maxsplit=5) for line in maps) if len(parts) == 6}
    pins = []
    for path in sorted(p for p in paths if _BLAS_LIBRARY.search(os.path.basename(p))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            return None
        setter = next((name for name in _OPENBLAS_SETTERS if hasattr(lib, name)), None)
        if setter is None:
            return None
        pins.append((path, setter))
    return tuple(pins)


def loaded_openblas() -> Pins | None:
    """``openblas_pins`` of the libraries loaded now; None also when they cannot be listed."""
    try:
        with open(MAPS_PATH) as fh:
            return openblas_pins(fh)
    except OSError:
        return None


def thread_counts(pins: Pins) -> list[int]:
    """Thread count of every library in ``pins``, read through its getter."""
    counts = []
    for path, setter in pins:
        getter = getattr(ctypes.CDLL(path), setter.replace("_set_", "_get_"))
        getter.restype = ctypes.c_int
        counts.append(getter())
    return counts


def set_threads(pins: Pins, count: int) -> None:
    """Every library in ``pins`` runs on ``count`` threads."""
    for path, setter in pins:
        fn = getattr(ctypes.CDLL(path), setter)
        fn.argtypes, fn.restype = [ctypes.c_int], None
        fn(count)
