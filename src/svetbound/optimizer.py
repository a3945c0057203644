"""scipy's ``minimize``, imported on its first call.

Importing scipy.optimize costs more than the rest of the package together,
and only the box search for non-X states calls it, which neither state
family reaches. ``scan`` binds this ``minimize`` under its own name, so
replacing ``scan.minimize`` still intercepts every call.

scipy's import loads its own OpenBLAS, on the thread count the environment
gives it. Right after the import, each OpenBLAS it loaded is set to the
fewest threads an OpenBLAS loaded before it runs, in practice numpy's. A
process that pinned numpy's BLAS, as ``cli.main`` does, stays pinned; any
other keeps what its environment gave both libraries.
"""

from __future__ import annotations

import functools

from .blas import loaded_openblas, set_threads, thread_counts


def minimize(*args, **kwargs):
    """``scipy.optimize.minimize(*args, **kwargs)``."""
    return _scipy_minimize()(*args, **kwargs)


@functools.cache
def _scipy_minimize():
    before = loaded_openblas() or ()
    from scipy.optimize import minimize

    known = {path for path, _ in before}
    loaded = tuple(pin for pin in loaded_openblas() or () if pin[0] not in known)
    if before and loaded:
        set_threads(loaded, min(thread_counts(before)))
    return minimize
