"""Numba acceleration switch for the hot assembly kernels.

The element-loop kernels in :mod:`flowgrad.kernels` exist twice: a numba
``@njit`` version and a vectorized pure-numpy fallback.  Which one the package
uses is decided once at import time:

* ``FLOWGRAD_NO_NUMBA=1`` forces the numpy fallback even when numba is
  installed (useful for debugging and for the benchmark in ``benchmarks/``).
* If numba is missing the fallback is selected silently.
"""

import os

_TRUTHY = ("1", "true", "yes", "on")


def _env_flag(name):
    return os.environ.get(name, "").strip().lower() in _TRUTHY


NUMBA_REQUESTED = not _env_flag("FLOWGRAD_NO_NUMBA")

try:
    import numba

    HAS_NUMBA = True
except ImportError:  # numba is the optional `numba` extra
    numba = None
    HAS_NUMBA = False

USE_NUMBA = HAS_NUMBA and NUMBA_REQUESTED


def njit(func):
    """Apply ``numba.njit`` when acceleration is active, else return ``func``."""
    if USE_NUMBA:
        return numba.njit(cache=True)(func)
    return func
