"""Kept only for the benchmark harness, which imports it.

The element kernels in :mod:`flowgrad.kernels` have a single matrix-product
form, so there is nothing to accelerate or switch.  ``perfbench/harness.py``
still records ``accel.USE_NUMBA`` in every result file; this module goes
once the harness stops reading it.
"""

USE_NUMBA = False
