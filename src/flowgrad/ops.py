"""The data misfit, the one operator of the loss, registered on the global
tape registry.

An operator is a pure forward function plus a backward rule mapping the
downstream gradient to per-input gradients; ``misfit`` is a thin wrapper
around ``tape.apply`` so calling code reads like plain arithmetic.  The
coefficient field is one operator of :mod:`flowgrad.models`, its offset
and floor clamp included, and the flow and heat solves are operators of
:mod:`flowgrad.solver`, so an objective records the field, the solve and
the misfit.  The misfit reads each predicted field in place, as a window
of a tape node: the flow state [u; v; p] holds three.
"""

import numpy as np

from .errors import ContractError
from .tape import register_op

__all__ = ["misfit"]


def _misfit_fwd(v, ctx):
    idx, data, size = ctx["idx"], ctx["data"], ctx["size"]
    windows = ctx["windows"]
    if not windows or len(windows) != len(data):
        raise ContractError(f"op 'misfit': {len(windows)} fields for "
                            f"{len(data)} data vectors")
    if idx.size and not 0 <= idx.min() <= idx.max() < size:
        raise ContractError(
            f"op 'misfit': locations [{idx.min()}, {idx.max()}] outside "
            f"length {size}")
    # each field's squares are summed on their own, and the sums added in
    # field order
    total, ctx["r"] = None, []
    for (k, start), d in zip(windows, data):
        x = v[k]
        if (x.ndim != 1 or not 0 <= start <= x.shape[0] - size
                or d.shape != idx.shape):
            raise ContractError(
                f"op 'misfit': expects the window [{start}, {start + size}) "
                f"of a 1-d field and {idx.shape} data, got {x.shape} and "
                f"{d.shape}")
        r = x[start + idx] - d
        ctx["r"].append(r)
        term = (r * r).sum()
        total = term if total is None else total + term
    ctx["sizes"] = [x.shape[0] for x in v]
    return np.array([total])


def _misfit_bwd(g, ctx):
    idx = ctx["idx"]
    out = [np.zeros(n) for n in ctx["sizes"]]
    for (k, start), r in zip(ctx["windows"], ctx["r"]):
        np.add.at(out[k][start:start + ctx["size"]], idx, 2.0 * r * g)
    return tuple(out)


register_op("misfit", _misfit_fwd, _misfit_bwd)


def misfit(tape, windows, size, locations, data):
    """Sum over the fields of sum_i (field[locations_i] - data_i)^2.

    Each field is a window ``(ref, start)``: the ``size`` entries of the
    node ``ref`` from ``start`` on, which the locations index; several
    windows may share a node.  The locations are shared, and each window
    has one data vector."""
    refs = list(dict.fromkeys(ref for ref, _ in windows))
    return tape.apply("misfit", refs, {
        "windows": [(refs.index(ref), int(start)) for ref, start in windows],
        "size": int(size), "idx": np.asarray(locations, dtype=np.intp),
        "data": [np.asarray(d, dtype=np.float64) for d in data]})
