"""Standard differentiable operators registered on the global tape registry.

Each operator is a pure forward function plus a backward rule mapping the
downstream gradient to per-input gradients.

The module-level helpers (``slice1d``, ``residual``, ...) are thin wrappers
around ``tape.apply`` so calling code reads like plain arithmetic.  The
library holds only what a recorded objective uses: slices of the flow
state, and the loss as two nodes, the stacked data misfit (``residual``)
and its squared norm (``sum_of_squares``).  The coefficient field is one
operator of :mod:`flowgrad.models`, its offset and floor clamp included.
Neither the flow residual nor the heat system is recorded; the solver
builds both on plain arrays.
"""

import numpy as np

from .errors import ContractError
from .tape import register_op

__all__ = ["slice1d", "residual", "sum_of_squares"]


# ---------------------------------------------------------------------------
# structural ops

def _slice1d_fwd(v, ctx):
    x = v[0]
    if x.ndim != 1:
        raise ContractError("op 'slice1d': expects a 1-d input")
    start, stop = ctx["start"], ctx["stop"]
    if not 0 <= start <= stop <= x.shape[0]:
        raise ContractError(f"op 'slice1d': range [{start}, {stop}) outside length {x.shape[0]}")
    ctx["n"] = x.shape[0]
    return x[start:stop].copy()


def _slice1d_bwd(g, ctx):
    out = np.zeros(ctx["n"])
    out[ctx["start"]:ctx["stop"]] = g
    return (out,)


# ---------------------------------------------------------------------------
# the data misfit

def _residual_fwd(v, ctx):
    idx, data = ctx["idx"], ctx["data"]
    if len(v) != len(data):
        raise ContractError(f"op 'residual': {len(v)} fields for "
                            f"{len(data)} data vectors")
    for x, d in zip(v, data):
        if x.ndim != 1 or d.shape != idx.shape:
            raise ContractError(
                f"op 'residual': expects 1-d fields and {idx.shape} data, "
                f"got {x.shape} and {d.shape}")
        if idx.size and not 0 <= idx.min() <= idx.max() < x.shape[0]:
            raise ContractError(
                f"op 'residual': locations [{idx.min()}, {idx.max()}] "
                f"outside length {x.shape[0]}")
    ctx["sizes"] = [x.shape[0] for x in v]
    return np.concatenate([x[idx] - d for x, d in zip(v, data)])


def _residual_bwd(g, ctx):
    idx = ctx["idx"]
    out = []
    for k, n in enumerate(ctx["sizes"]):
        gk = np.zeros(n)
        np.add.at(gk, idx, g[k * idx.size:(k + 1) * idx.size])
        out.append(gk)
    return tuple(out)


def _sum_of_squares_fwd(v, ctx):
    r = ctx["r"] = v[0]
    parts = ctx["parts"]
    if r.ndim != 1 or parts < 1 or r.size % parts:
        raise ContractError(f"op 'sum_of_squares': cannot split shape "
                            f"{r.shape} into {parts} equal parts")
    # each part summed on its own, and the sums added in order
    total = None
    for part in np.split(r, parts):
        term = (part * part).sum()
        total = term if total is None else total + term
    return np.array([total])


def _sum_of_squares_bwd(g, ctx):
    return (2.0 * ctx["r"] * g,)


register_op("slice1d", _slice1d_fwd, _slice1d_bwd)
register_op("residual", _residual_fwd, _residual_bwd)
register_op("sum_of_squares", _sum_of_squares_fwd, _sum_of_squares_bwd)


# ---------------------------------------------------------------------------
# tape-facing helpers

def slice1d(tape, a, start, stop):
    return tape.apply("slice1d", (a,), {"start": int(start), "stop": int(stop)})


def residual(tape, fields, locations, data):
    """``field[locations] - values`` for each field and its data vector in
    turn, stacked into one vector; the locations are shared."""
    return tape.apply("residual", tuple(fields),
                      {"idx": np.asarray(locations, dtype=np.intp),
                       "data": tuple(np.asarray(d, dtype=np.float64)
                                     for d in data)})


def sum_of_squares(tape, a, parts=1):
    """The sum of the squares of ``a``, split into ``parts`` equal parts:
    each part is summed on its own and the sums are added in order."""
    return tape.apply("sum_of_squares", (a,), {"parts": int(parts)})
