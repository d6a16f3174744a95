"""Standard differentiable operators registered on the global tape registry.

Each operator is a pure forward function plus a backward rule mapping the
downstream gradient to per-input gradients.  Elementwise binary operators
accept equal shapes or a shape-``(1,)`` scalar on either side; the backward
rule sums the gradient back down to the scalar.

The module-level helpers (``add``, ``vsum``, ...) are thin wrappers around
``tape.apply`` so calling code reads like plain arithmetic.  The library
holds only what a recorded objective uses: the model's offset and clamp,
slices of the flow state, the transport relaxation and the loss.  Neither
the flow residual nor the heat system is recorded; the solver builds both
on plain arrays.
"""

import numpy as np

from .errors import ContractError
from .tape import register_op

__all__ = [
    "add", "sub", "scale", "add_scalar",
    "vsum", "clamp_min", "square",
    "slice1d", "gather",
]


def _bcast_shape(a, b, op):
    if a.shape == b.shape:
        return a.shape
    if a.shape == (1,):
        return b.shape
    if b.shape == (1,):
        return a.shape
    raise ContractError(f"op {op!r}: shapes {a.shape} and {b.shape} do not broadcast")


def _reduce_to(g, shape):
    if g.shape == shape:
        return g
    if shape == (1,):
        return np.array([g.sum()])
    raise ContractError(f"cannot reduce gradient {g.shape} to {shape}")


# ---------------------------------------------------------------------------
# elementwise arithmetic

def _add_fwd(v, ctx):
    a, b = v
    _bcast_shape(a, b, "add")
    return a + b


def _add_bwd(g, ctx):
    return _reduce_to(g, ctx["sa"]), _reduce_to(g, ctx["sb"])


def _sub_fwd(v, ctx):
    a, b = v
    _bcast_shape(a, b, "sub")
    return a - b


def _sub_bwd(g, ctx):
    return _reduce_to(g, ctx["sa"]), _reduce_to(-g, ctx["sb"])


def _scale_fwd(v, ctx):
    return ctx["c"] * v[0]


def _scale_bwd(g, ctx):
    return (ctx["c"] * g,)


def _add_scalar_fwd(v, ctx):
    return v[0] + ctx["c"]


def _add_scalar_bwd(g, ctx):
    return (g,)


def _square_fwd(v, ctx):
    ctx["x"] = v[0]
    return v[0] * v[0]


def _square_bwd(g, ctx):
    return (2.0 * ctx["x"] * g,)


# ---------------------------------------------------------------------------
# reductions and clamping

def _vsum_fwd(v, ctx):
    ctx["shape"] = v[0].shape
    return np.array([v[0].sum()])


def _vsum_bwd(g, ctx):
    return (np.full(ctx["shape"], g[0]),)


def _clamp_min_fwd(v, ctx):
    x = v[0]
    floor = ctx["floor"]
    mask = x >= floor
    ctx["mask"] = mask
    ctx["clamped"] = int(x.size - mask.sum())
    return np.where(mask, x, floor)


def _clamp_min_bwd(g, ctx):
    return (np.where(ctx["mask"], g, 0.0),)


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


def _gather_fwd(v, ctx):
    x = v[0]
    idx = ctx["idx"]
    if x.ndim != 1:
        raise ContractError("op 'gather': expects a 1-d input")
    ctx["n"] = x.shape[0]
    return x[idx].copy()


def _gather_bwd(g, ctx):
    out = np.zeros(ctx["n"])
    np.add.at(out, ctx["idx"], g)
    return (out,)


register_op("add", _add_fwd, _add_bwd)
register_op("sub", _sub_fwd, _sub_bwd)
register_op("scale", _scale_fwd, _scale_bwd)
register_op("add_scalar", _add_scalar_fwd, _add_scalar_bwd)
register_op("square", _square_fwd, _square_bwd)
register_op("vsum", _vsum_fwd, _vsum_bwd)
register_op("clamp_min", _clamp_min_fwd, _clamp_min_bwd)
register_op("slice1d", _slice1d_fwd, _slice1d_bwd)
register_op("gather", _gather_fwd, _gather_bwd)


# ---------------------------------------------------------------------------
# tape-facing helpers

def add(tape, a, b):
    ctx = {"sa": tape.value(a).shape, "sb": tape.value(b).shape}
    return tape.apply("add", (a, b), ctx)


def sub(tape, a, b):
    ctx = {"sa": tape.value(a).shape, "sb": tape.value(b).shape}
    return tape.apply("sub", (a, b), ctx)


def scale(tape, a, c):
    return tape.apply("scale", (a,), {"c": float(c)})


def add_scalar(tape, a, c):
    return tape.apply("add_scalar", (a,), {"c": float(c)})


def square(tape, a):
    return tape.apply("square", (a,))


def vsum(tape, a):
    return tape.apply("vsum", (a,))


def clamp_min(tape, a, floor):
    """Clamp from below; the node's ctx reports how many entries were clamped."""
    return tape.apply("clamp_min", (a,), {"floor": float(floor)})


def slice1d(tape, a, start, stop):
    return tape.apply("slice1d", (a,), {"start": int(start), "stop": int(stop)})


def gather(tape, a, idx):
    return tape.apply("gather", (a,), {"idx": np.asarray(idx, dtype=np.intp)})
