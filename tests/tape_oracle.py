"""Test-local tape operators, and F(x, nu) recorded with them.

The package does not record the flow residual: the solver linearizes it
on plain arrays and writes (dF/dnu)^T lam out by hand.  The operators here
let a test record F op by op instead and take that product from the tape,
as an oracle for the solver.  Tests also use ``dot`` for weighted-sum
losses.  Every operator is registered under an ``oracle.`` name, so the
package's own registry checks leave them out.
"""

import numpy as np

from flowgrad import ops
from flowgrad.errors import ContractError
from flowgrad.ops import _bcast_shape, _reduce_to
from flowgrad.sparse import SparseBlock, spmv_fixed
from flowgrad.tape import register_op


def _div_fwd(v, ctx):
    a, b = v
    _bcast_shape(a, b, "oracle.div")
    ctx["a"], ctx["b"] = a, b
    return a / b


def _div_bwd(g, ctx):
    a, b = ctx["a"], ctx["b"]
    return _reduce_to(g / b, a.shape), _reduce_to(-g * a / (b * b), b.shape)


def _dot_fwd(v, ctx):
    a, b = v
    if a.shape != b.shape or a.ndim != 1:
        raise ContractError(f"op 'oracle.dot': expects equal 1-d shapes, got "
                            f"{a.shape} and {b.shape}")
    ctx["a"], ctx["b"] = a, b
    return np.array([a @ b])


def _dot_bwd(g, ctx):
    return g[0] * ctx["b"], g[0] * ctx["a"]


def _concat1d_fwd(v, ctx):
    ctx["sizes"] = [x.shape[0] for x in v]
    return np.concatenate(v)


def _concat1d_bwd(g, ctx):
    out, at = [], 0
    for n in ctx["sizes"]:
        out.append(g[at:at + n].copy())
        at += n
    return tuple(out)


def _set_at_fwd(v, ctx):
    x, vals = v
    out = x.copy()
    out[ctx["idx"]] = vals
    return out


def _set_at_bwd(g, ctx):
    idx = ctx["idx"]
    gx = g.copy()
    gx[idx] = 0.0
    return gx, g[idx].copy()


def _spmv_pattern_fwd(v, ctx):
    data, x = v
    ctx["data"], ctx["x"] = data, x
    return ctx["pattern"].to_scipy(data) @ x


def _spmv_pattern_bwd(g, ctx):
    pattern = ctx["pattern"]
    gx = pattern.to_scipy(ctx["data"]).T @ g
    gdata = g[pattern.entry_rows()] * ctx["x"][pattern.indices]
    return gdata, gx


register_op("oracle.div", _div_fwd, _div_bwd)
register_op("oracle.dot", _dot_fwd, _dot_bwd)
register_op("oracle.concat1d", _concat1d_fwd, _concat1d_bwd)
register_op("oracle.set_at", _set_at_fwd, _set_at_bwd)
register_op("oracle.spmv_pattern", _spmv_pattern_fwd, _spmv_pattern_bwd)


def div(tape, a, b):
    return tape.apply("oracle.div", (a, b))


def dot(tape, a, b):
    return tape.apply("oracle.dot", (a, b))


def concat1d(tape, parts):
    return tape.apply("oracle.concat1d", tuple(parts))


def set_at(tape, a, idx, vals):
    """Copy ``a`` and overwrite the unique positions ``idx`` with ``vals``."""
    idx = np.asarray(idx, dtype=np.intp)
    if np.unique(idx).size != idx.size:
        raise ContractError("op 'oracle.set_at': duplicate indices")
    return tape.apply("oracle.set_at", (a, vals), {"idx": idx})


def spmv_pattern(tape, block, x):
    """``y = A x`` with gradients to both the matrix data and ``x``."""
    return tape.apply("oracle.spmv_pattern", (block.ref, x),
                      {"pattern": block.pattern})


def record_residual(tape, setup, nu, u, v, p):
    """F(x, nu) of a flow setup recorded op by op, Dirichlet rows zeroed.

    Returns the residual node and the nodes of C(u, v), K(nu) and the
    pressure stabilization S(beta h^2 / nu).
    """
    gops = setup.gops
    pat = gops.pattern
    c_ref = tape.apply("convection_block", (u, v), {"gops": gops})
    k_ref = tape.apply("diffusion_block", (nu,), {"gops": gops})
    coef = div(tape, tape.constant(np.full(setup.n, setup.stab_coef)), nu)
    stab_ref = tape.apply("diffusion_block", (coef,), {"gops": gops})
    parts = []
    for w, grad_m, load in ((u, setup.gx_m, setup.load_u),
                            (v, setup.gy_m, setup.load_v)):
        f = ops.add(tape, spmv_pattern(tape, SparseBlock(pat, c_ref), w),
                    spmv_pattern(tape, SparseBlock(pat, k_ref), w))
        f = ops.add(tape, f, spmv_fixed(tape, grad_m, p))
        if np.any(load):
            f = ops.sub(tape, f, tape.constant(load))
        parts.append(f)
    fp = ops.add(tape, spmv_fixed(tape, setup.dx, u),
                 spmv_fixed(tape, setup.dy, v))
    parts.append(ops.add(tape, fp,
                         spmv_pattern(tape, SparseBlock(pat, stab_ref), p)))
    zeros = tape.constant(np.zeros(setup.plan.idx.size))
    res = set_at(tape, concat1d(tape, parts), setup.plan.idx, zeros)
    return res, (c_ref, k_ref, stab_ref)
