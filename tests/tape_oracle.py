"""Test-local tape operators, and F(x, nu) and the heat solve recorded
with them.

The package records neither the flow residual nor the heat system: the
solver builds both on plain arrays, and its ``steady_flow`` and
``heat_solve`` operators write their backward rules out by hand.  The
operators here let a test record F, or the heat system and its solve, op
by op instead and take the gradients from the tape, as an oracle for the
solver; ``spmv_fixed`` records the products with the constant divergence
and pressure-gradient matrices of F.  ``mlp`` is the network operator that
keeps its activations, an oracle for the package's, which recomputes them.
Tests also use ``dot`` for weighted-sum losses.  Every operator is
registered under an ``oracle.`` name, so the package's own registry checks
leave them out.
"""

import numpy as np

from flowgrad import kernels, ops
from flowgrad.assembly import constraint_plan
from flowgrad.errors import ContractError, NumericError
from flowgrad.ops import _bcast_shape, _reduce_to
from flowgrad.sparse import LinearSolveCounts, LuFactors
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


def _spmv_fixed_fwd(v, ctx):
    x = v[0]
    a = ctx["matrix"]
    if x.shape != (a.shape[1],):
        raise ContractError(f"op 'oracle.spmv_fixed': vector length "
                            f"{x.shape} != n_cols {a.shape[1]}")
    return a @ x


def _spmv_fixed_bwd(g, ctx):
    return (ctx["matrix"].T @ g,)


def _spmv_pattern_fwd(v, ctx):
    data, x = v
    ctx["data"], ctx["x"] = data, x
    return ctx["pattern"].to_scipy(data) @ x


def _spmv_pattern_bwd(g, ctx):
    pattern = ctx["pattern"]
    gx = pattern.to_scipy(ctx["data"]).T @ g
    gdata = g[pattern.entry_rows()] * ctx["x"][pattern.indices]
    return gdata, gx


def _diffusion_block_fwd(v, ctx):
    return ctx["gops"].diffusion(v[0])


def _diffusion_block_bwd(g, ctx):
    return (ctx["gops"].diffusion_bwd(g),)


def _convection_block_fwd(v, ctx):
    return ctx["gops"].convection(*v)


def _convection_block_bwd(g, ctx):
    gops = ctx["gops"]
    guq, gvq = kernels.advection_bwd(gops.gather(g), gops.wdet, gops.n_tab,
                                     gops.dndx_tab, gops.dndy_tab)
    return (gops.quad_to_nodal(guq, gops.n_tab),
            gops.quad_to_nodal(gvq, gops.n_tab))


def _constrain_fwd(v, ctx):
    data, rhs = v
    plan, vals = ctx["plan"], ctx["vals"]
    d, r = data.copy(), rhs.copy()
    if plan.col_entries.size:
        moved = d[plan.col_entries] * vals[plan.col_slot]
        r -= np.bincount(plan.col_rows, weights=moved, minlength=r.size)
    d[plan.col_entries] = 0.0
    d[plan.row_entries] = 0.0
    d[plan.diag_pos] = 1.0
    r[plan.idx] = vals
    return np.concatenate([d, r])


def _constrain_bwd(g, ctx):
    plan, vals = ctx["plan"], ctx["vals"]
    nnz = g.size - ctx["n"]
    gd_out, gr_out = g[:nnz], g[nnz:]
    gd = gd_out.copy()
    gd[plan.row_entries] = 0.0
    if plan.col_entries.size:
        gd[plan.col_entries] = -vals[plan.col_slot] * gr_out[plan.col_rows]
    gr = gr_out.copy()
    gr[plan.idx] = 0.0
    return gd, gr


def _sparse_solve_fwd(v, ctx):
    data, b = v
    matrix = ctx["pattern"].to_scipy(data)
    lu = LuFactors(matrix, LinearSolveCounts())
    x = lu.solve(b, matrix)
    if not np.all(np.isfinite(x)):
        raise NumericError("oracle.sparse_solve produced non-finite solution")
    ctx["matrix"], ctx["x"], ctx["lu"] = matrix, x, lu
    return x


def _sparse_solve_bwd(g, ctx):
    pattern, matrix = ctx["pattern"], ctx["matrix"]
    lu = ctx.pop("lu", None) or LuFactors(matrix, LinearSolveCounts())
    lam = lu.solve_transpose(g, matrix)
    gdata = -lam[pattern.entry_rows()] * ctx["x"][pattern.indices]
    return gdata, lam


def _mlp_fwd(v, ctx):
    theta = ctx["theta"] = v[0]
    *inner, last = ctx["layout"].slices()
    h = ctx["points"]
    hidden = ctx["hidden"] = []
    for w0, w1, b1, fi, fo in inner:
        z = h @ theta[w0:w1].reshape(fi, fo)
        z += theta[w1:b1]
        h = np.tanh(z, out=z)
        hidden.append(h)
    w0, w1, b1, fi, fo = last
    z = h @ theta[w0:w1].reshape(fi, fo)
    z += theta[w1:b1]
    return z.reshape(-1)


def _mlp_bwd(g, ctx):
    theta, layout = ctx["theta"], ctx["layout"]
    inputs = [ctx["points"], *ctx["hidden"]]
    out = np.zeros(theta.shape)
    g = g.reshape(-1, 1)
    for l, (w0, w1, b1, fi, fo) in reversed(list(enumerate(layout.slices()))):
        h = inputs[l]
        out[w1:b1] += g.sum(axis=0)
        out[w0:w1] += (h.T @ g).ravel()
        if l:
            g = g @ theta[w0:w1].reshape(fi, fo).T
            g = g * (1.0 - h * h)
    return (out,)


register_op("oracle.div", _div_fwd, _div_bwd)
register_op("oracle.dot", _dot_fwd, _dot_bwd)
register_op("oracle.concat1d", _concat1d_fwd, _concat1d_bwd)
register_op("oracle.set_at", _set_at_fwd, _set_at_bwd)
register_op("oracle.spmv_fixed", _spmv_fixed_fwd, _spmv_fixed_bwd)
register_op("oracle.spmv_pattern", _spmv_pattern_fwd, _spmv_pattern_bwd)
register_op("oracle.diffusion_block", _diffusion_block_fwd,
            _diffusion_block_bwd)
register_op("oracle.convection_block", _convection_block_fwd,
            _convection_block_bwd)
register_op("oracle.constrain_system", _constrain_fwd, _constrain_bwd)
register_op("oracle.sparse_solve", _sparse_solve_fwd, _sparse_solve_bwd)
register_op("oracle.mlp", _mlp_fwd, _mlp_bwd)


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


def spmv_fixed(tape, matrix, x):
    """``y = A x`` for a constant scipy sparse matrix A, with gradients to
    ``x`` only."""
    return tape.apply("oracle.spmv_fixed", (x,), {"matrix": matrix.tocsr()})


def spmv_pattern(tape, pattern, data, x):
    """``y = A x`` for A with ``data`` on ``pattern``, with gradients to both
    the matrix data and ``x``."""
    return tape.apply("oracle.spmv_pattern", (data, x), {"pattern": pattern})


def diffusion_block(tape, gops, coef):
    """The stiffness data K(coef) of a grid's operators."""
    return tape.apply("oracle.diffusion_block", (coef,), {"gops": gops})


def convection_block(tape, gops, u, v):
    """The advection data C(u, v) of a grid's operators."""
    return tape.apply("oracle.convection_block", (u, v), {"gops": gops})


def constrain_system(tape, plan, data, rhs, vals):
    """(constrained data, constrained rhs) of a :class:`ConstraintPlan`
    imposed on ``data`` and ``rhs``, recorded as one node and two slices."""
    n = tape.value(rhs).size
    packed = tape.apply("oracle.constrain_system", (data, rhs),
                        {"plan": plan, "vals": np.asarray(vals, dtype=float),
                         "n": n})
    nnz = tape.value(data).size
    return (ops.slice1d(tape, packed, 0, nnz),
            ops.slice1d(tape, packed, nnz, nnz + n))


def sparse_solve(tape, pattern, data, b):
    """``x = A^-1 b`` for A with ``data`` on ``pattern``; the backward gives
    ``lam = A^-T g`` to ``b`` and ``-lam_i x_j`` to the entry (i, j)."""
    return tape.apply("oracle.sparse_solve", (data, b), {"pattern": pattern})


def mlp(tape, layout, theta, points):
    """The network as one node that keeps its three hidden tanh outputs for
    its backward rule, where the package's ``mlp`` node recomputes them."""
    return tape.apply("oracle.mlp", (theta,),
                      {"layout": layout, "points": points})


def record_residual(tape, setup, nu, u, v, p):
    """F(x, nu) of a flow setup recorded op by op, Dirichlet rows zeroed.

    Returns the residual node and the nodes of C(u, v), K(nu) and the
    pressure stabilization S(beta h^2 / nu).
    """
    gops = setup.gops
    pat = gops.pattern
    c_ref = convection_block(tape, gops, u, v)
    k_ref = diffusion_block(tape, gops, nu)
    coef = div(tape, tape.constant(np.full(setup.n, setup.stab_coef)), nu)
    stab_ref = diffusion_block(tape, gops, coef)
    parts = []
    for w, grad_m in ((u, setup.gx_m), (v, setup.gy_m)):
        f = ops.add(tape, spmv_pattern(tape, pat, c_ref, w),
                    spmv_pattern(tape, pat, k_ref, w))
        parts.append(ops.add(tape, f, spmv_fixed(tape, grad_m, p)))
    fp = ops.add(tape, spmv_fixed(tape, setup.dx, u),
                 spmv_fixed(tape, setup.dy, v))
    parts.append(ops.add(tape, fp,
                         spmv_pattern(tape, pat, stab_ref, p)))
    zeros = tape.constant(np.zeros(setup.cidx.size))
    res = set_at(tape, concat1d(tape, parts), setup.cidx, zeros)
    return res, (c_ref, k_ref, stab_ref)


def record_heat(tape, gops, u, v, k, rho_cp, load, bc):
    """The heat temperature recorded op by op, in the grid's node order:
    rho Cp C(u, v) + K(k) on the tape, gathered into the node order
    (``gops.node_layout``), the walls of the ``DirichletSpec`` ``bc``
    imposed there, the solve, and the temperature gathered back.

    The wall values are read off a nodal field of them at the plan's rows,
    so they come in the plan's row order, not in ``bc``'s node order."""
    pattern, slot, order = gops.node_layout()
    plan = constraint_plan(pattern, order.inverse[bc.idx])
    walls = np.zeros(gops.n_nodes)
    walls[bc.idx] = bc.vals
    data = ops.add(tape, ops.scale(tape, convection_block(tape, gops, u, v),
                                   rho_cp),
                   diffusion_block(tape, gops, k))
    data = ops.gather(tape, data, np.argsort(slot))
    data_c, rhs_c = constrain_system(tape, plan, data,
                                     tape.constant(load[order.perm]),
                                     walls[order.perm][plan.idx])
    temp = sparse_solve(tape, pattern, data_c, rhs_c)
    return ops.gather(tape, temp, order.inverse)
