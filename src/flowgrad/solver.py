"""Forward solvers recorded on the tape.

``newton_solve`` iterates x_{k+1} = x_k - J(x_k)^-1 F(x_k) for the coupled
[u; v; p] system, off the caller's tape.  What does not depend on the
viscosity or the state (the constant blocks, the system layout and order,
the constraint plan and the prescribed data: the lid-driven walls and the
pressure pin) is a ``FlowSetup(grid, lid_speed, constants, beta)``, which
the caller builds once and hands to every solve.  Each iterate is
linearized on plain arrays: the advection, stiffness and stabilization
blocks come from the assembly kernels, F from sparse matrix-vector
products, and J(x) is assembled from the same blocks.  The caller's tape
records one ``steady_flow`` operator from the viscosity to the converged
state [u; v; p], and nothing else: the data misfit reads u, v and p in
place (:mod:`flowgrad.ops`).  Its backward rule is the implicit-function
adjoint (physics-constrained learning; Xu & Darve, arXiv:2002.10521): one
transpose solve with J(x*) and one vector-Jacobian product (dF/dnu)^T lam,
which is the only derivative ever taken of F, written out by hand.  The
momentum Jacobian carries the full convection linearization: advection
C(u_k, v_k) plus the four reaction blocks from the iterate gradients.

A flow solve factorizes a Jacobian only when the factors it holds stop
working (a Shamanskii-style reuse with refresh; Kelley, *Iterative Methods
for Linear and Nonlinear Equations*, 1995).  Step 1 factorizes J(x_0).
Later steps solve with J(x_k), and the adjoint with J(x*)^T, by iterative
refinement against the factors held, to the same residual test as a direct
LU solve, so Newton stays a full Newton method.  When refinement stalls, as
it does at low viscosity where convection moves the Jacobian far from
J(x_0), the solver factorizes the current J(x_k) and re-anchors on it: those
factors serve the remaining steps and the adjoint.  A flow solve therefore
factorizes 1 + (its stalls) times.  J is assembled directly in the order it
is factorized in, the nested-dissection order of the grid
(``GridOperators.system_layout(3)``), so a Newton step takes F into that
order and its update out of it once, and the adjoint does the same with g
and lam; the refinement residuals b - J x are those of the ordered J.  The
factors keep no Jacobian: every solve names the one it refines against.

Continuity rows carry pressure stabilization (a pressure stiffness weighted
by beta h^2 / nu) so the equal-order discretization is solvable; the 1/nu
scaling keeps the divergence perturbation viscosity-independent, so the
large-viscosity solution approaches the Stokes solution.  The pressure gauge
is fixed by pinning node 0.

``heat_solve`` records the temperature of advection-diffusion in a frozen
flow as one ``heat_solve`` operator from the nodal conductivity, in the
same form: its forward assembles and factorizes the linear system on plain
arrays, in the grid's layout for one unknown per node
(``GridOperators.system_layout(1)``, in the flow's node order), and its
backward is one transpose solve with those factors.  Both solvers impose
their walls in one way, a Newton step from x0, the prescribed values at the
walls and zeros elsewhere (the flow's iterate, the heat's T0), with the
matrix of identity wall rows and columns
(``ConstraintPlan.identity_rows``).  The flow solves for the correction,
whose right-hand side is zero at the wall rows; the heat solve, a single
step, solves for T with the wall values at those rows, so its residual
test covers them.  What does not depend on the conductivity (the layout,
the wall constraints, the convection block of the frozen flow and the
load) is a :class:`HeatSetup`, built once by the caller, so an evaluation
assembles only K(k).  Both operators build their factors with the caller's
:class:`LinearSolveCounts`, which the factors fill.
"""

from dataclasses import dataclass, field

import numpy as np

from .assembly import constraint_plan, operators_for
from .errors import ContractError, NewtonDivergedError, NumericError
from .grid import cavity_velocity_bcs
from .sparse import LinearSolveCounts, LuFactors
from .tape import register_op

__all__ = [
    "PhysicsConstants",
    "NewtonConfig",
    "NSState",
    "FlowSetup",
    "HeatSetup",
    "ns_residual",
    "ns_jacobian",
    "newton_solve",
    "heat_solve",
]


@dataclass(frozen=True)
class PhysicsConstants:
    rho: float = 1.0
    cp: float = 1.0
    heat_source_q: float = 1.0

    def __post_init__(self):
        if self.rho <= 0 or self.cp <= 0:
            raise ContractError("rho and cp must be positive")


@dataclass(frozen=True)
class NewtonConfig:
    tol_residual: float = 1e-8
    max_iter: int = 10

    def __post_init__(self):
        if not (np.isfinite(self.tol_residual) and self.tol_residual > 0):
            raise ContractError(
                f"Newton tolerance must be finite and positive, got "
                f"{self.tol_residual!r}")
        if self.max_iter < 1:
            raise ContractError("Newton needs at least one iteration")


@dataclass
class NSState:
    """A flow on a tape: ``state``, the node of [u; v; p], the Newton
    iterations the solve spent and its residual trace."""

    state: int
    newton_iterations_used: int
    trace: list = field(default_factory=list)


class FlowSetup:
    """Constant matrices, the system layout and order, and the constraint
    plan of the lid-driven flow system on one grid with one lid speed, set
    of constants and stabilization weight ``beta``, shared read-only by
    every flow solve with those inputs.

    The walls are those of ``cavity_velocity_bcs`` and the pressure is
    pinned to 0 at node 0.  ``cidx`` and ``cvals`` are the constrained
    unknowns in the natural [u; v; p] order and their values; ``plan``
    constrains the system pattern, which is in the system order."""

    def __init__(self, grid, lid_speed, constants, beta):
        gops = operators_for(grid)
        self.gops = gops
        n = grid.n_nodes
        self.n = n
        self.sys_pattern, self.bmap, self.order = gops.system_layout(3)
        self.stab_coef = beta * grid.hx * grid.hy

        dx, dy, gx, gy = gops.divergence_blocks()
        to_scipy = gops.pattern.to_scipy
        self.gx_m = to_scipy(-(1.0 / constants.rho) * gx)
        self.gy_m = to_scipy(-(1.0 / constants.rho) * gy)
        self.dx = to_scipy(dx)
        self.dy = to_scipy(dy)
        # the pressure-gradient and divergence blocks of the Jacobian
        self.const_blocks = [
            (self.bmap[0][2], self.gx_m.data), (self.bmap[1][2], self.gy_m.data),
            (self.bmap[2][0], self.dx.data), (self.bmap[2][1], self.dy.data)]

        u_bc, v_bc = cavity_velocity_bcs(grid, lid_speed)
        cidx = np.concatenate([u_bc.idx, v_bc.idx + n, np.array([2 * n])])
        self.plan = constraint_plan(self.sys_pattern, self.order.inverse[cidx])
        self.cidx = cidx
        self.cvals = np.concatenate([u_bc.vals, v_bc.vals, [0.0]])


def ns_residual(setup, x, nu):
    """F(x) at the state x = [u; v; p] and nodal viscosity ``nu``, Dirichlet
    rows zeroed, as a plain array."""
    return _Linearization(setup, nu, x).f


def ns_jacobian(setup, x, nu):
    """Constrained Newton matrix J(x) at the state x = [u; v; p] and nodal
    viscosity ``nu``, as a scipy CSR matrix.

    This is the matrix the steady-flow adjoint solves with when ``x`` is a
    converged solution, in the natural [u; v; p] order with sorted indices;
    the solver assembles it in its system order.
    """
    inverse = setup.order.inverse
    matrix = _Linearization(setup, nu, x).jacobian()[inverse][:, inverse]
    matrix.sort_indices()
    return matrix


class _Linearization:
    """F(x, nu) at one state x = [u; v; p], and the blocks it is made of.

    All plain arrays: the CSR data of the advection block C(u, v), of the
    stiffness K(nu) and of the pressure stabilization S(beta h^2 / nu), and
    F with its Dirichlet rows zeroed:

        F = [C u + K u + Gx p;  C v + K v + Gy p;  Dx u + Dy v + S p].

    J(x) is assembled once from the same blocks, in the system order, which
    drops them; ``nu_vjp`` gives (dF/dnu)^T lam.  x, F and lam are in the
    natural order.  ``u``, ``v`` and ``p`` are views of ``x``, so ``x`` must
    not change while the linearization is in use.
    """

    def __init__(self, setup, nu, x):
        self.setup, self.nu = setup, nu
        gops, n = setup.gops, setup.n
        u, v, p = (x[k * n:(k + 1) * n] for k in range(3))
        self.u, self.v, self.p = u, v, p
        # an entry that leaves the double range (a huge stabilization
        # weight beta h^2 / nu) reaches F, whose finiteness is the test
        with np.errstate(over="ignore", invalid="ignore"):
            self.c = gops.convection(u, v)
            self.k = gops.diffusion(nu)
            self.stab = gops.diffusion(np.full(n, setup.stab_coef) / nu)
            c, k, stab = (gops.pattern.to_scipy(d)
                          for d in (self.c, self.k, self.stab))
            fu = (c @ u + k @ u) + setup.gx_m @ p
            fv = (c @ v + k @ v) + setup.gy_m @ p
            f = np.concatenate([fu, fv,
                                (setup.dx @ u + setup.dy @ v) + stab @ p])
        f[setup.cidx] = 0.0
        if not np.all(np.isfinite(f)):
            raise NumericError("non-finite residual")
        self.f = f

    def residual_norm(self):
        return float(np.max(np.abs(self.f)))

    def jacobian(self):
        """Constrained J(x) in the system order, as scipy CSR on the setup's
        system pattern, which is laid out in that order.

        The momentum blocks carry the full convection linearization:
        advection C(u, v) plus the four reaction blocks from the state
        gradients.  Each block is written into the system data as it is
        made, so only one reaction block is alive at a time; a diagonal
        block is (C + K) + R, summed in one buffer.  Adding zero afterwards
        turns -0.0 into 0.0, so J's bits are those of blocks accumulated
        into zeros.  The linearization drops C, K and S once they are
        written, so it gives its Jacobian once.
        """
        setup = self.setup
        gops, bmap = setup.gops, setup.bmap
        c, k, stab = self.c, self.k, self.stab
        self.c = self.k = self.stab = None
        # every system entry lies in exactly one block
        data = np.empty(setup.sys_pattern.nnz)
        for pos, block in setup.const_blocks:
            data[pos] = block
        diag = np.empty_like(c)
        # row 0 takes du/dx on its diagonal block and du/dy beside it, row 1
        # dv/dy and dv/dx
        for row, w in enumerate((self.u, self.v)):
            np.add(c, k, out=diag)
            diag += gops.reaction(w, row)
            data[bmap[row][row]] = diag
            data[bmap[row][1 - row]] = gops.reaction(w, 1 - row)
        data[bmap[2][2]] = stab
        data += 0.0
        setup.plan.identity_rows(data)
        return setup.sys_pattern.to_scipy(data)

    def nu_vjp(self, lam):
        """(dF/dnu)^T lam, in the arithmetic order of a tape recording of F.

        F's Dirichlet rows are identically zero, so lam's are dropped.  nu
        enters F through K(nu) in both momentum rows and through
        S(beta h^2 / nu) in the continuity row.  A block that multiplies w
        in the rows of lam_r has the entry gradient lam_r[rows] * w[cols],
        which the diffusion-block backward takes to the nodal coefficient;
        the chain rule through beta h^2 / nu adds -beta h^2 / nu^2.
        """
        setup = self.setup
        gops, n = setup.gops, setup.n
        lam = lam.copy()
        lam[setup.cidx] = 0.0
        lam_u, lam_v, lam_p = (lam[k * n:(k + 1) * n] for k in range(3))
        rows, cols = gops.pattern.entry_rows(), gops.pattern.indices
        k_grad = lam_v[rows] * self.v[cols] + lam_u[rows] * self.u[cols]
        coef_grad = gops.diffusion_bwd(lam_p[rows] * self.p[cols])
        return (-coef_grad * setup.stab_coef / (self.nu * self.nu)
                + gops.diffusion_bwd(k_grad))


def _steady_flow_fwd(v, ctx):
    """Newton iteration x <- x - J(x)^-1 F(x) from the Dirichlet data.

    Every step solves with J(x_k) by iterative refinement against the
    factors held, the anchor.  Step 1 has none and factorizes J(x_0).  When
    refinement stalls, the old factors are dropped and J(x_k) is factorized;
    those factors are the anchor from then on, so at most one factorization
    is alive at a time.  Each iterate is linearized on plain arrays
    (:class:`_Linearization`).  J is assembled in the system order
    (``GridOperators.system_layout``), so each step takes F into that order
    and the update out of it once.  The iterate holds the prescribed
    values and F's Dirichlet rows are zero, so J's identity rows and
    columns keep the update zero there.  On convergence ``ctx["lu"]``
    keeps the last anchor and ``ctx["lin"]`` the linearization at x*, which
    the last residual test built, for the adjoint.

    The iterate is updated in place, each step's Jacobian, right-hand side,
    update and linearization are dropped before the next iterate is
    linearized, and a stall drops the linearization with the factors.  So
    a factorization runs with only the current Jacobian, its right-hand
    side and the linearization's F alive next to the grid's setup, and
    nothing allocated after the factors outlives them: the heap can then
    shrink before the next factorization instead of leaving it a hole to
    fragment (each SuperLU factorization reserves far more memory than it
    touches).
    """
    nu = v[0]
    setup, config, counts = ctx["setup"], ctx["config"], ctx["counts"]
    perm, inverse = setup.order.perm, setup.order.inverse
    x = np.zeros(3 * setup.n)
    x[setup.cidx] = setup.cvals
    lin = _Linearization(setup, nu, x)
    res_norm = lin.residual_norm()
    trace = ctx["trace"] = []
    lu = None
    for it in range(1, config.max_iter + 1):
        matrix, rhs = lin.jacobian(), lin.f[perm]
        delta = None if lu is None else lu.solve(rhs, matrix)
        if delta is None:
            if lu is not None:
                # a stall: drop the factors and what was allocated after them
                lin = matrix = rhs = lu = None
                lin = _Linearization(setup, nu, x)
                matrix, rhs = lin.jacobian(), lin.f[perm]
            lu = LuFactors(matrix, counts)
            delta = lu.solve(rhs, matrix)
        if not np.all(np.isfinite(delta)):
            raise NumericError("Newton step is not finite")
        x -= delta[inverse]
        x[setup.cidx] = setup.cvals
        # the step's system and linearization die before the next one is built
        lin = matrix = rhs = delta = None
        lin = _Linearization(setup, nu, x)
        res_norm = lin.residual_norm()
        trace.append((it, res_norm))
        if res_norm < config.tol_residual:
            ctx["nu"], ctx["x"], ctx["lu"], ctx["lin"] = nu, x, lu, lin
            return x

    raise NewtonDivergedError(
        f"Newton did not reach {config.tol_residual:g} in {config.max_iter} "
        f"iterations (last residual {res_norm:.3e})",
        last_residual=res_norm, iterations=config.max_iter)


def _steady_flow_bwd(g, ctx):
    """Implicit-function adjoint at the converged state x*.

    F(x*(nu), nu) = 0 gives dx*/dnu = -J^-1 dF/dnu, so the gradient is
    -(dF/dnu)^T lam with lam = J(x*)^-T g: one transpose solve, by
    refinement against the forward's last anchor factors when it kept them,
    else (or when refinement stalls) with a fresh factorization of J(x*).
    g goes into the system order and lam out of it once.  J(x*) and
    (dF/dnu)^T lam come from the forward's linearization at x*
    (:meth:`_Linearization.nu_vjp`), so F is not evaluated again.
    The constrained J stands in for dF/dx: its zeroed columns multiply
    the prescribed values, which do not move with nu, and the Dirichlet rows
    of F are identically zero, so lam adds nothing there.
    """
    counts, setup = ctx["counts"], ctx["setup"]
    # popped, so the linearization and the factors die with this solve; a
    # repeated backward pass over the same tape linearizes at x* again and
    # factorizes J(x*)
    lin = ctx.pop("lin", None) or _Linearization(setup, ctx["nu"], ctx["x"])
    matrix, rhs = lin.jacobian(), g[setup.order.perm]
    # the anchor's factors die before a stall factorizes J(x*)
    lam = (ctx.pop("lu").solve_transpose(rhs, matrix) if "lu" in ctx
           else None)
    if lam is None:
        lam = LuFactors(matrix, counts).solve_transpose(rhs, matrix)
    matrix = None  # J(x*) dies before the vector-Jacobian product
    return (-lin.nu_vjp(lam[setup.order.inverse]),)


register_op("steady_flow", _steady_flow_fwd, _steady_flow_bwd)


def newton_solve(tape, setup, nu, config=None, counts=None):
    """Newton iteration for the steady velocity-pressure system of ``setup``
    (a :class:`FlowSetup`) at the nodal viscosity ``nu``.

    Always performs at least one iteration; convergence is judged on the
    post-update residual, so a state that already solves the system reports
    one iteration.  Raises on nonconvergence with the last residual attached,
    leaving ``tape`` as it was.  On convergence the tape gains one
    ``steady_flow`` node from ``nu`` to [u; v; p], however many iterations
    were needed, and the returned :class:`NSState` holds it.  ``counts``, a
    :class:`LinearSolveCounts`, accumulates the factorizations, recycled
    solves, stalls and refinement sweeps of the Newton steps and of the
    node's backward pass.
    """
    ctx = {"setup": setup, "config": config or NewtonConfig(),
           "counts": counts if counts is not None else LinearSolveCounts()}
    x = tape.apply("steady_flow", (nu,), ctx)
    return NSState(x, len(ctx["trace"]), ctx["trace"])


class HeatSetup:
    """What the heat system of one frozen flow keeps across its solves: the
    grid's layout for one unknown per node (``GridOperators.system_layout``),
    which the system is assembled in, the wall constraint plan on it, T0
    (the wall temperatures at the wall rows and zeros elsewhere),
    rho Cp C(u, v) as base-pattern data and the load M Q, both vectors in
    the node order, shared read-only by every heat solve with those inputs.

    ``u`` and ``v`` are the nodal velocities of the frozen flow, as plain
    arrays, and ``bc_t`` the wall temperatures (a ``DirichletSpec``)."""

    def __init__(self, grid, u, v, constants, bc_t):
        self.gops = gops = operators_for(grid)
        self.pattern, self.bmap, self.order = gops.system_layout(1)
        walls = self.order.inverse[bc_t.idx]
        self.plan = constraint_plan(self.pattern, walls)
        self.t0 = np.zeros(self.pattern.n_rows)
        self.t0[walls] = bc_t.vals
        self.convection = constants.rho * constants.cp * gops.convection(
            np.asarray(u, dtype=np.float64), np.asarray(v, dtype=np.float64))
        self.load = (gops.pattern.to_scipy(gops.mass())
                     @ np.full(grid.n_nodes, constants.heat_source_q))[
                         self.order.perm]


def _heat_solve_fwd(v, ctx):
    """T with A T = M Q off the walls and T = T0 on them, A = rho Cp C(u, v)
    + K(k) written into the node order through the block map.

    A Newton step of the flow from T0: A_c T = M Q - A T0 off the walls
    and T0 on them, with A_c the A of identity wall rows and columns.  The
    solve is for T itself, not for the correction T - T0, so the residual
    test covers the wall rows too."""
    heat, counts = ctx["heat"], ctx["counts"]
    data = np.empty(heat.pattern.nnz)
    data[heat.bmap[0][0]] = heat.convection + heat.gops.diffusion(v[0])
    matrix = heat.pattern.to_scipy(data)
    rhs = heat.load - matrix @ heat.t0
    rhs[heat.plan.idx] = heat.t0[heat.plan.idx]
    # wall temperatures near the largest double overflow A T0
    if not np.all(np.isfinite(rhs)):
        raise NumericError("non-finite right-hand side of the heat system")
    heat.plan.identity_rows(matrix.data)
    lu = LuFactors(matrix, counts)
    temp = lu.solve(rhs, matrix)
    if not np.all(np.isfinite(temp)):
        raise NumericError("heat solve produced a non-finite temperature")
    ctx["matrix"], ctx["temp"], ctx["lu"] = matrix, temp, lu
    return temp[heat.order.inverse]


def _heat_solve_bwd(g, ctx):
    """dL/dk from lam = A_c^-T g and the entry gradient -lam_i T_j of A.

    Constrained rows do not depend on k.  A wall column c enters only
    through A T0, so its entry gradient is -lam_i T0_c: T is taken as T0
    at the walls, where the solve meets T0 only to the residual test.  The
    entry gradient leaves the node order through the block map for
    ``diffusion_bwd``, which maps it to k; the flow and the load are
    constants.
    """
    heat, matrix, counts = ctx["heat"], ctx["matrix"], ctx["counts"]
    pattern = heat.pattern
    # popped, so the factors die with this solve; a repeated backward pass
    # over the same tape refactorizes
    lu = ctx.pop("lu", None) or LuFactors(matrix, counts)
    lam = lu.solve_transpose(g[heat.order.perm], matrix)
    temp = ctx["temp"].copy()
    temp[heat.plan.idx] = heat.t0[heat.plan.idx]
    gdata = -lam[pattern.entry_rows()] * temp[pattern.indices]
    gdata[heat.plan.row_entries] = 0.0
    return (heat.gops.diffusion_bwd(gdata[heat.bmap[0][0]]),)


register_op("heat_solve", _heat_solve_fwd, _heat_solve_bwd)


def heat_solve(tape, heat, k, counts=None):
    """Record T with rho Cp C(u, v) T + K(k) T = M Q and T = bc_t on the
    walls, for the frozen flow and data of ``heat`` (a :class:`HeatSetup`).

    The temperature is differentiated with respect to the nodal
    conductivity ``k`` only, and the tape gains one ``heat_solve`` node.  An
    evaluation assembles only K(k).  ``counts``, a
    :class:`LinearSolveCounts`, accumulates the factorization and the
    refinement sweeps of the solve and of the node's backward pass.
    """
    return tape.apply("heat_solve", (k,), {
        "heat": heat,
        "counts": counts if counts is not None else LinearSolveCounts()})
