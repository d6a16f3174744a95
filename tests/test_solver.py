import numpy as np
import pytest
import scipy.sparse.linalg

from flowgrad import ops, solver
from flowgrad.assembly import operators_for
from flowgrad.errors import (
    ContractError,
    NewtonDivergedError,
    SingularMatrixError,
)
from flowgrad.grid import DirichletSpec, StructuredGrid, uniform_boundary_bc
from flowgrad.solver import (
    FlowSetup,
    HeatSetup,
    LinearSolveCounts,
    NewtonConfig,
    PhysicsConstants,
    heat_solve,
    newton_solve,
    ns_jacobian,
    ns_residual,
)
from flowgrad.sparse import LuFactors
from flowgrad.tape import Tape, finite_difference_check
from tape_oracle import dot, record_heat, record_residual, slice1d


def reference_viscosity(coords):
    x, y = coords[:, 0], coords[:, 1]
    return 1.0 + 6.0 * x ** 2 + x / (1.0 + 2.0 * y ** 2)


def cavity_setup(grid, lid_speed=1.0):
    return FlowSetup(grid, lid_speed, PhysicsConstants(), 0.01)


def solve_cavity(grid, nu_nodal, lid_speed=1.0, config=None):
    t = Tape()
    nu = t.constant(nu_nodal)
    state = newton_solve(t, cavity_setup(grid, lid_speed), nu, config)
    return t, state


def fields(t, state):
    """u, v and p of a flow state, as views of its values."""
    return np.split(t.value(state.state), 3)


def u_dot_u(t, state):
    """u . u of a flow state, recorded on its tape."""
    n = t.value(state.state).size // 3
    u = slice1d(t, state.state, 0, n)
    return dot(t, u, u)


def heat_setup(grid, u, v, constants=PhysicsConstants(), bc_t=None):
    """The heat setup of a flow, with cold walls unless ``bc_t`` is given."""
    return HeatSetup(grid, u, v, constants,
                     uniform_boundary_bc(grid, 0.0) if bc_t is None else bc_t)


def test_rest_state_zero_residual():
    g = StructuredGrid(6)
    res = ns_residual(cavity_setup(g, lid_speed=0.0),
                      np.zeros(3 * g.n_nodes), np.ones(g.n_nodes))
    assert np.max(np.abs(res)) == 0.0


def test_constant_pressure_rest_state_zero_residual():
    # with velocity rows constrained on the whole boundary, interior rows of
    # Gx p vanish for constant p and the stabilization annihilates constants
    g = StructuredGrid(5)
    x = np.concatenate([np.zeros(2 * g.n_nodes), np.full(g.n_nodes, 3.7)])
    res = ns_residual(cavity_setup(g, lid_speed=0.0), x, np.ones(g.n_nodes))
    assert np.max(np.abs(res)) < 1e-13


def test_zero_lid_converges_in_one_iteration():
    g = StructuredGrid(7)
    t, state = solve_cavity(g, np.ones(g.n_nodes), lid_speed=0.0)
    assert state.newton_iterations_used == 1
    assert np.all(t.value(state.state) == 0.0)


def test_cavity_21_converges_within_budget():
    g = StructuredGrid(21)
    nu = reference_viscosity(g.coords)
    t, state = solve_cavity(g, nu)
    assert state.newton_iterations_used <= 10
    assert state.trace[-1][1] < 1e-8
    # quadratic contraction: every recorded residual beats the previous one
    norms = [r for _, r in state.trace]
    assert all(b < a for a, b in zip(norms, norms[1:]))


def test_boundary_conditions_exact():
    g = StructuredGrid(9)
    t, state = solve_cavity(g, np.ones(g.n_nodes))
    u, v, p = fields(t, state)
    lid = np.arange(g.nx)
    rest = np.setdiff1d(g.all_boundary, lid)
    assert np.all(u[lid] == 1.0)
    assert np.all(u[rest] == 0.0)
    assert np.all(v[g.all_boundary] == 0.0)
    assert p[0] == 0.0


def test_interior_flow_nontrivial():
    g = StructuredGrid(9)
    t, state = solve_cavity(g, np.ones(g.n_nodes))
    interior = np.setdiff1d(np.arange(g.n_nodes), g.all_boundary)
    assert np.max(np.abs(fields(t, state)[0][interior])) > 1e-3


def test_stokes_limit():
    # velocity becomes viscosity-independent as nu grows
    g = StructuredGrid(9)
    n = g.n_nodes

    def vel(nu0):
        t, state = solve_cavity(g, np.full(n, nu0))
        return fields(t, state)[0].copy()

    d_small = np.linalg.norm(vel(1.0) - vel(2.0))
    d_large = np.linalg.norm(vel(100.0) - vel(200.0))
    assert d_large < d_small
    # remaining drift is the O(1/nu) convection correction
    assert d_large < 1e-4


def test_replug_solution_residual_small():
    g = StructuredGrid(11)
    nu_nodal = reference_viscosity(g.coords)
    t, state = solve_cavity(g, nu_nodal)
    x = t.value(state.state)
    res = ns_residual(cavity_setup(g), x, nu_nodal)
    assert np.max(np.abs(res)) < 1e-8


def test_newton_divergence_reports_last_residual():
    g = StructuredGrid(9)
    with pytest.raises(NewtonDivergedError) as err:
        solve_cavity(g, np.ones(g.n_nodes), config=NewtonConfig(1e-14, 1))
    assert err.value.iterations == 1
    assert np.isfinite(err.value.last_residual)


def test_newton_divergence_leaves_tape_unchanged():
    g = StructuredGrid(9)
    t = Tape()
    nu = t.variable(np.ones(g.n_nodes))
    before = len(t)
    with pytest.raises(NewtonDivergedError):
        newton_solve(t, cavity_setup(g), nu, NewtonConfig(1e-14, 2))
    assert len(t) == before


def test_newton_tape_length_independent_of_iterations():
    g = StructuredGrid(7)
    t = Tape()
    nu = t.variable(np.ones(g.n_nodes))
    added = []
    iterations = []
    for lid in (0.0, 1.0):
        before = len(t)
        state = newton_solve(t, cavity_setup(g, lid), nu)
        added.append(len(t) - before)
        iterations.append(state.newton_iterations_used)
    assert iterations[0] == 1 and iterations[1] > 1
    assert added[0] == added[1]


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1e-8])
def test_newton_config_rejects_bad_tolerance(tol):
    with pytest.raises(ContractError):
        NewtonConfig(tol)


def test_newton_gradient_reaches_viscosity():
    g = StructuredGrid(5)
    t = Tape()
    nu = t.variable(np.ones(g.n_nodes))
    state = newton_solve(t, cavity_setup(g), nu)
    loss = u_dot_u(t, state)
    grads = t.backward(loss)
    gnu = grads[nu]
    assert np.all(np.isfinite(gnu))
    assert np.max(np.abs(gnu)) > 0.0


# ---------------------------------------------------------------------------
# one factorization per flow solve


def test_newton_jacobian_matches_residual_differences():
    # F is quadratic in x, so central differences are exact up to roundoff
    g = StructuredGrid(6)
    n = g.n_nodes
    rng = np.random.default_rng(12)
    nu = rng.uniform(1.0, 2.0, n)
    setup = cavity_setup(g)
    x = rng.normal(size=3 * n)
    x[setup.cidx] = setup.cvals
    free = np.setdiff1d(np.arange(3 * n), setup.cidx)
    d = np.zeros(3 * n)
    d[free] = rng.normal(size=free.size)

    h = 1e-3
    fd = (ns_residual(setup, x + h * d, nu)
          - ns_residual(setup, x - h * d, nu)) / (2 * h)
    jd = ns_jacobian(setup, x, nu) @ d
    err = np.max(np.abs(jd[free] - fd[free])) / np.max(np.abs(fd[free]))
    assert err < 1e-10


def _fresh_lu_newton(grid, nu_nodal, tol=1e-8, max_iter=10):
    """Reference Newton iteration that factorizes every J(x_k) anew."""
    setup = cavity_setup(grid)
    x = np.zeros(3 * setup.n)
    x[setup.cidx] = setup.cvals
    order = setup.order
    for _ in range(max_iter):
        lin = solver._Linearization(setup, nu_nodal, x)
        step = scipy.sparse.linalg.spsolve(lin.jacobian().tocsc(),
                                           lin.f[order.perm])
        x = x - step[order.inverse]
        x[setup.cidx] = setup.cvals
        if solver._Linearization(setup, nu_nodal, x).residual_norm() < tol:
            return x
    raise AssertionError("reference Newton did not converge")


def _steady_flow_ctx(tape):
    [node] = [n for n in tape.nodes if n.op == "steady_flow"]
    return node.ctx


@pytest.mark.parametrize("low_viscosity", [False, True])
def test_newton_matches_fresh_lu_newton(low_viscosity):
    # at the reference viscosity every later step refines against the
    # step-1 factors; at nu = 0.01 convection moves J(x_2) too far from
    # J(x_0), refinement stalls and the solve re-anchors on J(x_2): it
    # factorizes once plus once per stall and refines every other step.
    g = StructuredGrid(9)
    nu_nodal = (np.full(g.n_nodes, 0.01) if low_viscosity
                else reference_viscosity(g.coords))
    counts = LinearSolveCounts()
    t = Tape()
    nu = t.variable(nu_nodal)
    state = newton_solve(t, cavity_setup(g), nu, counts=counts)
    iters = state.newton_iterations_used
    assert iters >= 2
    if low_viscosity:
        assert counts.stalls >= 1
        assert (counts.factorizations, counts.recycled_solves) == (
            1 + counts.stalls, iters - 1 - counts.stalls)
    else:
        assert (counts.factorizations, counts.recycled_solves,
                counts.stalls) == (1, iters - 1, 0)
    x = t.value(state.state)
    expected = _fresh_lu_newton(g, nu_nodal)
    np.testing.assert_allclose(x, expected, rtol=0.0,
                               atol=1e-8 * np.max(np.abs(expected)))

    # the adjoint refines against the last anchor and pops it
    assert isinstance(_steady_flow_ctx(t)["lu"], solver.LuFactors)
    before = (counts.factorizations, counts.recycled_solves)
    t.backward(u_dot_u(t, state))
    assert (counts.factorizations, counts.recycled_solves) == (
        before[0], before[1] + 1)
    assert "lu" not in _steady_flow_ctx(t)


@pytest.mark.parametrize("low_viscosity", [False, True])
def test_adjoint_reuses_the_converged_linearization(monkeypatch,
                                                     low_viscosity):
    # the forward linearizes x_0 and every iterate, and again at a stall;
    # the adjoint takes the linearization at x* the last residual test built
    built = []
    init = solver._Linearization.__init__

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(solver._Linearization, "__init__", counting_init)
    g = StructuredGrid(9)
    t = Tape()
    nu = t.variable(np.full(g.n_nodes, 0.01) if low_viscosity
                    else reference_viscosity(g.coords))
    counts = LinearSolveCounts()
    state = newton_solve(t, cavity_setup(g), nu, counts=counts)
    forward = state.newton_iterations_used + 1 + counts.stalls
    assert len(built) == forward and (counts.stalls > 0) == low_viscosity
    loss = u_dot_u(t, state)
    # without the anchor factors both passes factorize J(x*), so they
    # differ only in where the linearization at x* comes from
    _steady_flow_ctx(t).pop("lu")
    reused = t.backward(loss)[nu]
    assert len(built) == forward and "lin" not in _steady_flow_ctx(t)
    rebuilt = t.backward(loss)[nu]
    assert len(built) == forward + 1
    np.testing.assert_array_equal(reused, rebuilt)


def test_flow_factorizes_in_grid_order(monkeypatch):
    # every Newton and adjoint factorization is of P J P^T in the grid's
    # nested-dissection order, not minimum degree
    specs = []
    splu = scipy.sparse.linalg.splu

    def recording_splu(*args, **kwargs):
        specs.append(kwargs["permc_spec"])
        return splu(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", recording_splu)
    g = StructuredGrid(7)
    t = Tape()
    nu = t.variable(np.full(g.n_nodes, 0.01))
    state = newton_solve(t, cavity_setup(g), nu)
    t.backward(u_dot_u(t, state))
    t.backward(u_dot_u(t, state))
    assert len(specs) >= 3 and set(specs) == {"NATURAL"}


def test_adjoint_stall_refactorizes():
    # factors of another Jacobian of the same size make the adjoint's
    # refinement stall; the fresh factorization of J(x*) then gives the
    # gradient a repeated backward pass (which always factorizes) gives
    g = StructuredGrid(7)
    t = Tape()
    nu = t.variable(reference_viscosity(g.coords))
    counts = LinearSolveCounts()
    state = newton_solve(t, cavity_setup(g), nu, counts=counts)
    loss = u_dot_u(t, state)
    ctx = _steady_flow_ctx(t)
    other = solver._Linearization(ctx["setup"], np.full(g.n_nodes, 1e-3),
                                  ctx["x"]).jacobian()
    ctx["lu"] = solver.LuFactors(other, counts)
    before = (counts.factorizations, counts.stalls)
    stalled = t.backward(loss)[nu]
    assert (counts.factorizations, counts.stalls) == (before[0] + 1,
                                                      before[1] + 1)
    np.testing.assert_array_equal(stalled, t.backward(loss)[nu])


# ---------------------------------------------------------------------------
# the linearization off the tape


def _converged(grid, nu_nodal):
    """(setup, x*) of a cavity flow solve, and its stall count."""
    counts = LinearSolveCounts()
    t = Tape()
    newton_solve(t, cavity_setup(grid), t.variable(nu_nodal), counts=counts)
    ctx = _steady_flow_ctx(t)
    return ctx["setup"], ctx["x"], counts.stalls


@pytest.mark.parametrize("n", [6, 21])
@pytest.mark.parametrize("stalling", [False, True])
def test_viscosity_vjp_matches_tape_recording(n, stalling):
    # F recorded op by op on a tape is the oracle: F, its blocks and
    # (dF/dnu)^T lam agree bit for bit, at the reference viscosity and at
    # one whose Newton solve stalls and re-anchors
    g = StructuredGrid(n)
    nu_nodal = (np.full(g.n_nodes, 0.01) if stalling
                else reference_viscosity(g.coords))
    setup, x, stalls = _converged(g, nu_nodal)
    assert (stalls > 0) == stalling
    # lam is nonzero on the Dirichlet rows too, which must drop out
    lam = np.random.default_rng(n).normal(size=x.size)
    lin = solver._Linearization(setup, nu_nodal, x)

    t = Tape()
    nu = t.variable(nu_nodal)
    u, v, p = (t.constant(x[k * g.n_nodes:(k + 1) * g.n_nodes])
               for k in range(3))
    f_ref, blocks = record_residual(t, setup, nu, u, v, p)
    np.testing.assert_array_equal(t.value(f_ref), lin.f)
    for ref, data in zip(blocks, (lin.c, lin.k, lin.stab)):
        np.testing.assert_array_equal(t.value(ref), data)
    expected = t.backward(dot(t, t.constant(lam), f_ref))[nu]
    assert lin.nu_vjp(lam).tobytes() == expected.tobytes()


def _summed_jacobian_data(lin):
    """J's data with each momentum diagonal block summed in full before it
    is added to zeros: 0 + ((C + K) + R)."""
    setup = lin.setup
    gops, bmap = setup.gops, setup.bmap
    ck = lin.c + lin.k
    rux, ruy, rvx, rvy = (gops.reaction(w, axis)
                          for w in (lin.u, lin.v) for axis in (0, 1))
    data = np.zeros(setup.sys_pattern.nnz)
    for pos, block in (*setup.const_blocks,
                       (bmap[0][0], ck + rux), (bmap[0][1], ruy),
                       (bmap[1][0], rvx), (bmap[1][1], ck + rvy),
                       (bmap[2][2], lin.stab)):
        data[pos] += block
    setup.plan.identity_rows(data)
    return data


@pytest.mark.parametrize("n", [6, 21, 41])
def test_jacobian_built_in_place_matches_summed_blocks(n):
    # J written block by block must have the bytes of blocks accumulated
    # into zeros, signs of zeros included: at the Dirichlet start, where
    # most velocities are zero, and at the converged state
    g = StructuredGrid(n)
    setup, x_star, _ = _converged(g, reference_viscosity(g.coords))
    x0 = np.zeros_like(x_star)
    x0[setup.cidx] = setup.cvals
    for x in (x0, x_star):
        lin = solver._Linearization(setup, reference_viscosity(g.coords), x)
        summed = _summed_jacobian_data(lin)
        matrix = lin.jacobian()
        assert matrix.data.tobytes() == summed.tobytes()
        np.testing.assert_array_equal(matrix.indices, setup.sys_pattern.indices)
        np.testing.assert_array_equal(matrix.indptr, setup.sys_pattern.indptr)


def _buffer_bytes(obj, seen, found):
    """Record in ``found`` the base buffer of every array reachable from
    ``obj`` through attributes, lists, tuples and dicts, keyed by identity."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        while isinstance(obj.base, np.ndarray):
            obj = obj.base
        found[id(obj)] = obj.nbytes
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            _buffer_bytes(item, seen, found)
    elif isinstance(obj, dict):
        for item in obj.values():
            _buffer_bytes(item, seen, found)
    elif hasattr(obj, "__dict__") and not isinstance(obj, type):
        for item in vars(obj).values():
            _buffer_bytes(item, seen, found)


def test_shared_flow_setup_holds_one_copy_of_each_array():
    # the 41x41 cavity setup with its grid operators, system pattern, block
    # maps, order and constraint plan holds 2.02 MB of distinct buffers.
    # With the system pattern in the natural order beside the order's own
    # copy of it and its gather map, and with intp scatter, constraint and
    # order arrays, it held 3.31 MB; with per-entry system rows, intp block
    # maps and the divergence, gradient and unit-stiffness blocks kept on
    # the grid operators as well, 4.77 MB.
    g = StructuredGrid(41)
    setup = cavity_setup(g)
    found = {}
    _buffer_bytes(setup, set(), found)
    assert sum(found.values()) < 2.3e6


# ---------------------------------------------------------------------------
# heat


def cavity_velocities(grid, nu_nodal):
    """u and v of the converged cavity flow, as plain arrays."""
    t, state = solve_cavity(grid, nu_nodal)
    u, v, _ = fields(t, state)
    return u, v


def test_heat_linear_patch():
    # u = v = 0, k = 1, Q = 0, boundary T = x reproduces T = x exactly
    g = StructuredGrid(6)
    t = Tape()
    zero = np.zeros(g.n_nodes)
    bc_t = DirichletSpec(g.all_boundary, g.coords[g.all_boundary, 0])
    heat = heat_setup(g, zero, zero, PhysicsConstants(heat_source_q=0.0),
                      bc_t)
    temp = heat_solve(t, heat, t.constant(np.ones(g.n_nodes)))
    assert np.max(np.abs(t.value(temp) - g.coords[:, 0])) < 1e-12


def test_heat_constant_state():
    g = StructuredGrid(5)
    t = Tape()
    zero = np.zeros(g.n_nodes)
    heat = heat_setup(g, zero, zero, PhysicsConstants(heat_source_q=0.0),
                      uniform_boundary_bc(g, 4.2))
    temp = heat_solve(t, heat, t.constant(np.ones(g.n_nodes)))
    assert np.max(np.abs(t.value(temp) - 4.2)) < 1e-12


def test_heat_positive_source_positive_interior():
    g = StructuredGrid(9)
    t = Tape()
    u, v = cavity_velocities(g, np.ones(g.n_nodes))
    temp = heat_solve(t, heat_setup(g, u, v), t.constant(np.ones(g.n_nodes)))
    vals = t.value(temp)
    interior = np.setdiff1d(np.arange(g.n_nodes), g.all_boundary)
    assert np.all(vals[interior] > 0.0)
    assert np.all(vals[g.all_boundary] == 0.0)


def test_heat_zero_conductivity_zero_velocity_singular():
    g = StructuredGrid(5)
    t = Tape()
    zero = np.zeros(g.n_nodes)
    with pytest.raises(SingularMatrixError):
        heat_solve(t, heat_setup(g, zero, zero),
                   t.constant(np.zeros(g.n_nodes)))


def test_heat_solve_rejects_a_flow_on_the_tape():
    # the flow enters its heat setup as nodal arrays; a tape reference is
    # not one
    g = StructuredGrid(4)
    u = Tape().constant(np.zeros(g.n_nodes))
    with pytest.raises(ContractError):
        heat_setup(g, u, u)


def test_heat_conductivity_gradient_fd():
    g = StructuredGrid(6)
    rng = np.random.default_rng(3)
    weights = rng.standard_normal(g.n_nodes)
    k0 = 1.0 + g.coords[:, 0] ** 2 + g.coords[:, 0] / (1.0 + g.coords[:, 1] ** 2)
    heat = heat_setup(g, *cavity_velocities(g, np.ones(g.n_nodes)))

    def f(k_nodal):
        t = Tape()
        k = t.variable(k_nodal)
        temp = heat_solve(t, heat, k)
        loss = dot(t, t.constant(weights), temp)
        return float(t.value(loss)[0]), t.backward(loss)[k]

    worst = finite_difference_check(f, k0, indices=rng.choice(g.n_nodes, 8,
                                                              replace=False))
    assert worst < 1e-6


def _walls(grid, wall):
    """Wall temperatures: ``wall`` on every wall, or for ``"graded"`` a
    different value at every wall node, which an order that misplaced one
    value against another would change."""
    if wall != "graded":
        return uniform_boundary_bc(grid, wall)
    x, y = grid.coords[grid.all_boundary].T
    return DirichletSpec(grid.all_boundary, 0.2 + x + 0.5 * y ** 2)


@pytest.mark.parametrize("n, wall", [(6, 0.0), (6, 0.3), (6, "graded"),
                                     (21, 0.0), (21, 0.3), (21, "graded")])
def test_heat_solve_matches_op_by_op_recording(n, wall):
    # the system assembled, constrained and solved op by op on a tape, in
    # the grid's node order, is the oracle: T and the conductivity gradient
    # agree bit for bit
    g = StructuredGrid(n)
    rng = np.random.default_rng(n)
    u, v = cavity_velocities(g, np.ones(g.n_nodes))
    k_nodal = rng.uniform(0.5, 2.0, g.n_nodes)
    weights = rng.normal(size=g.n_nodes)
    constants = PhysicsConstants(rho=1.3, cp=0.7, heat_source_q=2.0)
    bc = _walls(g, wall)

    t = Tape()
    k = t.variable(k_nodal)
    temp = heat_solve(t, HeatSetup(g, u, v, constants, bc), k)
    grad = t.backward(dot(t, t.constant(weights), temp))[k]
    assert len(t) == 4

    gops = operators_for(g)
    load = gops.pattern.to_scipy(gops.mass()) @ np.full(g.n_nodes, 2.0)
    t_ref = Tape()
    k_ref = t_ref.variable(k_nodal)
    temp_ref = record_heat(t_ref, gops, t_ref.constant(u), t_ref.constant(v),
                           k_ref, constants.rho * constants.cp, load, bc)
    expected = t_ref.backward(dot(t_ref, t_ref.constant(weights), temp_ref))
    assert t.value(temp).tobytes() == t_ref.value(temp_ref).tobytes()
    assert grad.tobytes() == expected[k_ref].tobytes()


def test_heat_solve_factorizes_once_and_releases_lu(monkeypatch):
    # and counts its factorizations and sweeps: the backward solves with
    # the forward's factors, a repeated backward pass factorizes again
    g = StructuredGrid(5)
    u, v = cavity_velocities(g, np.ones(g.n_nodes))
    counts = LinearSolveCounts()
    calls = []
    splu = scipy.sparse.linalg.splu

    def counting_splu(*args, **kwargs):
        calls.append(1)
        return splu(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", counting_splu)
    t = Tape()
    k = t.variable(np.ones(g.n_nodes))
    temp = heat_solve(t, heat_setup(g, u, v, bc_t=uniform_boundary_bc(g, 0.3)),
                      k, counts)
    forward_sweeps = counts.sweeps
    assert counts.factorizations == 1 and forward_sweeps >= 1
    loss = dot(t, temp, temp)
    first = t.backward(loss)
    assert len(calls) == counts.factorizations == 1
    assert counts.sweeps > forward_sweeps
    assert counts.recycled_solves == counts.stalls == 0
    assert not any(isinstance(value, LuFactors)
                   for value in t.nodes[temp].ctx.values())
    # a second backward pass over the same tape refactorizes
    np.testing.assert_array_equal(t.backward(loss)[k], first[k])
    assert len(calls) == counts.factorizations == 2


# ---------------------------------------------------------------------------
# full chain


def test_full_chain_viscosity_gradient_fd():
    g = StructuredGrid(6)
    rng = np.random.default_rng(7)

    t0, ref = solve_cavity(g, np.ones(g.n_nodes))
    target_u, target_v, _ = fields(t0, ref)
    n = g.n_nodes
    nu0 = reference_viscosity(g.coords)
    config = NewtonConfig(1e-11, 12)

    def f(nu_nodal):
        t = Tape()
        nu = t.variable(nu_nodal)
        state = newton_solve(t, cavity_setup(g), nu, config)
        loss = ops.misfit(t, [(state.state, 0), (state.state, n)], n,
                          np.arange(n), (target_u, target_v))
        return float(t.value(loss)[0]), t.backward(loss)[nu]

    worst = finite_difference_check(f, nu0, indices=rng.choice(g.n_nodes, 6,
                                                               replace=False))
    assert worst < 1e-5
