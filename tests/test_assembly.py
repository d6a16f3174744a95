"""Assembly tests against an independent dense isoparametric oracle.

The oracle below loops over elements and 2x2 Gauss points with its own shape
functions and a general Jacobian, sharing no code path with the package's
precomputed reference-element arrays.

Closed forms for a single square element with unit coefficient:
  stiffness K = (1/6) [[ 4, -1, -2, -1], [-1, 4, -1, -2],
                       [-2, -1, 4, -1], [-1, -2, -1, 4]]    (size-independent)
  mass      M = (h^2/36) [[4, 2, 1, 2], [2, 4, 2, 1],
                          [1, 2, 4, 2], [2, 1, 2, 4]]
"""

import numpy as np
import pytest
import scipy.sparse

from flowgrad import assembly, kernels, ops
from flowgrad.assembly import constraint_plan, operators_for
from flowgrad.errors import ContractError
from flowgrad.grid import DirichletSpec, StructuredGrid
from flowgrad.solver import HeatSetup, PhysicsConstants, heat_solve
from flowgrad.sparse import SparsePattern
from flowgrad.tape import Tape, finite_difference_check
from tape_oracle import convection_block, dot

_GP = 1.0 / np.sqrt(3.0)


def _shapes(xi, eta):
    n = 0.25 * np.array([(1 - xi) * (1 - eta), (1 + xi) * (1 - eta),
                         (1 + xi) * (1 + eta), (1 - xi) * (1 + eta)])
    d = 0.25 * np.array([
        [-(1 - eta), (1 - eta), (1 + eta), -(1 + eta)],
        [-(1 - xi), -(1 + xi), (1 + xi), (1 - xi)],
    ])
    return n, d


def dense_oracle(grid, coef=None, u=None, v=None):
    """Dense K(coef), M, C(u,v), Dx, Gx via independent isoparametric loops."""
    nn = grid.n_nodes
    k = np.zeros((nn, nn))
    m = np.zeros((nn, nn))
    c = np.zeros((nn, nn))
    dx = np.zeros((nn, nn))
    gx = np.zeros((nn, nn))
    coef = np.ones(nn) if coef is None else coef
    u = np.zeros(nn) if u is None else u
    v = np.zeros(nn) if v is None else v
    for e in range(grid.n_elems):
        nodes = grid.elems[e]
        xy = grid.coords[nodes]
        for xi in (-_GP, _GP):
            for eta in (-_GP, _GP):
                n, dref = _shapes(xi, eta)
                jac = dref @ xy
                det = np.linalg.det(jac)
                dphys = np.linalg.solve(jac, dref)
                w = det
                cq = n @ coef[nodes]
                uq = n @ u[nodes]
                vq = n @ v[nodes]
                for a, i in enumerate(nodes):
                    for b, j in enumerate(nodes):
                        k[i, j] += w * cq * (dphys[0, a] * dphys[0, b]
                                             + dphys[1, a] * dphys[1, b])
                        m[i, j] += w * n[a] * n[b]
                        c[i, j] += w * n[a] * (uq * dphys[0, b] + vq * dphys[1, b])
                        dx[i, j] += w * n[a] * dphys[0, b]
                        gx[i, j] += w * dphys[0, a] * n[b]
    return k, m, c, dx, gx


def _dense(gops, data):
    return gops.scipy_matrix(data).toarray()


def _reactions(grid, u, v):
    """The four reaction blocks of the Newton linearization as CSR data,
    keyed "ux", "uy", "vx", "vy" for du/dx ... dv/dy."""
    gops = operators_for(grid)
    return {"ux": gops.reaction(u, 0), "uy": gops.reaction(u, 1),
            "vx": gops.reaction(v, 0), "vy": gops.reaction(v, 1)}


def _grad_div(grid):
    """Pressure-gradient (Gx, Gy) and divergence (Dx, Dy) matrices."""
    gops = operators_for(grid)
    dx, dy, gx, gy = gops.divergence_blocks()
    return tuple(gops.scipy_matrix(data) for data in (gx, gy, dx, dy))


def _stiffness(gops):
    """Unit-coefficient stiffness as CSR data, from unit quadrature values."""
    ones_q = np.ones((gops.elems.shape[0], 4))
    return gops.scatter(kernels.diffusion_fwd(ones_q, gops.wdet, gops.dndx_tab,
                                              gops.dndy_tab))


def test_single_element_unit_stiffness_closed_form():
    g = StructuredGrid(2)
    gops = operators_for(g)
    local = np.array([[4.0, -1, -2, -1], [-1, 4, -1, -2],
                      [-2, -1, 4, -1], [-1, -2, -1, 4]]) / 6.0
    # closed form is in CCW corner order; map through the connectivity
    expected = np.zeros((4, 4))
    expected[np.ix_(g.elems[0], g.elems[0])] = local
    got = _dense(gops, gops.diffusion(np.ones(4)))
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-14)
    np.testing.assert_allclose(got.sum(axis=1), 0.0, rtol=0, atol=1e-14)


def test_zero_coefficient_gives_zero_block():
    g = StructuredGrid(3)
    assert np.all(operators_for(g).diffusion(np.zeros(9)) == 0.0)


def test_single_element_mass_closed_form():
    g = StructuredGrid(2)
    gops = operators_for(g)
    local = np.array([[4.0, 2, 1, 2], [2, 4, 2, 1],
                      [1, 2, 4, 2], [2, 1, 2, 4]]) / 36.0
    expected = np.zeros((4, 4))
    expected[np.ix_(g.elems[0], g.elems[0])] = local
    np.testing.assert_allclose(gops.scipy_matrix(gops.m_data).toarray(),
                               expected, rtol=0, atol=1e-15)


def test_multi_element_blocks_match_dense_oracle():
    g = StructuredGrid(4, 3)
    rng = np.random.default_rng(0)
    coef = rng.uniform(0.5, 2.0, g.n_nodes)
    u = rng.normal(size=g.n_nodes)
    v = rng.normal(size=g.n_nodes)
    k_d, m_d, c_d, dx_d, gx_d = dense_oracle(g, coef, u, v)

    gops = operators_for(g)
    np.testing.assert_allclose(_dense(gops, gops.diffusion(coef)), k_d,
                               rtol=0, atol=1e-13)
    np.testing.assert_allclose(_dense(gops, gops.convection(u, v)), c_d,
                               rtol=0, atol=1e-13)
    np.testing.assert_allclose(gops.scipy_matrix(gops.m_data).toarray(), m_d,
                               rtol=0, atol=1e-14)
    gx, gy, dx, dy = _grad_div(g)
    np.testing.assert_allclose(dx.toarray(), dx_d, rtol=0, atol=1e-14)
    np.testing.assert_allclose(gx.toarray(), gx_d, rtol=0, atol=1e-14)
    np.testing.assert_allclose(gx.toarray(), dx.toarray().T, rtol=0, atol=0)
    np.testing.assert_allclose(gy.toarray(), dy.toarray().T, rtol=0, atol=0)


def test_stiffness_symmetric_psd_with_constant_nullspace():
    g = StructuredGrid(4)
    gops = operators_for(g)
    k = _dense(gops, gops.diffusion(np.ones(g.n_nodes)))
    np.testing.assert_allclose(k, k.T, rtol=0, atol=1e-14)
    eig = np.linalg.eigvalsh(k)
    assert eig[0] > -1e-13
    assert np.sum(np.abs(eig) < 1e-12) == 1
    np.testing.assert_allclose(k @ np.ones(g.n_nodes), 0.0, rtol=0, atol=1e-13)


def test_convection_zero_velocity_and_constant_velocity():
    g = StructuredGrid(3)
    gops = operators_for(g)
    zero, one = np.zeros(9), np.ones(9)
    assert np.all(gops.convection(zero, zero) == 0.0)
    for r in _reactions(g, np.zeros(9), np.zeros(9)).values():
        assert np.all(r == 0.0)

    _, _, dx, _ = _grad_div(g)
    np.testing.assert_allclose(_dense(gops, gops.convection(one, zero)),
                               dx.toarray(), rtol=0, atol=1e-14)
    for r in _reactions(g, np.ones(9), np.zeros(9)).values():
        np.testing.assert_allclose(r, 0.0, rtol=0, atol=1e-13)


def test_reaction_of_linear_field_is_mass_matrix():
    # w = x has dw/dx = 1, so R equals the mass matrix
    g = StructuredGrid(4)
    gops = operators_for(g)
    np.testing.assert_allclose(gops.reaction(g.coords[:, 0].copy(), 0),
                               gops.m_data, rtol=0, atol=1e-13)


def test_constant_pressure_gradient_vanishes_on_interior_rows():
    g = StructuredGrid(5)
    gx, _, _, _ = _grad_div(g)
    r = gx @ np.ones(g.n_nodes)
    interior = np.setdiff1d(np.arange(g.n_nodes), g.all_boundary)
    np.testing.assert_allclose(r[interior], 0.0, rtol=0, atol=1e-14)


def test_divergence_of_linear_u_is_mass_action_on_ones():
    g = StructuredGrid(3)
    _, _, dx, _ = _grad_div(g)
    gops = operators_for(g)
    m = gops.scipy_matrix(gops.m_data)
    np.testing.assert_allclose(dx @ g.coords[:, 0], m @ np.ones(g.n_nodes),
                               rtol=0, atol=1e-14)


def _nu_reference(x, y):
    return 1.0 + 6.0 * x**2 + x / (1.0 + 2.0 * y**2)


def _k_reference(x, y):
    return 1.0 + x**2 + x / (1.0 + y**2)


def test_diffusion_block_gradient_matches_fd():
    # diffusion_bwd against differences of an entry sum; an unweighted sum
    # is degenerate (stiffness row sums vanish for any coefficient), so
    # weight the entries randomly
    g = StructuredGrid(6)
    gops = operators_for(g)
    nu0 = _nu_reference(g.coords[:, 0], g.coords[:, 1])
    weights = np.random.default_rng(6).normal(size=gops.nnz)

    def f(theta):
        return weights @ gops.diffusion(theta), gops.diffusion_bwd(weights)

    idx = range(0, g.n_nodes, 5)
    assert finite_difference_check(f, nu0, indices=idx) < 1e-6


def test_convection_blocks_gradient_matches_fd():
    # the advection backward of the residual oracle
    g = StructuredGrid(5)
    rng = np.random.default_rng(1)
    theta0 = rng.normal(size=2 * g.n_nodes)

    def f(theta):
        t = Tape()
        th = t.variable(theta)
        u = ops.slice1d(t, th, 0, g.n_nodes)
        v = ops.slice1d(t, th, g.n_nodes, 2 * g.n_nodes)
        cref = convection_block(t, operators_for(g), u, v)
        acc = ops.vsum(t, ops.square(t, cref))
        return t.value(acc)[0], t.backward(acc)[th]

    idx = range(0, theta0.size, 9)
    assert finite_difference_check(f, theta0, indices=idx) < 1e-6


def test_system_layout_matches_row_loop():
    # reference: walk the nodes in the order, lay out each node's three
    # system rows, and in each the three unknowns of every node its base
    # row couples to, by rank
    g = StructuredGrid(13, 9)
    gops = operators_for(g)
    sys_pattern, bmap, order = gops.system_layout()
    base, n = gops.pattern, g.n_nodes
    nodes = order.perm[::3]
    rank = np.empty(n, dtype=np.int32)
    rank[nodes] = np.arange(n)
    expected = []
    for node in nodes:
        cols = np.sort(rank[base.indices[base.indptr[node]:base.indptr[node + 1]]])
        for _ in range(3):
            expected.append((3 * cols[:, None] + np.arange(3)).ravel())
    assert sys_pattern.indices.dtype == np.int32
    np.testing.assert_array_equal(sys_pattern.indices, np.concatenate(expected))
    for br in range(3):
        for bc in range(3):
            assert bmap[br][bc].dtype == np.int32
            np.testing.assert_array_equal(
                sys_pattern.entry_rows()[bmap[br][bc]],
                3 * rank[base.entry_rows()] + br)
            np.testing.assert_array_equal(sys_pattern.indices[bmap[br][bc]],
                                          3 * rank[base.indices] + bc)


@pytest.mark.parametrize("shape", [(9, 6), (6, 9), (2, 2)])
def test_system_order_keeps_node_unknowns_adjacent(shape):
    g = StructuredGrid(*shape)
    n = g.n_nodes
    perm = operators_for(g).system_layout()[2].perm
    np.testing.assert_array_equal(np.sort(perm), np.arange(3 * n))
    by_node = perm.reshape(-1, 3)
    assert np.all(by_node[:, 0] < n)
    np.testing.assert_array_equal(by_node[:, 1:],
                                  by_node[:, :1] + n * np.arange(1, 3))


@pytest.mark.parametrize("shape", [(9, 6), (6, 9), (41, 41)])
def test_system_order_top_separator_splits_grid(shape):
    # the middle grid line across the longer side is numbered last, after
    # the two halves it separates; no stencil entry couples the halves
    g = StructuredGrid(*shape)
    gops = operators_for(g)
    nodes = gops.system_layout()[2].perm[::3]
    along = g.coords[:, 0] if g.nx >= g.ny else g.coords[:, 1]
    line = np.round(along * (max(shape) - 1)).astype(int)
    mid = max(shape) // 2
    width = min(shape)
    first, second = mid * width, (max(shape) - mid - 1) * width
    assert np.all(line[nodes[:first]] < mid)
    assert np.all(line[nodes[first:first + second]] > mid)
    assert np.all(line[nodes[first + second:]] == mid)
    side = np.zeros(g.n_nodes, dtype=int)
    side[nodes[:first]], side[nodes[first:first + second]] = 1, 2
    pattern = gops.pattern
    rows = pattern.entry_rows()
    assert not np.any(side[rows] * side[pattern.indices] == 2)


def test_operators_shared_per_grid_shape():
    gops = operators_for(StructuredGrid(5))
    assert operators_for(StructuredGrid(5)) is gops
    assert operators_for(StructuredGrid(5, 6)) is not gops
    for n in range(7, 8 + assembly._SHARED_SHAPES):
        operators_for(StructuredGrid(n))
    assert len(assembly._OPERATORS) == assembly._SHARED_SHAPES
    assert operators_for(StructuredGrid(5)) is not gops


def test_constrain_empty_spec_is_identity():
    g = StructuredGrid(3)
    gops = operators_for(g)
    data, rhs = _stiffness(gops), np.arange(9.0)
    plan = constraint_plan(gops.pattern, np.array([], dtype=np.intp))
    plan.eliminate(data, rhs, np.array([]))
    np.testing.assert_array_equal(data, _stiffness(gops))
    np.testing.assert_array_equal(rhs, np.arange(9.0))


def test_constrain_all_nodes_returns_prescribed_values():
    g = StructuredGrid(3)
    gvals = g.coords[:, 0] + g.coords[:, 1]
    t = Tape()
    zero = np.zeros(9)
    heat = HeatSetup(g, zero, zero, PhysicsConstants(),
                     DirichletSpec(np.arange(9), gvals))
    temp = heat_solve(t, heat, t.constant(np.ones(9)))
    np.testing.assert_allclose(t.value(temp), gvals, rtol=0, atol=1e-14)


def test_patch_test_linear_solution_machine_precision():
    # Poisson with boundary data x + y and zero interior load reproduces the
    # linear function exactly; acceptance threshold 1e-12
    g = StructuredGrid(5)
    exact = g.coords[:, 0] + g.coords[:, 1]
    bc = DirichletSpec(g.all_boundary, exact[g.all_boundary])
    t = Tape()
    zero = np.zeros(g.n_nodes)
    heat = HeatSetup(g, zero, zero, PhysicsConstants(heat_source_q=0.0), bc)
    x = heat_solve(t, heat, t.constant(np.ones(g.n_nodes)))
    assert np.max(np.abs(t.value(x) - exact)) < 1e-12


def test_pinning_one_node_raises_rank_by_one():
    g = StructuredGrid(4)
    gops = operators_for(g)
    data = _stiffness(gops)
    rank_free = np.linalg.matrix_rank(_dense(gops, data))
    plan = constraint_plan(gops.pattern, np.array([0]))
    plan.eliminate(data, np.zeros(g.n_nodes), np.array([0.0]))
    assert np.linalg.matrix_rank(_dense(gops, data)) == rank_free + 1


def test_constrain_matches_dense_elimination_oracle():
    g = StructuredGrid(3)
    gops = operators_for(g)
    rng = np.random.default_rng(4)
    data0 = _stiffness(gops) + 0.1 * rng.normal(size=gops.nnz)
    rhs0 = rng.normal(size=9)
    cidx = np.array([0, 4, 8])
    gvals = np.array([1.0, -2.0, 0.5])

    data, rhs = data0.copy(), rhs0.copy()
    constraint_plan(gops.pattern, cidx).eliminate(data, rhs, gvals)

    a = gops.scipy_matrix(data0).toarray()
    b = rhs0.copy()
    free = np.setdiff1d(np.arange(9), cidx)
    for s, cnode in enumerate(cidx):
        b[free] -= a[free, cnode] * gvals[s]
    a[cidx, :] = 0.0
    a[:, cidx] = 0.0
    a[cidx, cidx] = 1.0
    b[cidx] = gvals
    np.testing.assert_allclose(_dense(gops, data), a, rtol=0, atol=1e-14)
    np.testing.assert_allclose(rhs, b, rtol=0, atol=1e-14)


def test_constrained_solve_gradient_matches_fd():
    # nonzero prescribed values: the eliminated columns carry a gradient
    g = StructuredGrid(4)
    rng = np.random.default_rng(5)
    c = rng.normal(size=g.n_nodes)
    u, v = 0.5 * rng.normal(size=(2, g.n_nodes))
    bc = DirichletSpec(np.array([0, 3, 12, 15]), np.array([0.5, -1.0, 2.0, 0.0]))
    k0 = rng.uniform(0.5, 2.0, g.n_nodes)
    heat = HeatSetup(g, u, v, PhysicsConstants(), bc)

    def f(theta):
        t = Tape()
        k = t.variable(theta)
        temp = heat_solve(t, heat, k)
        loss = dot(t, t.constant(c), temp)
        return t.value(loss)[0], t.backward(loss)[k]

    assert finite_difference_check(f, k0) < 1e-6


def test_constraint_plan_rejects_duplicates_and_range():
    g = StructuredGrid(3)
    gops = operators_for(g)
    with pytest.raises(ContractError):
        constraint_plan(gops.pattern, np.array([1, 1]))
    with pytest.raises(ContractError):
        constraint_plan(gops.pattern, np.array([99]))


def test_constraint_plan_diagonal_matches_entry_lookup():
    g = StructuredGrid(13, 9)
    sys_pattern, _, _ = operators_for(g).system_layout()
    rng = np.random.default_rng(12)
    cidx = rng.choice(sys_pattern.n_rows, size=150, replace=False)
    plan = constraint_plan(sys_pattern, cidx)
    expected = []
    for c in np.sort(cidx):
        lo, hi = sys_pattern.indptr[c], sys_pattern.indptr[c + 1]
        k = lo + np.searchsorted(sys_pattern.indices[lo:hi], c)
        assert sys_pattern.indices[k] == c
        expected.append(k)
    expected = np.array(expected)
    assert plan.diag_pos.dtype == np.int32
    np.testing.assert_array_equal(plan.diag_pos, expected)
    # the last row constrained too: its diagonal is the last stored entry
    last = sys_pattern.n_rows - 1
    assert constraint_plan(sys_pattern, [last]).diag_pos[0] == sys_pattern.nnz - 1


def _dense_pattern(dense):
    """The pattern of the nonzero entries of a dense matrix."""
    m = scipy.sparse.csr_matrix(np.array(dense))
    return SparsePattern.create(m.shape[0], m.shape[1], m.indptr, m.indices)


def test_constraint_plan_rejects_missing_diagonal():
    pattern = _dense_pattern([[1.0, 1.0, 0.0],
                              [1.0, 0.0, 1.0],
                              [0.0, 1.0, 1.0]])
    with pytest.raises(ContractError, match="row 1"):
        constraint_plan(pattern, np.array([0, 1]))
    # a missing diagonal in the last row sorts past every stored entry
    pattern = _dense_pattern([[1.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ContractError, match="row 1"):
        constraint_plan(pattern, np.array([1]))


# --- kernels


_KERNEL_TABLES = {
    "diffusion": ("dndx", "dndy"),
    "advection": ("n", "dndx", "dndy"),
    "coefmass": ("n",),
}


# each kernel written out index by index, independent of the reference tensor
_KERNEL_ORACLES = {
    "diffusion_fwd": (("q", "w", "dx", "dy"), lambda c, w, dx, dy:
                      np.einsum("eq,qi,qj->eij", c * w, dx, dx)
                      + np.einsum("eq,qi,qj->eij", c * w, dy, dy)),
    "diffusion_bwd": (("g", "w", "dx", "dy"), lambda g, w, dx, dy:
                      (np.einsum("eij,qi,qj->eq", g, dx, dx)
                       + np.einsum("eij,qi,qj->eq", g, dy, dy)) * w),
    "advection_fwd": (("q", "q", "w", "n", "dx", "dy"), lambda u, v, w, n, dx, dy:
                      np.einsum("eq,qi,qj->eij", u * w, n, dx)
                      + np.einsum("eq,qi,qj->eij", v * w, n, dy)),
    "advection_bwd": (("g", "w", "n", "dx", "dy"), lambda g, w, n, dx, dy:
                      (np.einsum("eij,qi,qj->eq", g, n, dx) * w,
                       np.einsum("eij,qi,qj->eq", g, n, dy) * w)),
    "coefmass_fwd": (("q", "w", "n"), lambda c, w, n:
                     np.einsum("eq,qi,qj->eij", c * w, n, n)),
    "coefmass_bwd": (("g", "w", "n"), lambda g, w, n:
                     np.einsum("eij,qi,qj->eq", g, n, n) * w),
}


@pytest.mark.parametrize("name", sorted(_KERNEL_ORACLES))
def test_kernel_variants_agree(name):
    # the matrix-product kernel against the index-by-index einsum oracle
    rng = np.random.default_rng(sorted(_KERNEL_ORACLES).index(name))
    shapes = {"q": (7, 4), "g": (7, 4, 4), "w": (4,), "n": (4, 4),
              "dx": (4, 4), "dy": (4, 4)}
    arg_kinds, oracle = _KERNEL_ORACLES[name]
    args = [rng.normal(size=shapes[a]) for a in arg_kinds]
    np.testing.assert_allclose(getattr(kernels, name)(*args), oracle(*args),
                               rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("name", sorted(_KERNEL_TABLES))
def test_kernel_backward_is_adjoint(name):
    # each kernel is linear in its fields, so <bwd(G), f> = <G, fwd(f)>
    rng = np.random.default_rng(sorted(_KERNEL_TABLES).index(name))
    n_fields = 2 if name == "advection" else 1
    fields = [rng.normal(size=(7, 4)) for _ in range(n_fields)]
    gelem = rng.normal(size=(7, 4, 4))
    wdet = rng.normal(size=4)
    tables = [rng.normal(size=(4, 4)) for _ in _KERNEL_TABLES[name]]
    out = getattr(kernels, f"{name}_fwd")(*fields, wdet, *tables)
    grads = getattr(kernels, f"{name}_bwd")(gelem, wdet, *tables)
    grads = grads if isinstance(grads, tuple) else (grads,)
    assert out.shape == gelem.shape and len(grads) == n_fields
    lhs = sum(np.sum(gf * f) for gf, f in zip(grads, fields))
    rhs = np.sum(gelem * out)
    assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(rhs))
