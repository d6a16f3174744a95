"""Sparse pattern, LU, and adjoint tests.

The solve and product with an on-tape matrix are the test-local operators
of ``tape_oracle``, which the heat and flow tests record their oracles
with.  Dense oracles: for x = A^-1 b with loss = c . x, the adjoint
identities are
  d loss/d b    = A^-T c
  d loss/d A_ij = -(A^-T c)_i x_j
and for y = A x with loss = c . y,
  d loss/d x    = A^T c
  d loss/d A_ij = c_i x_j.
Both are checked entrywise against numpy.linalg solves.
"""

import gc
import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.io
import scipy.sparse
import scipy.sparse.linalg

import flowgrad
from flowgrad import assembly, experiments, kernels, ops, solver, sparse, tape
from flowgrad.assembly import operators_for
from flowgrad.errors import ContractError, NumericError, SingularMatrixError
from flowgrad.experiments import reference_field
from flowgrad.grid import DirichletSpec, StructuredGrid, uniform_boundary_bc
from flowgrad.solver import (
    FlowSetup,
    HeatSetup,
    PhysicsConstants,
    default_cavity_bcs,
    heat_solve,
    newton_solve,
    ns_jacobian,
)
from flowgrad.sparse import (
    LinearSolveCounts,
    LuFactors,
    SparsePattern,
    SymmetricOrder,
)
from flowgrad.tape import Tape, finite_difference_check
from tape_oracle import dot, sparse_solve, spmv_fixed, spmv_pattern


def _random_spd_like(n, seed, density=0.3):
    """Sorted scipy CSR matrix, diagonally dominant by about n."""
    rng = np.random.default_rng(seed)
    sp = scipy.sparse.random(n, n, density=density, random_state=rng, format="csr")
    sp = (sp + n * scipy.sparse.eye(n, format="csr")).tocsr()
    sp.sort_indices()
    return sp


def _pattern(m):
    return SparsePattern.create(m.shape[0], m.shape[1], m.indptr, m.indices)


def test_dense_roundtrip():
    dense = np.array([[1.0, 0.0, 2.0], [0.0, 0.0, 0.0], [3.0, 4.0, 0.0]])
    m = scipy.sparse.csr_matrix(dense)
    pattern = _pattern(m)
    np.testing.assert_array_equal(pattern.to_scipy(m.data).toarray(), dense)
    assert pattern.nnz == 4


def test_invalid_structure_rejected():
    with pytest.raises(ContractError):
        SparsePattern.create(2, 2, np.array([0, 1]), np.array([0]))
    with pytest.raises(ContractError):
        SparsePattern.create(2, 2, np.array([0, 2, 2]), np.array([1, 0]))
    with pytest.raises(ContractError):
        SparsePattern.create(2, 2, np.array([0, 1, 2]), np.array([0, 5]))
    with pytest.raises(ContractError):
        SparsePattern.create(2, 2, np.array([0, 1, 2]), np.array([0]))


@pytest.mark.parametrize("dtype", [np.int32, np.uint32])
def test_decreasing_indptr_rejected(dtype):
    # a uint32 indptr that goes down from 2 to 1 used to wrap and pass
    with pytest.raises(ContractError, match="non-decreasing"):
        SparsePattern.create(3, 3, np.array([0, 2, 1, 3], dtype=dtype),
                             np.array([0, 1, 2]))


def test_unsorted_row_reported_by_number():
    # row 1 is empty and the step from row 0 into row 2 goes down, which is
    # allowed; row 2 goes down from column 2 to column 1
    for dtype in (np.int32, np.uint32):
        with pytest.raises(ContractError, match=r"^row 2: column indices "
                                                r"not strictly increasing"):
            SparsePattern.create(4, 4, np.array([0, 2, 2, 4, 5]),
                                 np.array([1, 3, 2, 1, 0], dtype=dtype))


def _first_unsorted_row(indptr, indices):
    for i in range(indptr.size - 1):
        if np.any(np.diff(indices[indptr[i]:indptr[i + 1]]) <= 0):
            return i
    return None


def test_row_order_check_matches_row_loop():
    # random structures with empty rows, some with one entry overwritten;
    # the row-by-row loop is the reference
    rng = np.random.default_rng(5)
    outcomes = set()
    for _ in range(300):
        counts = rng.integers(0, 4, size=rng.integers(1, 7))
        indptr = np.concatenate([[0], np.cumsum(counts)])
        indices = np.concatenate(
            [np.sort(rng.choice(6, c, replace=False)) for c in counts])
        indices = indices.astype(np.int64)
        if indices.size and rng.random() < 0.5:
            indices[rng.integers(indices.size)] = rng.integers(6)
        expected = _first_unsorted_row(indptr, indices)
        outcomes.add(expected is None)
        if expected is None:
            SparsePattern.create(counts.size, 6, indptr, indices)
        else:
            with pytest.raises(ContractError, match=rf"^row {expected}: "):
                SparsePattern.create(counts.size, 6, indptr, indices)
    assert outcomes == {True, False}


def test_spmv_matches_dense():
    m = _random_spd_like(12, seed=3)
    x = np.random.default_rng(4).normal(size=12)
    t = Tape()
    y = spmv_fixed(t, m, t.constant(x))
    np.testing.assert_allclose(t.value(y), m.toarray() @ x, rtol=1e-13)
    with pytest.raises(ContractError):
        spmv_fixed(t, m, t.constant(np.zeros(5)))


def test_lu_solve_matches_dense():
    m = _random_spd_like(20, seed=5)
    rng = np.random.default_rng(6)
    b = rng.normal(size=20)
    lu = LuFactors(m, LinearSolveCounts())
    np.testing.assert_allclose(lu.solve(b, m), np.linalg.solve(m.toarray(), b),
                               rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(lu.solve_transpose(b, m),
                               np.linalg.solve(m.toarray().T, b),
                               rtol=1e-10, atol=1e-12)


def test_lu_rejects_bad_inputs():
    m = _random_spd_like(4, seed=7)
    with pytest.raises(ContractError):
        LuFactors(scipy.sparse.random(3, 4, density=0.5, format="csr"),
                  LinearSolveCounts())
    with pytest.raises(ContractError):
        LuFactors(m, LinearSolveCounts()).solve(np.zeros(3), m)
    bad = scipy.sparse.csr_matrix(np.array([[1.0, np.nan], [0.0, 1.0]]))
    with pytest.raises(NumericError):
        LuFactors(bad, LinearSolveCounts())


def test_singular_empty_row_reports_pivot():
    dense = np.array([[1.0, 2.0, 0.0], [0.0, 0.0, 0.0], [0.0, 1.0, 3.0]])
    with pytest.raises(SingularMatrixError) as err:
        LuFactors(scipy.sparse.csr_matrix(dense), LinearSolveCounts())
    assert err.value.pivot_index == 1


def test_singular_dependent_rows_reports_pivot():
    # structurally full but rank-deficient; the dense diagnostic must locate
    # a dead pivot
    dense = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [1.0, 1.0, 1.0]])
    with pytest.raises(SingularMatrixError) as err:
        LuFactors(scipy.sparse.csr_matrix(dense), LinearSolveCounts())
    assert 0 <= err.value.pivot_index <= 2


def _cavity_jacobians(n):
    """J(x*) of the reference-viscosity cavity in the natural [u; v; p]
    order and in the system order it is factorized in, with that order."""
    grid = StructuredGrid(n)
    t = Tape()
    nu = reference_field("cavity_viscosity", grid.coords)
    setup = FlowSetup(grid, default_cavity_bcs(grid), PhysicsConstants())
    newton_solve(t, setup, t.constant(nu))
    [node] = [node for node in t.nodes if node.op == "steady_flow"]
    x = node.ctx["x"]
    natural = ns_jacobian(setup, x, nu)
    ordered = solver._Linearization(setup, nu, x).jacobian()
    return natural, ordered, setup.order


def _fill(lu):
    return lu.L.nnz + lu.U.nnz


def _minimum_degree_fill(matrix):
    """L + U fill of SuperLU's symmetric path on ``matrix`` in minimum
    degree order on A+A^T, the order the package no longer uses."""
    return _fill(scipy.sparse.linalg.splu(
        matrix.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
        options={"SymmetricMode": True}))


def test_lu_cavity_fill_and_transpose_residual():
    natural, ordered, _ = _cavity_jacobians(21)
    lu = LuFactors(ordered, LinearSolveCounts())
    colamd = scipy.sparse.linalg.splu(natural.tocsc())
    assert _fill(lu._lu) <= 0.7 * _fill(colamd)
    b = np.random.default_rng(19).normal(size=ordered.shape[0])
    x = lu.solve_transpose(b, ordered)
    assert np.max(np.abs(b - ordered.T @ x)) < 1e-10 * np.max(np.abs(b))


def test_symmetric_order_gathers_permuted_matrix():
    # the system J is the natural J with rows and columns gathered by the
    # order: P J P^T
    natural, ordered, order = _cavity_jacobians(6)
    assert order.perm.dtype == order.inverse.dtype == np.int32
    np.testing.assert_array_equal(order.perm[order.inverse], np.arange(108))
    np.testing.assert_array_equal(
        ordered.toarray(), natural.toarray()[np.ix_(order.perm, order.perm)])
    np.testing.assert_array_equal(
        ordered[order.inverse][:, order.inverse].toarray(), natural.toarray())
    with pytest.raises(ContractError, match="permutation"):
        SymmetricOrder.create(np.zeros(30, dtype=int))


def _key_sort_order(pattern, perm):
    """(indptr, indices, gather) of P A P^T by sorting the permuted entries
    on their (row, column) key; A's data gathered by ``gather`` is the data
    of P A P^T."""
    n = pattern.n_rows
    inverse = np.empty(n, dtype=np.intp)
    inverse[perm] = np.arange(n)
    rows = inverse[pattern.entry_rows()]
    cols = inverse[pattern.indices]
    gather = np.argsort(rows.astype(np.int64) * n + cols).astype(np.int32)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
    return indptr.astype(np.int32), cols[gather].astype(np.int32), gather


def test_system_order_matches_key_sort():
    # the system pattern, laid out in the order, is the natural pattern
    # permuted and sorted by key, and its data are the natural data
    # gathered; the natural J of ns_jacobian lays each node row's columns
    # out once per block column, block row by block row
    natural, ordered, order = _cavity_jacobians(21)
    gops = operators_for(StructuredGrid(21))
    base = gops.pattern
    n = base.n_rows
    # the node layout the system is built from is the base pattern sorted
    # the same way, and its slots invert the gather
    nodes, slot, node_order = gops.node_layout()
    np.testing.assert_array_equal(order.perm[::3], node_order.perm)
    indptr, indices, gather = _key_sort_order(base, node_order.perm)
    np.testing.assert_array_equal(nodes.indptr, indptr)
    np.testing.assert_array_equal(nodes.indices, indices)
    np.testing.assert_array_equal(slot[gather], np.arange(base.nnz))
    rows = [base.indices[base.indptr[i]:base.indptr[i + 1]] + bc * n
            for _ in range(3) for i in range(n) for bc in range(3)]
    np.testing.assert_array_equal(natural.indices, np.concatenate(rows))
    indptr, indices, gather = _key_sort_order(_pattern(natural), order.perm)
    np.testing.assert_array_equal(ordered.indptr, indptr)
    np.testing.assert_array_equal(ordered.indices, indices)
    assert ordered.data.tobytes() == natural.data[gather].tobytes()


@pytest.mark.parametrize("grid_n, fill", [(21, 103_098), (41, 587_734),
                                          (81, 3_133_182)])
def test_superlu_reads_the_gathered_natural_system(monkeypatch, grid_n, fill):
    # the float32 arrays SuperLU reads are those of the natural J cast and
    # gathered into the order, byte for byte, and the fill is unchanged
    natural, ordered, order = _cavity_jacobians(grid_n)
    indptr, indices, gather = _key_sort_order(_pattern(natural), order.perm)
    read = []
    splu = scipy.sparse.linalg.splu

    def recording_splu(a, **kwargs):
        read.append((a.data.tobytes(), a.indices.tobytes(), a.indptr.tobytes(),
                     kwargs["permc_spec"]))
        return splu(a, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", recording_splu)
    lu = LuFactors(ordered, LinearSolveCounts())
    assert read == [(natural.data.astype(np.float32)[gather].tobytes(),
                     indices.tobytes(), indptr.tobytes(), "NATURAL")]
    assert lu._lu.L.nnz + lu._lu.U.nnz == fill


def test_factorization_leaves_the_pattern_unchanged():
    # SuperLU sorts the index arrays it is handed in place unless they are
    # canonical; the system pattern shares its arrays with every J
    g = StructuredGrid(9)
    setup = FlowSetup(g, default_cavity_bcs(g), PhysicsConstants())
    pattern = setup.sys_pattern
    before = pattern.indices.copy(), pattern.indptr.copy()
    x = np.zeros(3 * setup.n)
    x[setup.cidx] = setup.cvals
    matrix = solver._Linearization(
        setup, reference_field("cavity_viscosity", g.coords), x).jacobian()
    assert np.shares_memory(matrix.indices, pattern.indices)
    LuFactors(matrix, LinearSolveCounts())
    np.testing.assert_array_equal(pattern.indices, before[0])
    np.testing.assert_array_equal(pattern.indptr, before[1])
    # an unsorted matrix is factorized from a sorted copy
    m = _random_spd_like(12, seed=33)
    reversed_rows = np.concatenate([np.arange(lo, hi)[::-1] for lo, hi
                                    in zip(m.indptr[:-1], m.indptr[1:])])
    shuffled = scipy.sparse.csr_matrix(
        (m.data[reversed_rows], m.indices[reversed_rows], m.indptr),
        shape=m.shape)
    assert not shuffled.has_sorted_indices
    kept = shuffled.indices.copy()
    b = np.random.default_rng(34).normal(size=12)
    x = LuFactors(shuffled, LinearSolveCounts()).solve(b, shuffled)
    np.testing.assert_array_equal(shuffled.indices, kept)
    np.testing.assert_allclose(x, np.linalg.solve(m.toarray(), b), rtol=1e-10)


def test_factors_keep_no_reference_to_the_matrix():
    m = _random_spd_like(20, seed=35)
    lu = LuFactors(m, LinearSolveCounts())
    b = np.random.default_rng(36).normal(size=20)
    x = lu.solve(b, m)
    ref = weakref.ref(m)
    del m
    gc.collect()
    assert ref() is None
    # the factors still refine against a matrix that is named
    again = _random_spd_like(20, seed=35)
    np.testing.assert_array_equal(lu.solve(b, again), x)


@pytest.fixture(scope="module")
def cavity_41():
    """The 41x41 reference cavity Jacobian, natural and in its system order."""
    return _cavity_jacobians(41)


@pytest.mark.parametrize("trans", [False, True])
def test_ordered_lu_solves_cavity_jacobian(cavity_41, trans):
    _, jac, _ = cavity_41
    lu = LuFactors(jac, LinearSolveCounts())
    b = np.random.default_rng(31).normal(size=jac.shape[0])
    x = lu.solve_transpose(b, jac) if trans else lu.solve(b, jac)
    a = jac.T if trans else jac
    assert np.max(np.abs(b - a @ x)) <= 1e-10 * np.max(np.abs(b))


@pytest.fixture(scope="module")
def cavity_81():
    return _cavity_jacobians(81)


@pytest.mark.parametrize("grid_n", [41, 81])
def test_single_precision_factors_meet_double_tolerance(request, grid_n):
    # the factors of the converged cavity Jacobian are single precision;
    # refinement against the double J meets the bound within the sweep cap
    _, jac, _ = request.getfixturevalue(f"cavity_{grid_n}")
    counts = LinearSolveCounts()
    lu = LuFactors(jac, counts)
    assert lu._lu.L.dtype == lu._lu.U.dtype == np.float32
    b = np.random.default_rng(32).normal(size=jac.shape[0])
    for solve, a in ((lu.solve, jac), (lu.solve_transpose, jac.T)):
        before = counts.sweeps
        x = solve(b, jac)
        assert 1 <= counts.sweeps - before <= sparse._MAX_SWEEPS
        assert (np.max(np.abs(b - a @ x))
                <= sparse._RESIDUAL_TOL * np.max(np.abs(b)))


def test_lu_rejects_entries_beyond_single_precision():
    # checked from both ends of the range
    for value in (1e39, -1e39):
        m = _random_spd_like(4, seed=7)
        m.data[0] = value
        with pytest.raises(NumericError, match="single-precision"):
            LuFactors(m, LinearSolveCounts())


@pytest.mark.parametrize("size", [1e-40, 1e300])
@pytest.mark.parametrize("trans", [False, True])
def test_lu_solves_rhs_beyond_single_precision_range(size, trans):
    # a right-hand side below the smallest normal single or above the
    # largest one solves to the bound, with the solution of the unit rhs
    # scaled; a zero rhs solves to zero
    m = _random_spd_like(20, seed=30)
    unit = np.random.default_rng(31).normal(size=20)
    b = size * unit
    lu = LuFactors(m, LinearSolveCounts())
    solve = lu.solve_transpose if trans else lu.solve
    a = m.T if trans else m
    x = solve(b, m)
    assert np.max(np.abs(b - a @ x)) <= 1e-8 * np.max(np.abs(b))
    np.testing.assert_allclose(x / size, np.linalg.solve(a.toarray(), unit),
                               rtol=1e-10)
    assert not np.any(solve(np.zeros(20), m))


@pytest.mark.parametrize("delta", [1e-10, 1.5 * 2.0 ** -23])
def test_lu_rejects_matrix_conditioned_beyond_single_precision(delta):
    # nearly dependent rows, solved exactly in double precision.  In single
    # precision 1 + 1e-10 rounds to 1, so the factorization is singular;
    # 1 + 1.5 * 2^-23 rounds to 1 + 2^-22, so each sweep only quarters the
    # residual and refinement stalls
    a = np.array([[1.0, 1.0], [1.0, 1.0 + delta]])
    b = np.array([1.0, 2.0])
    assert np.linalg.cond(a) > 1e7
    assert np.max(np.abs(b - a @ np.linalg.solve(a, b))) <= 1e-8 * 2.0
    with pytest.raises(NumericError):
        m = scipy.sparse.csr_matrix(a)
        LuFactors(m, LinearSolveCounts()).solve(b, m)


def test_ordered_lu_fills_less_than_minimum_degree(cavity_41):
    natural, ordered, _ = cavity_41
    assert (_fill(LuFactors(ordered, LinearSolveCounts())._lu)
            <= 0.95 * _minimum_degree_fill(natural))


def _heat_solved(n, walls):
    """(grid, u, v, k, T, factorized matrix) of the heat solve at the
    reference conductivity in the unit-viscosity cavity flow; the matrix is
    in the grid's node order, ``heat.order`` the order."""
    grid = StructuredGrid(n)
    t = Tape()
    setup = FlowSetup(grid, default_cavity_bcs(grid), PhysicsConstants())
    state = newton_solve(t, setup, t.constant(np.ones(grid.n_nodes)))
    u, v = t.value(state.u), t.value(state.v)
    heat = HeatSetup(grid, u, v, PhysicsConstants(), walls(grid))
    k = reference_field("conjugate_heat", grid.coords)
    temp = heat_solve(t, heat, t.constant(k))
    [node] = [node for node in t.nodes if node.op == "heat_solve"]
    return grid, u, v, k, t.value(temp), node.ctx["matrix"], heat.order


def test_heat_lu_in_node_order_fills_no_more_than_minimum_degree():
    _, _, _, _, _, ordered, order = _heat_solved(41, uniform_boundary_bc)
    natural = ordered[order.inverse][:, order.inverse]
    lu = LuFactors(ordered, LinearSolveCounts())
    assert _fill(lu._lu) <= _minimum_degree_fill(natural)


def test_heat_temperature_matches_dense_solve():
    # the dense system is built in the natural order from the blocks, its
    # wall rows replaced by identity rows and no column eliminated
    def graded(grid):
        x, y = grid.coords[grid.all_boundary].T
        return DirichletSpec(grid.all_boundary, 0.2 + x + 0.5 * y ** 2)

    grid, u, v, k, temp, _, _ = _heat_solved(21, graded)
    gops = operators_for(grid)
    dense = gops.scipy_matrix(gops.convection(u, v)
                              + gops.diffusion(k)).toarray()
    rhs = gops.scipy_matrix(gops.m_data) @ np.ones(grid.n_nodes)
    walls = graded(grid)
    dense[walls.idx] = 0.0
    dense[walls.idx, walls.idx] = 1.0
    rhs[walls.idx] = walls.vals
    expected = np.linalg.solve(dense, rhs)
    assert np.max(np.abs(temp - expected)) <= 1e-10 * np.max(np.abs(expected))


def test_lu_zero_diagonal_factorizes():
    # a cyclic permutation plus a coupling: nonsingular, every diagonal zero
    n = 9
    dense = np.zeros((n, n))
    dense[np.arange(n), (np.arange(n) + 1) % n] = 2.0 + np.arange(n)
    dense[np.arange(n), (np.arange(n) + 4) % n] = 0.5
    assert np.all(np.diag(dense) == 0.0)
    m = scipy.sparse.csr_matrix(dense)
    lu = LuFactors(m, LinearSolveCounts())
    b = np.random.default_rng(20).normal(size=n)
    np.testing.assert_allclose(lu.solve(b, m), np.linalg.solve(dense, b),
                               rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(lu.solve_transpose(b, m),
                               np.linalg.solve(dense.T, b),
                               rtol=1e-12, atol=1e-12)


class _SkewedSolve:
    """SuperLU stand-in whose first ``bad_calls`` solves return ``x * factor``."""

    def __init__(self, lu, factor, bad_calls):
        self.lu, self.factor, self.bad_calls, self.calls = lu, factor, bad_calls, 0

    def solve(self, b, trans="N"):
        self.calls += 1
        x = self.lu.solve(b, trans=trans)
        return x * self.factor if self.calls <= self.bad_calls else x


def _skewed_splu(monkeypatch, factor, bad_calls):
    splu = scipy.sparse.linalg.splu
    made = []

    def wrapped(*args, **kwargs):
        made.append(_SkewedSolve(splu(*args, **kwargs), factor, bad_calls))
        return made[-1]

    monkeypatch.setattr(scipy.sparse.linalg, "splu", wrapped)
    return made


@pytest.mark.parametrize("trans", [False, True])
def test_lu_refinement_repairs_perturbed_solve(monkeypatch, trans):
    m = _random_spd_like(20, seed=21)
    made = _skewed_splu(monkeypatch, 1.0 + 1e-5, bad_calls=1)
    lu = LuFactors(m, LinearSolveCounts())
    b = np.random.default_rng(22).normal(size=20)
    dense = m.toarray().T if trans else m.toarray()
    x = lu.solve_transpose(b, m) if trans else lu.solve(b, m)
    assert made[0].calls == 2
    np.testing.assert_allclose(x, np.linalg.solve(dense, b), rtol=1e-12,
                               atol=1e-12)


@pytest.mark.parametrize("trans", [False, True])
def test_lu_unrepairable_solve_raises(monkeypatch, trans):
    m = _random_spd_like(20, seed=23)
    made = _skewed_splu(monkeypatch, -1.0, bad_calls=2)
    lu = LuFactors(m, LinearSolveCounts())
    b = np.random.default_rng(24).normal(size=20)
    with pytest.raises(NumericError, match="residual"):
        lu.solve_transpose(b, m) if trans else lu.solve(b, m)
    assert made[0].calls == 2


def _cavity_newton_jacobians(n, steps):
    """J(x_0), ..., J(x_steps) along the reference-viscosity cavity Newton."""
    grid = StructuredGrid(n)
    nu = reference_field("cavity_viscosity", grid.coords)
    setup = FlowSetup(grid, default_cavity_bcs(grid), PhysicsConstants())
    x = np.zeros(3 * setup.n)
    x[setup.cidx] = setup.cvals
    jacobians = []
    for _ in range(steps + 1):
        lin = solver._Linearization(setup, nu, x)
        jacobians.append(lin.jacobian())
        step = scipy.sparse.linalg.spsolve(jacobians[-1].tocsc(),
                                           lin.f[setup.order.perm])
        x = x - step[setup.order.inverse]
        x[setup.cidx] = setup.cvals
    return jacobians


@pytest.mark.parametrize("trans", [False, True])
def test_refinement_against_nearby_factors(monkeypatch, trans):
    # the step-1 factors solve with the step-3 Jacobian J(x_2), or its
    # transpose, to the residual bound within the sweep cap
    j0, _, j2 = _cavity_newton_jacobians(21, 2)
    made = _skewed_splu(monkeypatch, 1.0, bad_calls=0)
    lu = LuFactors(j0, LinearSolveCounts())
    b = np.random.default_rng(25).normal(size=j0.shape[0])
    x = lu.solve_transpose(b, j2) if trans else lu.solve(b, j2)
    a = j2.T if trans else j2
    assert np.max(np.abs(b - a @ x)) <= 1e-8 * np.max(np.abs(b))
    assert 2 <= made[0].calls <= sparse._MAX_SWEEPS


@pytest.mark.parametrize("trans", [False, True])
def test_refinement_stall_reported_without_raising(trans):
    m = _random_spd_like(20, seed=26)
    # dominated by -20 I where m is dominated by +20 I
    unrelated = -_random_spd_like(20, seed=27)
    nan_entry = m.copy()
    nan_entry.data[3] = np.nan
    lu = LuFactors(m, LinearSolveCounts())
    b = np.random.default_rng(28).normal(size=20)
    solve = lu.solve_transpose if trans else lu.solve
    assert solve(b, unrelated) is None
    assert solve(b, nan_entry) is None
    # a copy of the factorized matrix is solved as a nearby matrix, to the
    # bits of a solve with the factorized matrix itself
    np.testing.assert_allclose(solve(b, m.copy()), solve(b, m), rtol=0.0,
                               atol=0.0)


def test_factors_fill_the_linear_solve_counts(monkeypatch):
    m = _random_spd_like(20, seed=26)
    near = m.copy()
    near.data *= 1.0 + 1e-6
    far = -_random_spd_like(20, seed=27)
    b = np.random.default_rng(28).normal(size=20)
    counts = LinearSolveCounts()
    lu = LuFactors(m, counts)
    assert counts == LinearSolveCounts(factorizations=1)
    lu.solve(b, m)
    lu.solve_transpose(b, m)
    sweeps = counts.sweeps
    assert sweeps >= 2
    assert counts == LinearSolveCounts(factorizations=1, sweeps=sweeps)
    assert lu.solve(b, near) is not None
    assert counts.recycled_solves == 1 and counts.stalls == 0
    assert lu.solve_transpose(b, far) is None
    assert counts.recycled_solves == 1 and counts.stalls == 1
    assert counts.factorizations == 1 and counts.sweeps > sweeps
    # a factorization that fails its checks counts too
    with pytest.raises(NumericError):
        LuFactors(scipy.sparse.csr_matrix(np.array([[np.nan]])), counts)
    assert counts.factorizations == 2
    # a stall with the factorized matrix raises, its sweeps counted
    made = _skewed_splu(monkeypatch, -1.0, bad_calls=2)
    counts = LinearSolveCounts()
    lu = LuFactors(m, counts)
    with pytest.raises(NumericError, match="residual"):
        lu.solve(b, m)
    assert made[0].calls == 2
    assert counts == LinearSolveCounts(factorizations=1, sweeps=2)


def test_sparse_solve_adjoint_matches_dense_identities():
    n = 25
    m = _random_spd_like(n, seed=8)
    rng = np.random.default_rng(9)
    b = rng.normal(size=n)
    c = rng.normal(size=n)

    t = Tape()
    data = t.variable(m.data)
    rhs = t.variable(b)
    x_ref = sparse_solve(t, _pattern(m), data, rhs)
    loss = dot(t, t.constant(c), x_ref)
    grads = t.backward(loss)

    dense = m.toarray()
    x = np.linalg.solve(dense, b)
    lam = np.linalg.solve(dense.T, c)
    np.testing.assert_allclose(t.value(x_ref), x, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(grads[rhs], lam, rtol=1e-10, atol=1e-12)
    pat = _pattern(m)
    expected = -lam[pat.entry_rows()] * x[pat.indices]
    np.testing.assert_allclose(grads[data], expected, rtol=1e-10, atol=1e-12)


def test_sparse_solve_gradient_matches_fd():
    n = 8
    m = _random_spd_like(n, seed=10)
    rng = np.random.default_rng(11)
    b = rng.normal(size=n)
    c = rng.normal(size=n)
    nnz = m.nnz

    def f(theta):
        t = Tape()
        th = t.variable(theta)
        data = ops.slice1d(t, th, 0, nnz)
        rhs = ops.slice1d(t, th, nnz, nnz + n)
        x = sparse_solve(t, _pattern(m), data, rhs)
        loss = dot(t, t.constant(c), x)
        return t.value(loss)[0], t.backward(loss)[th]

    theta0 = np.concatenate([m.data, b])
    assert finite_difference_check(f, theta0, indices=range(0, theta0.size, 7)) < 1e-6


def test_spmv_pattern_adjoint_matches_dense_identities():
    # the product the residual oracle of the flow tests records
    n = 15
    m = _random_spd_like(n, seed=12)
    rng = np.random.default_rng(13)
    x0 = rng.normal(size=n)
    c = rng.normal(size=n)

    t = Tape()
    data = t.variable(m.data)
    x = t.variable(x0)
    y = spmv_pattern(t, _pattern(m), data, x)
    loss = dot(t, t.constant(c), y)
    grads = t.backward(loss)

    dense = m.toarray()
    np.testing.assert_allclose(grads[x], dense.T @ c, rtol=1e-12, atol=1e-13)
    pat = _pattern(m)
    np.testing.assert_allclose(grads[data], c[pat.entry_rows()] * x0[pat.indices],
                               rtol=1e-12, atol=1e-13)


def test_spmv_fixed_backward_is_transpose_matvec():
    m = _random_spd_like(10, seed=14)
    rng = np.random.default_rng(15)
    x0 = rng.normal(size=10)
    c = rng.normal(size=10)

    t = Tape()
    x = t.variable(x0)
    y = spmv_fixed(t, m, x)
    loss = dot(t, t.constant(c), y)
    grads = t.backward(loss)
    np.testing.assert_allclose(grads[x], m.toarray().T @ c, rtol=1e-12, atol=1e-13)


def test_matrix_market_roundtrip(tmp_path):
    # the CLI's --dump-matrix writes with scipy.io.mmwrite at its default
    # precision; a matrix rebuilt from its pattern must read back bit for bit
    m = _random_spd_like(9, seed=16)
    path = tmp_path / "matrix.mtx"
    scipy.io.mmwrite(path, _pattern(m).to_scipy(m.data))
    back = scipy.io.mmread(path)
    np.testing.assert_allclose(back.toarray(), m.toarray(), rtol=0, atol=0)


def test_pattern_shared_between_blocks():
    m = _random_spd_like(6, seed=17)
    pat = _pattern(m)
    assert pat.nnz == m.nnz
    rows = pat.entry_rows()
    assert rows.shape == (m.nnz,)
    # rows must agree with indptr expansion
    for k in range(pat.nnz):
        i = rows[k]
        assert pat.indptr[i] <= k < pat.indptr[i + 1]


def test_import_leaves_scipy_io_unloaded():
    # only the CLI's --dump-matrix needs the MatrixMarket writer
    code = "import sys, flowgrad; assert 'scipy.io' not in sys.modules"
    src = os.path.dirname(os.path.dirname(flowgrad.__file__))
    subprocess.run([sys.executable, "-c", code], check=True,
                   env=dict(os.environ, PYTHONPATH=src))


def test_every_all_entry_exists():
    # the benchmark's tracer looks up every __all__ entry of the modules it
    # instruments, so a stale entry breaks every traced run
    modules = [flowgrad] + [importlib.import_module(f"flowgrad.{m.name}")
                            for m in pkgutil.iter_modules(flowgrad.__path__)]
    assert len(modules) > 1
    missing = [f"{module.__name__}.{name}" for module in modules
               for name in getattr(module, "__all__", ())
               if not hasattr(module, name)]
    assert not missing


def test_benchmark_tracer_finds_every_name_it_wraps(monkeypatch):
    # the benchmark's tracer also wraps kernels, methods and operators by
    # name, so deleting one must fail here and not only in a traced run;
    # one traced 6x6 evaluation of each experiment goes through every
    # wrapper and note the layer metrics read, so a changed signature fails
    # here too, and must reproduce the untraced loss and gradient
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    configs = [experiments.ExperimentConfig(name, grid_n=6, n_points=12)
               for name in experiments.EXPERIMENTS]

    def evaluate_each():
        out = []
        for cfg in configs:
            problem = experiments.build_problem(cfg)
            out.append(problem.objective(problem.theta0))
        return out

    untraced = evaluate_each()
    # empty shared caches, so the traced builds lay out the flow system
    for module, name in ((assembly, "_OPERATORS"),
                         (experiments, "_REFERENCES")):
        monkeypatch.setattr(module, name, {})
    original, registry = kernels.advection_bwd, dict(tape._REGISTRY)
    tracer = tracing.Tracer()
    with tracing.instrumented(tracer, full=True):
        assert kernels.advection_bwd is not original
        traced = evaluate_each()
    assert kernels.advection_bwd is original
    assert tape._REGISTRY == registry
    assert {"sparse.splu", "sparse.LuFactors.solve",
            "sparse.LuFactors.solve_transpose", "grid.system_layout",
            "solver.newton_solve", "solver.heat_solve"} <= set(tracer.names)
    for (loss, grad), (traced_loss, traced_grad) in zip(untraced, traced):
        assert loss == traced_loss
        assert grad.tobytes() == traced_grad.tobytes()
