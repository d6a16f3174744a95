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

import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.io
import scipy.sparse
import scipy.sparse.linalg

import flowgrad
from flowgrad import kernels, ops, solver, sparse, tape
from flowgrad.assembly import operators_for
from flowgrad.errors import ContractError, NumericError, SingularMatrixError
from flowgrad.experiments import reference_field
from flowgrad.grid import StructuredGrid
from flowgrad.solver import (
    PhysicsConstants,
    default_cavity_bcs,
    newton_solve,
    ns_jacobian,
)
from flowgrad.sparse import LuFactors, SparsePattern, SymmetricOrder, spmv_fixed
from flowgrad.tape import Tape, finite_difference_check
from tape_oracle import dot, sparse_solve, spmv_pattern


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
    lu = LuFactors(m)
    np.testing.assert_allclose(lu.solve(b), np.linalg.solve(m.toarray(), b),
                               rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(lu.solve_transpose(b),
                               np.linalg.solve(m.toarray().T, b),
                               rtol=1e-10, atol=1e-12)


def test_lu_rejects_bad_inputs():
    m = _random_spd_like(4, seed=7)
    with pytest.raises(ContractError):
        LuFactors(scipy.sparse.random(3, 4, density=0.5, format="csr"))
    with pytest.raises(ContractError):
        LuFactors(m).solve(np.zeros(3))
    bad = scipy.sparse.csr_matrix(np.array([[1.0, np.nan], [0.0, 1.0]]))
    with pytest.raises(NumericError):
        LuFactors(bad)


def test_singular_empty_row_reports_pivot():
    dense = np.array([[1.0, 2.0, 0.0], [0.0, 0.0, 0.0], [0.0, 1.0, 3.0]])
    with pytest.raises(SingularMatrixError) as err:
        LuFactors(scipy.sparse.csr_matrix(dense))
    assert err.value.pivot_index == 1


def test_singular_dependent_rows_reports_pivot():
    # structurally full but rank-deficient; the dense diagnostic must locate
    # a dead pivot
    dense = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [1.0, 1.0, 1.0]])
    with pytest.raises(SingularMatrixError) as err:
        LuFactors(scipy.sparse.csr_matrix(dense))
    assert 0 <= err.value.pivot_index <= 2


def _cavity_jacobian(n):
    """Constrained Newton matrix J(x*) of the reference-viscosity cavity."""
    grid = StructuredGrid(n)
    t = Tape()
    nu = t.constant(reference_field("cavity_viscosity", grid.coords))
    bc = default_cavity_bcs(grid)
    state = newton_solve(t, grid, nu, PhysicsConstants(), bc)
    return ns_jacobian(t, grid, state, nu, PhysicsConstants(), bc)


def test_lu_cavity_fill_and_transpose_residual():
    jac = _cavity_jacobian(21)
    lu = LuFactors(jac)
    colamd = scipy.sparse.linalg.splu(jac.tocsc())
    fill = lu._lu.L.nnz + lu._lu.U.nnz
    assert fill <= 0.7 * (colamd.L.nnz + colamd.U.nnz)
    b = np.random.default_rng(19).normal(size=jac.shape[0])
    x = lu.solve_transpose(b)
    assert np.max(np.abs(b - jac.T @ x)) < 1e-10 * np.max(np.abs(b))


def test_symmetric_order_gathers_permuted_matrix():
    m = _random_spd_like(30, seed=29)
    m = m + m.T
    perm = np.random.default_rng(30).permutation(30)
    order = SymmetricOrder.create(_pattern(m), perm)
    assert order.gather.dtype == np.int32
    # a valid CSR pattern with sorted rows, holding P A P^T
    permuted = SparsePattern.create(30, 30, order.indptr, order.indices)
    assert permuted.nnz == m.nnz
    np.testing.assert_array_equal(
        permuted.to_scipy(m.data[order.gather]).toarray(),
        m.toarray()[np.ix_(perm, perm)])
    np.testing.assert_array_equal(order.perm[order.inverse], np.arange(30))
    with pytest.raises(ContractError, match="permutation"):
        SymmetricOrder.create(order.pattern, np.zeros(30, dtype=int))


def _key_sort_order(pattern, perm):
    """(inverse, indptr, indices, gather) of P A P^T by sorting the permuted
    entries on their (row, column) key."""
    n = pattern.n_rows
    inverse = np.empty(n, dtype=np.intp)
    inverse[perm] = np.arange(n)
    rows = inverse[pattern.entry_rows()]
    cols = inverse[pattern.indices]
    gather = np.argsort(rows.astype(np.int64) * n + cols).astype(np.int32)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
    return (inverse, indptr.astype(np.int32), cols[gather].astype(np.int32),
            gather)


def test_system_order_matches_key_sort():
    order = operators_for(StructuredGrid(21)).system_order()
    inverse, indptr, indices, gather = _key_sort_order(order.pattern,
                                                       order.perm)
    np.testing.assert_array_equal(order.perm[inverse], np.arange(3 * 21 * 21))
    for got, expected in ((order.inverse, inverse), (order.indptr, indptr),
                          (order.indices, indices), (order.gather, gather)):
        assert got.dtype == expected.dtype
        np.testing.assert_array_equal(got, expected)


@pytest.fixture(scope="module")
def cavity_41():
    """The 41x41 reference cavity Jacobian and its grid's order."""
    return (_cavity_jacobian(41),
            operators_for(StructuredGrid(41)).system_order())


@pytest.mark.parametrize("trans", [False, True])
def test_ordered_lu_solves_cavity_jacobian(cavity_41, trans):
    jac, order = cavity_41
    lu = LuFactors(jac, order)
    b = np.random.default_rng(31).normal(size=jac.shape[0])
    x = lu.solve_transpose(b) if trans else lu.solve(b)
    a = jac.T if trans else jac
    assert np.max(np.abs(b - a @ x)) <= 1e-10 * np.max(np.abs(b))


@pytest.fixture(scope="module")
def cavity_81():
    return (_cavity_jacobian(81),
            operators_for(StructuredGrid(81)).system_order())


@pytest.mark.parametrize("grid_n", [41, 81])
def test_single_precision_factors_meet_double_tolerance(request, grid_n):
    # the factors of the converged cavity Jacobian are single precision;
    # refinement against the double J meets the bound within the sweep cap
    jac, order = request.getfixturevalue(f"cavity_{grid_n}")
    lu = LuFactors(jac, order)
    assert lu._lu.L.dtype == lu._lu.U.dtype == np.float32
    b = np.random.default_rng(32).normal(size=jac.shape[0])
    for solve, a in ((lu.solve, jac), (lu.solve_transpose, jac.T)):
        before = lu.sweeps
        x = solve(b)
        assert 1 <= lu.sweeps - before <= sparse._MAX_SWEEPS
        assert (np.max(np.abs(b - a @ x))
                <= sparse._RESIDUAL_TOL * np.max(np.abs(b)))


def test_lu_rejects_entries_beyond_single_precision():
    # checked from both ends of the range
    for value in (1e39, -1e39):
        m = _random_spd_like(4, seed=7)
        m.data[0] = value
        with pytest.raises(NumericError, match="single-precision"):
            LuFactors(m)


@pytest.mark.parametrize("size", [1e-40, 1e300])
@pytest.mark.parametrize("trans", [False, True])
def test_lu_solves_rhs_beyond_single_precision_range(size, trans):
    # a right-hand side below the smallest normal single or above the
    # largest one solves to the bound, with the solution of the unit rhs
    # scaled; a zero rhs solves to zero
    m = _random_spd_like(20, seed=30)
    unit = np.random.default_rng(31).normal(size=20)
    b = size * unit
    lu = LuFactors(m)
    solve = lu.solve_transpose if trans else lu.solve
    a = m.T if trans else m
    x = solve(b)
    assert np.max(np.abs(b - a @ x)) <= 1e-8 * np.max(np.abs(b))
    np.testing.assert_allclose(x / size, np.linalg.solve(a.toarray(), unit),
                               rtol=1e-10)
    assert not np.any(solve(np.zeros(20)))


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
        LuFactors(scipy.sparse.csr_matrix(a)).solve(b)


def test_ordered_lu_fills_less_than_minimum_degree(cavity_41):
    jac, order = cavity_41
    nested = LuFactors(jac, order)._lu
    mmd = LuFactors(jac)._lu
    assert (nested.L.nnz + nested.U.nnz
            <= 0.95 * (mmd.L.nnz + mmd.U.nnz))


def test_ordered_lu_rejects_other_pattern():
    jac = _cavity_jacobian(6)
    order = operators_for(StructuredGrid(6)).system_order()
    # the constrained Jacobian stores the zeros of its eliminated columns
    pruned = jac.copy()
    pruned.eliminate_zeros()
    assert pruned.shape == jac.shape and pruned.nnz < jac.nnz
    with pytest.raises(ContractError, match="pattern"):
        LuFactors(pruned, order)
    with pytest.raises(ContractError, match="pattern"):
        LuFactors(_cavity_jacobian(7), order)


def test_lu_zero_diagonal_factorizes():
    # a cyclic permutation plus a coupling: nonsingular, every diagonal zero
    n = 9
    dense = np.zeros((n, n))
    dense[np.arange(n), (np.arange(n) + 1) % n] = 2.0 + np.arange(n)
    dense[np.arange(n), (np.arange(n) + 4) % n] = 0.5
    assert np.all(np.diag(dense) == 0.0)
    lu = LuFactors(scipy.sparse.csr_matrix(dense))
    b = np.random.default_rng(20).normal(size=n)
    np.testing.assert_allclose(lu.solve(b), np.linalg.solve(dense, b),
                               rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(lu.solve_transpose(b),
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
    lu = LuFactors(m)
    b = np.random.default_rng(22).normal(size=20)
    dense = m.toarray().T if trans else m.toarray()
    x = lu.solve_transpose(b) if trans else lu.solve(b)
    assert made[0].calls == 2
    np.testing.assert_allclose(x, np.linalg.solve(dense, b), rtol=1e-12,
                               atol=1e-12)


@pytest.mark.parametrize("trans", [False, True])
def test_lu_unrepairable_solve_raises(monkeypatch, trans):
    m = _random_spd_like(20, seed=23)
    made = _skewed_splu(monkeypatch, -1.0, bad_calls=2)
    lu = LuFactors(m)
    b = np.random.default_rng(24).normal(size=20)
    with pytest.raises(NumericError, match="residual"):
        lu.solve_transpose(b) if trans else lu.solve(b)
    assert made[0].calls == 2


def _cavity_newton_jacobians(n, steps):
    """J(x_0), ..., J(x_steps) along the reference-viscosity cavity Newton."""
    grid = StructuredGrid(n)
    nu = reference_field("cavity_viscosity", grid.coords)
    setup = solver._NsSetup(grid, default_cavity_bcs(grid), PhysicsConstants(),
                            solver.DEFAULT_BETA)
    x = np.zeros(3 * setup.n)
    x[setup.cidx] = setup.cvals
    jacobians = []
    for _ in range(steps + 1):
        jac, res = solver._Linearization(setup, nu, x).jacobian()
        jacobians.append(jac)
        x = x - scipy.sparse.linalg.spsolve(jac.tocsc(), res)
        x[setup.cidx] = setup.cvals
    return jacobians


@pytest.mark.parametrize("trans", [False, True])
def test_refinement_against_nearby_factors(monkeypatch, trans):
    # the step-1 factors solve with the step-3 Jacobian J(x_2), or its
    # transpose, to the residual bound within the sweep cap
    j0, _, j2 = _cavity_newton_jacobians(21, 2)
    made = _skewed_splu(monkeypatch, 1.0, bad_calls=0)
    lu = LuFactors(j0)
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
    lu = LuFactors(m)
    b = np.random.default_rng(28).normal(size=20)
    solve = lu.solve_transpose if trans else lu.solve
    assert solve(b, unrelated) is None
    assert solve(b, nan_entry) is None
    # the factorized matrix itself, given as a nearby matrix, is solved
    np.testing.assert_allclose(solve(b, m), solve(b), rtol=0.0,
                               atol=0.0)


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


def test_benchmark_tracer_finds_every_name_it_wraps():
    # the benchmark's tracer also wraps kernels, methods and operators by
    # name, so deleting one must fail here and not only in a traced run
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    original, registry = kernels.advection_bwd, dict(tape._REGISTRY)
    with tracing.instrumented(tracing.Tracer(), full=True):
        assert kernels.advection_bwd is not original
    assert kernels.advection_bwd is original
    assert tape._REGISTRY == registry
