"""Sparse patterns, orders and LU factorization.

A matrix is a scipy sparse matrix, or a 1-d data array over a
:class:`SparsePattern` (indptr and column indices only; ``entry_rows``
expands the row of each entry when a setup or adjoint needs it) that the
matrices of one grid share.  A :class:`SymmetricOrder` maps vectors between
a system's natural order and the order it is assembled and factorized in.
Nothing here is recorded on a tape: the solver records each system as one
operator whose forward keeps its factorization and whose backward is one
transpose solve with it (see :mod:`flowgrad.solver`).

Every matrix factorized here is a structurally symmetric finite-element
matrix that arrives in its own fill-reducing order, so :class:`LuFactors`
runs SuperLU's symmetric path as the matrix stands: pivots taken from the
diagonal, and no column order of its own.  The grid owns that order, a
nested dissection of its nodes (George, *Nested dissection of a regular
finite element mesh*, 1973; see ``GridOperators.system_layout``), and both
the flow Jacobian and the heat system are assembled in it.  Against minimum
degree on A+A^T it has 7% less fill on the cavity Jacobian and factorizes
11-25% faster at 41x41, 18% and 35% at 81x81.  On the heat system it has
4% and 5% less fill at 41x41 and 81x81 (1% more at 21x21) and factorizes
13-35% faster.  It gives about 45% less fill than COLAMD with partial
pivoting on the cavity Jacobian, but no bound on element growth.  A
matrix that SuperLU finds singular raises :class:`SingularMatrixError` with
SuperLU's message.

SuperLU factorizes A in single precision, which halves the factors' value
storage, and every solve is iterative refinement in double precision
(mixed-precision refinement: Langou et al., *Exploiting the performance of
32 bit floating point arithmetic in obtaining 64 bit accuracy*, SC 2006;
Carson & Higham, SIAM J. Sci. Comput. 2018): x <- x + LU^-1 (b - A x)
from x = 0 until ``max|b - A x| <= 1e-8 max|b|``, with the residual taken
in double against the double A.  The factors keep no reference to A: each
solve names the matrix it refines against.  With the factorized matrix
itself the first sweep is the direct solve, accurate to single precision
only, so a solve takes two to four sweeps, and a matrix whose condition
number nears the inverse of the single-precision roundoff (about 1e7) can
fail the test where double-precision factors would meet it.  The same
sweeps solve with a *nearby* matrix, such as a later Newton Jacobian, using
these factors as the approximate inverse.  Sweeps are capped; when
refinement stalls a solve with the factorized matrix raises
:class:`NumericError` and a solve with a nearby matrix returns None, so the
caller can factorize that matrix and keep its factors for the matrices that
follow.  The factors add their factorization, every refinement sweep, and
each solve with a nearby matrix (met by refinement or stalled) to the
caller's :class:`LinearSolveCounts`, which they are built with.
Residuals, right-hand sides and solutions are all in the order of the
matrix as given.  SuperLU is handed the CSR arrays of A as the CSC
arrays of their transpose, which avoids a format conversion; the solves
swap ``trans`` to match.
"""

import weakref
from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .errors import ContractError, NumericError, SingularMatrixError

__all__ = [
    "SparsePattern",
    "SymmetricOrder",
    "LinearSolveCounts",
    "LuFactors",
]

# Largest accepted max|b - A x| of an LU solve, relative to max|b|.
_RESIDUAL_TOL = 1e-8

# Most refinement sweeps of one solve, the first being the plain LU solve.
# With the factorized matrix itself the single-precision factors take two to
# four (three on the converged cavity Jacobian at 21x21 to 161x161).
# Against the step-1 Jacobian of a 41x41 cavity Newton solve, the later
# steps and the adjoint take four at the reference viscosity and eight at
# nu = 0.1.
_MAX_SWEEPS = 10

# Largest magnitude a matrix entry may have to be factorized in single
# precision.
_SINGLE_MAX = float(np.finfo(np.float32).max)


@dataclass(frozen=True)
class SparsePattern:
    """Fixed CSR sparsity structure shared by the data arrays of many
    matrices; a pattern holds no values."""

    n_rows: int
    n_cols: int
    indptr: np.ndarray
    indices: np.ndarray

    @classmethod
    def create(cls, n_rows, n_cols, indptr, indices):
        """A validated pattern: raises :class:`ContractError` unless the
        arrays are CSR with strictly increasing columns in every row."""
        indptr = np.asarray(indptr)
        indices = np.asarray(indices)
        if indptr.shape != (n_rows + 1,):
            raise ContractError(
                f"indptr length {indptr.shape[0]} != n_rows + 1 = {n_rows + 1}")
        # signed steps: a decreasing unsigned indptr would wrap around
        if indptr[0] != 0 or np.any(np.diff(indptr.astype(np.int64)) < 0):
            raise ContractError("indptr must start at 0 and be non-decreasing")
        if indptr[-1] != indices.shape[0]:
            raise ContractError(
                f"indptr[-1] = {indptr[-1]} != nnz = {indices.shape[0]}")
        if indices.size and (indices.min() < 0 or indices.max() >= n_cols):
            raise ContractError(f"column index outside [0, {n_cols})")
        # step k goes from entry k to entry k + 1; steps into a row start are
        # not constrained.  Signed steps: unsigned indices would wrap around.
        starts = indptr[1:-1]
        crosses_row = np.zeros(max(indices.shape[0] - 1, 0), dtype=bool)
        crosses_row[starts[(starts > 0) & (starts < indices.shape[0])] - 1] = True
        steps = np.diff(indices.astype(np.int64))
        bad = np.flatnonzero((steps <= 0) & ~crosses_row)
        if bad.size:
            i = np.searchsorted(indptr, bad[0], side="right") - 1
            raise ContractError(f"row {i}: column indices not strictly increasing")
        return cls(n_rows, n_cols, indptr.astype(np.int32),
                   indices.astype(np.int32))

    @property
    def nnz(self):
        return self.indices.shape[0]

    def entry_rows(self):
        """The row of each stored entry, expanded from ``indptr`` on each
        call: a pattern keeps no per-entry rows, since only its setup and
        adjoint passes read them."""
        return np.repeat(np.arange(self.n_rows, dtype=np.int32),
                         np.diff(self.indptr))

    def to_scipy(self, data):
        return scipy.sparse.csr_matrix(
            (data, self.indices, self.indptr), shape=(self.n_rows, self.n_cols)
        )


@dataclass(frozen=True)
class SymmetricOrder:
    """A symmetric permutation P of the rows and columns of a square system.

    Row and column ``perm[k]`` of A become row and column k of P A P^T, so
    a vector x of A's order is ``x[perm]`` in P's, and ``inverse`` undoes
    ``perm``.  Both are int32.
    """

    perm: np.ndarray
    inverse: np.ndarray

    @classmethod
    def create(cls, perm):
        perm = np.asarray(perm, dtype=np.int32)
        n = perm.shape[0]
        if perm.ndim != 1 or not np.array_equal(np.sort(perm), np.arange(n)):
            raise ContractError(f"order is not a permutation of {n} rows")
        inverse = np.empty(n, dtype=np.int32)
        inverse[perm] = np.arange(n, dtype=np.int32)
        return cls(perm, inverse)


@dataclass
class LinearSolveCounts:
    """Running totals of the linear solves of one caller, filled by the
    :class:`LuFactors` built with them.

    ``factorizations`` counts LU factorizations, a failed one included;
    ``recycled_solves`` the solves with a matrix other than the factorized
    one that refinement against the factors met, and ``stalls`` those where
    it stalled, after which the caller factorizes that matrix.  ``sweeps``
    totals the refinement sweeps of every solve, a stalled or failed one
    included.
    """

    factorizations: int = 0
    recycled_solves: int = 0
    stalls: int = 0
    sweeps: int = 0


class LuFactors:
    """LU factorization of a square sparse matrix, with solves by refinement.

    Symmetric-mode SuperLU in single precision, in the order the matrix is
    given in, with solves refined to the double-precision residual test;
    see the module docstring.  An entry beyond the single-precision range
    raises :class:`NumericError`, and a matrix that SuperLU finds singular
    :class:`SingularMatrixError` with SuperLU's message.  The factors keep
    no reference to the matrix: ``solve`` and ``solve_transpose`` name the
    matrix they refine against, the factorized one or a nearby one of the
    same size.  Every factorization, sweep, recycled solve and stall adds
    to ``counts``, a :class:`LinearSolveCounts`; the factorization counts
    before the matrix is checked, so one that fails counts too.
    """

    def __init__(self, matrix, counts):
        counts.factorizations += 1
        self._counts = counts
        if not scipy.sparse.issparse(matrix):
            raise ContractError(f"cannot factorize {type(matrix).__name__}")
        sp = matrix.tocsr()
        if sp.shape[0] != sp.shape[1]:
            raise ContractError(f"matrix is not square: {sp.shape}")
        if not np.all(np.isfinite(sp.data)):
            raise NumericError("matrix has non-finite entries")
        if (sp.data.max(initial=0.0) > _SINGLE_MAX
                or sp.data.min(initial=0.0) < -_SINGLE_MAX):
            raise NumericError("matrix has entries beyond the single-precision "
                               "range")
        if not sp.has_canonical_format:
            # SuperLU would sort the index arrays it shares with A in place
            sp = sp.copy()
            sp.sum_duplicates()
        self.n = sp.shape[0]
        # a weak reference, so the factors keep no matrix alive
        self._factorized = weakref.ref(matrix)
        # the only single-precision copy, sharing A's index arrays
        factored = scipy.sparse.csr_matrix(
            (sp.data.astype(np.float32), sp.indices, sp.indptr), shape=sp.shape)
        try:
            # factors of the transpose, from the CSR arrays read as CSC.
            # SuperLU skips an exactly zero diagonal even at threshold 0, so
            # a nonsingular matrix with zero diagonal entries still factorizes
            self._lu = scipy.sparse.linalg.splu(
                factored.T, permc_spec="NATURAL",
                diag_pivot_thresh=0.0, options={"SymmetricMode": True})
        except RuntimeError as exc:
            raise SingularMatrixError(
                f"LU factorization failed: {exc}") from exc

    def _lu_solve(self, r, trans):
        """LU^-1 r.

        The single-precision solve sees r / max|r|, so a residual far below
        or above the single-precision range neither under- nor overflows;
        the correction is scaled back in double precision.
        """
        scale = np.max(np.abs(r), initial=0.0) or 1.0
        y = self._lu.solve((r / scale).astype(np.float32), trans=trans)
        return np.multiply(y, scale, dtype=np.float64)

    def _refine(self, a, b, transpose):
        """x with max|b - a x| <= 1e-8 max|b|, or None when refinement stalls.

        Sweeps x <- x + LU^-1 (b - a x) from x = 0 with these factors, or
        their transpose, as the approximate inverse.  Refinement stalls when
        the residual, shrinking further at the rate of the last sweep, would
        not meet the bound within ``_MAX_SWEEPS`` sweeps; a residual that
        grows or is NaN stalls at once.
        """
        b = np.asarray(b, dtype=np.float64)
        if b.shape != (self.n,):
            raise ContractError(f"rhs length {b.shape} != {self.n}")
        if a.shape != (self.n, self.n):
            raise ContractError(f"matrix shape {a.shape} != factors "
                                f"{(self.n, self.n)}")
        # the factors are those of A^T, so "T" solves with A
        trans = "N" if transpose else "T"
        a = a.T if transpose else a
        tol = _RESIDUAL_TOL * np.max(np.abs(b), initial=0.0)
        x = np.zeros(self.n)
        r, last = b, np.inf
        for sweep in range(1, _MAX_SWEEPS + 1):
            self._counts.sweeps += 1
            x += self._lu_solve(r, trans)
            r = b - a @ x
            res = np.max(np.abs(r), initial=0.0)
            if res <= tol:
                return x
            # written so that a NaN residual stalls
            rate = res / last
            if not (rate < 1.0 and res * rate ** (_MAX_SWEEPS - sweep) <= tol):
                return None
            last = res
        return None

    def _solve(self, b, matrix, transpose):
        x = self._refine(matrix, b, transpose)
        if matrix is self._factorized():
            if x is None:
                raise NumericError(
                    f"LU solve residual stays above {_RESIDUAL_TOL:g} max|b| "
                    f"under iterative refinement")
        elif x is None:
            self._counts.stalls += 1
        else:
            self._counts.recycled_solves += 1
        return x

    def solve(self, b, matrix):
        """x with ``matrix`` x = b, refined against these factors.

        ``matrix`` is the scipy sparse matrix that was factorized, or one
        close to it.  When refinement stalls, a solve with the factorized
        matrix itself raises :class:`NumericError`; a solve with another
        matrix returns None instead, so the caller can factorize it and
        solve with its factors from then on.  A solve with another matrix
        counts as a recycled solve, or as a stall when it returns None.
        """
        return self._solve(b, matrix, False)

    def solve_transpose(self, b, matrix):
        """x with ``matrix``^T x = b; see :meth:`solve`."""
        return self._solve(b, matrix, True)
