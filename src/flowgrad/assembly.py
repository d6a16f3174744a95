"""Assembly of weak-form matrix blocks on a structured grid.

All node-pair blocks (stiffness, advection, reaction, mass, pressure
gradient, divergence) share one CSR pattern derived from element
connectivity.  ``GridOperators`` precomputes that pattern, the
element-to-entry scatter map ``pos16`` and the mass block, and builds the
other blocks as plain CSR data on request: ``diffusion``, ``convection``
and ``reaction`` interpolate a nodal field to quadrature points, run an
element kernel and scatter into CSR data, and ``diffusion_bwd`` runs the
same maps in reverse.  Nothing here is recorded on a tape: the solver's
operators call these blocks and write out their own backward rules.

Every system is factorized in one order, which the grid owns: a
nested-dissection order of its nodes (``GridOperators.node_layout``; George,
*Nested dissection of a regular finite element mesh*, 1973).  The node
layout is the base pattern in that order and the position there of each
base entry, where the heat solver writes its matrix.  The coupled
velocity-pressure system is a 3x3 grid of base-pattern blocks over unknowns
[u; v; p]; ``GridOperators.system_layout`` lays its pattern out in the same
node order, with the u, v and p of each node adjacent, and maps each
block's entries to their positions in the system CSR data array, where the
Newton solver places its block arrays.  So no system is assembled in the
natural order and gathered into its own.  A :class:`ConstraintPlan` imposes
Dirichlet rows and columns on a plain data array (``identity_rows``) and on
its right-hand side (``eliminate``).  Index maps are int32.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import ContractError
from .sparse import SparsePattern, SymmetricOrder

__all__ = [
    "GridOperators",
    "operators_for",
    "ConstraintPlan",
    "constraint_plan",
]


# Most grid shapes whose operators are kept for reuse at once.
_SHARED_SHAPES = 4
_OPERATORS = {}  # (nx, ny) -> GridOperators, least recently used first


def _dissect(nx, ix0, ix1, iy0, iy1, out):
    """Append the nodes of the box [ix0, ix1) x [iy0, iy1), separators last.

    The Q1 stencil couples only adjacent grid lines, so the middle grid line
    across the longer side separates the two halves.  A module-level
    function: a closure that calls itself is a reference cycle.
    """
    wx, wy = ix1 - ix0, iy1 - iy0
    if wx * wy <= 4:
        for iy in range(iy0, iy1):
            out.extend(range(iy * nx + ix0, iy * nx + ix1))
    elif wx >= wy:
        mid = (ix0 + ix1) // 2
        _dissect(nx, ix0, mid, iy0, iy1, out)
        _dissect(nx, mid + 1, ix1, iy0, iy1, out)
        out.extend(range(iy0 * nx + mid, iy1 * nx + mid, nx))
    else:
        mid = (iy0 + iy1) // 2
        _dissect(nx, ix0, ix1, iy0, mid, out)
        _dissect(nx, ix0, ix1, mid + 1, iy1, out)
        out.extend(range(mid * nx + ix0, mid * nx + ix1))


class GridOperators:
    """Shared pattern, scatter map, mass block and the node and system
    layouts for one grid shape.

    Everything here depends on the grid's shape only, so ``operators_for``
    shares one instance among the grids of a shape.  It keeps the shape,
    ``n_nodes`` and ``elems``, never a grid.
    """

    def __init__(self, grid):
        self.shape = (grid.nx, grid.ny)
        n = self.n_nodes = grid.n_nodes
        elems = self.elems = grid.elems
        q = grid.quad

        rows16 = np.repeat(elems, 4, axis=1)
        cols16 = np.tile(elems, (1, 4))
        keys = (rows16.astype(np.int64) * n + cols16).ravel()
        uniq, inverse = np.unique(keys, return_inverse=True)
        entry_rows = (uniq // n).astype(np.int32)
        entry_cols = (uniq % n).astype(np.int32)
        indptr = np.concatenate([[0], np.cumsum(np.bincount(entry_rows, minlength=n))])
        self.pattern = SparsePattern(n, n, indptr.astype(np.int32), entry_cols)
        self.pos16 = inverse.astype(np.int32)

        self.wdet = q.wdet
        self.n_tab = q.n
        self.dndx_tab = q.dndx
        self.dndy_tab = q.dndy

        self.m_data = self.scatter(kernels.coefmass_fwd(
            np.ones((grid.n_elems, 4)), self.wdet, self.n_tab))

        self._nodes = self._system = None

    @property
    def nnz(self):
        return self.pattern.nnz

    def scatter(self, elem_mats):
        """Accumulate (n_elems, 4, 4) element matrices into CSR data."""
        return np.bincount(self.pos16, weights=elem_mats.ravel(),
                           minlength=self.nnz)

    def gather(self, data_grad):
        """Adjoint of ``scatter``: pull entry gradients back per element."""
        return data_grad[self.pos16].reshape(-1, 4, 4)

    def at_quad(self, nodal, table):
        """Per-element quadrature values of a nodal field (table = n or dndx/y)."""
        return nodal[self.elems] @ table.T

    def quad_to_nodal(self, gq, table):
        """Adjoint of ``at_quad``: scatter quadrature gradients to nodes."""
        contrib = gq @ table
        return np.bincount(self.elems.ravel(), weights=contrib.ravel(),
                           minlength=self.n_nodes)

    def divergence_blocks(self):
        """(Dx, Dy, Gx, Gy) as CSR data, built anew on each call, so a
        caller keeps them only in the form it needs.

        The divergence rows test with phi_i and put the derivative on the
        trial function; the pressure-gradient blocks are their transposes.
        """
        ones_q = np.ones((self.elems.shape[0], 4))
        zeros_q = np.zeros_like(ones_q)
        dx_elem = kernels.advection_fwd(ones_q, zeros_q, self.wdet, self.n_tab,
                                        self.dndx_tab, self.dndy_tab)
        dy_elem = kernels.advection_fwd(zeros_q, ones_q, self.wdet, self.n_tab,
                                        self.dndx_tab, self.dndy_tab)
        return (self.scatter(dx_elem), self.scatter(dy_elem),
                self.scatter(np.ascontiguousarray(dx_elem.swapaxes(1, 2))),
                self.scatter(np.ascontiguousarray(dy_elem.swapaxes(1, 2))))

    def diffusion(self, coef):
        """Stiffness block K(coef) as CSR data, from the nodal coefficient."""
        if coef.shape != (self.n_nodes,):
            raise ContractError(
                f"diffusion block: coefficient length {coef.shape} != "
                f"n_nodes {self.n_nodes}")
        coef_q = self.at_quad(coef, self.n_tab)
        return self.scatter(kernels.diffusion_fwd(coef_q, self.wdet,
                                                  self.dndx_tab, self.dndy_tab))

    def diffusion_bwd(self, data_grad):
        """Adjoint of ``diffusion``: entry gradients to the nodal coefficient."""
        gq = kernels.diffusion_bwd(self.gather(data_grad), self.wdet,
                                   self.dndx_tab, self.dndy_tab)
        return self.quad_to_nodal(gq, self.n_tab)

    def convection(self, u, v):
        """Advection block C(u, v) as CSR data, from nodal velocities."""
        if u.shape != (self.n_nodes,) or v.shape != (self.n_nodes,):
            raise ContractError("convection block: velocity fields must be nodal")
        elem = kernels.advection_fwd(self.at_quad(u, self.n_tab),
                                     self.at_quad(v, self.n_tab), self.wdet,
                                     self.n_tab, self.dndx_tab, self.dndy_tab)
        return self.scatter(elem)

    def reaction(self, w, axis):
        """Mass block weighted by the quadrature values of dw/dx (axis 0) or
        dw/dy (axis 1), as plain CSR data."""
        table = self.dndx_tab if axis == 0 else self.dndy_tab
        return self.scatter(kernels.coefmass_fwd(self.at_quad(w, table),
                                                 self.wdet, self.n_tab))

    def scipy_matrix(self, data):
        return self.pattern.to_scipy(data)

    def node_layout(self):
        """(pattern, slot, order) of the base pattern laid out in the grid's
        node order, the order its systems are factorized in.

        The order numbers the grid's nodes by nested dissection: both halves
        of a box come before the grid line that separates them, down to
        boxes of at most 4 nodes, numbered row-major (``_dissect``).
        ``order.perm[a]`` is the a-th node.  ``pattern`` is the base pattern
        with its rows and columns in that order, columns sorted, and
        ``slot[k]`` (int32) is the position in its data of base entry ``k``.
        """
        if self._nodes is not None:
            return self._nodes
        base = self.pattern
        n = base.n_rows
        nodes = []
        _dissect(self.shape[0], 0, self.shape[0], 0, self.shape[1], nodes)
        order = SymmetricOrder.create(nodes)
        rows = order.inverse[base.entry_rows()]
        cols = order.inverse[base.indices]
        slot = np.empty(base.nnz, dtype=np.int32)
        slot[np.argsort(rows.astype(np.int64) * n + cols)] = np.arange(
            base.nnz, dtype=np.int32)
        indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
        indices = np.empty(base.nnz, dtype=np.int32)
        indices[slot] = cols
        self._nodes = (SparsePattern.create(n, n, indptr, indices), slot, order)
        return self._nodes

    def system_layout(self):
        """(system pattern, blockmap, order) of the 3x3 [u; v; p] block
        system, laid out in the order it is factorized in.

        Nodes come in the order of ``node_layout``, with the u, v and p
        unknowns of each node adjacent, so ``order.perm[3 a + f]`` is the
        natural index ``f n + node`` of unknown f of the a-th node.  Each
        system row holds the three unknowns of every node its node couples
        to, columns sorted.  ``blockmap[br][bc][k]`` is the system-data
        position (int32) of base entry ``k`` placed in block row ``br``,
        block column ``bc``.
        """
        if self._system is not None:
            return self._system
        nodes, slot, node_order = self.node_layout()
        n = nodes.n_rows
        # the node row and column of each base entry, whose columns increase
        # within every row in slot order
        rows, cols = nodes.entry_rows()[slot], nodes.indices[slot]
        row_len = np.diff(nodes.indptr)
        starts = nodes.indptr[:-1]
        # system row 3 a + br holds node row a's columns c as 3 c, 3 c + 1,
        # 3 c + 2: 3 row_len[a] entries from 9 starts[a] + 3 br row_len[a]
        sys_indptr = np.concatenate([[0], np.cumsum(np.repeat(3 * row_len, 3))])
        first = 9 * starts[rows] + 3 * (slot - starts[rows])
        stride = 3 * row_len[rows]
        sys_indices = np.empty(9 * nodes.nnz, dtype=np.int32)
        blockmap = []
        for br in range(3):
            row_maps = []
            for bc in range(3):
                pos = first + br * stride + bc
                sys_indices[pos] = 3 * cols + bc
                row_maps.append(pos)
            blockmap.append(row_maps)
        sys_pattern = SparsePattern.create(3 * n, 3 * n, sys_indptr, sys_indices)
        perm = (node_order.perm[:, None]
                + n * np.arange(3, dtype=np.int32)).ravel()
        self._system = (sys_pattern, blockmap, SymmetricOrder.create(perm))
        return self._system


def operators_for(grid):
    """The GridOperators of the grid's shape, shared by every such grid.

    The last ``_SHARED_SHAPES`` shapes used are kept, so building a second
    problem on the same grid shape reuses patterns, blocks and the order.
    """
    ops = _OPERATORS.pop((grid.nx, grid.ny), None) or GridOperators(grid)
    _OPERATORS[ops.shape] = ops
    if len(_OPERATORS) > _SHARED_SHAPES:
        del _OPERATORS[next(iter(_OPERATORS))]
    return ops


# ---------------------------------------------------------------------------
# Dirichlet constraints

@dataclass(frozen=True)
class ConstraintPlan:
    """Precomputed index sets for imposing Dirichlet rows on one pattern.

    ``idx``: the constrained rows, sorted.  ``row_entries``: data positions
    in constrained rows (zeroed, diagonal reset to 1).  ``col_entries``:
    positions (r, c) with c constrained and r free; their values move to the
    rhs (symmetric column elimination), row ``col_rows`` times the value of
    constrained index ``col_slot``.  ``diag_pos``: the constrained diagonal
    entries.  All but ``idx`` are int32.  Prescribed values are given in
    the order of ``idx``, sorted by row of the pattern, whatever order the
    caller named the constrained rows in.
    """

    idx: np.ndarray
    row_entries: np.ndarray
    col_entries: np.ndarray
    col_rows: np.ndarray
    col_slot: np.ndarray
    diag_pos: np.ndarray

    def identity_rows(self, data):
        """Zero the constrained rows and eliminated columns of ``data`` in
        place and set the constrained diagonal entries to 1."""
        data[self.col_entries] = 0.0
        data[self.row_entries] = 0.0
        data[self.diag_pos] = 1.0

    def eliminate(self, data, rhs, vals):
        """Impose the prescribed ``vals`` on ``data`` and ``rhs`` in place.

        The eliminated columns times ``vals`` move to ``rhs``, then the
        constrained rows become identity rows whose ``rhs`` is ``vals``.
        """
        if self.col_entries.size:
            moved = data[self.col_entries] * vals[self.col_slot]
            rhs -= np.bincount(self.col_rows, weights=moved,
                               minlength=rhs.size)
        self.identity_rows(data)
        rhs[self.idx] = vals


def constraint_plan(pattern, idx):
    idx = np.asarray(idx, dtype=np.intp)
    if np.unique(idx).size != idx.size:
        raise ContractError("duplicate constrained index")
    idx = np.sort(idx)
    n = pattern.n_rows
    if idx.size and (idx[0] < 0 or idx[-1] >= n):
        raise ContractError("constrained index outside system")
    cmask = np.zeros(n, dtype=bool)
    cmask[idx] = True
    rows = pattern.entry_rows()
    row_entries = np.flatnonzero(cmask[rows]).astype(np.int32)
    col_entries = np.flatnonzero(cmask[pattern.indices]
                                 & ~cmask[rows]).astype(np.int32)
    col_rows = rows[col_entries]
    col_slot = np.searchsorted(idx, pattern.indices[col_entries]).astype(
        np.int32)
    # rows are non-decreasing and columns increase within a row, so the keys
    # row * n_cols + col are sorted over the whole pattern
    keys = rows.astype(np.int64) * pattern.n_cols + pattern.indices
    diag_keys = idx.astype(np.int64) * (pattern.n_cols + 1)
    diag_pos = np.searchsorted(keys, diag_keys)
    found = diag_pos < keys.size
    found[found] = keys[diag_pos[found]] == diag_keys[found]
    if not found.all():
        raise ContractError(
            f"pattern has no diagonal entry for row {idx[~found][0]}")
    return ConstraintPlan(idx, row_entries, col_entries, col_rows, col_slot,
                          diag_pos.astype(np.int32))
