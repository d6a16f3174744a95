"""Assembly of weak-form matrix blocks on a structured grid.

All node-pair blocks (stiffness, advection, reaction, mass, pressure
gradient, divergence) share one CSR pattern derived from element
connectivity.  ``GridOperators`` precomputes that pattern and the
element-to-entry scatter map ``pos16``, and builds the blocks as plain CSR
data on request: ``diffusion``, ``convection`` and ``reaction`` interpolate
a nodal field to quadrature points, run an element kernel and scatter into
CSR data, and ``diffusion_bwd`` runs the same maps in reverse.  Nothing
here is recorded on a tape: the solver's operators call these blocks and
write out their own backward rules.

Every system is factorized in one order, which the grid owns: a
nested-dissection order of its nodes (George, *Nested dissection of a
regular finite element mesh*, 1973).  ``GridOperators.system_layout(b)``
lays out the system with ``b`` unknowns per node in that order, the
unknowns of each node adjacent, as a b x b grid of base-pattern blocks: its
pattern, the position in the system CSR data of each block's entries, and
the order.  The heat system is its ``b = 1`` layout and the coupled
velocity-pressure system over [u; v; p] its ``b = 3`` layout, and each
solver writes its blocks straight into that data, so no system is assembled
in the natural order and gathered into its own.  A :class:`ConstraintPlan`
turns the Dirichlet rows and columns of a plain data array into identity
rows and columns (``identity_rows``); each solver takes its step from a
vector that holds the prescribed values.  Index maps are int32.
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
    """Pattern, scatter map and quadrature tables of one grid, and its
    blocks and system layouts on request.

    ``operators_for`` keeps one instance on each grid.  It keeps the grid's
    shape, ``n_nodes`` and ``elems``, never the grid, so the grid and its
    operators are freed together by reference counting.
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

    def scatter(self, elem_mats):
        """Accumulate (n_elems, 4, 4) element matrices into CSR data."""
        return np.bincount(self.pos16, weights=elem_mats.ravel(),
                           minlength=self.pattern.nnz)

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

    def mass(self):
        """Mass block M as CSR data, built anew on each call."""
        return self.scatter(kernels.coefmass_fwd(
            np.ones((self.elems.shape[0], 4)), self.wdet, self.n_tab))

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

    def system_layout(self, b):
        """(pattern, blockmap, order) of the system with ``b`` unknowns per
        node, laid out in the order it is factorized in.

        The order numbers the grid's nodes by nested dissection: both halves
        of a box come before the grid line that separates them, down to
        boxes of at most 4 nodes, numbered row-major (``_dissect``).  The
        ``b`` unknowns of each node are adjacent, so ``order.perm[b a + f]``
        is the natural index ``f n + node`` of unknown f of the a-th node.
        Each system row holds the ``b`` unknowns of every node its node
        couples to, columns sorted.  ``blockmap[br][bc][k]`` is the
        system-data position (int32) of base entry ``k`` placed in block row
        ``br``, block column ``bc``; for ``b = 1`` the pattern is the base
        pattern in the node order.  Built anew on each call, so the setup
        that asks for it is the only holder of the layout.
        """
        base = self.pattern
        n = base.n_rows
        nodes = []
        _dissect(self.shape[0], 0, self.shape[0], 0, self.shape[1], nodes)
        node_order = SymmetricOrder.create(nodes)
        # the node row and column of each base entry, and its rank in the
        # base pattern laid out in the node order, columns sorted
        rows = node_order.inverse[base.entry_rows()]
        cols = node_order.inverse[base.indices]
        rank = np.empty(base.nnz, dtype=np.int32)
        rank[np.argsort(rows.astype(np.int64) * n + cols)] = np.arange(
            base.nnz, dtype=np.int32)
        row_len = np.diff(base.indptr)[node_order.perm]
        start = (np.cumsum(row_len) - row_len).astype(np.int32)
        # system row b a + br holds node row a's columns c as b c + bc:
        # b row_len[a] entries from b^2 start[a] + b br row_len[a]
        indptr = np.concatenate([[0], np.cumsum(np.repeat(b * row_len, b))])
        first = b * b * start[rows] + b * (rank - start[rows])
        stride = b * row_len[rows]
        indices = np.empty(b * b * base.nnz, dtype=np.int32)
        blockmap = []
        for br in range(b):
            row_maps = []
            for bc in range(b):
                pos = first + br * stride + bc
                indices[pos] = b * cols + bc
                row_maps.append(pos)
            blockmap.append(row_maps)
        pattern = SparsePattern.create(b * n, b * n, indptr, indices)
        perm = (node_order.perm[:, None]
                + n * np.arange(b, dtype=np.int32)).ravel()
        return pattern, blockmap, SymmetricOrder.create(perm)


def operators_for(grid):
    """The GridOperators of ``grid``, built on first use and kept on the
    grid, so they are released with it; another grid of the same shape
    builds its own."""
    gops = getattr(grid, "_operators", None)
    if gops is None:
        gops = grid._operators = GridOperators(grid)
    return gops


# ---------------------------------------------------------------------------
# Dirichlet constraints

@dataclass(frozen=True)
class ConstraintPlan:
    """Precomputed index sets for imposing Dirichlet rows on one pattern.

    ``idx``: the constrained rows, sorted.  ``row_entries``: data positions
    in constrained rows.  ``col_entries``: positions (r, c) with c
    constrained and r free.  ``diag_pos``: the constrained diagonal
    entries.  All but ``idx`` are int32.  A solve with the matrix that
    ``identity_rows`` leaves returns its right-hand side at ``idx``: zero
    for the flow's Newton update, the wall values for the heat solve.
    """

    idx: np.ndarray
    row_entries: np.ndarray
    col_entries: np.ndarray
    diag_pos: np.ndarray

    def identity_rows(self, data):
        """Zero the constrained rows and columns of ``data`` in place and
        set the constrained diagonal entries to 1."""
        data[self.col_entries] = 0.0
        data[self.row_entries] = 0.0
        data[self.diag_pos] = 1.0


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
    return ConstraintPlan(idx, row_entries, col_entries,
                          diag_pos.astype(np.int32))
