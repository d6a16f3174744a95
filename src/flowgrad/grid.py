"""Structured bilinear-quad mesh on the unit square.

Nodes are numbered row-major, ``n = iy * nx + ix``, so walking node order
sweeps x fastest.  Every element is the same ``hx`` by ``hy`` rectangle, so
shape-function derivatives and quadrature weights are computed once on the
reference element and shared by all elements.  Local corner order is
counter-clockwise from the lower-left: (-1,-1), (1,-1), (1,1), (-1,1).

A grid and a :class:`DirichletSpec` hold read-only arrays, so the problems
of one physics can share them through one forward chain (see
``experiments.forward_chain``).
"""

from dataclasses import dataclass

import numpy as np

from .errors import ContractError

__all__ = [
    "StructuredGrid",
    "QuadratureData",
    "DirichletSpec",
    "cavity_velocity_bcs",
    "uniform_boundary_bc",
    "write_field_csv",
    "read_field_csv",
]

_GP = 1.0 / np.sqrt(3.0)


def _shape_values(xi, eta):
    return 0.25 * np.array([
        (1 - xi) * (1 - eta),
        (1 + xi) * (1 - eta),
        (1 + xi) * (1 + eta),
        (1 - xi) * (1 + eta),
    ])


def _shape_gradients(xi, eta):
    dxi = 0.25 * np.array([-(1 - eta), (1 - eta), (1 + eta), -(1 + eta)])
    deta = 0.25 * np.array([-(1 - xi), -(1 + xi), (1 + xi), (1 - xi)])
    return dxi, deta


@dataclass(frozen=True)
class QuadratureData:
    """2x2 Gauss data mapped to the physical element size.

    ``n`` has shape (4 points, 4 nodes); ``dndx``/``dndy`` are physical
    derivatives; ``wdet`` folds the constant Jacobian determinant into the
    weights.
    """

    n: np.ndarray
    dndx: np.ndarray
    dndy: np.ndarray
    wdet: np.ndarray


def _freeze(*arrays):
    for a in arrays:
        a.flags.writeable = False


def _quadrature(hx, hy):
    pts = np.array([(sx * _GP, sy * _GP) for sy in (-1, 1) for sx in (-1, 1)])
    n = np.empty((4, 4))
    dndx = np.empty((4, 4))
    dndy = np.empty((4, 4))
    for q, (xi, eta) in enumerate(pts):
        n[q] = _shape_values(xi, eta)
        dxi, deta = _shape_gradients(xi, eta)
        dndx[q] = dxi * (2.0 / hx)
        dndy[q] = deta * (2.0 / hy)
    wdet = np.full(4, hx * hy / 4.0)
    _freeze(n, dndx, dndy, wdet)
    return QuadratureData(n, dndx, dndy, wdet)


class StructuredGrid:
    """Uniform quad mesh of the unit square with nx-by-ny nodes.

    ``coords``, ``elems``, ``wall_mask``, ``nodes`` (every node index, in
    node order) and the ``quad`` arrays are read-only.
    """

    def __init__(self, nx, ny=None):
        ny = nx if ny is None else ny
        if nx < 2 or ny < 2:
            raise ContractError(f"grid needs at least 2 nodes per side, got {nx}x{ny}")
        self.nx, self.ny = int(nx), int(ny)
        self.n_nodes = self.nx * self.ny
        self.n_elems = (self.nx - 1) * (self.ny - 1)
        self.hx = 1.0 / (self.nx - 1)
        self.hy = 1.0 / (self.ny - 1)

        ix, iy = np.meshgrid(np.arange(self.nx), np.arange(self.ny))
        self.coords = np.column_stack([(ix * self.hx).ravel(), (iy * self.hy).ravel()])

        ex, ey = np.meshgrid(np.arange(self.nx - 1), np.arange(self.ny - 1))
        n00 = (ey * self.nx + ex).ravel()
        self.elems = np.column_stack([n00, n00 + 1, n00 + self.nx + 1, n00 + self.nx])

        # whether each node lies on a wall
        self.wall_mask = ((iy == 0) | (iy == self.ny - 1)
                          | (ix == 0) | (ix == self.nx - 1)).ravel()

        self.nodes = np.arange(self.n_nodes)
        _freeze(self.coords, self.elems, self.wall_mask, self.nodes)
        self.quad = _quadrature(self.hx, self.hy)

    @property
    def all_boundary(self):
        return np.flatnonzero(self.wall_mask)


@dataclass(frozen=True)
class DirichletSpec:
    """Node indices and prescribed values for one scalar unknown field, as
    read-only arrays sorted by node."""

    idx: np.ndarray
    vals: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.idx, dtype=np.intp)
        vals = np.asarray(self.vals, dtype=np.float64)
        if idx.shape != vals.shape or idx.ndim != 1:
            raise ContractError("index and value arrays must be equal-length 1-d")
        order = np.argsort(idx)
        idx, vals = idx[order], vals[order]
        if np.any(idx[1:] == idx[:-1]):
            raise ContractError("duplicate constrained node")
        _freeze(idx, vals)
        object.__setattr__(self, "idx", idx)
        object.__setattr__(self, "vals", vals)


def cavity_velocity_bcs(grid, lid_speed=1.0):
    """Lid-driven cavity: u equals ``lid_speed`` on the y=0 wall (corners
    included), the first grid row, zero on the other walls; v is zero on
    every wall."""
    lid = np.arange(grid.nx)
    rest = np.setdiff1d(grid.all_boundary, lid)
    u_bc = DirichletSpec(
        np.concatenate([lid, rest]),
        np.concatenate([np.full(lid.size, float(lid_speed)), np.zeros(rest.size)]),
    )
    v_bc = DirichletSpec(grid.all_boundary, np.zeros(grid.all_boundary.size))
    return u_bc, v_bc


def uniform_boundary_bc(grid, value=0.0):
    walls = grid.all_boundary
    return DirichletSpec(walls, np.full(walls.size, float(value)))


def write_field_csv(path, grid, values, name="value"):
    """One row per node in node order (y outer, x inner), 17 significant digits."""
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (grid.n_nodes,):
        raise ContractError(f"field length {values.shape} != n_nodes {grid.n_nodes}")
    with open(path, "w") as fh:
        fh.write(f"x,y,{name}\n")
        for (x, y), v in zip(grid.coords, values):
            fh.write(f"{x:.17g},{y:.17g},{v:.17g}\n")


def read_field_csv(path):
    """Read back an exported field; returns (coords, values)."""
    try:
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
            if len(header) != 3 or header[:2] != ["x", "y"]:
                raise ContractError(f"unexpected field CSV header {header}")
            rows = [line.strip().split(",") for line in fh if line.strip()]
    except UnicodeDecodeError as exc:
        raise ContractError(f"field CSV {path} is not UTF-8: {exc}") from None
    try:  # a ragged row or a value that is not a number
        data = np.array(rows, dtype=np.float64)
    except ValueError as exc:
        raise ContractError(f"field CSV {path}: {exc}") from None
    if data.ndim != 2 or data.shape[1] != 3:
        raise ContractError(f"field CSV {path} needs rows of 3 values after "
                            f"its header, got an array of shape {data.shape}")
    return data[:, :2], data[:, 2]
