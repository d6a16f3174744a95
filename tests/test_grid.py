"""Mesh, quadrature, boundary-condition and CSV tests."""

import numpy as np
import pytest

from flowgrad.errors import ContractError
from flowgrad.grid import (
    DirichletSpec,
    StructuredGrid,
    cavity_velocity_bcs,
    read_field_csv,
    uniform_boundary_bc,
    write_field_csv,
)


def test_node_numbering_and_coords():
    g = StructuredGrid(3)
    assert g.n_nodes == 9 and g.n_elems == 4
    assert g.hx == g.hy == 0.5
    np.testing.assert_allclose(g.coords[7], [0.5, 1.0])
    np.testing.assert_allclose(g.coords[0], [0.0, 0.0])


def test_elements_counterclockwise():
    g = StructuredGrid(3)
    np.testing.assert_array_equal(g.elems[0], [0, 1, 4, 3])
    np.testing.assert_array_equal(g.elems[3], [4, 5, 8, 7])
    # signed area of each element polygon is positive (CCW)
    for e in range(g.n_elems):
        xy = g.coords[g.elems[e]]
        x, y = xy[:, 0], xy[:, 1]
        area = 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
        assert area > 0


def test_quadrature_partition_of_unity():
    g = StructuredGrid(4)
    q = g.quad
    np.testing.assert_allclose(q.n.sum(axis=1), 1.0, rtol=0, atol=1e-14)
    np.testing.assert_allclose(q.dndx.sum(axis=1), 0.0, rtol=0, atol=1e-13)
    np.testing.assert_allclose(q.dndy.sum(axis=1), 0.0, rtol=0, atol=1e-13)
    # physical weights sum to the element area
    assert q.wdet.sum() == pytest.approx(g.hx * g.hy, rel=1e-14)


def test_quadrature_points_cover_elements():
    g = StructuredGrid(3)
    # physical quadrature points, (n_elems * 4, 2), element by element
    qpoints = np.einsum("qa,eac->eqc", g.quad.n,
                        g.coords[g.elems]).reshape(-1, 2)
    assert qpoints.shape == (16, 2)
    # all quadrature points strictly inside their element, hence the domain
    assert qpoints.min() > 0 and qpoints.max() < 1
    # first element occupies [0, .5]^2
    assert np.all(qpoints[:4] < 0.5)


def test_grid_and_dirichlet_arrays_are_read_only():
    # problems of one physics share a grid and its boundary data
    g = StructuredGrid(4)
    q = g.quad
    u_bc, v_bc = cavity_velocity_bcs(g)
    arrays = (g.coords, g.elems, g.wall_mask, q.n, q.dndx, q.dndy, q.wdet,
              u_bc.idx, u_bc.vals, v_bc.idx, v_bc.vals)
    assert not any(a.flags.writeable for a in arrays)
    for a in arrays:
        with pytest.raises(ValueError):
            a[0] = 0


def test_boundary_sets():
    g = StructuredGrid(4, 3)
    # the boundary lists each wall node once, in node order; the other
    # nodes are 5 and 6
    np.testing.assert_array_equal(
        g.all_boundary, [0, 1, 2, 3, 4, 7, 8, 9, 10, 11])


def test_dirichlet_spec_validation():
    with pytest.raises(ContractError):
        DirichletSpec(np.array([1, 1]), np.array([0.0, 0.0]))
    a = DirichletSpec(np.array([3, 1]), np.array([30.0, 10.0]))
    np.testing.assert_array_equal(a.idx, [1, 3])
    np.testing.assert_array_equal(a.vals, [10.0, 30.0])


def test_cavity_bcs_lid_on_bottom_edge():
    g = StructuredGrid(5)
    u_bc, v_bc = cavity_velocity_bcs(g, lid_speed=1.0)
    lid = np.arange(5)  # the y = 0 row
    lookup = dict(zip(u_bc.idx.tolist(), u_bc.vals.tolist()))
    for node in lid:
        assert lookup[node] == 1.0
    for node in np.setdiff1d(g.all_boundary, lid):
        assert lookup[node] == 0.0
    assert set(u_bc.idx.tolist()) == set(g.all_boundary.tolist())
    assert np.all(v_bc.vals == 0.0)
    assert set(v_bc.idx.tolist()) == set(g.all_boundary.tolist())


def test_uniform_bc_covers_boundary():
    g = StructuredGrid(4)
    bc = uniform_boundary_bc(g, 2.5)
    assert set(bc.idx.tolist()) == set(g.all_boundary.tolist())
    assert np.all(bc.vals == 2.5)


def test_csv_roundtrip_exact(tmp_path):
    g = StructuredGrid(5)
    rng = np.random.default_rng(0)
    field = rng.normal(size=g.n_nodes) * 1e3
    path = tmp_path / "field.csv"
    write_field_csv(path, g, field, name="nu")
    coords, values = read_field_csv(path)
    np.testing.assert_array_equal(coords, g.coords)
    np.testing.assert_array_equal(values, field)
    assert path.read_text().splitlines()[0] == "x,y,nu"


@pytest.mark.parametrize("body", ["", "\n\n", "0,0,1\n0.5,0\n",
                                  "0,0,1,2\n", "0,0,one\n", "0,,1\n"])
def test_csv_read_rejects_malformed_rows(tmp_path, body):
    # no data row, a ragged row, four values a row, values not numbers
    path = tmp_path / "field.csv"
    path.write_text("x,y,nu\n" + body)
    with pytest.raises(ContractError, match="field CSV"):
        read_field_csv(path)


def test_csv_read_rejects_non_utf8(tmp_path):
    path = tmp_path / "field.csv"
    path.write_bytes(b"x,y,nu\n0,0,\xe9\n")
    with pytest.raises(ContractError, match="not UTF-8"):
        read_field_csv(path)


def test_csv_row_major_order(tmp_path):
    g = StructuredGrid(3)
    path = tmp_path / "field.csv"
    write_field_csv(path, g, np.arange(9.0))
    lines = path.read_text().splitlines()
    # y varies slowest: first three rows all y=0 with x increasing
    assert [line.split(",")[0] for line in lines[1:4]] == ["0", "0.5", "1"]
    assert all(line.split(",")[1] == "0" for line in lines[1:4])
    assert lines[4].split(",")[1] == "0.5"


def test_grid_rejects_degenerate_sizes():
    with pytest.raises(ContractError):
        StructuredGrid(1)
