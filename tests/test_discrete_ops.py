"""Gradient and nodal-interpolation maps: exactness on linears, kernels,
and exact commutation with the skeleton traces."""

import numpy as np
import pytest

from schurhx.discrete_ops import build_gradient, build_nodal_interp
from schurhx.dofspaces import build_transfer
from schurhx.errors import AssemblyError
from schurhx.mesh import build_box_mesh, extract_skeleton


def test_gradient_kills_constants(mesh422_j211):
    g = build_gradient(mesh422_j211)
    out = g @ np.ones(mesh422_j211.n_vertices)
    assert np.all(out == 0.0)


def test_gradient_of_coordinate_is_tangent(mesh222_j8):
    g = build_gradient(mesh222_j8)
    for d in range(3):
        u = mesh222_j8.vertex_coords[:, d]
        expected = (
            mesh222_j8.vertex_coords[mesh222_j8.edges[:, 1], d]
            - mesh222_j8.vertex_coords[mesh222_j8.edges[:, 0], d]
        )
        assert np.array_equal(g @ u, expected)


def test_gradient_rows_are_incidence(mesh111):
    g = build_gradient(mesh111)
    for e, (a, b) in enumerate(mesh111.edges):
        row = g.getrow(e).toarray().ravel()
        assert row[a] == -1.0 and row[b] == 1.0
        assert np.count_nonzero(row) == 2


def test_interp_of_ones_is_tangent_component(mesh222_j8):
    # Interpolating u = 1 against direction d gives the edge dofs of the
    # constant field e_d itself.
    for d in range(3):
        p = build_nodal_interp(mesh222_j8, d)
        expected = (
            mesh222_j8.vertex_coords[mesh222_j8.edges[:, 1], d]
            - mesh222_j8.vertex_coords[mesh222_j8.edges[:, 0], d]
        )
        assert np.array_equal(p @ np.ones(mesh222_j8.n_vertices), expected)


def test_interp_orthogonal_edges_have_zero_rows(mesh222_j8):
    p = build_nodal_interp(mesh222_j8, 0)
    coords = mesh222_j8.vertex_coords
    along_y = (
        coords[mesh222_j8.edges[:, 1], 0] == coords[mesh222_j8.edges[:, 0], 0]
    )
    # Rows exist structurally (two entries) but carry exactly zero values.
    data_by_row = np.asarray(np.abs(p).sum(axis=1)).ravel()
    assert np.all(data_by_row[along_y] == 0.0)
    assert np.diff(p.indptr).max() <= 2


def test_regular_decomposition_exactness(mesh422_j211, rng):
    """Edge dofs of  grad(v) + sum_d e_d u_d  computed two ways.

    Independent route: per edge, fundamental theorem of calculus for the
    gradient part plus the exact trapezoid value for each linear component.
    """
    mesh = mesh422_j211
    v = rng.uniform(-1, 1, mesh.n_vertices)
    us = [rng.uniform(-1, 1, mesh.n_vertices) for _ in range(3)]

    via_maps = build_gradient(mesh) @ v
    for d in range(3):
        via_maps = via_maps + build_nodal_interp(mesh, d) @ us[d]

    a, b = mesh.edges[:, 0], mesh.edges[:, 1]
    direct = v[b] - v[a]
    for d in range(3):
        tangent_d = mesh.vertex_coords[b, d] - mesh.vertex_coords[a, d]
        direct = direct + tangent_d * (us[d][a] + us[d][b]) / 2.0
    assert np.abs(via_maps - direct).max() <= 1e-14


@pytest.mark.parametrize("cells,grid", [((2, 2, 2), (2, 2, 2)), ((4, 2, 2), (2, 1, 1))])
def test_gradient_trace_commutation_exact(cells, grid, selection):
    mesh = build_box_mesh(cells, grid)
    skel = extract_skeleton(mesh)
    tr_v = selection(build_transfer(mesh, skel, "scalar"), "skeleton_trace")
    tr_e = selection(build_transfer(mesh, skel, "edge"), "skeleton_trace")
    g_vol = build_gradient(mesh)
    g_skel = build_gradient(mesh, skel)
    diff = tr_e @ g_vol - g_skel @ tr_v
    assert diff.nnz == 0 or np.abs(diff.data).max() == 0.0


@pytest.mark.parametrize("d", [0, 1, 2])
def test_interp_trace_commutation_exact(mesh222_j8, skel222_j8, d, selection):
    mesh, skel = mesh222_j8, skel222_j8
    tr_v = selection(build_transfer(mesh, skel, "scalar"), "skeleton_trace")
    tr_e = selection(build_transfer(mesh, skel, "edge"), "skeleton_trace")
    p_vol = build_nodal_interp(mesh, d)
    p_skel = build_nodal_interp(mesh, d, skel)
    diff = tr_e @ p_vol - p_skel @ tr_v
    assert diff.nnz == 0 or np.abs(diff.data).max() == 0.0


def test_skeleton_maps_index_skeleton_vertices(mesh222_j8, skel222_j8):
    g = build_gradient(mesh222_j8, skel222_j8)
    assert g.shape == (90, 27)
    endpoints = mesh222_j8.edges[skel222_j8.skeleton_edges]
    expected_cols = np.searchsorted(skel222_j8.skeleton_vertices, endpoints)
    coo = g.tocoo()
    got = np.zeros((90, 2), dtype=np.int64)
    for r, c, val in zip(coo.row, coo.col, coo.data):
        got[r, 0 if val < 0 else 1] = c
    assert np.array_equal(got, expected_cols)


def test_variant_and_direction_validation(mesh111):
    with pytest.raises(ValueError):
        build_nodal_interp(mesh111, 3)
    with pytest.raises(ValueError):
        build_nodal_interp(mesh111, -1)


@pytest.mark.parametrize(
    "cells, match", [((2, 2, 2), "endpoint off the skeleton"), ((6, 6, 6), "beyond the mesh")]
)
def test_skeleton_of_another_mesh_raises(mesh444_j8, cells, match):
    """Skeleton maps from a skeleton of a smaller or larger mesh raise a
    typed error instead of indexing past the mesh's arrays."""
    other = extract_skeleton(build_box_mesh(cells, (2, 2, 2)))
    with pytest.raises(AssemblyError, match=match):
        build_gradient(mesh444_j8, other)
    with pytest.raises(AssemblyError, match=match):
        build_nodal_interp(mesh444_j8, 0, other)
