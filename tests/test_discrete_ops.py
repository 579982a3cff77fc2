"""Gradient and nodal-interpolation maps: exactness on linears, kernels,
and exact commutation with the skeleton traces."""

import numpy as np
import pytest

import schurhx.discrete_ops as discrete_ops_mod
from schurhx.assemble import Coefficients
from schurhx.discrete_ops import build_gradient, build_nodal_interp
from schurhx.dofspaces import build_transfer
from schurhx.errors import AssemblyError
from schurhx.mesh import build_box_mesh
from schurhx.precond import setup_maxwell


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
    transfers = build_transfer(mesh, "scalar"), build_transfer(mesh, "edge")
    tr_v, tr_e = (selection(ops, "skeleton_trace") for ops in transfers)
    g_vol = build_gradient(mesh)
    g_skel = build_gradient(mesh, transfers)
    diff = tr_e @ g_vol - g_skel @ tr_v
    assert diff.nnz == 0 or np.abs(diff.data).max() == 0.0


@pytest.mark.parametrize("d", [0, 1, 2])
def test_interp_trace_commutation_exact(mesh222_j8, transfers222_j8, d, selection):
    tr_v, tr_e = (selection(ops, "skeleton_trace") for ops in transfers222_j8)
    p_vol = build_nodal_interp(mesh222_j8, d)
    p_skel = build_nodal_interp(mesh222_j8, d, transfers222_j8)
    diff = tr_e @ p_vol - p_skel @ tr_v
    assert diff.nnz == 0 or np.abs(diff.data).max() == 0.0


def test_skeleton_maps_index_skeleton_vertices(mesh222_j8, transfers222_j8):
    scalar, edge = transfers222_j8
    g = build_gradient(mesh222_j8, transfers222_j8)
    assert g.shape == (90, 27)
    endpoints = mesh222_j8.edges[edge.skeleton_trace]
    expected_cols = np.searchsorted(scalar.skeleton_trace, endpoints)
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
    "scalar_grid, edge_grid, match",
    [
        pytest.param(((2, 2, 2), (2, 2, 2)), ((2, 2, 2), (2, 2, 2)), "another mesh", id="smaller"),
        pytest.param(((6, 6, 6), (2, 2, 2)), ((6, 6, 6), (2, 2, 2)), "another mesh", id="larger"),
        pytest.param(((4, 4, 4), (2, 2, 2)), ((6, 6, 6), (2, 2, 2)), "another mesh", id="mixed"),
        pytest.param(
            ((4, 4, 4), (2, 1, 1)),
            ((4, 4, 4), (2, 2, 2)),
            "endpoint off the skeleton",
            id="two-partitions",
        ),
        pytest.param(
            ((4, 4, 4), (2, 2, 2)),
            ((4, 4, 4), (2, 1, 1)),
            "skeleton vertex on no skeleton edge",
            id="two-partitions-reversed",
        ),
    ],
)
def test_transfers_of_another_mesh_raise(mesh444_j8, scalar_grid, edge_grid, match):
    """Skeleton maps from the transfers of a smaller or larger mesh, or from a
    scalar and an edge transfer of two partitions of the mesh (either one the
    finer), raise a typed error instead of indexing past the mesh's arrays or
    mapping between two skeletons."""
    transfers = (
        build_transfer(build_box_mesh(*scalar_grid), "scalar"),
        build_transfer(build_box_mesh(*edge_grid), "edge"),
    )
    with pytest.raises(AssemblyError, match=match):
        build_gradient(mesh444_j8, transfers)
    with pytest.raises(AssemblyError, match=match):
        build_nodal_interp(mesh444_j8, 0, transfers)


def test_skeleton_endpoints_once_per_transfer_pair(mesh444_j8, monkeypatch):
    """``setup_maxwell`` computes the skeleton edges' endpoints once for its
    four HX maps; another transfer pair, or the volume maps, are not served
    the kept endpoints, and the maps equal those built afresh."""
    calls = []
    original = discrete_ops_mod._skeleton_endpoints

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(discrete_ops_mod, "_skeleton_endpoints", counting)
    mw = setup_maxwell(mesh444_j8, Coefficients())
    assert len(calls) == 1
    mesh, scalar, edge = calls[0]
    assert mesh is mesh444_j8 and edge is mw.schur.transfer and scalar is mw.scalar.schur.transfer
    again = (build_transfer(mesh444_j8, "scalar"), build_transfer(mesh444_j8, "edge"))
    interps = [build_nodal_interp(mesh444_j8, d, again) for d in range(3)]
    assert len(calls) == 2
    fresh = [build_gradient(mesh444_j8, again), *interps]
    for built, kept in zip(fresh, [mw.qhx.gradient, *mw.qhx.interps], strict=True):
        for a, b in ((built.data, kept.data), (built.indices, kept.indices)):
            assert a.tobytes() == b.tobytes()
        assert np.array_equal(built.indptr, kept.indptr)
    assert build_gradient(mesh444_j8).shape == (mesh444_j8.n_edges, mesh444_j8.n_vertices)
    assert len(calls) == 2
