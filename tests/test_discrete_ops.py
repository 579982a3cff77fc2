"""Gradient and nodal-interpolation maps: exactness on linears, kernels,
and exact commutation with the skeleton traces."""

import gc
import weakref

import numpy as np
import pytest

import schurhx.discrete_ops as discrete_ops_mod
from schurhx.assemble import Coefficients
from schurhx.discrete_ops import build_aux_maps
from schurhx.dofspaces import build_transfer
from schurhx.errors import AssemblyError
from schurhx.mesh import build_box_mesh
from schurhx.precond import setup_maxwell


def test_gradient_kills_constants(mesh422_j211):
    g, _ = build_aux_maps(mesh422_j211)
    out = g @ np.ones(mesh422_j211.n_vertices)
    assert np.all(out == 0.0)


def test_gradient_of_coordinate_is_tangent(mesh222_j8):
    g, _ = build_aux_maps(mesh222_j8)
    for d in range(3):
        u = mesh222_j8.vertex_coords[:, d]
        expected = (
            mesh222_j8.vertex_coords[mesh222_j8.edges[:, 1], d]
            - mesh222_j8.vertex_coords[mesh222_j8.edges[:, 0], d]
        )
        assert np.array_equal(g @ u, expected)


def test_gradient_rows_are_incidence(mesh111):
    g, _ = build_aux_maps(mesh111)
    for e, (a, b) in enumerate(mesh111.edges):
        row = g.getrow(e).toarray().ravel()
        assert row[a] == -1.0 and row[b] == 1.0
        assert np.count_nonzero(row) == 2


def test_interp_of_ones_is_tangent_component(mesh222_j8):
    # Interpolating u = 1 against direction d gives the edge dofs of the
    # constant field e_d itself.
    for d, p in enumerate(build_aux_maps(mesh222_j8)[1]):
        expected = (
            mesh222_j8.vertex_coords[mesh222_j8.edges[:, 1], d]
            - mesh222_j8.vertex_coords[mesh222_j8.edges[:, 0], d]
        )
        assert np.array_equal(p @ np.ones(mesh222_j8.n_vertices), expected)


def test_interp_orthogonal_edges_have_zero_rows(mesh222_j8):
    p = build_aux_maps(mesh222_j8)[1][0]
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

    gradient, interps = build_aux_maps(mesh)
    via_maps = gradient @ v
    for interp, u in zip(interps, us, strict=True):
        via_maps = via_maps + interp @ u

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
    g_vol, _ = build_aux_maps(mesh)
    g_skel, _ = build_aux_maps(mesh, transfers)
    diff = tr_e @ g_vol - g_skel @ tr_v
    assert diff.nnz == 0 or np.abs(diff.data).max() == 0.0


@pytest.mark.parametrize("d", [0, 1, 2])
def test_interp_trace_commutation_exact(mesh222_j8, transfers222_j8, d, selection):
    tr_v, tr_e = (selection(ops, "skeleton_trace") for ops in transfers222_j8)
    p_vol = build_aux_maps(mesh222_j8)[1][d]
    p_skel = build_aux_maps(mesh222_j8, transfers222_j8)[1][d]
    diff = tr_e @ p_vol - p_skel @ tr_v
    assert diff.nnz == 0 or np.abs(diff.data).max() == 0.0


def test_skeleton_maps_index_skeleton_vertices(mesh222_j8, transfers222_j8):
    scalar, edge = transfers222_j8
    g, _ = build_aux_maps(mesh222_j8, transfers222_j8)
    assert g.shape == (90, 27)
    endpoints = mesh222_j8.edges[edge.skeleton_trace]
    expected_cols = np.searchsorted(scalar.skeleton_trace, endpoints)
    coo = g.tocoo()
    got = np.zeros((90, 2), dtype=np.int64)
    for r, c, val in zip(coo.row, coo.col, coo.data):
        got[r, 0 if val < 0 else 1] = c
    assert np.array_equal(got, expected_cols)


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
        build_aux_maps(mesh444_j8, transfers)


def _arrays_in_module_globals(module) -> list:
    """The ndarrays reachable from a module's globals through containers and
    weak references."""
    stack, seen, arrays = list(vars(module).values()), set(), []
    while stack:
        value = stack.pop()
        if id(value) in seen:
            continue
        seen.add(id(value))
        if isinstance(value, np.ndarray):
            arrays.append(value)
        elif isinstance(value, (list, tuple, set, frozenset)):
            stack.extend(value)
        elif isinstance(value, dict):
            stack.extend(value.values())
        elif isinstance(value, weakref.ref):
            stack.append(value())
    return arrays


def test_aux_maps_compute_endpoints_once_and_keep_nothing(mesh444_j8, monkeypatch):
    """One ``_skeleton_endpoints`` call serves the four HX maps of a
    ``setup_maxwell``; they equal the maps built afresh from another transfer
    pair of the mesh, and once the problem is freed no array of it stays
    reachable from the module's globals."""
    calls = []
    original = discrete_ops_mod._skeleton_endpoints

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(discrete_ops_mod, "_skeleton_endpoints", counting)
    mw = setup_maxwell(mesh444_j8, Coefficients())
    assert len(calls) == 1
    mesh, scalar, edge = calls.pop()
    assert mesh is mesh444_j8 and edge is mw.schur.transfer and scalar is mw.scalar.schur.transfer
    del mesh, scalar, edge
    again = (build_transfer(mesh444_j8, "scalar"), build_transfer(mesh444_j8, "edge"))
    gradient, interps = build_aux_maps(mesh444_j8, again)
    assert len(calls) == 1
    calls.clear()
    for built, kept in zip([gradient, *interps], [mw.qhx.gradient, *mw.qhx.interps], strict=True):
        for a, b in ((built.data, kept.data), (built.indices, kept.indices)):
            assert a.tobytes() == b.tobytes()
        assert np.array_equal(built.indptr, kept.indptr)
    del mw, again, gradient, interps, built, kept
    gc.collect()
    assert _arrays_in_module_globals(discrete_ops_mod) == []
