"""Mesh generation: counts, orientation, conformity, skeleton extraction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurhx.errors import AssemblyError, ConfigurationError
from schurhx.mesh import (
    FACE_KEY_LIMIT,
    LOCAL_EDGES,
    LOCAL_FACES,
    BoxMesh,
    build_box_mesh,
    edge_ids_of_pairs,
    export_vtk,
    extract_skeleton,
)


def test_single_cell_counts(mesh111):
    # One cube split into 6 tets: 12 cube edges + 6 face diagonals + 1 body
    # diagonal.
    assert mesh111.n_vertices == 8
    assert mesh111.n_tets == 6
    assert mesh111.n_edges == 19


def test_two_cell_grid_counts(mesh222_j8):
    assert mesh222_j8.n_vertices == 27
    assert mesh222_j8.n_tets == 48
    assert mesh222_j8.n_edges == 98
    assert mesh222_j8.n_subdomains == 8
    for j in range(8):
        assert mesh222_j8.tets_of_subdomain(j).size == 6


def test_vertex_id_layout():
    mesh = build_box_mesh((2, 3, 4))
    nx, ny = 2, 3
    for k in range(5):
        for j in range(4):
            for i in range(3):
                vid = i + (nx + 1) * (j + (ny + 1) * k)
                assert np.allclose(
                    mesh.vertex_coords[vid], [i / 2, j / 3, k / 4]
                )


def test_positive_volumes(mesh422_j211):
    p = mesh422_j211.vertex_coords[mesh422_j211.tets]
    vols = np.linalg.det(p[:, 1:] - p[:, :1]) / 6.0
    assert np.all(vols > 0)


def test_volume_sum_is_box_volume(mesh422_j211):
    p = mesh422_j211.vertex_coords[mesh422_j211.tets]
    vols = np.linalg.det(p[:, 1:] - p[:, :1]) / 6.0
    assert abs(vols.sum() - 1.0) <= 1e-12


def test_mesh_is_conforming(mesh222_j8):
    """Every face of the triangulation belongs to one tet (boundary) or two."""
    faces = np.sort(mesh222_j8.tets[:, LOCAL_FACES].reshape(-1, 3), axis=1)
    _, counts = np.unique(faces, axis=0, return_counts=True)
    assert counts.min() >= 1
    assert counts.max() == 2


def test_subdomain_assignment_x_slabs():
    mesh = build_box_mesh((3, 3, 3), (3, 1, 1))
    # With three slabs along x, a tet's subdomain id is the x index of its
    # cell, i.e. floor(3 * x_min).
    for t in range(mesh.n_tets):
        x_min = mesh.vertex_coords[mesh.tets[t], 0].min()
        assert mesh.tet_subdomain[t] == int(np.floor(3 * x_min))


def test_edges_sorted_and_unique(mesh222_j8):
    edges = mesh222_j8.edges
    assert np.all(edges[:, 0] < edges[:, 1])
    keys = edges[:, 0] * mesh222_j8.n_vertices + edges[:, 1]
    assert np.all(np.diff(keys) > 0)


def test_tet_edges_match_local_pairs(mesh422_j211):
    mesh = mesh422_j211
    pairs = np.sort(mesh.tets[:, LOCAL_EDGES], axis=2)
    for t in range(0, mesh.n_tets, 7):
        for e in range(6):
            a, b = pairs[t, e]
            eid = mesh.tet_edges[t, e]
            assert tuple(mesh.edges[eid]) == (a, b)


@pytest.mark.parametrize("mesh_name", ["mesh422_j211", "mesh222_j8", "mesh234_j132"])
def test_key_unique_matches_row_unique(request, mesh_name, boundary_faces):
    """Edges and boundary sets found through int64 keys are exactly what
    np.unique(axis=0) on the vertex rows gives."""
    if mesh_name == "mesh234_j132":
        mesh = build_box_mesh((2, 3, 4), (1, 3, 2))
    else:
        mesh = request.getfixturevalue(mesh_name)
    skel = extract_skeleton(mesh)
    pairs = np.sort(mesh.tets[:, LOCAL_EDGES].reshape(-1, 2), axis=1)
    edges, inverse = np.unique(pairs, axis=0, return_inverse=True)
    assert np.array_equal(mesh.edges, edges)
    assert np.array_equal(mesh.tet_edges, inverse.reshape(-1, 6))

    edge_id = {tuple(e): i for i, e in enumerate(edges.tolist())}
    on_skeleton = np.zeros(mesh.n_vertices, dtype=bool)
    for j, bfaces in enumerate(boundary_faces(mesh)):
        bverts = np.unique(bfaces)
        face_pairs = np.unique(bfaces[:, [[0, 1], [0, 2], [1, 2]]].reshape(-1, 2), axis=0)
        bedges = np.array(sorted(edge_id[tuple(p)] for p in face_pairs.tolist()))
        on_skeleton[bverts] = True
        assert np.array_equal(skel.boundary_vertices[j], bverts)
        assert np.array_equal(skel.boundary_edges[j], bedges)
    assert np.array_equal(skel.skeleton_vertices, np.flatnonzero(on_skeleton))


def test_face_key_overflow_rejected(mesh111):
    # Only the vertex count matters: a zero-strided coordinate array stands in
    # for a mesh too large to build here.
    huge = BoxMesh(
        cells=mesh111.cells,
        subdomains=mesh111.subdomains,
        vertex_coords=np.broadcast_to(np.zeros(3), (FACE_KEY_LIMIT + 1, 3)),
        tets=mesh111.tets,
        tet_subdomain=mesh111.tet_subdomain,
        edges=mesh111.edges,
        tet_edges=mesh111.tet_edges,
    )
    with pytest.raises(ConfigurationError, match="face keys"):
        extract_skeleton(huge)


def test_vertex_limit_checked_before_meshing(monkeypatch):
    """A grid over FACE_KEY_LIMIT vertices is refused before any mesh array
    exists (129^3 vertices would take gigabytes); one at the limit proceeds
    to meshing, which the stub stops."""

    def no_meshing(*args, **kwargs):
        raise AssertionError("mesh arrays built")

    monkeypatch.setattr(np, "meshgrid", no_meshing)
    assert 129**3 > FACE_KEY_LIMIT == 128**3
    with pytest.raises(ConfigurationError, match="2146689 vertices"):
        build_box_mesh((128, 128, 128))
    with pytest.raises(AssertionError, match="mesh arrays built"):
        build_box_mesh((127, 127, 127))


def test_subdomain_index_matches_scan():
    """On an anisotropic partition the cached per-subdomain tet index holds,
    for every subdomain, the ascending ids a scan of ``tet_subdomain`` finds,
    as read-only views; the cached edge keys are read-only too."""
    mesh = build_box_mesh((4, 6, 2), (2, 3, 1))
    for j in range(mesh.n_subdomains):
        ids = mesh.tets_of_subdomain(j)
        assert np.array_equal(ids, np.flatnonzero(mesh.tet_subdomain == j))
        assert not ids.flags.writeable
    assert not mesh.edge_keys.flags.writeable
    pairs = mesh.edges[::7]
    assert np.array_equal(edge_ids_of_pairs(mesh, pairs), np.arange(mesh.n_edges)[::7])


def test_edge_ids_of_pairs_rejects_non_edges(mesh111):
    # Vertices 1 and 6 are opposite corners of a face without a diagonal
    # between them (the Kuhn split only adds one diagonal per face).
    present = {tuple(e) for e in mesh111.edges}
    missing = next(
        (a, b)
        for a in range(8)
        for b in range(a + 1, 8)
        if (a, b) not in present
    )
    with pytest.raises(KeyError):
        edge_ids_of_pairs(mesh111, np.array([missing]))
    # The cached keys also reject a pair whose key lies past the last edge.
    assert mesh111.edge_keys.size == mesh111.n_edges
    with pytest.raises(KeyError):
        edge_ids_of_pairs(mesh111, np.array([[7, 8]]))


def test_watertight_subdomain_boundaries(mesh222_j8, skel222_j8, boundary_faces):
    """Recount boundary faces independently (shared by exactly one tet of j):
    they close up, every face edge lying on exactly two of them, and their
    vertices are the boundary vertices of j."""
    for j, faces in enumerate(boundary_faces(mesh222_j8)):
        face_pairs = faces[:, [[0, 1], [0, 2], [1, 2]]].reshape(-1, 2)
        _, uses = np.unique(face_pairs, axis=0, return_counts=True)
        assert np.all(uses == 2)
        assert np.array_equal(skel222_j8.boundary_vertices[j], np.unique(faces))


def test_skeleton_j1_is_outer_boundary(mesh222_j1, skel222_j1):
    # Single subdomain: skeleton = vertices of the box surface, all on the
    # one boundary, and the center vertex is the only one missing.
    skel = skel222_j1
    assert skel.n_skeleton_vertices == 26
    assert len(skel.boundary_vertices) == 1
    assert np.array_equal(skel.boundary_vertices[0], skel.skeleton_vertices)
    on_surface = np.any(
        (mesh222_j1.vertex_coords == 0.0) | (mesh222_j1.vertex_coords == 1.0),
        axis=1,
    )
    assert np.array_equal(skel.skeleton_vertices, np.flatnonzero(on_surface))


def test_skeleton_counts_eight_subdomains(skel222_j8):
    assert skel222_j8.n_skeleton_vertices == 27
    assert skel222_j8.skeleton_edges.size == 90


def _boundaries_through(skel, vertex: int) -> int:
    return sum(int(vertex in boundary) for boundary in skel.boundary_vertices)


def test_center_vertex_degree(mesh222_j8, skel222_j8):
    center = int(
        np.flatnonzero(
            np.all(mesh222_j8.vertex_coords == 0.5, axis=1)
        )[0]
    )
    assert _boundaries_through(skel222_j8, center) == 8


def test_interface_degrees_two_subdomains(mesh222_j2):
    skel = extract_skeleton(mesh222_j2)
    coords = mesh222_j2.vertex_coords
    # Interior of the interface plane x = 0.5: both subdomains touch it.
    mid = np.flatnonzero(
        (coords[:, 0] == 0.5) & (coords[:, 1] == 0.5) & (coords[:, 2] == 0.5)
    )[0]
    assert _boundaries_through(skel, mid) == 2
    # Interior of an outer face away from the interface: one subdomain only.
    face = np.flatnonzero(
        (coords[:, 0] == 0.0) & (coords[:, 1] == 0.5) & (coords[:, 2] == 0.5)
    )[0]
    assert _boundaries_through(skel, face) == 1


def test_skeleton_union_matches_per_subdomain(skel222_j8):
    union = np.unique(np.concatenate(skel222_j8.boundary_vertices))
    assert np.array_equal(union, skel222_j8.skeleton_vertices)


@pytest.mark.parametrize(
    "cells,grid",
    [((1, 1, 1), (1, 1, 1)), ((2, 2, 2), (2, 1, 1)), ((2, 2, 2), (2, 2, 2))],
)
def test_skeleton_edges_bruteforce(cells, grid, boundary_faces):
    """Skeleton edges are exactly the edges lying on some boundary face.

    Brute-force characterization on meshes of at most 48 tets: an edge is on
    the skeleton iff, for some subdomain j, both endpoints are on the
    boundary of j AND the edge is an edge of one of j's boundary faces.
    """
    mesh = build_box_mesh(cells, grid)
    skel = extract_skeleton(mesh)
    expected = set()
    edge_id = {tuple(e): i for i, e in enumerate(mesh.edges)}
    for j, faces in enumerate(boundary_faces(mesh)):
        on_gamma = set(skel.boundary_vertices[j].tolist())
        for face in faces:
            a, b, c = (int(v) for v in face)
            for pair in ((a, b), (a, c), (b, c)):
                assert pair[0] in on_gamma and pair[1] in on_gamma
                expected.add(edge_id[pair])
    assert expected == set(skel.skeleton_edges.tolist())


def test_divisibility_error_names_axis():
    with pytest.raises(ConfigurationError, match="along y"):
        build_box_mesh((2, 3, 2), (2, 2, 2))


@pytest.mark.parametrize(
    "cells,grid",
    [
        ((0, 1, 1), (1, 1, 1)),
        ((1, 1, 1), (0, 1, 1)),
        ((1, 1), (1, 1, 1)),
        ((2.5, 2, 2), (1, 1, 1.9)),
        ((2, 2, 2.0), (1, 1, 1)),
        ((2, 2, 2), (1, "1", 1)),
    ],
)
def test_invalid_shapes_rejected(cells, grid):
    with pytest.raises(ConfigurationError):
        build_box_mesh(cells, grid)


def test_numpy_integer_counts_accepted():
    mesh = build_box_mesh(np.array([2, 2, 4]), (np.int64(1), 2, np.int32(2)))
    assert mesh.cells == (2, 2, 4) and mesh.subdomains == (1, 2, 2)
    assert all(type(n) is int for n in mesh.cells + mesh.subdomains)


def test_broken_mesh_rejected_by_skeleton(mesh111):
    # Duplicate one tet: its faces now appear three times within the
    # subdomain, which extract_skeleton must refuse to classify.
    tets = np.vstack([mesh111.tets, mesh111.tets[:1]])
    bad = BoxMesh(
        cells=mesh111.cells,
        subdomains=mesh111.subdomains,
        vertex_coords=mesh111.vertex_coords,
        tets=tets,
        tet_subdomain=np.zeros(7, dtype=np.int64),
        edges=mesh111.edges,
        tet_edges=np.vstack([mesh111.tet_edges, mesh111.tet_edges[:1]]),
    )
    with pytest.raises(AssemblyError):
        extract_skeleton(bad)


def test_export_vtk(tmp_path, mesh222_j8):
    path = tmp_path / "mesh.vtk"
    export_vtk(mesh222_j8, path)
    text = path.read_text()
    assert "POINTS 27 double" in text
    assert "CELLS 48 240" in text
    assert "CELL_DATA 48" in text
    assert "SCALARS subdomain int 1" in text


grid_axis = st.integers(min_value=1, max_value=4)


@settings(max_examples=25, deadline=None)
@given(nx=grid_axis, ny=grid_axis, nz=grid_axis)
def test_counts_closed_form(nx, ny, nz):
    """Vertex/tet/edge counts of the 6-tet-per-cell split, any grid shape.

    Each cell contributes its own body diagonal; each grid face gets exactly
    one diagonal; grid-axis edges are shared as usual.
    """
    mesh = build_box_mesh((nx, ny, nz))
    assert mesh.n_vertices == (nx + 1) * (ny + 1) * (nz + 1)
    assert mesh.n_tets == 6 * nx * ny * nz
    axis = (
        nx * (ny + 1) * (nz + 1)
        + ny * (nx + 1) * (nz + 1)
        + nz * (nx + 1) * (ny + 1)
    )
    face_diag = nx * ny * (nz + 1) + nx * nz * (ny + 1) + ny * nz * (nx + 1)
    assert mesh.n_edges == axis + face_diag + nx * ny * nz

    p = mesh.vertex_coords[mesh.tets]
    vols = np.linalg.det(p[:, 1:] - p[:, :1]) / 6.0
    assert np.all(vols > 0)
    assert abs(vols.sum() - 1.0) <= 1e-12


@settings(max_examples=10, deadline=None)
@given(n=st.integers(min_value=1, max_value=3), jx=st.integers(min_value=1, max_value=2))
def test_degree_positive_exactly_on_skeleton(vertex_degree, n, jx):
    mesh = build_box_mesh((2 * n, 2, 2), (jx, 2, 1))
    skel = extract_skeleton(mesh)
    positive = np.flatnonzero(vertex_degree(mesh) > 0)
    assert np.array_equal(positive, skel.skeleton_vertices)
