"""Mesh generation: counts, orientation, conformity, subdomain boundaries."""

from dataclasses import replace
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import jump_grids

from schurhx.assemble import Coefficients, assemble_edge
from schurhx.dofspaces import build_transfer
from schurhx.errors import AssemblyError, ConfigurationError
from schurhx.mesh import (
    CELL_TETS,
    FACE_EDGES,
    FACE_KEY_LIMIT,
    LOCAL_EDGES,
    LOCAL_FACES,
    BoxMesh,
    _boundary_last,
    _corner_offsets,
    _edge_slots,
    build_box_mesh,
    export_vtk,
)
from schurhx.precond import setup_maxwell, setup_scalar


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


def test_cell_tets_are_the_axis_order_walks():
    """Each of the six cell tets walks from corner 0 to corner 7 one axis at
    a time (corner i + 2j + 4k), one per axis order, in the order of
    itertools.permutations, with the middle two corners swapped on odd
    orders; all six have positive volume on the unit cell."""
    walks = []
    for perm in permutations(range(3)):
        first, second = 1 << perm[0], (1 << perm[0]) | (1 << perm[1])
        inversions = sum(perm[a] > perm[b] for a in range(3) for b in range(a + 1, 3))
        walks.append([0, second, first, 7] if inversions % 2 else [0, first, second, 7])
    assert np.array_equal(CELL_TETS, walks)
    corners = (np.arange(8)[:, None] >> np.arange(3)) & 1
    p = corners[CELL_TETS].astype(float)
    assert np.all(np.linalg.det(p[:, 1:] - p[:, :1]) > 0)


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


def _assert_derived_edges(mesh, edge_numbering):
    """``edges`` and ``tet_edges`` are bitwise the sort-and-unique reference,
    int64, read-only, and cached: the same objects on a second access."""
    for got, want in zip((mesh.edges, mesh.tet_edges), edge_numbering(mesh)):
        assert got.dtype == want.dtype == np.int64 and np.array_equal(got, want)
        assert not got.flags.writeable
    assert mesh.edges is mesh.edges and mesh.tet_edges is mesh.tet_edges


@settings(max_examples=25, deadline=None)
@given(nx=st.integers(1, 4), ny=st.integers(1, 4), nz=st.integers(1, 4))
def test_derived_edges_match_reference(edge_numbering, nx, ny, nz):
    _assert_derived_edges(build_box_mesh((nx, ny, nz)), edge_numbering)


def test_derived_edges_of_hand_built_meshes(mesh422_two_shapes, edge_numbering):
    """Meshes made by replacing fields of a generated one: with the tet order
    reversed, every subdomain is still subdomain 0 translated and the derived
    edges are the reference's; with a cell moved to the other subdomain, or
    the last vertex plane moved out by one cell, subdomain 1 is no translate
    and reading the edges is refused."""
    mesh = build_box_mesh((4, 2, 2), (2, 1, 1))
    reversed_tets = replace(mesh, tets=mesh.tets[::-1], tet_subdomain=mesh.tet_subdomain[::-1])
    _assert_derived_edges(reversed_tets, edge_numbering)
    coords = mesh.vertex_coords.copy()
    coords[coords[:, 0] == 1.0, 0] = 1.25
    for hand_built in (mesh422_two_shapes, replace(mesh, vertex_coords=coords)):
        with pytest.raises(ConfigurationError, match="^subdomain 1 is not subdomain 0 translated$"):
            hand_built.edges


@pytest.mark.parametrize(
    "mesh_name", ["mesh422_j211", "mesh222_j8", "mesh234_j132"]
)
def test_key_unique_matches_row_unique(request, mesh_name, boundary_faces, boundary_dofs):
    """Edges and boundary sets found through int64 keys are exactly what
    np.unique(axis=0) on the vertex rows gives."""
    if mesh_name == "mesh234_j132":
        mesh = build_box_mesh((2, 3, 4), (1, 3, 2))
    else:
        mesh = request.getfixturevalue(mesh_name)
    scalar = build_transfer(mesh, "scalar")
    boundary_vertices = boundary_dofs(scalar)
    boundary_edges = boundary_dofs(build_transfer(mesh, "edge"))
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
        assert np.array_equal(boundary_vertices[j], bverts)
        assert np.array_equal(boundary_edges[j], bedges)
    assert np.array_equal(scalar.skeleton_trace, np.flatnonzero(on_skeleton))


# Every grid the suite and the benchmark mesh, anisotropic ones included.
SUITE_GRIDS = [
    ((1, 1, 1), (1, 1, 1)),
    ((2, 2, 2), (1, 1, 1)),
    ((2, 2, 2), (2, 1, 1)),
    ((2, 2, 2), (2, 2, 2)),
    ((2, 2, 4), (1, 2, 2)),
    ((2, 3, 4), (1, 1, 1)),
    ((2, 3, 4), (1, 3, 2)),
    ((3, 3, 3), (3, 1, 1)),
    ((3, 3, 3), (3, 3, 3)),
    ((3, 6, 5), (1, 1, 1)),
    ((3, 6, 5), (1, 2, 5)),
    ((4, 2, 2), (2, 1, 1)),
    ((4, 4, 4), (2, 1, 1)),
    ((4, 4, 4), (2, 2, 2)),
    ((4, 4, 4), (4, 2, 1)),
    ((4, 6, 2), (2, 3, 1)),
    ((6, 2, 2), (2, 2, 1)),
    ((6, 6, 6), (2, 2, 2)),
    ((6, 6, 6), (3, 3, 3)),
    ((8, 8, 8), (4, 4, 4)),
    ((9, 9, 9), (3, 3, 3)),
    ((10, 10, 10), (5, 5, 5)),
    ((12, 12, 12), (2, 2, 2)),
    ((12, 12, 12), (3, 3, 3)),
    ((24, 6, 6), (2, 2, 2)),
    ((24, 24, 24), (4, 4, 4)),
]


@pytest.mark.parametrize(
    "cells, subdomains",
    SUITE_GRIDS,
    ids=["x".join(map(str, c)) + "/" + "x".join(map(str, j)) for c, j in SUITE_GRIDS],
)
def test_box_mesh_subdomains_share_one_shape(cells, subdomains):
    """Every subdomain of a box partition is subdomain 0 translated, by its
    lower-corner vertex id less subdomain 0's (which is 0), read-only."""
    mesh = build_box_mesh(cells, subdomains)
    # Lattice corners of the subdomains, x fastest, as subdomains are numbered.
    corners = np.indices(subdomains[::-1]).reshape(3, -1)[::-1].T * (np.array(cells) // subdomains)
    nx, ny, _ = cells
    want = corners @ [1, nx + 1, (nx + 1) * (ny + 1)]
    assert mesh.translations.dtype == np.int64 and np.array_equal(mesh.translations, want)
    assert not mesh.translations.flags.writeable


def test_moved_cell_makes_two_shapes(mesh422_two_shapes, assert_refused):
    """A cell moved to the other subdomain leaves subdomain 1 no translate of
    subdomain 0, so every set-up refuses the mesh, naming subdomain 1."""
    assert_refused(mesh422_two_shapes, "^subdomain 1 is not subdomain 0 translated$")


@settings(max_examples=25, deadline=None)
@given(grid=jump_grids(), moved=st.integers(0, 63))
def test_shapes_match_full_key_reference(full_key_shapes, grid, moved):
    """Checking every tet's vertex-id offset and the lattice offsets of only
    subdomain 0's distinct vertices accepts exactly the meshes whose
    subdomains, keyed by all their tet rows and lattice rows, are one shape:
    box partitions, but not one cell's tets moved to another subdomain or the
    last vertex plane moved off the lattice step (translated ids, other
    geometry) unless every subdomain keeps its translate."""
    mesh = grid[0]
    meshes = [mesh]
    cell = moved % (mesh.n_tets // 6)
    tet_subdomain = mesh.tet_subdomain.copy()
    tet_subdomain[6 * cell : 6 * cell + 6] = (tet_subdomain[6 * cell] + 1) % mesh.n_subdomains
    if np.all(np.bincount(tet_subdomain, minlength=mesh.n_subdomains) > 0):
        meshes.append(replace(mesh, tet_subdomain=tet_subdomain))
    coords = mesh.vertex_coords.copy()
    nx = mesh.cells[0]
    coords[coords[:, 0] == 1.0, 0] = (nx + 1) / nx
    meshes.append(replace(mesh, vertex_coords=coords))
    for m in meshes:
        shape_of = full_key_shapes(m)
        if np.any(shape_of):
            with pytest.raises(ConfigurationError, match="is not subdomain 0 translated$"):
                m.translations
        else:
            first_vertex = [m.tets[m.tet_subdomain == j][0, 0] for j in range(m.n_subdomains)]
            assert np.array_equal(m.translations, np.subtract(first_vertex, first_vertex[0]))


@pytest.mark.parametrize("setup", [setup_scalar, setup_maxwell])
def test_numbering_derives_only_the_fields_read(setup):
    """A scalar set-up never derives the edges, a Maxwell set-up does; both
    count the faces, and neither derives the whole-mesh ``tet_edges``.  A
    new mesh has derived none of them."""
    mesh = build_box_mesh((4, 4, 2), (2, 2, 1))
    with pytest.raises(ValueError, match="^unknown field 'face'$"):
        mesh.numbering("face")
    assert "_edge_numbering" not in vars(mesh) and "_boundary_faces" not in vars(mesh)
    setup(mesh, Coefficients())
    assert ("_edge_numbering" in vars(mesh)) == (setup is setup_maxwell)
    assert "_boundary_faces" in vars(mesh)
    assert "tet_edges" not in vars(mesh)


# Suite grids, most of them anisotropic in cells or in subdomains.
NUMBERING_GRIDS = [
    ((2, 3, 4), (1, 3, 2)),
    ((3, 6, 5), (1, 2, 5)),
    ((4, 4, 4), (4, 2, 1)),
    ((4, 6, 2), (2, 3, 1)),
    ((6, 6, 6), (3, 3, 3)),
    ((24, 6, 6), (2, 2, 2)),
]


GRID_IDS = ["x".join(map(str, c)) + "/" + "x".join(map(str, j)) for c, j in NUMBERING_GRIDS]


@pytest.mark.parametrize("grid", NUMBERING_GRIDS, ids=GRID_IDS)
def test_numbering_holds_on_every_member(grid, subdomain_dofs):
    """Subdomain 0's numbering numbers every subdomain: its positions pick
    each subdomain's interior dofs in strictly ascending order, then its
    boundary dofs in strictly ascending order, those of the face-count
    reference, and its local ids give back the subdomain's tet rows."""
    mesh = build_box_mesh(*grid)
    for field, tet_dofs in (("scalar", mesh.tets), ("edge", mesh.tet_edges)):
        first, local, n_interior = mesh.numbering(field)
        assert not any(a.flags.writeable for a in (first, local))
        for j, (interior, boundary) in enumerate(subdomain_dofs(mesh, field)):
            rows = tet_dofs[mesh.tets_of_subdomain(j)]
            dofs = rows.ravel()[first]
            assert np.array_equal(dofs[:n_interior], interior)
            assert np.array_equal(dofs[n_interior:], boundary)
            assert np.array_equal(dofs[local], rows)


@pytest.mark.parametrize("grid", NUMBERING_GRIDS, ids=GRID_IDS)
def test_translated_numbering_equals_whole_mesh_reference(grid):
    """Edges, ``tet_edges``, the edge numbering and every array of both
    transfers, reached through subdomain 0's slots translated to every
    subdomain, are bitwise what whole-mesh code builds: one ``_edge_slots``
    over all tets, and a gather of every subdomain's tet rows of the dof ids."""
    base = build_box_mesh(*grid)
    mesh, ref = replace(base), replace(base)  # fresh caches each
    slots = _edge_slots(ref.cells, ref.tets)
    used = np.bincount(slots.ravel(), minlength=7 * ref.n_vertices) > 0
    start, k = np.divmod(np.flatnonzero(used), 7)
    edges = np.column_stack([start, start + _corner_offsets(ref.cells)[1:][k]])
    tet_edges = (np.cumsum(used, dtype=np.int64) - 1)[slots]
    rows = tet_edges[ref.tets_of_subdomain(0)]
    _, first, local = np.unique(rows, return_index=True, return_inverse=True)
    local = local.reshape(rows.shape)
    boundary = local[:, FACE_EDGES].reshape(-1, 3)[ref._boundary_faces[1]]
    edge_numbering = _boundary_last(first, local, boundary)
    for got, want in ((mesh.edges, edges), (mesh.tet_edges, tet_edges)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    got = mesh.numbering("edge")
    assert got[2] == edge_numbering[2]
    for g, w in zip(got[:2], edge_numbering[:2]):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
    cases = (("scalar", ref.tets, ref.numbering("scalar")), ("edge", tet_edges, edge_numbering))
    for field, tet_dofs, (first, _, n_i) in cases:
        sub_dofs = [
            tet_dofs[ref.tets_of_subdomain(j)].ravel()[first] for j in range(ref.n_subdomains)
        ]
        boundary = np.array([d[n_i:] for d in sub_dofs])
        skeleton = np.flatnonzero(np.bincount(boundary.ravel(), minlength=tet_dofs.max() + 1))
        ops = build_transfer(mesh, field)
        assert ops.n_volume == tet_dofs.max() + 1
        assert ops.n_interior == n_i
        want = {
            "skeleton_trace": skeleton,
            "volume_split": np.array(sub_dofs),
            "skeleton_split": np.searchsorted(skeleton, boundary),
        }
        for name, array in want.items():
            got = getattr(ops, name)
            assert got.shape == array.shape
            assert got.dtype == np.int64 and got.tobytes() == array.astype(np.int64).tobytes()


def test_face_key_overflow_rejected(mesh111):
    # Only the vertex count matters: a zero-strided coordinate array stands in
    # for a mesh too large to build here.
    huge = BoxMesh(
        cells=mesh111.cells,
        subdomains=mesh111.subdomains,
        vertex_coords=np.broadcast_to(np.zeros(3), (FACE_KEY_LIMIT + 1, 3)),
        tets=mesh111.tets,
        tet_subdomain=mesh111.tet_subdomain,
    )
    with pytest.raises(ConfigurationError, match="face keys"):
        build_transfer(huge, "scalar")


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
    as read-only views."""
    mesh = build_box_mesh((4, 6, 2), (2, 3, 1))
    for j in range(mesh.n_subdomains):
        ids = mesh.tets_of_subdomain(j)
        assert np.array_equal(ids, np.flatnonzero(mesh.tet_subdomain == j))
        assert not ids.flags.writeable


def test_watertight_subdomain_boundaries(
    mesh222_j8, transfers222_j8, boundary_faces, boundary_dofs
):
    """Recount boundary faces independently (shared by exactly one tet of j):
    they close up, every face edge lying on exactly two of them, and their
    vertices are the boundary vertices of j."""
    boundary_vertices = boundary_dofs(transfers222_j8[0])
    for j, faces in enumerate(boundary_faces(mesh222_j8)):
        face_pairs = faces[:, [[0, 1], [0, 2], [1, 2]]].reshape(-1, 2)
        _, uses = np.unique(face_pairs, axis=0, return_counts=True)
        assert np.all(uses == 2)
        assert np.array_equal(boundary_vertices[j], np.unique(faces))


def test_skeleton_j1_is_outer_boundary(mesh222_j1, transfers222_j1, boundary_dofs):
    # Single subdomain: skeleton = vertices of the box surface, all on the
    # one boundary, and the center vertex is the only one missing.
    skeleton_vertices = transfers222_j1[0].skeleton_trace
    boundary_vertices = boundary_dofs(transfers222_j1[0])
    assert skeleton_vertices.size == 26
    assert len(boundary_vertices) == 1
    assert np.array_equal(boundary_vertices[0], skeleton_vertices)
    on_surface = np.any(
        (mesh222_j1.vertex_coords == 0.0) | (mesh222_j1.vertex_coords == 1.0),
        axis=1,
    )
    assert np.array_equal(skeleton_vertices, np.flatnonzero(on_surface))


def test_skeleton_counts_eight_subdomains(transfers222_j8):
    scalar, edge = transfers222_j8
    assert scalar.skeleton_trace.size == 27
    assert edge.skeleton_trace.size == 90


def _boundaries_through(boundary_vertices, vertex: int) -> int:
    return sum(int(vertex in boundary) for boundary in boundary_vertices)


def test_center_vertex_degree(mesh222_j8, transfers222_j8, boundary_dofs):
    center = int(
        np.flatnonzero(
            np.all(mesh222_j8.vertex_coords == 0.5, axis=1)
        )[0]
    )
    assert _boundaries_through(boundary_dofs(transfers222_j8[0]), center) == 8


def test_interface_degrees_two_subdomains(mesh222_j2, boundary_dofs):
    skel = boundary_dofs(build_transfer(mesh222_j2, "scalar"))
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


def test_skeleton_union_matches_per_subdomain(transfers222_j8, boundary_dofs):
    union = np.unique(np.concatenate(boundary_dofs(transfers222_j8[0])))
    assert np.array_equal(union, transfers222_j8[0].skeleton_trace)


@pytest.mark.parametrize(
    "cells,grid",
    [
        ((1, 1, 1), (1, 1, 1)),
        ((2, 2, 2), (2, 1, 1)),
        ((2, 2, 2), (2, 2, 2)),
        ((2, 2, 2), (1, 1, 1)),
    ],
)
def test_skeleton_edges_bruteforce(cells, grid, boundary_faces, boundary_dofs):
    """Each subdomain's boundary vertices and edges are exactly those of its
    boundary faces, and skeleton edges are exactly the edges lying on some
    boundary face.

    Brute-force characterization on meshes of at most 48 tets: an edge is on
    the skeleton iff, for some subdomain j, both endpoints are on the
    boundary of j AND the edge is an edge of one of j's boundary faces.
    """
    mesh = build_box_mesh(cells, grid)
    scalar, edge = build_transfer(mesh, "scalar"), build_transfer(mesh, "edge")
    boundary_vertices, boundary_edges = boundary_dofs(scalar), boundary_dofs(edge)
    expected = set()
    edge_id = {tuple(e): i for i, e in enumerate(mesh.edges.tolist())}
    for j, faces in enumerate(boundary_faces(mesh)):
        assert np.array_equal(boundary_vertices[j], np.unique(faces))
        on_gamma = set(boundary_vertices[j].tolist())
        face_edges = set()
        for face in faces:
            a, b, c = (int(v) for v in face)
            for pair in ((a, b), (a, c), (b, c)):
                assert pair[0] in on_gamma and pair[1] in on_gamma
                face_edges.add(edge_id[pair])
        assert boundary_edges[j].tolist() == sorted(face_edges)
        expected |= face_edges
    assert expected == set(edge.skeleton_trace.tolist())


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
    """Two hand-built meshes whose transfers must be refused, each with an
    AssemblyError: one tet duplicated, so its faces appear three times within
    the subdomain; and one tet with a vertex pair that joins no two corners of
    a cell, so the pair has no edge id (edge assembly refuses it too)."""
    duplicate_tet = BoxMesh(
        cells=mesh111.cells,
        subdomains=mesh111.subdomains,
        vertex_coords=mesh111.vertex_coords,
        tets=np.vstack([mesh111.tets, mesh111.tets[:1]]),
        tet_subdomain=np.zeros(7, dtype=np.int64),
    )
    # On two cells along x, vertex ids 0 and 2 are two cells apart.
    mesh211 = build_box_mesh((2, 1, 1))
    tets = mesh211.tets.copy()
    tets[0] = (0, 2, 3, 6)
    off_pattern = replace(mesh211, tets=tets)
    for bad in (duplicate_tet, off_pattern):
        for field in ("scalar", "edge"):
            with pytest.raises(AssemblyError):
                build_transfer(bad, field)
    with pytest.raises(AssemblyError, match="joins no two corners of a cell"):
        assemble_edge(off_pattern, Coefficients())


def test_tet_edge_off_the_cell_corners_is_refused():
    """A hand-built tet edge that joins no two corners of a cell raises
    :class:`AssemblyError` on every read that numbers edges, whether the tet
    sits in the one subdomain or in subdomain 0 and its translate (edge slots
    are checked once, on subdomain 0)."""
    # One subdomain: vertex ids 0 and 2 are two cells apart along x.
    one = build_box_mesh((2, 1, 1))
    tets = one.tets.copy()
    tets[0] = (0, 2, 3, 6)
    # Two subdomains: tet 1 gets the two-cell edge (0, 2), and its translate,
    # tet 13 of subdomain 1, the edge (2, 4).
    two = build_box_mesh((4, 1, 1), (2, 1, 1))
    tets_two = two.tets.copy()
    tets_two[1], tets_two[13] = (0, 2, 5, 15), (2, 4, 7, 17)
    bad_meshes = (replace(one, tets=tets), replace(two, tets=tets_two))
    assert bad_meshes[1].translations.tolist() == [0, 2]
    reads = (
        lambda m: m.edges,
        lambda m: m.tet_edges,
        lambda m: m.numbering("edge"),
        lambda m: m.numbering("scalar"),
        lambda m: build_transfer(m, "edge"),
        lambda m: setup_maxwell(m, Coefficients()),
    )
    for bad in bad_meshes:
        for read in reads:
            with pytest.raises(AssemblyError, match="joins no two corners of a cell"):
                read(replace(bad))


def test_export_vtk(tmp_path):
    """The POINTS and CELLS blocks read back exactly as the mesh's coordinates
    and tets, on a grid whose coordinates (thirds) need every digit."""
    mesh = build_box_mesh((2, 3, 1), (2, 1, 1))
    path = tmp_path / "mesh.vtk"
    export_vtk(mesh, path)
    lines = path.read_text().splitlines()
    n_v, n_t = mesh.n_vertices, mesh.n_tets
    at = lines.index(f"POINTS {n_v} double")
    points = np.array([[float(x) for x in line.split()] for line in lines[at + 1 : at + 1 + n_v]])
    assert np.array_equal(points, mesh.vertex_coords)
    at = lines.index(f"CELLS {n_t} {5 * n_t}")
    cells = np.array([[int(v) for v in line.split()] for line in lines[at + 1 : at + 1 + n_t]])
    assert np.array_equal(cells[:, 0], np.full(n_t, 4))
    assert np.array_equal(cells[:, 1:], mesh.tets)
    assert lines[at + 1 + n_t] == f"CELL_TYPES {n_t}"
    assert f"CELL_DATA {n_t}" in lines
    assert "SCALARS subdomain int 1" in lines


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
    positive = np.flatnonzero(vertex_degree(mesh) > 0)
    assert np.array_equal(positive, build_transfer(mesh, "scalar").skeleton_trace)
