"""Structured tetrahedral meshes of the unit box, split into box subdomains.

Every cell of a regular ``nx x ny x nz`` grid is cut into six tetrahedra that
share the cell's main diagonal (lower corner to upper corner).  Because the
cut pattern is the same in every cell, the triangulation is conforming across
cell faces, and therefore across any subdomain interface made of cell faces.

Subdomains are boxes of whole cells: axis ``a`` is divided into ``j_a`` equal
slabs, which requires ``j_a`` to divide the cell count on that axis.  The
skeleton is the union of the (closed) subdomain boundaries, including the
outer boundary of the box.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import permutations

import numpy as np

from .errors import AssemblyError, ConfigurationError

__all__ = [
    "BoxMesh",
    "SkeletonIndex",
    "build_box_mesh",
    "extract_skeleton",
    "export_vtk",
]

#: Local edges of a tetrahedron (pairs of local vertex numbers, fixed order).
LOCAL_EDGES = np.array([[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]])

#: Local faces, face f is opposite local vertex f.
LOCAL_FACES = np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])

#: Sorted vertex triples (a, b, c) are keyed as (a * n_v + b) * n_v + c, which
#: fits in int64 (keys < n_v**3 <= 2**63) up to this many vertices.
FACE_KEY_LIMIT = 2**21


@dataclass(frozen=True)
class BoxMesh:
    """Tetrahedral mesh of the unit box with a subdomain id per tet.

    All index arrays are read-only.  ``edges`` holds vertex pairs ``(a, b)``
    with ``a < b``, sorted lexicographically; that global orientation (low
    index to high index) is the tangent convention used everywhere.  The
    per-subdomain tet index and the edge keys are computed once, on first
    use, so per-subdomain loops never rescan whole-mesh arrays.
    """

    cells: tuple[int, int, int]
    subdomains: tuple[int, int, int]
    vertex_coords: np.ndarray  # (n_vertices, 3) float
    tets: np.ndarray  # (n_tets, 4) vertex ids, positive orientation
    tet_subdomain: np.ndarray  # (n_tets,) subdomain id per tet
    edges: np.ndarray  # (n_edges, 2) sorted vertex pairs
    tet_edges: np.ndarray  # (n_tets, 6) edge id of each local edge

    @property
    def n_vertices(self) -> int:
        return self.vertex_coords.shape[0]

    @property
    def n_tets(self) -> int:
        return self.tets.shape[0]

    @property
    def n_edges(self) -> int:
        return self.edges.shape[0]

    @property
    def n_subdomains(self) -> int:
        jx, jy, jz = self.subdomains
        return jx * jy * jz

    @cached_property
    def _tets_by_subdomain(self) -> tuple[np.ndarray, np.ndarray]:
        """Tet ids grouped by subdomain (a stable sort, so ascending within
        each subdomain) and the offset of each subdomain's run."""
        order = np.argsort(self.tet_subdomain, kind="stable")
        offsets = np.zeros(self.n_subdomains + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.tet_subdomain, minlength=self.n_subdomains), out=offsets[1:])
        return _freeze(order), offsets

    def tets_of_subdomain(self, j: int) -> np.ndarray:
        """Ascending ids of the tets of subdomain ``j``, as a read-only view."""
        order, offsets = self._tets_by_subdomain
        return order[offsets[j] : offsets[j + 1]]

    @cached_property
    def edge_keys(self) -> np.ndarray:
        """Ascending int64 key ``a * n_vertices + b`` of every edge ``(a, b)``."""
        return _freeze(self.edges[:, 0].astype(np.int64) * self.n_vertices + self.edges[:, 1])


@dataclass(frozen=True)
class SkeletonIndex:
    """Index sets describing the subdomain skeleton.

    ``boundary_vertices[j]`` / ``boundary_edges[j]`` list, in ascending global
    order, the dofs sitting on the boundary of subdomain ``j``.  The skeleton
    lists are the unions over subdomains.
    """

    skeleton_vertices: np.ndarray  # sorted global vertex ids
    skeleton_edges: np.ndarray  # sorted global edge ids
    boundary_vertices: list[np.ndarray]  # per subdomain, sorted
    boundary_edges: list[np.ndarray]  # per subdomain, sorted

    @property
    def n_skeleton_vertices(self) -> int:
        return self.skeleton_vertices.shape[0]


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _axis_name(axis: int) -> str:
    return "xyz"[axis]


def _check_face_keys(n_vertices: int) -> None:
    if n_vertices > FACE_KEY_LIMIT:
        raise ConfigurationError(
            f"{n_vertices} vertices: face keys overflow int64 above {FACE_KEY_LIMIT} vertices"
        )


def build_box_mesh(
    cells: tuple[int, int, int], subdomains: tuple[int, int, int] = (1, 1, 1)
) -> BoxMesh:
    """Mesh the unit box with six tets per grid cell.

    ``cells`` gives the cell count per axis, ``subdomains`` the number of
    equal slabs per axis; each subdomain count must divide the cell count on
    its axis.  Counts must be integers (numpy integers included).  Raises
    :class:`ConfigurationError` otherwise.
    """
    try:
        cells = tuple(operator.index(c) for c in cells)
        subdomains = tuple(operator.index(j) for j in subdomains)
    except TypeError as err:
        raise ConfigurationError(f"cells and subdomains must be integer triples: {err}") from err
    if len(cells) != 3 or len(subdomains) != 3:
        raise ConfigurationError("cells and subdomains must be triples")
    for axis in range(3):
        if cells[axis] < 1:
            raise ConfigurationError(
                f"cell count along {_axis_name(axis)} must be >= 1, got {cells[axis]}"
            )
        if subdomains[axis] < 1:
            raise ConfigurationError(
                f"subdomain count along {_axis_name(axis)} must be >= 1, "
                f"got {subdomains[axis]}"
            )
        if cells[axis] % subdomains[axis] != 0:
            raise ConfigurationError(
                f"cells per axis ({cells[axis]}) not divisible by subdomains "
                f"({subdomains[axis]}) along {_axis_name(axis)}"
            )

    nx, ny, nz = cells
    jx, jy, jz = subdomains
    # Checked before any array is built: the mesh would take gigabytes.
    _check_face_keys((nx + 1) * (ny + 1) * (nz + 1))

    # Vertex id = i + (nx+1)*(j + (ny+1)*k), i fastest.
    kk, jj, ii = np.meshgrid(
        np.arange(nz + 1), np.arange(ny + 1), np.arange(nx + 1), indexing="ij"
    )
    coords = np.column_stack(
        [ii.ravel() / nx, jj.ravel() / ny, kk.ravel() / nz]
    ).astype(float)

    # Lower-corner grid indices of every cell, x fastest.
    ck, cj, ci = np.meshgrid(np.arange(nz), np.arange(ny), np.arange(nx), indexing="ij")
    ci, cj, ck = ci.ravel(), cj.ravel(), ck.ravel()

    def vid(di: int, dj: int, dk: int) -> np.ndarray:
        return (ci + di) + (nx + 1) * ((cj + dj) + (ny + 1) * (ck + dk))

    # Six tets per cell: one per axis permutation, walking from the lower
    # corner to the upper corner one axis at a time.  All six share the main
    # diagonal, and the pattern is identical in every cell, which makes the
    # triangulation conforming.  Odd permutations get two vertices swapped so
    # every stored tet is positively oriented.
    unit = np.eye(3, dtype=int)
    cell_tets = []
    for perm in permutations(range(3)):
        steps = np.zeros((4, 3), dtype=int)
        steps[1] = unit[perm[0]]
        steps[2] = steps[1] + unit[perm[1]]
        steps[3] = (1, 1, 1)
        inversions = sum(
            perm[a] > perm[b] for a in range(3) for b in range(a + 1, 3)
        )
        order = (0, 1, 2, 3) if inversions % 2 == 0 else (0, 2, 1, 3)
        cell_tets.append(np.stack([vid(*steps[t]) for t in order], axis=1))
    # Group the six tets of each cell contiguously: tet id = 6*cell + variant.
    tets = np.stack(cell_tets, axis=1).reshape(-1, 4)

    p = coords[tets]
    vols6 = np.linalg.det(p[:, 1:] - p[:, :1])
    if not np.all(vols6 > 0):
        raise AssemblyError("mesh generation produced a non-positive tet volume")

    sub = (ci // (nx // jx)) + jx * ((cj // (ny // jy)) + jy * (ck // (nz // jz)))
    tet_subdomain = np.repeat(sub, 6)

    # Sorted pairs (a, b) order lexicographically exactly as their int64
    # keys a * n_v + b do, so a 1-D unique of the keys lists the edges.
    pairs = np.sort(tets[:, LOCAL_EDGES].reshape(-1, 2), axis=1)
    n_v = coords.shape[0]
    pair_keys = pairs[:, 0].astype(np.int64) * n_v + pairs[:, 1]
    edge_keys, tet_edges = np.unique(pair_keys, return_inverse=True)
    edges = np.column_stack(np.divmod(edge_keys, n_v))
    tet_edges = tet_edges.reshape(-1, 6)

    return BoxMesh(
        cells=cells,
        subdomains=subdomains,
        vertex_coords=_freeze(coords),
        tets=_freeze(tets),
        tet_subdomain=_freeze(tet_subdomain),
        edges=_freeze(edges),
        tet_edges=_freeze(tet_edges.astype(np.int64)),
    )


def edge_ids_of_pairs(mesh: BoxMesh, pairs: np.ndarray) -> np.ndarray:
    """Map sorted vertex pairs to edge ids (pairs must exist in the mesh)."""
    keys = mesh.edge_keys
    want = pairs[:, 0].astype(np.int64) * mesh.n_vertices + pairs[:, 1]
    pos = np.searchsorted(keys, want)
    if np.any(pos >= keys.shape[0]) or np.any(keys[np.minimum(pos, keys.shape[0] - 1)] != want):
        raise KeyError("vertex pair is not an edge of the mesh")
    return pos


def extract_skeleton(mesh: BoxMesh) -> SkeletonIndex:
    """Collect boundary vertices/edges of every subdomain and their union.

    A face of subdomain ``j`` is a boundary face when exactly one tet of the
    subdomain touches it; any other count means the mesh is broken, so it is
    rejected loudly rather than silently misclassified.
    """
    n_v = mesh.n_vertices
    _check_face_keys(n_v)  # again: a mesh may be built by hand
    boundary_vertices: list[np.ndarray] = []
    boundary_edges: list[np.ndarray] = []

    for j in range(mesh.n_subdomains):
        tets_j = mesh.tets[mesh.tets_of_subdomain(j)]
        if tets_j.size == 0:
            raise ConfigurationError(f"subdomain {j} contains no tets")
        # Sorted triples order lexicographically as their keys do.
        faces = np.sort(tets_j[:, LOCAL_FACES].reshape(-1, 3), axis=1)
        a, b, c = faces.astype(np.int64, copy=False).T
        keys, counts = np.unique((a * n_v + b) * n_v + c, return_counts=True)
        if counts.max() > 2:
            raise AssemblyError(
                f"subdomain {j}: a face is shared by {counts.max()} tets"
            )
        ab, c = np.divmod(keys[counts == 1], n_v)
        a, b = np.divmod(ab, n_v)
        bfaces = np.column_stack((a, b, c))
        bverts = np.unique(bfaces)
        # Faces store sorted vertex triples, so the three edges of each face
        # are already sorted pairs.
        face_pairs = bfaces[:, [[0, 1], [0, 2], [1, 2]]].reshape(-1, 2)
        bedges = np.unique(edge_ids_of_pairs(mesh, face_pairs))

        boundary_vertices.append(_freeze(bverts))
        boundary_edges.append(_freeze(bedges))

    return SkeletonIndex(
        skeleton_vertices=_freeze(np.unique(np.concatenate(boundary_vertices))),
        skeleton_edges=_freeze(np.unique(np.concatenate(boundary_edges))),
        boundary_vertices=boundary_vertices,
        boundary_edges=boundary_edges,
    )


def export_vtk(mesh: BoxMesh, path) -> None:
    """Write the mesh as legacy ASCII VTK (cell type 10) with subdomain ids."""
    lines = [
        "# vtk DataFile Version 3.0",
        "schurhx box mesh",
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {mesh.n_vertices} double",
    ]
    lines += [f"{x!r} {y!r} {z!r}" for x, y, z in mesh.vertex_coords]
    lines.append(f"CELLS {mesh.n_tets} {5 * mesh.n_tets}")
    lines += [f"4 {a} {b} {c} {d}" for a, b, c, d in mesh.tets]
    lines.append(f"CELL_TYPES {mesh.n_tets}")
    lines += ["10"] * mesh.n_tets
    lines.append(f"CELL_DATA {mesh.n_tets}")
    lines.append("SCALARS subdomain int 1")
    lines.append("LOOKUP_TABLE default")
    lines += [str(j) for j in mesh.tet_subdomain]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
