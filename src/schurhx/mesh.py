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
    "build_box_mesh",
    "export_vtk",
]

#: Local edges of a tetrahedron (pairs of local vertex numbers, fixed order).
LOCAL_EDGES = np.array([[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]])

#: Local faces, face f is opposite local vertex f.
LOCAL_FACES = np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])

#: Local edges of each local face (slots of LOCAL_EDGES).
FACE_EDGES = np.array([[3, 4, 5], [1, 2, 5], [0, 2, 4], [0, 1, 3]])

#: A face's sorted local vertex ids (a, b, c) among n <= n_vertices are keyed
#: as (a * n + b) * n + c, which fits in int64 up to this many vertices.
FACE_KEY_LIMIT = 2**21


@dataclass(frozen=True)
class BoxMesh:
    """Tetrahedral mesh of the unit box with a subdomain id per tet.

    All index arrays are read-only.  ``edges`` holds vertex pairs ``(a, b)``
    with ``a < b``, sorted lexicographically; that global orientation (low
    index to high index) is the tangent convention used everywhere.
    The per-subdomain tet index, the vertex lattice, the subdomain shapes and
    their local dof numbering and boundary are computed once, on first use, so
    per-subdomain loops never rescan whole-mesh arrays.
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
    def vertex_lattice(self) -> np.ndarray:
        """Integer lattice position (n_vertices, 3) of every vertex: its
        coordinate over the cell size h, rounded.  Checked once per mesh; a
        vertex off the lattice raises :class:`AssemblyError`."""
        cells = np.asarray(self.cells, dtype=float)
        lattice = np.rint(self.vertex_coords * cells)
        if not np.array_equal(lattice / cells, self.vertex_coords):
            raise AssemblyError("vertex off the box lattice")
        return _freeze(lattice.astype(np.int64))

    @cached_property
    def shapes(self) -> tuple[np.ndarray, np.ndarray]:
        """Shape number of each subdomain, in order of first appearance, and
        the first subdomain of each shape.  Subdomains share a shape when their
        tets, in order, differ by one vertex-id and one lattice offset; that
        keeps the order of vertex ids and edge ids, so a sorted local dof list
        sits at the same positions of every member's tet rows.  An empty
        subdomain raises :class:`ConfigurationError`."""
        keys: dict = {}
        shape_of = np.empty(self.n_subdomains, dtype=np.int64)
        for j in range(self.n_subdomains):
            tets_j = self.tets[self.tets_of_subdomain(j)]
            if tets_j.size == 0:
                raise ConfigurationError(f"subdomain {j} contains no tets")
            lattice = self.vertex_lattice[tets_j]
            key = ((tets_j - tets_j[0, 0]).tobytes(), (lattice - lattice[0, 0]).tobytes())
            shape_of[j] = keys.setdefault(key, len(keys))
        return _freeze(shape_of), _freeze(np.unique(shape_of, return_index=True)[1])

    @cached_property
    def numbering(self) -> dict[str, list[tuple[np.ndarray, np.ndarray, np.ndarray]]]:
        """Per field ("scalar" numbers ``tets``, "edge" ``tet_edges``), one
        ``(first, local, boundary)`` per shape, on its first subdomain: the flat
        positions of its sorted dofs in its tet rows, the local id (T, k) of
        each tet slot, and the ascending local ids of its boundary dofs, those
        on a face that exactly one of its tets touches; member j's dofs are
        ``tet_dofs[tets_of_subdomain(j)].ravel()[first]``.  ``tet_edges`` out of
        step with ``tets`` and ``edges``, or a face of more than two tets of a
        subdomain, raise :class:`AssemblyError`."""
        _check_face_keys(self.n_vertices)  # again: a mesh may be built by hand
        numbering = {"scalar": [], "edge": []}
        for j in self.shapes[1]:
            tet_ids = self.tets_of_subdomain(j)
            tets, tet_edges = self.tets[tet_ids], self.tet_edges[tet_ids]
            pairs = np.sort(tets[:, LOCAL_EDGES], axis=2)
            in_range = tet_edges.min() >= 0 and tet_edges.max() < self.n_edges
            if not (in_range and np.array_equal(self.edges[tet_edges], pairs)):
                raise AssemblyError(f"subdomain {j}: tet_edges disagree with tets and edges")
            (_, vfirst, vlocal), (_, efirst, elocal) = (
                np.unique(rows, return_index=True, return_inverse=True)
                for rows in (tets, tet_edges)
            )
            vlocal, elocal = vlocal.reshape(tets.shape), elocal.reshape(tet_edges.shape)
            # Per (tet, face) slot, the face's sorted local vertex ids and its
            # key; a boundary face is the only slot of its key.
            faces = np.sort(vlocal[:, LOCAL_FACES], axis=2).reshape(-1, 3)
            n = vfirst.size
            keys = faces @ [n * n, n, 1]
            _, slots, counts = np.unique(keys, return_index=True, return_counts=True)
            if counts.max() > 2:
                raise AssemblyError(f"subdomain {j}: a face is shared by {counts.max()} tets")
            slots = slots[counts == 1]
            face_edges = elocal[:, FACE_EDGES].reshape(-1, 3)
            for field, first, local, boundary in (
                ("scalar", vfirst, vlocal, faces[slots]),
                ("edge", efirst, elocal, face_edges[slots]),
            ):
                boundary = _members(boundary, first.size)
                numbering[field].append((_freeze(first), _freeze(local), _freeze(boundary)))
        return numbering


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


def _members(ids: np.ndarray, n: int) -> np.ndarray:
    """The distinct ids in ``ids``, all in [0, n), ascending."""
    return np.flatnonzero(np.bincount(ids.ravel(), minlength=n))


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
