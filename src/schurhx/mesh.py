"""Structured tetrahedral meshes of the unit box, split into box subdomains.

Every cell of a regular ``nx x ny x nz`` grid is cut into the six tetrahedra
of the Freudenthal pattern (``CELL_TETS``), which share the cell's main
diagonal (lower corner to upper corner).  Because the cut pattern is the same
in every cell, the triangulation is conforming across cell faces, and
therefore across any subdomain interface made of cell faces.  A mesh is its
tets: its edges and each tet's edge ids are derived from them.

Subdomains are boxes of whole cells: axis ``a`` is divided into ``j_a`` equal
slabs, which requires ``j_a`` to divide the cell count on that axis.  The
skeleton is the union of the (closed) subdomain boundaries, including the
outer boundary of the box.

So every subdomain is subdomain 0 translated, the one rule the solver builds
on: subdomain j's tets, in order, are subdomain 0's plus one vertex-id offset
(``BoxMesh.translations``), and their vertices sit at one lattice offset from
subdomain 0's.  Subdomain 0's dof numbering, boundary and element data thus
serve every subdomain.  A hand-built mesh that breaks the rule is refused
with :class:`ConfigurationError` before any numbering or edge is derived.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import AssemblyError, ConfigurationError

__all__ = [
    "BoxMesh",
    "build_box_mesh",
    "export_vtk",
]

#: The six tets of a cell, as cell corners i + 2j + 4k: one per axis order,
#: walking from corner 0 to corner 7 one axis at a time, with the middle two
#: vertices swapped on odd axis orders so that every tet is positively oriented.
CELL_TETS = np.array(
    [[0, 1, 3, 7], [0, 5, 1, 7], [0, 3, 2, 7], [0, 2, 6, 7], [0, 4, 5, 7], [0, 6, 4, 7]]
)

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

    All index arrays are read-only.  ``edges`` and ``tet_edges`` are derived
    from ``tets``: ``edges`` holds vertex pairs ``(a, b)`` with ``a < b``,
    sorted lexicographically; that global orientation (low index to high
    index) is the tangent convention used everywhere.  They, the per-subdomain
    tet index, the vertex lattice, the translations and subdomain 0's local
    dof numbering and boundary are computed once, on first use, so
    per-subdomain loops never rescan whole-mesh arrays.
    """

    cells: tuple[int, int, int]
    subdomains: tuple[int, int, int]
    vertex_coords: np.ndarray  # (n_vertices, 3) float
    tets: np.ndarray  # (n_tets, 4) vertex ids, positive orientation
    tet_subdomain: np.ndarray  # (n_tets,) subdomain id per tet

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

    @property
    def edges(self) -> np.ndarray:  # (n_edges, 2) sorted vertex pairs
        return self._edge_numbering[0]

    @cached_property
    def tet_edges(self) -> np.ndarray:  # (n_tets, 6) edge ids, for the oracle and tests
        return _freeze(self._edge_numbering[1][_edge_slots(self.cells, self.tets)])

    @cached_property
    def _edge_numbering(self) -> tuple[np.ndarray, np.ndarray]:
        """Edge (a, b), a < b, sits in slot 7a + k, where b - a is the k-th
        ascending corner offset of a cell; the used slots, in order, are the
        edges, so they come out sorted: subdomain 0's slots translated to
        every subdomain.  Returns the edges and each used slot's edge id."""
        used = np.zeros(7 * self.n_vertices, dtype=bool)
        used[np.unique(self._boundary_faces[2]) + 7 * self.translations[:, None]] = True
        edge_of_slot = np.cumsum(used, dtype=np.int64) - 1
        start, k = np.nonzero(used.reshape(-1, 7))
        edges = np.column_stack([start, start + _corner_offsets(self.cells)[1:][k]])
        return _freeze(edges), _freeze(edge_of_slot)

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

    def dof_positions(self, field: str, dofs: np.ndarray) -> np.ndarray:
        """Doubled lattice positions (len(dofs), 3) of dofs of ``field``: twice
        a vertex's ``vertex_lattice`` point or an edge's end points summed, so
        cell faces lie at even coordinates; another field raises ValueError."""
        if field == "scalar":
            return 2 * self.vertex_lattice[dofs]
        if field == "edge":
            return self.vertex_lattice.take(self.edges.take(dofs, axis=0), axis=0).sum(axis=1)
        raise ValueError(f"unknown field {field!r}")

    @cached_property
    def translations(self) -> np.ndarray:
        """Vertex-id offset of each subdomain from subdomain 0, read-only.
        Every subdomain must be subdomain 0 translated (see the module
        docstring); an empty one, or one whose tets or lattice offsets are not
        subdomain 0's translated, raises :class:`ConfigurationError`."""
        order, offsets = self._tets_by_subdomain
        sizes = np.diff(offsets)
        if not sizes.all():
            raise ConfigurationError(f"subdomain {np.argmin(sizes)} contains no tets")
        origin = self.tets[order[offsets[:-1]], 0]
        delta = origin - origin[0]
        tets = self.tets.take(self.tets_of_subdomain(0), axis=0)  # quicker than tets[ids]
        for j in range(1, delta.size):
            tets_j = self.tets.take(self.tets_of_subdomain(j), axis=0)
            if not np.array_equal(tets_j - delta[j], tets):
                raise ConfigurationError(f"subdomain {j} is not subdomain 0 translated")
        lattice = self.vertex_lattice.take(np.unique(tets) + delta[:, None], axis=0)
        moved = np.any(lattice - lattice[:, :1] != lattice[0] - lattice[0, 0], axis=(1, 2))
        if moved.any():
            raise ConfigurationError(f"subdomain {np.argmax(moved)} is not subdomain 0 translated")
        return _freeze(delta)

    def member_dofs(self, field: str) -> np.ndarray:
        """Every subdomain's dofs of ``field`` in ``numbering`` order, a row per
        subdomain: subdomain 0's vertex ids or edge slots, translated."""
        first, delta = self.numbering(field)[0], self.translations[:, None]
        if field == "scalar":
            return self.tets.take(self.tets_of_subdomain(0), axis=0).ravel()[first] + delta
        return self._edge_numbering[1].take(self._boundary_faces[2].ravel()[first] + 7 * delta)

    def numbering(self, field: str) -> tuple[np.ndarray, np.ndarray, int]:
        """Subdomain 0's ``(first, local, n_interior)`` for ``field`` ("scalar"
        numbers ``tets``, "edge" ``tet_edges``): the flat positions of its dofs
        in its tet rows, the local id (T, k) of each tet slot, and its interior
        count.  Interior dofs come first and boundary dofs (those on a face
        that exactly one of its tets touches) last, each in ascending global
        order, so local ids ``n_interior`` and up are the boundary; subdomain
        j's dofs are ``tet_dofs[tets_of_subdomain(j)].ravel()[first]``.  A
        field is numbered on its first request, and both share one face count,
        so a scalar-only set-up never derives the edges.  A face of more than
        two tets of a subdomain raises :class:`AssemblyError`, another field
        :class:`ValueError`."""
        if field == "scalar":
            return self._boundary_faces[0]
        if field == "edge":
            return self._edge_dofs
        raise ValueError(f"unknown field {field!r}")

    @cached_property
    def _boundary_faces(self) -> tuple[tuple[np.ndarray, np.ndarray, int], np.ndarray, np.ndarray]:
        """Subdomain 0's vertex numbering and the (tet, face) slots of its
        boundary faces, from one count of its faces, and its (T, 6) edge
        slots, once ``translations`` has checked the mesh."""
        _check_face_keys(self.n_vertices)  # again: a mesh may be built by hand
        self.translations  # refuses a mesh whose subdomains are not translates
        tets = self.tets.take(self.tets_of_subdomain(0), axis=0)
        _, first, local = np.unique(tets, return_index=True, return_inverse=True)
        local = local.reshape(tets.shape)
        # Per (tet, face) slot, the face's sorted local vertex ids and its
        # key; a boundary face is the only slot of its key.
        faces = np.sort(local[:, LOCAL_FACES], axis=2).reshape(-1, 3)
        n = first.size
        _, slots, counts = np.unique(faces @ [n * n, n, 1], return_index=True, return_counts=True)
        if counts.max() > 2:
            raise AssemblyError(f"subdomain 0: a face is shared by {counts.max()} tets")
        slots = slots[counts == 1]
        return _boundary_last(first, local, faces[slots]), slots, _edge_slots(self.cells, tets)

    @cached_property
    def _edge_dofs(self) -> tuple[np.ndarray, np.ndarray, int]:
        """Subdomain 0's edge numbering, on the boundary faces of ``_boundary_faces``."""
        _, faces, slots = self._boundary_faces
        # Edge ids ascend with slots, so the slots number them alike.
        _, first, local = np.unique(slots, return_index=True, return_inverse=True)
        local = local.reshape(slots.shape)
        return _boundary_last(first, local, local[:, FACE_EDGES].reshape(-1, 3)[faces])


def _boundary_last(
    first: np.ndarray, local: np.ndarray, boundary: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int]:
    """Renumber subdomain 0's dofs, sorted by global id, interior first and
    boundary last, each part keeping its order: the new ``first`` and
    ``local``, read-only, and the interior count.  ``boundary`` holds the
    boundary dofs' local ids in the sorted numbering, repeats allowed."""
    on_boundary = np.bincount(boundary.ravel(), minlength=first.size) > 0
    order = np.argsort(on_boundary, kind="stable")  # new local id -> sorted one
    renumber = np.empty_like(order)
    renumber[order] = np.arange(order.size)
    return _freeze(first[order]), _freeze(renumber[local]), int(order.size - on_boundary.sum())


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _axis_name(axis: int) -> str:
    return "xyz"[axis]


def _corner_offsets(cells: tuple[int, int, int]) -> np.ndarray:
    """Vertex-id offset of cell corner i + 2j + 4k from corner 0, ascending."""
    nx, ny, _ = cells
    k, j, i = np.indices((2, 2, 2)).reshape(3, -1)
    return i + (nx + 1) * (j + (ny + 1) * k)


def _edge_slots(cells: tuple[int, int, int], tets: np.ndarray) -> np.ndarray:
    """Slot 7a + k of each tet edge (a, b), a < b, where b - a is the k-th of
    the seven ascending corner offsets of a cell; a tet edge of another step
    raises :class:`AssemblyError`.  One local edge at a time, so a whole-mesh
    call holds one (T, 6) array and a few (T,) ones."""
    steps = _corner_offsets(cells)[1:]
    slots = np.empty((tets.shape[0], 6), dtype=np.int64)
    for e, (p, q) in enumerate(LOCAL_EDGES):
        step = np.abs(tets[:, q] - tets[:, p])
        k = np.searchsorted(steps, step)
        if np.any(steps.take(k, mode="clip") != step):
            raise AssemblyError("a tet edge joins no two corners of a cell")
        slots[:, e] = 7 * np.minimum(tets[:, p], tets[:, q]) + k
    return slots


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
    jx, jy, _ = subdomains
    # Checked before any array is built: the mesh would take gigabytes.
    _check_face_keys((nx + 1) * (ny + 1) * (nz + 1))

    # Vertex id = i + (nx+1)*(j + (ny+1)*k), i fastest.
    kk, jj, ii = np.meshgrid(
        np.arange(nz + 1), np.arange(ny + 1), np.arange(nx + 1), indexing="ij"
    )
    coords = np.column_stack(
        [ii.ravel() / nx, jj.ravel() / ny, kk.ravel() / nz]
    ).astype(float)

    # Cells, x fastest, by their lower-corner vertex; the same pattern in every
    # cell makes the triangulation conforming.  Tet id = 6 * cell + variant.
    lower = np.arange(coords.shape[0]).reshape(nz + 1, ny + 1, nx + 1)[:-1, :-1, :-1].ravel()
    tets = (lower[:, None, None] + _corner_offsets(cells)[CELL_TETS]).reshape(-1, 4)
    ci, cj, ck = (a.ravel()[lower] // (n // j) for a, n, j in zip((ii, jj, kk), cells, subdomains))
    tet_subdomain = np.repeat(ci + jx * (cj + jy * ck), 6)

    return BoxMesh(
        cells=cells,
        subdomains=subdomains,
        vertex_coords=_freeze(coords),
        tets=_freeze(tets),
        tet_subdomain=_freeze(tet_subdomain),
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
    lines += [" ".join(repr(float(x)) for x in row) for row in mesh.vertex_coords]
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
