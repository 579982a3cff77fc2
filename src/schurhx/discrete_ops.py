"""Discrete gradient and nodal-interpolation maps, on the volume or the skeleton.

Edge dofs are tangential line integrals along edges oriented low-id -> high-id.
For a P1 function u and edge e = (a, b):

    gradient dof:       int_e grad u . tau = u(b) - u(a)
    interpolation dof:  int_e (c_d u) . tau = (x_b - x_a)_d (u(a) + u(b)) / 2

where c_d is the d-th Cartesian unit vector and u is linear along e.  Given
the scalar and edge ``TransferOps`` as a pair, a map runs from skeleton
vertices to skeleton edges (their ``skeleton_trace`` ids); without them, from
all vertices to all edges.  Both use the same coordinate
arithmetic on the same vertices, so trace-then-map equals map-then-trace with
a literally zero residual; tests and the verification suite rely on that
exactness.  ``build_aux_maps`` builds all four maps from one computation of
the edges' endpoint columns and keeps nothing once it returns.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .errors import AssemblyError
from .dofspaces import TransferOps
from .mesh import BoxMesh

__all__ = ["build_aux_maps"]


def _skeleton_endpoints(mesh: BoxMesh, scalar: TransferOps, edge: TransferOps):
    """The skeleton edges (as vertex ids), their two columns each and the
    column count, after checking that the transfers belong to the mesh and
    to one partition of it."""
    if (scalar.n_volume, edge.n_volume) != (mesh.n_vertices, mesh.n_edges):
        raise AssemblyError("transfer of another mesh: its volume sizes differ")
    vertices = scalar.skeleton_trace
    edges = mesh.edges.take(edge.skeleton_trace, axis=0)
    col_of_vertex = np.full(mesh.n_vertices, -1, dtype=np.int64)
    col_of_vertex[vertices] = np.arange(vertices.size)
    cols = col_of_vertex.take(edges)
    if np.any(cols < 0):
        raise AssemblyError("skeleton edge with endpoint off the skeleton")
    if np.bincount(cols.ravel(), minlength=vertices.size).min() == 0:
        raise AssemblyError("skeleton vertex on no skeleton edge")
    return edges, cols, vertices.size


def build_aux_maps(
    mesh: BoxMesh, transfers: tuple[TransferOps, TransferOps] | None = None
) -> tuple[sp.csr_matrix, list[sp.csr_matrix]]:
    """The signed incidence (gradient) map from nodal dofs to edge dofs, and
    the edge interpolation of a nodal field times each Cartesian unit vector.
    Each is edges x vertices CSR with an edge's two (ascending) endpoint columns."""
    if transfers is None:
        edges, cols, n_cols = mesh.edges, mesh.edges, mesh.n_vertices
    else:
        edges, cols, n_cols = _skeleton_endpoints(mesh, *transfers)
    n_e = cols.shape[0]
    indptr = np.arange(0, 2 * n_e + 1, 2)

    def edge_map(data: np.ndarray) -> sp.csr_matrix:
        return sp.csr_matrix((data, cols.ravel(), indptr), shape=(n_e, n_cols))

    gradient = edge_map(np.tile(np.array([-1.0, 1.0]), n_e))
    interps = []
    for d in range(3):
        # Same expression with and without transfers, so the entries agree bitwise.
        coords = mesh.vertex_coords[:, d]
        half_tangent = (coords.take(edges[:, 1]) - coords.take(edges[:, 0])) / 2.0
        interps.append(edge_map(np.repeat(half_tangent, 2)))
    return gradient, interps
