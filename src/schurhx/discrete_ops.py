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
exactness.  The skeleton edges' endpoint columns are computed once per
transfer pair: the last pair's are kept, the mesh and transfers weakly held.
"""

from __future__ import annotations

import weakref

import numpy as np
import scipy.sparse as sp

from .errors import AssemblyError
from .dofspaces import TransferOps
from .mesh import BoxMesh, _freeze

__all__ = ["build_gradient", "build_nodal_interp"]


# The last skeleton call's mesh and transfers, weakly held, and its result:
# set-up builds all four HX maps from one pair, so it computes them once.
_last_endpoints: list = [(), None]


def _edge_endpoints(mesh: BoxMesh, transfers: tuple[TransferOps, TransferOps] | None):
    """Rows (edges, as vertex ids), their two columns each, and the column count."""
    if transfers is None:
        return mesh.edges, mesh.edges, mesh.n_vertices
    refs, endpoints = _last_endpoints
    if len(refs) == 3 and all(ref() is obj for ref, obj in zip(refs, (mesh, *transfers))):
        return endpoints
    endpoints = _skeleton_endpoints(mesh, *transfers)
    _last_endpoints[:] = [tuple(weakref.ref(obj) for obj in (mesh, *transfers)), endpoints]
    return endpoints


def _skeleton_endpoints(mesh: BoxMesh, scalar: TransferOps, edge: TransferOps):
    """``_edge_endpoints`` on the skeleton, read-only, after checking that the
    transfers belong to the mesh and to one partition of it."""
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
    return _freeze(edges), _freeze(cols), vertices.size


def _edge_map(cols: np.ndarray, n_cols: int, data: np.ndarray) -> sp.csr_matrix:
    """Edges x vertices CSR with ``data`` at each edge's two (ascending) endpoint columns."""
    n_e = cols.shape[0]
    indptr = np.arange(0, 2 * n_e + 1, 2)
    return sp.csr_matrix((data, cols.ravel(), indptr), shape=(n_e, n_cols))


def build_gradient(
    mesh: BoxMesh, transfers: tuple[TransferOps, TransferOps] | None = None
) -> sp.csr_matrix:
    """Signed incidence map from nodal dofs to edge dofs."""
    _, cols, n_cols = _edge_endpoints(mesh, transfers)
    return _edge_map(cols, n_cols, np.tile(np.array([-1.0, 1.0]), cols.shape[0]))


def build_nodal_interp(
    mesh: BoxMesh, direction: int, transfers: tuple[TransferOps, TransferOps] | None = None
) -> sp.csr_matrix:
    """Edge interpolation of a nodal field times the Cartesian unit vector."""
    if direction not in (0, 1, 2):
        raise ValueError(f"direction must be 0, 1 or 2, got {direction}")
    edges, cols, n_cols = _edge_endpoints(mesh, transfers)
    # Same expression with and without transfers, so the entries agree bitwise.
    coords = mesh.vertex_coords[:, direction]
    half_tangent = (coords.take(edges[:, 1]) - coords.take(edges[:, 0])) / 2.0
    return _edge_map(cols, n_cols, np.repeat(half_tangent, 2))
