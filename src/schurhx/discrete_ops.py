"""Discrete gradient and nodal-interpolation maps, volume and skeleton variants.

Edge dofs are tangential line integrals along edges oriented low-id -> high-id.
For a P1 function u and edge e = (a, b):

    gradient dof:       int_e grad u . tau = u(b) - u(a)
    interpolation dof:  int_e (c_d u) . tau = (x_b - x_a)_d (u(a) + u(b)) / 2

where c_d is the d-th Cartesian unit vector and u is linear along e.  The
skeleton variants use the same coordinate arithmetic on the same vertices, so
trace-then-map equals map-then-trace with a literally zero residual; tests
and the verification suite rely on that exactness.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .mesh import BoxMesh, SkeletonIndex

__all__ = ["build_gradient", "build_nodal_interp"]


def _edge_endpoints(mesh: BoxMesh, skeleton: SkeletonIndex | None, variant: str):
    """Rows (edges), their endpoint vertex ids, and the column relabeling."""
    if variant == "volume":
        edges = mesh.edges
        col_of_vertex = None
    elif variant == "skeleton":
        if skeleton is None:
            raise ValueError("skeleton variant needs a SkeletonIndex")
        edges = mesh.edges[skeleton.skeleton_edges]
        col_of_vertex = np.full(mesh.n_vertices, -1, dtype=np.int64)
        col_of_vertex[skeleton.skeleton_vertices] = np.arange(
            skeleton.n_skeleton_vertices
        )
        if np.any(col_of_vertex[edges] < 0):
            raise AssertionError("skeleton edge with endpoint off the skeleton")
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return edges, col_of_vertex


def build_gradient(
    mesh: BoxMesh, variant: str = "volume", skeleton: SkeletonIndex | None = None
) -> sp.csr_matrix:
    """Signed incidence map from nodal dofs to edge dofs."""
    edges, col_of_vertex = _edge_endpoints(mesh, skeleton, variant)
    n_e = edges.shape[0]
    rows = np.repeat(np.arange(n_e, dtype=np.int64), 2)
    cols = edges.ravel() if col_of_vertex is None else col_of_vertex[edges].ravel()
    data = np.tile(np.array([-1.0, 1.0]), n_e)
    n_cols = mesh.n_vertices if variant == "volume" else skeleton.n_skeleton_vertices
    m = sp.csr_matrix((data, (rows, cols)), shape=(n_e, n_cols))
    m.sort_indices()
    return m


def build_nodal_interp(
    mesh: BoxMesh,
    direction: int,
    variant: str = "volume",
    skeleton: SkeletonIndex | None = None,
) -> sp.csr_matrix:
    """Edge interpolation of a nodal field times the Cartesian unit vector."""
    if direction not in (0, 1, 2):
        raise ValueError(f"direction must be 0, 1 or 2, got {direction}")
    edges, col_of_vertex = _edge_endpoints(mesh, skeleton, variant)
    n_e = edges.shape[0]
    # Same expression for both variants, so the entries agree bitwise.
    half_tangent = (
        mesh.vertex_coords[edges[:, 1], direction]
        - mesh.vertex_coords[edges[:, 0], direction]
    ) / 2.0
    rows = np.repeat(np.arange(n_e, dtype=np.int64), 2)
    cols = edges.ravel() if col_of_vertex is None else col_of_vertex[edges].ravel()
    data = np.repeat(half_tangent, 2)
    n_cols = mesh.n_vertices if variant == "volume" else skeleton.n_skeleton_vertices
    m = sp.csr_matrix((data, (rows, cols)), shape=(n_e, n_cols))
    m.sort_indices()
    return m
