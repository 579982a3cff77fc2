"""Degrees of freedom for nodal (P1) and edge (lowest-order Nedelec) spaces.

Four flavours exist per element family: the volume space on the whole mesh,
the broken product space over subdomains, the skeleton space, and the
boundary-tuple product space over subdomain boundaries.  Every transfer map
between them is a selection: because every edge is globally oriented from its
low vertex to its high vertex, subdomain and skeleton copies of a dof agree
with the volume dof without sign flips.  So each map is stored as an index
array ``idx`` with ``target = source[idx]``; it cannot carry a sign, and two
maps compose by indexing, ``source[a][b] == source[a[b]]``.

The square of maps (volume -> broken -> boundary tuple) and (volume ->
skeleton -> boundary tuple) commutes entry for entry in exact arithmetic;
tests assert a literally zero residual.

A field's four spaces and four maps come from one call,
``build_transfer(mesh, skeleton, field)``; nothing else numbers its dofs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import BoxMesh, SkeletonIndex

__all__ = [
    "DofSpace",
    "TransferOps",
    "build_transfer",
]


@dataclass(frozen=True)
class DofSpace:
    """A finite-dimensional dof set; product spaces carry block offsets."""

    dim: int
    block_offsets: np.ndarray | None = None  # len n_blocks+1 for product spaces


@dataclass(frozen=True)
class TransferOps:
    """The four transfer maps of one element family (scalar or edge).

    Each map is a read-only index array ``idx`` with ``target = source[idx]``;
    its transpose is ``np.bincount(idx, w, minlength=source.dim)``.

    skeleton_trace : volume -> skeleton (select skeleton dofs)
    volume_split   : volume -> broken   (copy into every subdomain)
    boundary_trace : broken -> boundary tuple (block-diagonal trace)
    skeleton_split : skeleton -> boundary tuple (copy onto every boundary)
    """

    field: str
    volume: DofSpace
    broken: DofSpace
    skeleton: DofSpace
    boundary: DofSpace
    skeleton_trace: np.ndarray
    volume_split: np.ndarray
    boundary_trace: np.ndarray
    skeleton_split: np.ndarray


def _product_space(dof_lists: list[np.ndarray]) -> DofSpace:
    """The product of one dof set per subdomain, with its block offsets."""
    offsets = np.zeros(len(dof_lists) + 1, dtype=np.int64)
    np.cumsum([dofs.size for dofs in dof_lists], out=offsets[1:])
    return DofSpace(int(offsets[-1]), offsets)


def _index_map(idx: np.ndarray) -> np.ndarray:
    """A read-only int64 copy of ``idx``."""
    out = np.array(idx, dtype=np.int64)
    out.flags.writeable = False
    return out


def build_transfer(mesh: BoxMesh, skeleton: SkeletonIndex, field: str) -> TransferOps:
    """Build the four dof spaces and transfer maps of ``field`` in {"scalar", "edge"}."""
    if field == "scalar":
        tet_dofs, volume_dim = mesh.tets, mesh.n_vertices
        bnd_dofs, skel_dofs = skeleton.boundary_vertices, skeleton.skeleton_vertices
    elif field == "edge":
        tet_dofs, volume_dim = mesh.tet_edges, mesh.n_edges
        bnd_dofs, skel_dofs = skeleton.boundary_edges, skeleton.skeleton_edges
    else:
        raise ValueError(f"unknown field {field!r}")
    sub_dofs = [
        np.unique(tet_dofs[mesh.tets_of_subdomain(j)]) for j in range(mesh.n_subdomains)
    ]
    broken = _product_space(sub_dofs)
    skel = DofSpace(skel_dofs.shape[0])

    skeleton_trace = _index_map(skel_dofs)
    volume_split = _index_map(np.concatenate(sub_dofs))

    # Boundary dofs expressed in each subdomain's local numbering: both lists
    # are sorted by global id, so searchsorted gives the local positions.
    local_boundary = []
    skeleton_position = []
    for j in range(mesh.n_subdomains):
        loc = np.searchsorted(sub_dofs[j], bnd_dofs[j])
        if np.any(sub_dofs[j][loc] != bnd_dofs[j]):
            raise AssertionError(f"boundary dof of subdomain {j} not in subdomain")
        local_boundary.append(int(broken.block_offsets[j]) + loc)
        pos = np.searchsorted(skel_dofs, bnd_dofs[j])
        if np.any(skel_dofs[pos] != bnd_dofs[j]):
            raise AssertionError(f"boundary dof of subdomain {j} not on skeleton")
        skeleton_position.append(pos)

    boundary_trace = _index_map(np.concatenate(local_boundary))
    skeleton_split = _index_map(np.concatenate(skeleton_position))

    # Every skeleton dof must appear on at least one subdomain boundary,
    # otherwise the split map would have a kernel.
    covered = np.zeros(skel.dim, dtype=bool)
    covered[skeleton_split] = True
    if not covered.all():
        raise AssertionError("skeleton dof missing from every subdomain boundary")

    return TransferOps(
        field,
        DofSpace(volume_dim),
        broken,
        skel,
        _product_space(bnd_dofs),
        skeleton_trace,
        volume_split,
        boundary_trace,
        skeleton_split,
    )

