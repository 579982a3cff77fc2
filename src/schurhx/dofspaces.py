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

A field's four maps come from one call,
``build_transfer(mesh, skeleton, field)``, which gathers ``BoxMesh.numbering``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AssemblyError
from .mesh import BoxMesh, SkeletonIndex, _gather

__all__ = [
    "TransferOps",
    "build_transfer",
]


@dataclass(frozen=True)
class TransferOps:
    """The four transfer maps of one element family (scalar or edge).

    Each map is a read-only index array ``idx`` with ``target = source[idx]``;
    its transpose is ``np.bincount(idx, w, minlength=len(source))``.

    skeleton_trace : volume -> skeleton (select skeleton dofs)
    volume_split   : volume -> broken   (copy into every subdomain)
    boundary_trace : broken -> boundary tuple (block-diagonal trace)
    skeleton_split : skeleton -> boundary tuple (copy onto every boundary)

    A space's size is the length of the map into it, except the volume's,
    ``n_volume``; the product spaces keep their block offsets.
    """

    field: str
    n_volume: int
    broken_offsets: np.ndarray  # len n_subdomains + 1
    boundary_offsets: np.ndarray  # len n_subdomains + 1
    skeleton_trace: np.ndarray
    volume_split: np.ndarray
    boundary_trace: np.ndarray
    skeleton_split: np.ndarray


def _index_map(idx: np.ndarray) -> np.ndarray:
    """A read-only int64 copy of ``idx``."""
    out = np.array(idx, dtype=np.int64)
    out.flags.writeable = False
    return out


def _offsets(dof_lists: list[np.ndarray]) -> np.ndarray:
    """Block offsets of the product of one dof set per subdomain."""
    return _index_map(np.cumsum([0] + [dofs.size for dofs in dof_lists]))


def _positions(sorted_ids: np.ndarray, ids: np.ndarray, missing: str) -> np.ndarray:
    """Positions of ``ids`` in ``sorted_ids``; an id not there raises
    :class:`AssemblyError` with the message ``missing``."""
    pos = np.searchsorted(sorted_ids, ids)
    if np.any(pos >= sorted_ids.size) or np.any(
        sorted_ids[np.minimum(pos, sorted_ids.size - 1)] != ids
    ):
        raise AssemblyError(missing)
    return pos


def build_transfer(mesh: BoxMesh, skeleton: SkeletonIndex, field: str) -> TransferOps:
    """Build the four transfer maps of ``field`` in {"scalar", "edge"}.

    Raises :class:`AssemblyError` when ``skeleton`` is not the skeleton of
    ``mesh``: a different subdomain count, or a boundary dof that is not a
    dof of its subdomain or of the skeleton.
    """
    if field == "scalar":
        tet_dofs, n_volume = mesh.tets, mesh.n_vertices
        bnd_dofs, skel_dofs = skeleton.boundary_vertices, skeleton.skeleton_vertices
    elif field == "edge":
        tet_dofs, n_volume = mesh.tet_edges, mesh.n_edges
        bnd_dofs, skel_dofs = skeleton.boundary_edges, skeleton.skeleton_edges
    else:
        raise ValueError(f"unknown field {field!r}")
    if len(bnd_dofs) != mesh.n_subdomains:
        raise AssemblyError(
            f"skeleton lists {len(bnd_dofs)} subdomains, the mesh has {mesh.n_subdomains}"
        )
    sub_dofs = _gather(mesh, tet_dofs, [first for first, _ in mesh.numbering[field]])
    broken_offsets = _offsets(sub_dofs)
    skeleton_trace = _index_map(skel_dofs)
    volume_split = _index_map(np.concatenate(sub_dofs))

    # Boundary dofs expressed in each subdomain's local numbering: both lists
    # are sorted by global id, so searchsorted gives the local positions.
    local_boundary = []
    skeleton_position = []
    for j in range(mesh.n_subdomains):
        where = f"boundary dof of subdomain {j}"
        loc = _positions(sub_dofs[j], bnd_dofs[j], f"{where} not in subdomain")
        local_boundary.append(int(broken_offsets[j]) + loc)
        skeleton_position.append(_positions(skel_dofs, bnd_dofs[j], f"{where} not on skeleton"))

    boundary_trace = _index_map(np.concatenate(local_boundary))
    skeleton_split = _index_map(np.concatenate(skeleton_position))

    # Every skeleton dof must appear on at least one subdomain boundary,
    # otherwise the split map would have a kernel.
    covered = np.zeros(skel_dofs.size, dtype=bool)
    covered[skeleton_split] = True
    if not covered.all():
        raise AssemblyError("skeleton dof missing from every subdomain boundary")

    return TransferOps(
        field,
        n_volume,
        broken_offsets,
        _offsets(bnd_dofs),
        skeleton_trace,
        volume_split,
        boundary_trace,
        skeleton_split,
    )

