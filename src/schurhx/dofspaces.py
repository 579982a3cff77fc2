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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import BoxMesh, SkeletonIndex

__all__ = [
    "DofSpace",
    "TransferOps",
    "Spaces",
    "build_spaces",
    "build_transfer",
]


@dataclass(frozen=True)
class DofSpace:
    """A finite-dimensional dof set; product spaces carry block offsets."""

    kind: str  # e.g. "scalar-volume", "edge-boundary"
    dim: int
    block_offsets: np.ndarray | None = None  # len n_blocks+1 for product spaces

    def block_slice(self, j: int) -> slice:
        if self.block_offsets is None:
            raise ValueError(f"{self.kind} space has no blocks")
        return slice(int(self.block_offsets[j]), int(self.block_offsets[j + 1]))


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


@dataclass(frozen=True)
class Spaces:
    """All eight dof spaces of a partitioned mesh plus the subdomain dof lists."""

    scalar_volume: DofSpace
    scalar_broken: DofSpace
    scalar_skeleton: DofSpace
    scalar_boundary: DofSpace
    edge_volume: DofSpace
    edge_broken: DofSpace
    edge_skeleton: DofSpace
    edge_boundary: DofSpace
    subdomain_vertices: list[np.ndarray]
    subdomain_edges: list[np.ndarray]


def _offsets(sizes: list[int]) -> np.ndarray:
    out = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=out[1:])
    return out


def build_spaces(mesh: BoxMesh, skeleton: SkeletonIndex) -> Spaces:
    subdomain_vertices = []
    subdomain_edges = []
    for j in range(mesh.n_subdomains):
        mask = mesh.tet_subdomain == j
        subdomain_vertices.append(np.unique(mesh.tets[mask]))
        subdomain_edges.append(np.unique(mesh.tet_edges[mask]))

    sv = DofSpace("scalar-volume", mesh.n_vertices)
    sb = DofSpace(
        "scalar-broken",
        int(sum(v.size for v in subdomain_vertices)),
        _offsets([v.size for v in subdomain_vertices]),
    )
    ss = DofSpace("scalar-skeleton", skeleton.n_skeleton_vertices)
    st = DofSpace(
        "scalar-boundary",
        int(sum(v.size for v in skeleton.boundary_vertices)),
        _offsets([v.size for v in skeleton.boundary_vertices]),
    )
    ev = DofSpace("edge-volume", mesh.n_edges)
    eb = DofSpace(
        "edge-broken",
        int(sum(e.size for e in subdomain_edges)),
        _offsets([e.size for e in subdomain_edges]),
    )
    es = DofSpace("edge-skeleton", skeleton.n_skeleton_edges)
    et = DofSpace(
        "edge-boundary",
        int(sum(e.size for e in skeleton.boundary_edges)),
        _offsets([e.size for e in skeleton.boundary_edges]),
    )
    return Spaces(sv, sb, ss, st, ev, eb, es, et, subdomain_vertices, subdomain_edges)


def _index_map(idx: np.ndarray) -> np.ndarray:
    """A read-only int64 copy of ``idx``."""
    out = np.array(idx, dtype=np.int64)
    out.flags.writeable = False
    return out


def build_transfer(
    mesh: BoxMesh, skeleton: SkeletonIndex, spaces: Spaces, field: str
) -> TransferOps:
    """Build the four transfer maps for ``field`` in {"scalar", "edge"}."""
    if field == "scalar":
        volume, broken, skel, tup = (
            spaces.scalar_volume,
            spaces.scalar_broken,
            spaces.scalar_skeleton,
            spaces.scalar_boundary,
        )
        sub_dofs = spaces.subdomain_vertices
        bnd_dofs = skeleton.boundary_vertices
        skel_dofs = skeleton.skeleton_vertices
    elif field == "edge":
        volume, broken, skel, tup = (
            spaces.edge_volume,
            spaces.edge_broken,
            spaces.edge_skeleton,
            spaces.edge_boundary,
        )
        sub_dofs = spaces.subdomain_edges
        bnd_dofs = skeleton.boundary_edges
        skel_dofs = skeleton.skeleton_edges
    else:
        raise ValueError(f"unknown field {field!r}")

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
        volume,
        broken,
        skel,
        tup,
        skeleton_trace,
        volume_split,
        boundary_trace,
        skeleton_split,
    )

