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

A field's three index arrays come from one call, ``build_transfer(mesh,
field)``.  Two are tables with a row per subdomain: ``volume_split`` is
``BoxMesh.member_dofs``, each row boundary last, and ``skeleton_split`` is
(J, n_b).  So the broken -> boundary-tuple map is each row's last n_b columns,
stored nowhere, and no transfer can hold a boundary that is not trailing.  The
skeleton is the union of the boundaries, so every skeleton dof lies on some
boundary by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import BoxMesh, _freeze

__all__ = [
    "TransferOps",
    "build_transfer",
]


@dataclass(frozen=True)
class TransferOps:
    """The transfer maps of one element family (scalar or edge).

    Each map is a read-only index array ``idx`` with ``target = source[idx]``;
    its transpose is ``np.bincount(idx.ravel(), w.ravel(), minlength=len(source))``.
    Every subdomain is subdomain 0 translated, so every block has one size n
    and every boundary one size n_b, and a product space is a (J, .) table,
    a row per subdomain.

    skeleton_trace : volume -> skeleton (select skeleton dofs)
    volume_split   : volume -> broken, a (J, n) table (copy into every
                     subdomain), each row's boundary in its last n_b columns
    skeleton_split : skeleton -> boundary tuple, a (J, n_b) table (copy onto
                     every boundary)
    """

    field: str
    n_volume: int
    skeleton_trace: np.ndarray
    volume_split: np.ndarray  # (J, n)
    skeleton_split: np.ndarray  # (J, n_b)

    @property
    def n_interior(self) -> int:
        return self.volume_split.shape[1] - self.skeleton_split.shape[1]


def build_transfer(mesh: BoxMesh, field: str) -> TransferOps:
    """Build the transfer maps of ``field`` in {"scalar", "edge"}."""
    if field not in ("scalar", "edge"):
        raise ValueError(f"unknown field {field!r}")
    n_interior = mesh.numbering(field)[2]
    dofs = mesh.member_dofs(field)  # a row per subdomain, boundary last
    boundary_dofs = dofs[:, n_interior:]
    # The skeleton is the union of the boundaries, in ascending order.
    n_volume = mesh.n_vertices if field == "scalar" else mesh.n_edges
    on_skeleton = np.bincount(boundary_dofs.ravel(), minlength=n_volume) > 0
    skeleton_of = np.cumsum(on_skeleton) - 1  # a skeleton dof's place on the skeleton
    return TransferOps(
        field,
        n_volume,
        _freeze(np.flatnonzero(on_skeleton)),
        _freeze(dofs),
        _freeze(skeleton_of[boundary_dofs]),
    )
