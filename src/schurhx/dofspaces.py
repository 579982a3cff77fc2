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

A field's four maps come from one call, ``build_transfer(mesh, field)``,
which reads each subdomain's dofs, boundary last, from its shape's
``BoxMesh.numbering``, so ``boundary_trace`` is read off the offsets and no
transfer can hold a boundary that is not trailing.  The skeleton is the union
of the boundaries, so every skeleton dof lies on some boundary by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .mesh import BoxMesh

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
    boundary_trace : broken -> boundary tuple (each subdomain's trailing
                     dofs, its boundary; derived from the offsets)
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
    skeleton_split: np.ndarray

    @cached_property
    def boundary_trace(self) -> np.ndarray:
        # Tuple slot boundary_offsets[j] + k is broken slot broken_offsets[j + 1] - n_b + k.
        shift = self.broken_offsets[1:] - self.boundary_offsets[1:]
        n_b = np.diff(self.boundary_offsets)
        return _index_map(np.arange(self.boundary_offsets[-1]) + np.repeat(shift, n_b))


def _index_map(idx: np.ndarray) -> np.ndarray:
    """A read-only int64 copy of ``idx``."""
    out = np.array(idx, dtype=np.int64)
    out.flags.writeable = False
    return out


def _offsets(sizes) -> np.ndarray:
    """Block offsets of a product space of blocks of these sizes."""
    return _index_map(np.cumsum([0, *sizes]))


def build_transfer(mesh: BoxMesh, field: str) -> TransferOps:
    """Build the four transfer maps of ``field`` in {"scalar", "edge"}."""
    if field == "scalar":
        tet_dofs, n_volume = mesh.tets, mesh.n_vertices
    elif field == "edge":
        tet_dofs, n_volume = mesh.tet_edges, mesh.n_edges
    else:
        raise ValueError(f"unknown field {field!r}")
    per_shape = mesh.numbering(field)
    numbering = [per_shape[s] for s in mesh.shapes[0]]
    sub_dofs = [
        tet_dofs[mesh.tets_of_subdomain(j)].ravel()[first]
        for j, (first, _, _) in enumerate(numbering)
    ]
    sizes = np.array([dofs.size for dofs in sub_dofs])
    n_interior = np.array([n_i for _, _, n_i in numbering])
    # The skeleton is the union of the boundaries, in ascending order, so one
    # searchsorted finds every boundary copy's skeleton dof.
    boundary_dofs = np.concatenate([dofs[n_i:] for dofs, n_i in zip(sub_dofs, n_interior)])
    skeleton_trace = _index_map(np.flatnonzero(np.bincount(boundary_dofs, minlength=n_volume)))
    return TransferOps(
        field,
        n_volume,
        _offsets(sizes),
        _offsets(sizes - n_interior),
        skeleton_trace,
        _index_map(np.concatenate(sub_dofs)),
        _index_map(np.searchsorted(skeleton_trace, boundary_dofs)),
    )
