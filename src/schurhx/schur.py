"""Dense subdomain Schur complements and the assembled interface (Schur) operator.

Each subdomain block A_j (nodal or edge) numbers its interior dofs i first
and its boundary dofs b (on the subdomain skeleton) last
(``BoxMesh.numbering``), so A_ii, A_ib and A_bb are its three contiguous
CSR submatrices.  The local Dirichlet-to-Neumann map is the Schur complement

    S_j = A_bb - A_bi A_ii^{-1} A_ib = A_bb - X^T X,    X = L^{-1} A_ib,

where A_ii = L L^T, and the global interface operator on the skeleton space
is split^T . blockdiag(S_j) . split.  Every reduction A_bi A_ii^{-1} A_ib is
one recursive static condensation over nested dissection (George 1973,
``_reduction``).  An interior of at most LEAF dofs is a leaf: its rows (the
whole block, when the block's own interior is a leaf) are made dense once, a
copy of A_ii is factorized in place, X overwrites a copy of A_ib and X^T X
is one SYRK (``_inverse_form``).  A larger interior is cut
at the cell-face plane nearest its middle on each axis at least two cells
wide, read off ``BoxMesh.dof_positions``: its dofs on a cut form the
separator G, the rest at most eight octants that share no matrix entry.
Each octant's reduction onto the dofs it touches is subtracted from the
dense (G, boundary) part of the block, whose G is then eliminated as a leaf.
S_j comes out bitwise symmetric (assembly mirrors every element matrix, so
A_bb already is).  A dense matrix over ``DENSE_BYTES_LIMIT`` is refused
before it is allocated.

Assembly alone decides which subdomains share a block: it returns each
distinct block once and ``group_of[j]``, subdomain j's block (under constant
coefficients, one block for every subdomain).  ``build_schur_system`` is
where blocks meet a transfer: it forms one S_u per block, after checking that
``group_of`` covers the transfer's subdomains and that every block has their
size.  The interior factors are dropped once S_u is formed.  Every boundary
has one size n_b, so a boundary-tuple vector is a (J, n_b) array, a row per
subdomain.  A group of several members keeps S_u square, shared by one GEMM
over its members' rows.  A lone member's S_u is factorized at once,
S_u = U^T U, and only U is kept, packed by columns: ``SchurSystem.apply_dtn``
applies it as U^T (U x), and Neumann-Neumann solves with the same array.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .dofspaces import TransferOps
from .errors import AssemblyError, ConfigurationError, SingularOperatorError
from .mesh import BoxMesh

__all__ = ["LEAF", "DENSE_BYTES_LIMIT", "SpdFactor", "SchurSystem", "build_schur_system",
           "check_dense"]

#: Interiors of at most this many dofs are eliminated whole, larger ones cut.
#: One BLAS thread, best of 3, cut against whole: edge 6^3 cells (1,206 dofs)
#: 41 ms at any leaf from 531 to 1,205 against 91 ms; edge 5^3 (665) 22 against
#: 26 ms; scalar 10^3 (729) 24 against 28 ms.
LEAF = 600

#: Largest dense S_u or separator matrix, in bytes (1 GiB: 11,585 dofs square);
#: a larger one raises :class:`ConfigurationError` before it is allocated.
DENSE_BYTES_LIMIT = 2**30


class SpdFactor:
    """Factorize once, solve many: an in-place dense Cholesky of an array;
    ``lower`` holds L, ``inverse()`` forms the inverse."""

    def __init__(self, matrix: np.ndarray, label: str):
        self.label = label
        # A fresh F-ordered copy is factorized in place, so the caller keeps
        # its matrix; LAPACK itself rejects a NaN pivot.
        dense = np.array(matrix, order="F")
        self.lower, info = sla.lapack.dpotrf(dense, lower=1, clean=0, overwrite_a=1)
        if info != 0:
            raise SingularOperatorError(f"{label}: not positive definite")

    def solve(self, b: np.ndarray) -> np.ndarray:
        # A non-finite b gives a non-finite x, which is rejected here.
        x, info = sla.lapack.dpotrs(self.lower, b, lower=1)
        if info != 0 or not np.all(np.isfinite(x)):
            raise SingularOperatorError(f"{self.label}: non-finite solve result")
        return x

    def inverse(self) -> np.ndarray:
        """Explicit inverse from the factor, as a bitwise-symmetric square array."""
        inv, info = sla.lapack.dpotri(self.lower, lower=True)
        # dpotri fills the lower triangle.  Every entry gets +0.0 added, as a
        # sum of the two triangles would, so a -0.0 reads +0.0.
        square = _mirror_lower(inv) + 0.0
        if info != 0 or not np.all(np.isfinite(square)):
            raise SingularOperatorError(f"{self.label}: inverse failed")
        return square


def _mirror_lower(matrix: np.ndarray) -> np.ndarray:
    """A C-ordered square array of ``matrix``'s lower triangle and its mirror."""
    return np.where(np.tri(matrix.shape[0], dtype=bool), matrix, matrix.T)


def check_dense(n: int, label: str) -> None:
    """Refuse a dense n x n matrix over ``DENSE_BYTES_LIMIT``."""
    if 8 * n * n > DENSE_BYTES_LIMIT:
        raise ConfigurationError(f"{label}: dense {n} x {n} matrix over {DENSE_BYTES_LIMIT} bytes")


def _inverse_form(a: np.ndarray, b: np.ndarray, label: str) -> np.ndarray:
    """Dense B^T A^{-1} B for an SPD array A and an array B, from a Cholesky
    factor of A that lives only here: X = L^{-1} B overwrites a copy of B and
    L is freed before X^T X, which numpy computes as one SYRK, so the result
    is bitwise symmetric."""
    factor = SpdFactor(a, label)
    x, info = sla.lapack.dtrtrs(factor.lower, np.array(b, order="F"), lower=1, overwrite_b=1)
    del factor
    form = x.T @ x
    if info != 0 or not np.all(np.isfinite(form)):
        raise SingularOperatorError(f"{label}: non-finite solve result")
    return form


def _reduction(rows: sp.csr_matrix, positions: np.ndarray, label: str) -> np.ndarray:
    """Dense A_bi A_ii^{-1} A_ib, bitwise symmetric, from the interior rows
    [A_ii A_ib] of an SPD block and the positions of all its dofs.  M, the G
    rows of the block on G and the boundary, less each octant's reduction, is
    condensed to M_Gb^T M_GG^{-1} M_Gb - M_bb.  An octant row that touches
    another octant raises :class:`AssemblyError`."""
    n_i, n = rows.shape
    lo, hi = positions.min(axis=0), positions.max(axis=0)
    plane = (lo + hi) // 4 * 2  # the cell face nearest the middle
    cut = hi - lo >= 4  # at least two cells wide
    if n_i <= LEAF or not cut.any():  # a leaf
        dense = rows.toarray()
        return _inverse_form(dense[:, :n_i], dense[:, n_i:], label)
    inner = positions[:n_i, cut]
    on_plane = np.any(inner == plane[cut], axis=1)
    octant = (inner > plane[cut]) @ (1 << np.arange(inner.shape[1]))
    keep, n_g = np.r_[np.flatnonzero(on_plane), n_i:n], np.count_nonzero(on_plane)
    check_dense(keep.size, label)
    where = np.full(n, -1)
    where[keep] = np.arange(keep.size)
    m = np.zeros((keep.size, keep.size))  # M_bG is never read
    # One row gather: the G rows, then each octant's, by ascending code.
    free = np.flatnonzero(~on_plane)[np.argsort(octant[~on_plane], kind="stable")]
    picked = rows[np.r_[keep[:n_g], free]]
    _on_columns(picked, 0, n_g, where).toarray(out=m[:n_g])
    starts = n_g + np.flatnonzero(np.diff(octant[free], prepend=-1))
    for start, end in zip(starts, np.r_[starts[1:], picked.shape[0]]):
        own = free[start - n_g : end - n_g]
        a, b = picked.indptr[[start, end]]
        reached = np.bincount(picked.indices[a:b], minlength=n) > 0
        reached[own] = False
        touched = np.flatnonzero(reached)
        if np.any(where[touched] < 0):
            raise AssemblyError(f"{label}: two octants of a cut share a matrix entry")
        cols, local = np.r_[own, touched], where[touched]
        column_of = np.full(n, -1)
        column_of[cols] = np.arange(cols.size)
        reduced = _reduction(_on_columns(picked, start, end, column_of), positions[cols], label)
        # One flat index per (local, local) entry: a quicker gather than np.ix_.
        m.ravel()[(local[:, None] * keep.size + local).ravel()] -= reduced.ravel()
    form = _inverse_form(m[:n_g, :n_g], m[:n_g, n_g:], label)
    form -= m[n_g:, n_g:]
    return form


def _on_columns(rows: sp.csr_matrix, lo: int, hi: int, column_of: np.ndarray) -> sp.csr_matrix:
    """Rows lo:hi of ``rows`` on the columns c numbered by ``column_of[c] >= 0``,
    in order, so ``toarray`` sums duplicates as on ``rows``."""
    a, b = rows.indptr[lo], rows.indptr[hi]
    cols = column_of[rows.indices[a:b]]
    on = cols >= 0
    indptr = np.r_[0, np.cumsum(on)][rows.indptr[lo : hi + 1] - a]
    return sp.csr_matrix((rows.data[a:b][on], cols[on], indptr), (hi - lo, column_of.max() + 1))


def _schur_complement(
    block: sp.csr_matrix, n_interior: int, positions: np.ndarray, label: str
) -> np.ndarray:
    """Dense S = A_bb - A_ib^T A_ii^{-1} A_ib of a block whose first
    ``n_interior`` dofs are its interior, bitwise symmetric; ``positions``
    are the doubled lattice positions of its dofs."""
    n_i = n_interior
    check_dense(block.shape[0] - n_i, label)
    if n_i > LEAF:
        # Every dense interior copy is gone before A_bb is made dense.
        reduction = _reduction(block[:n_i], positions, f"{label} (interior)")
        schur = block[n_i:, n_i:].toarray()
        schur -= reduction
        return schur
    # A leaf: the whole block is made dense once and sliced.
    dense = block.toarray()
    if not n_i:
        return dense
    reduction = _inverse_form(dense[:n_i, :n_i], dense[:n_i, n_i:], f"{label} (interior)")
    return np.subtract(dense[n_i:, n_i:], reduction, out=reduction)


class SchurSystem:
    """Interface operator of one field: block DtN maps glued on the skeleton.

    ``groups[u]`` pairs distinct block u's Schur complement S_u, square, or
    for a lone member its upper Cholesky factor U (S_u = U^T U) packed by
    columns, with its members; ``group_of[j]`` is subdomain j's group.
    """

    def __init__(self, transfer: TransferOps, schurs: list[np.ndarray], group_of: np.ndarray):
        self.transfer = transfer
        self.dim = transfer.skeleton_trace.size
        self.tuple_dim = transfer.skeleton_split.size
        self.group_of = group_of
        self.groups = [(s_u, np.flatnonzero(group_of == u)) for u, s_u in enumerate(schurs)]

    def check_tuple(self, x: np.ndarray) -> None:
        """Refuse a vector that is not on the boundary tuples."""
        if x.shape != (self.tuple_dim,):
            raise ValueError(
                f"expected boundary-tuple vector of length {self.tuple_dim}, "
                f"got shape {x.shape}"
            )

    def apply_dtn(self, p: np.ndarray) -> np.ndarray:
        """Blockwise Schur complement on a boundary-tuple vector: per group,
        one GEMM over its members' rows, or U^T (U x) for a lone member, two
        packed triangular products in place on its row."""
        self.check_tuple(p)
        # Positional arguments: f2py's keyword parsing is a large share of a
        # call on blocks this small.
        out = np.array(p, dtype=float)
        rows = out.reshape(self.group_of.size, -1)
        n = rows.shape[1]
        tpmv = sla.blas.dtpmv
        for s_u, js in self.groups:
            if s_u.ndim == 2:
                # The C-ordered (n, members) operand: other layouts change the bits.
                rows[js] = (s_u @ rows[js].T.copy()).T
            else:  # (n, U, x, incx, offx, lower, trans, diag, overwrite_x)
                lo = int(js[0]) * n
                tpmv(n, s_u, out, 1, lo, 0, 0, 0, 1)
                tpmv(n, s_u, out, 1, lo, 0, 1, 0, 1)
        return out

    def apply(self, u: np.ndarray) -> np.ndarray:
        """The assembled skeleton operator: split, block DtN, glue back."""
        if u.shape != (self.dim,):
            raise ValueError(f"expected skeleton vector of length {self.dim}")
        split = self.transfer.skeleton_split
        return np.bincount(split, self.apply_dtn(u[split]), minlength=self.dim)


def build_schur_system(
    blocks: list, group_of: np.ndarray, transfer: TransferOps, mesh: BoxMesh
) -> SchurSystem:
    """One Schur complement S_u per distinct block u of assembly, the
    block of every subdomain j with ``group_of[j] == u``, glued into the
    interface operator.  Each subdomain's boundary is the trailing range of
    its broken slice (``TransferOps.boundary_trace``), so tuple slices line
    up unpermuted.  The elimination cuts each block at the doubled lattice
    positions of its first member's dofs in ``mesh``, the mesh of
    ``transfer`` (``BoxMesh.dof_positions``).

    Raises :class:`AssemblyError` unless ``group_of`` has one entry per
    subdomain of ``transfer`` and uses every block, and every block has the
    transfer's block size: blocks of another partition or field are refused
    here.  Raises :class:`SingularOperatorError` if a lone member's S_u is
    not positive definite.
    """
    field = transfer.field
    offsets = transfer.broken_offsets
    n, n_sub = offsets[1], offsets.size - 1  # every subdomain's block size
    if len(group_of) != n_sub:
        raise AssemblyError(f"{field}: {len(group_of)} group_of entries, {n_sub} subdomains")
    if not np.array_equal(np.unique(group_of), np.arange(len(blocks))):
        raise AssemblyError(f"group_of does not use each of the {len(blocks)} blocks once or more")
    schurs = []
    for u, block in enumerate(blocks):
        members = np.flatnonzero(group_of == u)
        j = members[0]
        if block.shape != (n, n):
            raise AssemblyError(f"{field} block {u}: shape {block.shape}, not the transfer's {n}")
        positions = mesh.dof_positions(field, transfer.volume_split[offsets[j] : offsets[j + 1]])
        n_i = n - transfer.boundary_offsets[1]
        label = f"{field} subdomain {j}"
        s_u = _schur_complement(block, n_i, positions, label)
        if members.size == 1:
            # Factorized as soon as formed, in place through the F-ordered
            # view (the same matrix, S_u being bitwise symmetric), so no two
            # dense S_u of lone members coexist.  Upper rather than lower:
            # OpenBLAS's packed solve took 0.96 ms with U against 1.27 ms with
            # L for 64 blocks of 218 dofs (one BLAS thread, 2-vCPU Xeon).
            upper, info = sla.lapack.dpotrf(s_u.T, lower=0, clean=0, overwrite_a=1)
            if info != 0:
                raise SingularOperatorError(f"{label} (Schur): not positive definite")
            s_u, info = sla.lapack.dtrttp(upper, uplo="U")
            if info != 0 or not np.all(np.isfinite(s_u)):
                raise SingularOperatorError(f"{label} (Schur): factor failed")
        schurs.append(s_u)
    return SchurSystem(transfer, schurs, group_of)
