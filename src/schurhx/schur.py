"""Dense subdomain Schur complements and the assembled interface (Schur) operator.

Each subdomain block A_j (nodal or edge) numbers its interior dofs i first
and its boundary dofs b (on the subdomain skeleton) last
(``BoxMesh.numbering``), so A_ii, A_ib and A_bb are its three contiguous
CSR submatrices.  The local Dirichlet-to-Neumann map is the Schur complement

    S_j = A_bb - A_bi A_ii^{-1} A_ib = A_bb - X^T X,    X = L^{-1} A_ib,

where A_ii = L L^T, and the global interface operator on the skeleton space
is split^T . blockdiag(S_j) . split.  ``_inverse_form`` alone chooses how
to eliminate the interior: up to DENSE_CUTOFF dofs, an in-place dense
Cholesky (``SpdFactor``) of its one dense copy of A_ii; X overwrites a dense
copy of A_ib (one triangular solve) and X^T X is one SYRK, so S_j comes out
bitwise symmetric.  Larger interiors use sparse LU and
S_j = A_bb - A_ib^T (A_ii^{-1} A_ib), whose product ``_inverse_form``
averages with its transpose, so S_j is bitwise symmetric on both paths
(assembly mirrors every element matrix, so A_bb already is).

Assembly alone decides which subdomains share a block: it returns each
distinct block once and ``group_of[j]``, subdomain j's block (under constant
coefficients, one block for every subdomain of a uniform partition).
``build_schur_system`` is where blocks meet a transfer: it forms one dense
S_u per block, after checking that ``group_of`` covers the transfer's
subdomains and that every member has the block's size and boundary size.
The interior factor is dropped once S_u is formed.  A blockwise apply is one
GEMM per block over the tuple slices of all its member subdomains
(``SchurSystem.grouped_apply``).
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .dofspaces import TransferOps
from .errors import AssemblyError, SingularOperatorError

__all__ = ["DENSE_CUTOFF", "SpdFactor", "SchurSystem", "build_schur_system"]

#: Blocks at or below this dof count are factorized densely (Cholesky).
#: Forming S_u, the dense path was faster at every interior measured, from
#: 125 to 3,032 dofs (1,206-dof edge interior, H/h = 6: 0.10 s against 0.21 s
#: for sparse LU; 3,032 dofs, H/h = 8: 0.76 s against 1.93 s; one BLAS thread).
#: The cutoff bounds memory instead: the dense interior takes n^2 doubles
#: (32 MB at the cutoff), and forming one S_u densely raised peak RSS above
#: the sparse-LU path's by 6 MB at n = 1,206, 15 MB at 1,981 and 29 MB at
#: 3,032.
DENSE_CUTOFF = 2000


class SpdFactor:
    """Factorize once, solve many: an in-place dense Cholesky of an array or
    a sparse matrix, whose lower triangle ``lower`` holds the factor L."""

    def __init__(self, matrix: np.ndarray | sp.spmatrix, label: str):
        self.label = label
        # A fresh F-ordered copy is factorized in place, so the caller keeps
        # its matrix; LAPACK itself rejects a NaN pivot.
        dense = matrix.toarray(order="F") if sp.issparse(matrix) else np.array(matrix, order="F")
        try:
            self.lower, _ = sla.cho_factor(dense, lower=True, overwrite_a=True, check_finite=False)
        except sla.LinAlgError as err:
            raise SingularOperatorError(f"{label}: not positive definite") from err

    def solve(self, b: np.ndarray) -> np.ndarray:
        # A non-finite b gives a non-finite x, which is rejected here.
        x = sla.cho_solve((self.lower, True), b, check_finite=False)
        if not np.all(np.isfinite(x)):
            raise SingularOperatorError(f"{self.label}: non-finite solve result")
        return x

    def inverse(self) -> np.ndarray:
        """Explicit inverse from the factor, mirrored so it is bitwise symmetric."""
        inv, info = sla.lapack.dpotri(self.lower, lower=True)
        if info != 0 or not np.all(np.isfinite(inv)):
            raise SingularOperatorError(f"{self.label}: inverse failed")
        # dpotri fills the lower triangle.  Every entry gets +0.0 added, as a
        # sum of the two triangles would, so a -0.0 reads +0.0.
        return np.where(np.tri(inv.shape[0], dtype=bool), inv, inv.T) + 0.0


def _inverse_form(a: sp.csr_matrix, b: sp.csr_matrix, label: str) -> np.ndarray:
    """Dense B^T A^{-1} B for a sparse SPD A and a sparse B, from a factor of
    A that lives only here.

    Up to DENSE_CUTOFF rows, X = L^{-1} B is formed in place and L is freed
    before X^T X, which numpy computes as one SYRK, so the result is bitwise
    symmetric; above it, a sparse LU gives B^T (A^{-1} B), averaged with its
    transpose.
    """
    if a.shape[0] > DENSE_CUTOFF:
        try:
            lu = spla.splu(a.tocsc())
        except RuntimeError as err:
            raise SingularOperatorError(f"{label}: factorization failed") from err
        x = lu.solve(b.toarray())
        if not np.all(np.isfinite(x)):
            raise SingularOperatorError(f"{label}: non-finite solve result")
        # Only this product can come out asymmetric: average it with its transpose.
        form = b.T @ x
        return (form + form.T) / 2.0
    factor = SpdFactor(a, label)
    x, info = sla.lapack.dtrtrs(factor.lower, b.toarray(order="F"), lower=1, overwrite_b=1)
    del factor
    form = x.T @ x
    if info != 0 or not np.all(np.isfinite(form)):
        raise SingularOperatorError(f"{label}: non-finite solve result")
    return form


def _schur_complement(block: sp.csr_matrix, n_interior: int, label: str) -> np.ndarray:
    """Dense S = A_bb - A_ib^T A_ii^{-1} A_ib of a block whose first
    ``n_interior`` dofs are its interior, bitwise symmetric."""
    n_i = n_interior
    reduction = 0.0
    if n_i:
        # A_ii becomes the factor's one dense copy; the factor is gone
        # before A_bb is made dense.
        reduction = _inverse_form(block[:n_i, :n_i], block[:n_i, n_i:], f"{label} (interior)")
    schur = block[n_i:, n_i:].toarray()
    schur -= reduction
    return schur


class SchurSystem:
    """Interface operator of one field: block DtN maps glued on the skeleton.

    ``groups[u]`` pairs the dense Schur complement S_u of distinct block u
    with its member subdomains, and ``group_of[j]`` is subdomain j's group.
    """

    def __init__(self, transfer: TransferOps, schurs: list[np.ndarray], group_of: np.ndarray):
        self.transfer = transfer
        self.dim = transfer.skeleton_trace.size
        self.tuple_dim = transfer.skeleton_split.size
        self.group_of = group_of
        self.groups = [(s_u, np.flatnonzero(group_of == u)) for u, s_u in enumerate(schurs)]
        # Tuple positions of each group as a (boundary size, members) array.
        offsets = transfer.boundary_offsets
        self._group_rows = [
            offsets[js][None, :] + np.arange(s_u.shape[0])[:, None] for s_u, js in self.groups
        ]

    def grouped_apply(self, matrices: list[np.ndarray], x: np.ndarray) -> np.ndarray:
        """One GEMM per group u: ``matrices[u]``, square and sized to u's tuple
        slices (else :class:`ValueError`), times the slice of every member."""
        if x.shape != (self.tuple_dim,):
            raise ValueError(
                f"expected boundary-tuple vector of length {self.tuple_dim}, "
                f"got shape {x.shape}"
            )
        shapes = [rows.shape[:1] * 2 for rows in self._group_rows]
        if [matrix.shape for matrix in matrices] != shapes:
            raise ValueError(f"expected one matrix per group, of shapes {shapes}")
        out = np.empty(x.shape)
        for matrix, rows in zip(matrices, self._group_rows):
            out[rows] = matrix @ x[rows]
        return out

    def apply_dtn(self, p: np.ndarray) -> np.ndarray:
        """Blockwise Schur complement on a boundary-tuple vector."""
        return self.grouped_apply([s_u for s_u, _ in self.groups], p)

    def apply(self, u: np.ndarray) -> np.ndarray:
        """The assembled skeleton operator: split, block DtN, glue back."""
        if u.shape != (self.dim,):
            raise ValueError(f"expected skeleton vector of length {self.dim}")
        split = self.transfer.skeleton_split
        return np.bincount(split, self.apply_dtn(u[split]), minlength=self.dim)


def build_schur_system(blocks: list, group_of: np.ndarray, transfer: TransferOps) -> SchurSystem:
    """One dense Schur complement S_u per distinct block u of assembly, the
    block of every subdomain j with ``group_of[j] == u``, glued into the
    interface operator.  Each subdomain's boundary is the trailing range of
    its broken slice (``TransferOps.boundary_trace``), so tuple slices line
    up unpermuted.

    Raises :class:`AssemblyError` unless ``group_of`` has one entry per
    subdomain of ``transfer`` and uses every block, and all members of a
    block have its size and boundary size: blocks of another partition or
    field are refused here.
    """
    field = transfer.field
    sizes = np.diff(transfer.broken_offsets)
    dims = np.column_stack([sizes, np.diff(transfer.boundary_offsets)])  # volume, boundary
    if len(group_of) != sizes.size:
        raise AssemblyError(f"{field}: {len(group_of)} group_of entries, {sizes.size} subdomains")
    if not np.array_equal(np.unique(group_of), np.arange(len(blocks))):
        raise AssemblyError(f"group_of does not use each of the {len(blocks)} blocks once or more")
    schurs = []
    for u, block in enumerate(blocks):
        members = np.flatnonzero(group_of == u)
        j = members[0]
        if block.shape != (sizes[j],) * 2 or np.any(dims[members] != dims[j]):
            raise AssemblyError(f"{field} block {u}: shape {block.shape}, members of other sizes")
        schurs.append(_schur_complement(block, sizes[j] - dims[j, 1], f"{field} subdomain {j}"))
    return SchurSystem(transfer, schurs, group_of)
