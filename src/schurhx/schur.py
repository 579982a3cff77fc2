"""Dense subdomain Schur complements and the assembled interface (Schur) operator.

For each subdomain block A_j (nodal or edge), the local dofs split into
boundary dofs b (on the subdomain skeleton) and interior dofs i.  The local
Dirichlet-to-Neumann map is the Schur complement

    S_j = A_bb - A_bi A_ii^{-1} A_ib = A_bb - X^T X,    X = L^{-1} A_ib,

where A_ii = L L^T, and the global interface operator on the skeleton space
is split^T . blockdiag(S_j) . split.  Interiors of up to DENSE_CUTOFF dofs
are factorized by an in-place dense Cholesky; X overwrites a dense copy of
A_ib (one triangular solve) and X^T X is one SYRK, so S_j comes out bitwise
symmetric.  Larger interiors use sparse LU and S_j = A_bb - A_ib^T (A_ii^{-1}
A_ib).  ``SpdFactor.inverse_form`` holds both paths.

Assembly alone decides which subdomains share a block: it hands one block
object only to subdomains whose blocks are bitwise equal (under constant
coefficients, every subdomain of a uniform partition).
``build_schur_system`` reads that sharing; subdomains with the same block
object and the same boundary positions form one group and share one dense
S_u.  The interior factor, A_ib and A_bb are dropped once S_u is formed.  A
blockwise apply is one GEMM per group over the tuple slices of all its
member subdomains (``SchurSystem.grouped_apply``).
"""

from __future__ import annotations

from functools import partial

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
    """Factorize once, solve many: dense Cholesky for an array or a sparse
    matrix of up to DENSE_CUTOFF rows, sparse LU for a larger sparse one."""

    def __init__(self, matrix: np.ndarray | sp.csr_matrix, label: str):
        self.label = label
        is_array = isinstance(matrix, np.ndarray)
        if is_array or matrix.shape[0] <= DENSE_CUTOFF:
            self.mode = "dense-cholesky"
            # A fresh F-ordered copy is factorized in place, so the caller
            # keeps its matrix; LAPACK itself rejects a NaN pivot.
            dense = np.array(matrix, order="F") if is_array else matrix.toarray(order="F")
            try:
                self._factor = sla.cho_factor(
                    dense, lower=True, overwrite_a=True, check_finite=False
                )
            except sla.LinAlgError as err:
                raise SingularOperatorError(f"{label}: not positive definite") from err
            # A non-finite b gives a non-finite x, which ``solve`` rejects.
            # No closure over self: the factor is freed with its last user.
            self._solve = partial(sla.cho_solve, self._factor, check_finite=False)
        else:
            self.mode = "sparse-lu"
            try:
                lu = spla.splu(matrix.tocsc())
            except RuntimeError as err:
                raise SingularOperatorError(f"{label}: factorization failed") from err
            self._solve = lu.solve

    def solve(self, b: np.ndarray) -> np.ndarray:
        x = self._solve(b)
        if not np.all(np.isfinite(x)):
            raise SingularOperatorError(f"{self.label}: non-finite solve result")
        return x

    def inverse_form(self, b: sp.spmatrix) -> np.ndarray:
        """Dense B^T A^{-1} B for a sparse B.

        Dense mode forms X = L^{-1} B in place and returns X^T X, which numpy
        computes as one SYRK, so the result is bitwise symmetric; sparse mode
        returns B^T (A^{-1} B).
        """
        if self.mode == "sparse-lu":
            return b.T @ self.solve(b.toarray())
        x = b.toarray(order="F")
        x, info = sla.lapack.dtrtrs(self._factor[0], x, lower=1, overwrite_b=1)
        form = x.T @ x
        if info != 0 or not np.all(np.isfinite(form)):
            raise SingularOperatorError(f"{self.label}: non-finite solve result")
        return form

    def inverse(self) -> np.ndarray:
        """Explicit inverse from the dense Cholesky factor, mirrored so it is
        bitwise symmetric; a sparse-LU factor raises :class:`ValueError`."""
        if self.mode != "dense-cholesky":
            raise ValueError(f"{self.label}: no explicit inverse of a {self.mode} factor")
        inv, info = sla.lapack.dpotri(self._factor[0], lower=True)
        if info != 0 or not np.all(np.isfinite(inv)):
            raise SingularOperatorError(f"{self.label}: inverse failed")
        return np.tril(inv) + np.tril(inv, -1).T


def _schur_complement(block: sp.csr_matrix, boundary: np.ndarray, label: str) -> np.ndarray:
    """Dense S = A_bb - A_ib^T A_ii^{-1} A_ib, bitwise symmetric."""
    mask = np.ones(block.shape[0], dtype=bool)
    mask[boundary] = False
    interior = np.flatnonzero(mask)
    reduction = 0.0
    if interior.size:
        # The factor goes as soon as it has formed the reduction, so A_bb and
        # the sums below reuse its memory.
        a_ii = block[interior][:, interior].tocsr()
        a_ib = block[interior][:, boundary].tocsr()
        reduction = SpdFactor(a_ii, f"{label} (interior)").inverse_form(a_ib)
    schur = block[boundary][:, boundary].toarray() - reduction
    # Averaging with the transpose leaves a bitwise-symmetric matrix unchanged.
    return (schur + schur.T) / 2.0


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
        """Apply ``matrices[u]`` to the tuple slice of every member of group u,
        one GEMM per group."""
        if x.shape != (self.tuple_dim,):
            raise ValueError(
                f"expected boundary-tuple vector of length {self.tuple_dim}, "
                f"got shape {x.shape}"
            )
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


def build_schur_system(blocks: list[sp.csr_matrix], transfer: TransferOps) -> SchurSystem:
    """Form one dense Schur complement per group of subdomains that share a
    block and wire up the interface operator.

    Block j's boundary positions are its slice of the boundary trace, shifted
    to local numbering; they ascend in the same order as the boundary-tuple
    space, so tuple slices line up without permutations.  Subdomains are
    grouped by block object and boundary positions: assembly shares a block
    object only among bitwise-equal blocks, so each S_u is computed from the
    block every member holds.

    Raises :class:`AssemblyError` unless there is one block per subdomain of
    ``transfer``, each as large as its slice of the broken space.
    """
    sizes = np.diff(transfer.broken_offsets)
    if len(blocks) != sizes.size:
        raise AssemblyError(
            f"{transfer.field} transfer has {sizes.size} subdomains, got {len(blocks)} blocks"
        )
    for j, (block, n) in enumerate(zip(blocks, sizes)):
        if block.shape != (n, n):
            raise AssemblyError(
                f"{transfer.field} subdomain {j}: block of shape {block.shape}, "
                f"expected {(int(n), int(n))}"
            )
    group_by_key: dict[tuple[int, bytes], int] = {}
    schurs = []
    group_of = []
    for j, block in enumerate(blocks):
        lo, hi = transfer.boundary_offsets[j : j + 2]
        boundary = transfer.boundary_trace[lo:hi] - transfer.broken_offsets[j]
        # ``blocks`` holds every block for the whole loop, so ids stay unique.
        key = (id(block), boundary.tobytes())
        if key not in group_by_key:
            group_by_key[key] = len(schurs)
            label = f"{transfer.field} subdomain {j}"
            schurs.append(_schur_complement(block, boundary, label))
        group_of.append(group_by_key[key])
    return SchurSystem(transfer, schurs, np.array(group_of))
