"""Dense subdomain Schur complements and the assembled interface (Schur) operator.

For each subdomain block A_j (nodal or edge), the local dofs split into
boundary dofs b (on the subdomain skeleton) and interior dofs i.  The local
Dirichlet-to-Neumann map is the Schur complement

    S_j = A_bb - A_bi A_ii^{-1} A_ib

and the global interface operator on the skeleton space is
split^T . blockdiag(S_j) . split.

Subdomains whose blocks are bitwise equal (same CSR data, indices and
indptr, and the same boundary positions) form one group and share one dense
S_u; ``build_schur_system`` is the only place that decides the groups.  The
interior block A_ii is factorized once to form S_u; the factor, A_ib and
A_bb are then dropped.  Since ``assemble.tet_geometry`` works on the integer
lattice, equal blocks are the rule: under constant coefficients every
subdomain of a uniform partition has the same block.  A blockwise apply is
one GEMM per distinct block over the tuple slices of all its member
subdomains (``SchurSystem.grouped_apply``).  Interior factors are dense
Cholesky up to DENSE_CUTOFF dofs and sparse LU above.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assemble import SparseSymOp
from .dofspaces import TransferOps
from .errors import SingularOperatorError

__all__ = ["DENSE_CUTOFF", "SpdFactor", "SchurSystem", "build_schur_system"]

#: Blocks at or below this dof count are factorized densely (Cholesky).
DENSE_CUTOFF = 600


class SpdFactor:
    """Factorize once, solve many; dense Cholesky or sparse LU by size."""

    def __init__(self, matrix: sp.csr_matrix, label: str):
        self.label = label
        if matrix.shape[0] <= DENSE_CUTOFF:
            self.mode = "dense-cholesky"
            try:
                self._factor = sla.cho_factor(matrix.toarray(), lower=True)
            except sla.LinAlgError as err:
                raise SingularOperatorError(f"{label}: not positive definite") from err
            self._solve = lambda b: sla.cho_solve(self._factor, b)
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


def _schur_complement(block: sp.csr_matrix, boundary: np.ndarray, label: str) -> np.ndarray:
    """Dense S = A_bb - A_ib^T A_ii^{-1} A_ib, bitwise symmetric."""
    mask = np.ones(block.shape[0], dtype=bool)
    mask[boundary] = False
    interior = np.flatnonzero(mask)
    schur = block[boundary][:, boundary].toarray()
    if interior.size:
        a_ib = block[interior][:, boundary].tocsr()
        factor = SpdFactor(block[interior][:, interior].tocsr(), f"{label} (interior)")
        schur -= a_ib.T @ factor.solve(a_ib.toarray())
    # Averaging with the transpose leaves a bitwise-symmetric matrix unchanged.
    return (schur + schur.T) / 2.0


class SchurSystem:
    """Interface operator of one field: block DtN maps glued on the skeleton.

    ``groups[u]`` pairs the dense Schur complement S_u of distinct block u
    with its member subdomains, and ``group_of[j]`` is subdomain j's group.
    """

    def __init__(
        self, kind: str, transfer: TransferOps, schurs: list[np.ndarray], group_of: np.ndarray
    ):
        self.kind = kind
        self.transfer = transfer
        self.dim = transfer.skeleton.dim
        self.tuple_dim = transfer.boundary.dim
        self.group_of = group_of
        self.groups = [(s_u, np.flatnonzero(group_of == u)) for u, s_u in enumerate(schurs)]
        # Tuple positions of each group as a (boundary size, members) array.
        offsets = transfer.boundary.block_offsets
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
        split = self.transfer.skeleton_split
        return np.bincount(split, self.apply_dtn(u[split]), minlength=self.dim)


def build_schur_system(blocks_op: SparseSymOp, transfer: TransferOps) -> SchurSystem:
    """Form one dense Schur complement per distinct subdomain block and wire up
    the interface operator.

    Block j's boundary positions are its slice of the boundary trace, shifted
    to local numbering; they ascend in the same order as the boundary-tuple
    space, so tuple slices line up without permutations.  Blocks are grouped
    by content, so per-tet coefficients can only split a group, never merge
    different blocks.
    """
    if blocks_op.blocks is None:
        raise ValueError("need a block-scope operator")
    broken_offsets = transfer.broken.block_offsets
    tuple_offsets = transfer.boundary.block_offsets
    group_by_content: dict[tuple[bytes, ...], int] = {}
    schurs = []
    group_of = []
    for j, block in enumerate(blocks_op.blocks):
        lo, hi = tuple_offsets[j], tuple_offsets[j + 1]
        boundary = transfer.boundary_trace[lo:hi] - broken_offsets[j]
        content = (block.data, block.indices, block.indptr, boundary)
        key = tuple(a.tobytes() for a in content)
        if key not in group_by_content:
            group_by_content[key] = len(schurs)
            label = f"{blocks_op.kind} subdomain {j}"
            schurs.append(_schur_complement(block, boundary, label))
        group_of.append(group_by_content[key])
    return SchurSystem(blocks_op.kind, transfer, schurs, np.array(group_of))
