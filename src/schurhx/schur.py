"""Per-subdomain solvers and the assembled interface (Schur) operator.

For each subdomain block A_j (nodal or edge), the local dofs split into
boundary dofs b (on the subdomain skeleton) and interior dofs i.  The local
Dirichlet-to-Neumann map is the Schur complement

    S_j p = A_bb p - A_bi A_ii^{-1} A_ib p

and the global interface operator on the skeleton space is
split^T . blockdiag(S_j) . split.  Each subdomain is factorized once, at
construction: its interior block A_ii, which serves both S_j and the
discrete-harmonic lift.  Factors are dense Cholesky up to DENSE_CUTOFF dofs
and sparse LU above.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assemble import SparseSymOp
from .dofspaces import TransferOps
from .errors import SingularOperatorError

__all__ = ["DENSE_CUTOFF", "SpdFactor", "SubdomainSolver", "SchurSystem", "build_schur_system"]

#: Blocks at or below this dof count are factorized densely (Cholesky).
DENSE_CUTOFF = 600


class SpdFactor:
    """Factorize once, solve many; dense Cholesky or sparse LU by size."""

    def __init__(self, matrix: sp.csr_matrix, label: str):
        self.n = matrix.shape[0]
        self.label = label
        if self.n == 0:
            self.mode = "empty"
            self._solve = None
        elif self.n <= DENSE_CUTOFF:
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
        if self.n == 0:
            return np.zeros_like(b)
        x = self._solve(b)
        if not np.all(np.isfinite(x)):
            raise SingularOperatorError(f"{self.label}: non-finite solve result")
        return x


@dataclass
class SubdomainSolver:
    """One subdomain block with its boundary/interior split and interior factor."""

    index: int
    matrix: sp.csr_matrix
    boundary: np.ndarray  # local dof positions on the subdomain boundary
    interior: np.ndarray  # the complement, ascending
    interior_factor: SpdFactor
    A_ib: sp.csr_matrix  # interior x boundary coupling
    A_bb: sp.csr_matrix

    @property
    def n_boundary(self) -> int:
        return self.boundary.size

    def apply_schur(self, p: np.ndarray) -> np.ndarray:
        if self.interior.size == 0:
            return self.matrix @ p
        w = self.interior_factor.solve(self.A_ib @ p)
        return self.A_bb @ p - self.A_ib.T @ w

    def lift(self, p: np.ndarray) -> np.ndarray:
        """Discrete-harmonic extension: boundary values p, interior solved."""
        out = np.empty(self.matrix.shape[0])
        out[self.boundary] = p
        if self.interior.size:
            out[self.interior] = -self.interior_factor.solve(self.A_ib @ p)
        return out


class SchurSystem:
    """Interface operator of one field: block DtN maps glued on the skeleton."""

    def __init__(self, kind: str, transfer: TransferOps, solvers: list[SubdomainSolver]):
        self.kind = kind
        self.transfer = transfer
        self.solvers = solvers
        self.dim = transfer.skeleton_trace.target.dim
        self.tuple_dim = transfer.skeleton_split.target.dim
        self._tuple_offsets = transfer.skeleton_split.target.block_offsets

    def check_tuple(self, vec: np.ndarray) -> None:
        if vec.shape != (self.tuple_dim,):
            raise ValueError(
                f"expected boundary-tuple vector of length {self.tuple_dim}, "
                f"got shape {vec.shape}"
            )

    def apply_dtn(self, p: np.ndarray) -> np.ndarray:
        """Blockwise Schur complement on a boundary-tuple vector."""
        self.check_tuple(p)
        out = np.empty_like(p)
        for j, solver in enumerate(self.solvers):
            lo, hi = int(self._tuple_offsets[j]), int(self._tuple_offsets[j + 1])
            out[lo:hi] = solver.apply_schur(p[lo:hi])
        return out

    def harmonic_lift(self, p: np.ndarray) -> np.ndarray:
        """Extend boundary-tuple data into the broken space, block by block."""
        self.check_tuple(p)
        broken = self.transfer.volume_split.target
        out = np.empty(broken.dim)
        for j, solver in enumerate(self.solvers):
            lo, hi = int(self._tuple_offsets[j]), int(self._tuple_offsets[j + 1])
            out[broken.block_slice(j)] = solver.lift(p[lo:hi])
        return out

    def apply(self, u: np.ndarray) -> np.ndarray:
        """The assembled skeleton operator: split, block DtN, glue back."""
        split = self.transfer.skeleton_split.matrix
        return split.T @ self.apply_dtn(split @ u)

    def __call__(self, u: np.ndarray) -> np.ndarray:
        return self.apply(u)


def build_schur_system(
    blocks_op: SparseSymOp,
    transfer: TransferOps,
    boundary_dofs: list[np.ndarray],
    subdomain_dofs: list[np.ndarray],
) -> SchurSystem:
    """Factorize each subdomain's interior block and wire up the interface operator.

    ``boundary_dofs[j]`` / ``subdomain_dofs[j]`` are global dof ids (sorted);
    the boundary positions inside the block use the same ascending order as
    the boundary-tuple space, so tuple slices line up without permutations.
    """
    if blocks_op.blocks is None:
        raise ValueError("need a block-scope operator")
    solvers = []
    for j, block in enumerate(blocks_op.blocks):
        n = block.shape[0]
        boundary = np.searchsorted(subdomain_dofs[j], boundary_dofs[j])
        mask = np.zeros(n, dtype=bool)
        mask[boundary] = True
        interior = np.flatnonzero(~mask)
        label = f"{blocks_op.kind} subdomain {j}"
        a_ii = block[interior][:, interior].tocsr()
        solvers.append(
            SubdomainSolver(
                index=j,
                matrix=block,
                boundary=boundary,
                interior=interior,
                interior_factor=SpdFactor(a_ii, f"{label} (interior)"),
                A_ib=block[interior][:, boundary].tocsr(),
                A_bb=block[boundary][:, boundary].tocsr(),
            )
        )
    return SchurSystem(blocks_op.kind, transfer, solvers)
