"""Per-subdomain solvers and the assembled interface (Schur) operator.

For each subdomain block A_j (nodal or edge), the local dofs split into
boundary dofs b (on the subdomain skeleton) and interior dofs i.  The local
Dirichlet-to-Neumann map is the Schur complement

    S_j = A_bb - A_bi A_ii^{-1} A_ib

and the global interface operator on the skeleton space is
split^T . blockdiag(S_j) . split.

Subdomains whose blocks are bitwise equal (same CSR data, indices and
indptr, and the same boundary positions) share one ``SubdomainSolver``: one
factorization of the interior block A_ii, which also serves the
discrete-harmonic lift, and one dense S_u formed from it at construction.
Since ``assemble.tet_geometry`` works on the integer lattice, equal blocks
are the rule: under constant coefficients every subdomain of a uniform
partition has the same block.  A blockwise apply is one GEMM per distinct
block over the tuple slices of all its member subdomains
(``SchurSystem.grouped_apply``).  Interior factors are dense Cholesky up to
DENSE_CUTOFF dofs and sparse LU above.
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


@dataclass(eq=False)
class SubdomainSolver:
    """One distinct subdomain block: boundary/interior split, interior factor
    and the dense Schur complement."""

    matrix: sp.csr_matrix
    boundary: np.ndarray  # local dof positions on the subdomain boundary
    interior: np.ndarray  # the complement, ascending
    interior_factor: SpdFactor
    A_ib: sp.csr_matrix  # interior x boundary coupling
    A_bb: sp.csr_matrix
    schur: np.ndarray  # dense S = A_bb - A_ib^T A_ii^{-1} A_ib, symmetric

    @property
    def n_boundary(self) -> int:
        return self.boundary.size

    def apply_schur(self, p: np.ndarray) -> np.ndarray:
        """S p for a boundary vector or a block of boundary columns."""
        return (self.schur @ p.reshape(self.n_boundary, -1)).reshape(p.shape)

    def lift(self, p: np.ndarray) -> np.ndarray:
        """Discrete-harmonic extension: boundary values p, interior solved."""
        out = np.empty(self.matrix.shape[0])
        out[self.boundary] = p
        if self.interior.size:
            out[self.interior] = -self.interior_factor.solve(self.A_ib @ p)
        return out


def _subdomain_solver(block: sp.csr_matrix, boundary: np.ndarray, label: str):
    mask = np.ones(block.shape[0], dtype=bool)
    mask[boundary] = False
    interior = np.flatnonzero(mask)
    a_ib = block[interior][:, boundary].tocsr()
    a_bb = block[boundary][:, boundary].tocsr()
    factor = SpdFactor(block[interior][:, interior].tocsr(), f"{label} (interior)")
    schur = a_bb.toarray()
    if interior.size:
        schur -= a_ib.T @ factor.solve(a_ib.toarray())
    # Averaging with the transpose leaves a bitwise-symmetric matrix unchanged.
    schur = (schur + schur.T) / 2.0
    return SubdomainSolver(block, boundary, interior, factor, a_ib, a_bb, schur)


class SchurSystem:
    """Interface operator of one field: block DtN maps glued on the skeleton.

    ``solvers[j]`` is subdomain j's solver; equal blocks share one object.
    ``groups`` lists each distinct solver with its member subdomains.
    """

    def __init__(self, kind: str, transfer: TransferOps, solvers: list[SubdomainSolver]):
        self.kind = kind
        self.transfer = transfer
        self.solvers = solvers
        self.dim = transfer.skeleton.dim
        self.tuple_dim = transfer.boundary.dim
        self._tuple_offsets = transfer.boundary.block_offsets
        members: dict[int, list[int]] = {}
        for j, solver in enumerate(solvers):
            members.setdefault(id(solver), []).append(j)
        self.groups = [(solvers[js[0]], np.array(js)) for js in members.values()]
        # Tuple positions of each group as an (n_boundary, members) array.
        self._group_rows = [
            self._tuple_offsets[js][None, :] + np.arange(solver.n_boundary)[:, None]
            for solver, js in self.groups
        ]

    def check_tuple(self, vec: np.ndarray) -> None:
        if vec.shape != (self.tuple_dim,):
            raise ValueError(
                f"expected boundary-tuple vector of length {self.tuple_dim}, "
                f"got shape {vec.shape}"
            )

    def grouped_apply(self, matrices: list[np.ndarray], x: np.ndarray) -> np.ndarray:
        """Apply ``matrices[u]`` to the tuple slice of every member of group u,
        one GEMM per group."""
        self.check_tuple(x)
        out = np.empty(x.shape)
        for matrix, rows in zip(matrices, self._group_rows):
            out[rows] = matrix @ x[rows]
        return out

    def apply_dtn(self, p: np.ndarray) -> np.ndarray:
        """Blockwise Schur complement on a boundary-tuple vector."""
        return self.grouped_apply([solver.schur for solver, _ in self.groups], p)

    def harmonic_lift(self, p: np.ndarray) -> np.ndarray:
        """Extend boundary-tuple data into the broken space, block by block."""
        self.check_tuple(p)
        broken = self.transfer.broken
        out = np.empty(broken.dim)
        for j, solver in enumerate(self.solvers):
            lo, hi = int(self._tuple_offsets[j]), int(self._tuple_offsets[j + 1])
            out[broken.block_slice(j)] = solver.lift(p[lo:hi])
        return out

    def apply(self, u: np.ndarray) -> np.ndarray:
        """The assembled skeleton operator: split, block DtN, glue back."""
        split = self.transfer.skeleton_split
        return np.bincount(split, self.apply_dtn(u[split]), minlength=self.dim)


def build_schur_system(
    blocks_op: SparseSymOp,
    transfer: TransferOps,
    boundary_dofs: list[np.ndarray],
    subdomain_dofs: list[np.ndarray],
) -> SchurSystem:
    """Build one solver per distinct subdomain block and wire up the interface operator.

    ``boundary_dofs[j]`` / ``subdomain_dofs[j]`` are global dof ids (sorted);
    the boundary positions inside the block use the same ascending order as
    the boundary-tuple space, so tuple slices line up without permutations.
    Blocks are grouped by content, so per-tet coefficients can only split a
    group, never merge different blocks.
    """
    if blocks_op.blocks is None:
        raise ValueError("need a block-scope operator")
    distinct: dict[tuple[bytes, ...], SubdomainSolver] = {}
    solvers = []
    for j, block in enumerate(blocks_op.blocks):
        boundary = np.searchsorted(subdomain_dofs[j], boundary_dofs[j])
        content = (block.data, block.indices, block.indptr, boundary)
        key = tuple(a.tobytes() for a in content)
        if key not in distinct:
            label = f"{blocks_op.kind} subdomain {j}"
            distinct[key] = _subdomain_solver(block, boundary, label)
        solvers.append(distinct[key])
    return SchurSystem(blocks_op.kind, transfer, solvers)
