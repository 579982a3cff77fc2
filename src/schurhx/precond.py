"""Skeleton preconditioners: balancing Neumann-Neumann and the substructured Hiptmair-Xu.

The scalar preconditioner balances a one-level Neumann-Neumann average M,
which composes five factors around the blockwise inverse DtN,

    M f = degree^{-1} . glue . weights . DtN^{-1} . weights . split . degree^{-1} f,

where each subdomain's inverse DtN map needs no Schur elimination at all:
embedding the boundary functional by zero and solving the whole Neumann
block A_j returns the inverse trace,

    S_j^{-1} g = trace_b( A_j^{-1} extend_by_zero(g) ),

with a coarse space of one basis function per subdomain (Mandel's balancing
domain decomposition):

    Q f = Q0 f + (I - Q0 S) M (I - S Q0) f,    Q0 = Z (Z^T S Z)^{-1} Z^T,

where column j of Z is degree^{-1} . glue . (weights on boundary j), so the
columns sum to one on the skeleton.  Unit counting weights on the boundary
tuple and the subdomain-boundary degree as the skeleton diagonal are used.
With one subdomain M is already the exact inverse of the interface operator,
and so is Q.

The edge-space preconditioner sums a skeleton Jacobi term with one gradient
and three nodal-interpolation pullbacks of the scalar preconditioner:

    Q_hx f = f / jac + grad . Q(grad^T f) + sum_d interp_d . Q(interp_d^T f)

so one application costs exactly four scalar applies (one per auxiliary-space
channel); an ``n_applies`` counter on Q makes that checkable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .assemble import Coefficients, SparseSymOp, assemble_edge, assemble_scalar
from .dofspaces import (
    Multiplicity,
    Spaces,
    TransferOps,
    build_multiplicity,
    build_spaces,
    build_transfer,
)
from .discrete_ops import build_gradient, build_nodal_interp
from .errors import AssemblyError, SingularOperatorError
from .krylov import pcg
from .mesh import BoxMesh, SkeletonIndex, extract_skeleton
from .schur import SchurSystem, SpdFactor, build_schur_system

__all__ = [
    "NeumannNeumann",
    "HiptmairXu",
    "ScalarProblem",
    "MaxwellProblem",
    "setup_scalar",
    "setup_maxwell",
    "CondEstimate",
    "estimate_condition",
    "materialize",
]


class NeumannNeumann:
    """Balancing Neumann-Neumann: a degree-weighted average of subdomain
    Neumann solves, balanced by a coarse space of one function per subdomain.

    It is the only user of the inverse DtN map, so set-up factorizes each
    subdomain's whole Neumann block A_j here.  Set-up also computes S Z in
    one blockwise pass (each subdomain applies its Schur complement to the
    few coarse columns it touches) and factorizes the coarse matrix
    S0 = Z^T S Z.  One application makes one call to the
    average M (one blockwise Neumann solve, counted by ``n_applies``) and two
    coarse solves, using

        Q f = m + Z S0^{-1} (Z^T f - (S Z)^T m),   m = M (f - S Z S0^{-1} Z^T f).
    """

    def __init__(self, schur: SchurSystem, multiplicity: Multiplicity):
        if schur.kind != "scalar-blocks":
            raise ValueError(f"expected a scalar interface system, got {schur.kind}")
        self.schur = schur
        self.split = schur.transfer.skeleton_split.matrix
        self.degree = multiplicity.skeleton_degree
        self.weights = multiplicity.tuple_weights
        self.dim = schur.dim
        self.n_applies = 0
        self.neumann_factors = [
            SpdFactor(solver.matrix, f"{schur.kind} subdomain {j} (Neumann)")
            for j, solver in enumerate(schur.solvers)
        ]

        offsets = schur.transfer.skeleton_split.target.block_offsets
        self._tuple_offsets = offsets
        n_sub = len(schur.solvers)
        block_of = np.repeat(np.arange(n_sub), np.diff(offsets))
        on_block = sp.csr_matrix(
            (self.weights, (np.arange(schur.tuple_dim), block_of)),
            shape=(schur.tuple_dim, n_sub),
        )
        self.coarse_basis = sp.diags(1.0 / self.degree) @ (self.split.T @ on_block)

        # S Z blockwise: each subdomain applies its Schur complement to the
        # few coarse columns that touch its boundary, all at once.
        split_basis = self.split @ self.coarse_basis
        skeleton_pos = schur.transfer.skeleton_split.cols
        self.s_coarse = np.zeros((self.dim, n_sub))
        for j, solver in enumerate(schur.solvers):
            lo, hi = int(offsets[j]), int(offsets[j + 1])
            local = split_basis[lo:hi]
            cols = np.unique(local.indices)
            self.s_coarse[np.ix_(skeleton_pos[lo:hi], cols)] += solver.apply_schur(
                local[:, cols].toarray()
            )
        s0 = self.coarse_basis.T @ self.s_coarse
        self.coarse_factor = SpdFactor(
            sp.csr_matrix((s0 + s0.T) / 2.0), "balancing coarse problem"
        )

    def apply_dtn_inv(self, g: np.ndarray) -> np.ndarray:
        """Blockwise inverse DtN (full Neumann solves) on a boundary tuple."""
        self.schur.check_tuple(g)
        out = np.empty_like(g)
        solvers = zip(self.schur.solvers, self.neumann_factors)
        for j, (solver, factor) in enumerate(solvers):
            lo, hi = int(self._tuple_offsets[j]), int(self._tuple_offsets[j + 1])
            full = np.zeros(solver.matrix.shape[0])
            full[solver.boundary] = g[lo:hi]
            out[lo:hi] = factor.solve(full)[solver.boundary]
        return out

    def _average(self, f: np.ndarray) -> np.ndarray:
        v = self.split @ (f / self.degree)
        w = self.weights * self.apply_dtn_inv(self.weights * v)
        return (self.split.T @ w) / self.degree

    def __call__(self, f: np.ndarray) -> np.ndarray:
        if f.shape != (self.dim,):
            raise ValueError(f"expected skeleton vector of length {self.dim}")
        self.n_applies += 1
        zf = self.coarse_basis.T @ f
        m = self._average(f - self.s_coarse @ self.coarse_factor.solve(zf))
        correction = self.coarse_factor.solve(zf - self.s_coarse.T @ m)
        return m + self.coarse_basis @ correction


class HiptmairXu:
    """Skeleton Jacobi plus gradient/interpolation pullbacks of Neumann-Neumann."""

    def __init__(
        self,
        jacobi_skeleton: np.ndarray,
        skeleton_gradient: sp.csr_matrix,
        skeleton_interps: list[sp.csr_matrix],
        nn: NeumannNeumann,
    ):
        if len(skeleton_interps) != 3:
            raise ValueError("need one interpolation map per Cartesian direction")
        shape = (len(jacobi_skeleton), nn.dim)
        for m in (skeleton_gradient, *skeleton_interps):
            if m.shape != shape:
                raise ValueError(f"maps must be skeleton edges x vertices {shape}")
        if not np.all(np.isfinite(jacobi_skeleton) & (jacobi_skeleton > 0)):
            raise AssemblyError("skeleton Jacobi diagonal: non-positive or non-finite")
        self.jacobi_inv = 1.0 / jacobi_skeleton
        self.gradient = skeleton_gradient
        self.interps = list(skeleton_interps)
        self.nn = nn
        self.dim = shape[0]

    def __call__(self, f: np.ndarray) -> np.ndarray:
        if f.shape != (self.dim,):
            raise ValueError(f"expected skeleton edge vector of length {self.dim}")
        out = self.jacobi_inv * f
        out = out + self.gradient @ self.nn(self.gradient.T @ f)
        for interp in self.interps:
            out = out + interp @ self.nn(interp.T @ f)
        return out


@dataclass
class ScalarProblem:
    """Everything needed to run the scalar interface solve."""

    mesh: BoxMesh
    skeleton: SkeletonIndex
    spaces: Spaces
    coeffs: Coefficients
    transfer: TransferOps
    multiplicity: Multiplicity
    blocks: SparseSymOp
    schur: SchurSystem
    qnn: NeumannNeumann

    @property
    def dim_skeleton(self) -> int:
        return self.schur.dim

    @property
    def dim_volume(self) -> int:
        return self.mesh.n_vertices


@dataclass
class MaxwellProblem:
    """The edge interface solve plus its auxiliary scalar machinery."""

    mesh: BoxMesh
    skeleton: SkeletonIndex
    spaces: Spaces
    coeffs: Coefficients
    transfer: TransferOps
    blocks: SparseSymOp
    schur: SchurSystem
    scalar: ScalarProblem
    jacobi_skeleton: np.ndarray
    gradient: sp.csr_matrix
    interps: list[sp.csr_matrix]
    qhx: HiptmairXu

    @property
    def dim_skeleton(self) -> int:
        return self.schur.dim

    @property
    def dim_volume(self) -> int:
        return self.mesh.n_edges


def setup_scalar(
    mesh: BoxMesh,
    coeffs: Coefficients,
    skeleton: SkeletonIndex | None = None,
    spaces: Spaces | None = None,
) -> ScalarProblem:
    if skeleton is None:
        skeleton = extract_skeleton(mesh)
    if spaces is None:
        spaces = build_spaces(mesh, skeleton)
    transfer = build_transfer(mesh, skeleton, spaces, "scalar")
    multiplicity = build_multiplicity(skeleton, spaces)
    blocks = assemble_scalar(mesh, spaces, coeffs, scope="blocks")
    schur = build_schur_system(
        blocks, transfer, skeleton.boundary_vertices, spaces.subdomain_vertices
    )
    qnn = NeumannNeumann(schur, multiplicity)
    return ScalarProblem(
        mesh, skeleton, spaces, coeffs, transfer, multiplicity, blocks, schur, qnn
    )


def setup_maxwell(
    mesh: BoxMesh,
    coeffs: Coefficients,
    skeleton: SkeletonIndex | None = None,
    spaces: Spaces | None = None,
) -> MaxwellProblem:
    if skeleton is None:
        skeleton = extract_skeleton(mesh)
    if spaces is None:
        spaces = build_spaces(mesh, skeleton)
    scalar = setup_scalar(mesh, coeffs, skeleton, spaces)

    transfer = build_transfer(mesh, skeleton, spaces, "edge")
    blocks = assemble_edge(mesh, spaces, coeffs, scope="blocks")
    schur = build_schur_system(
        blocks, transfer, skeleton.boundary_edges, spaces.subdomain_edges
    )

    # The skeleton Jacobi diagonal glues the subdomain boundary diagonals.
    # Copies add in ascending subdomain order, as in global assembly, so it
    # equals the global edge diagonal on the skeleton bit for bit.
    jac = transfer.skeleton_split.matrix.T @ np.concatenate(
        [solver.A_bb.diagonal() for solver in schur.solvers]
    )
    gradient = build_gradient(mesh, "skeleton", skeleton)
    interps = [build_nodal_interp(mesh, d, "skeleton", skeleton) for d in range(3)]
    qhx = HiptmairXu(jac, gradient, interps, scalar.qnn)
    return MaxwellProblem(
        mesh,
        skeleton,
        spaces,
        coeffs,
        transfer,
        blocks,
        schur,
        scalar,
        jac,
        gradient,
        interps,
        qhx,
    )


def materialize(apply_op, dim: int) -> np.ndarray:
    """Dense matrix of a linear callable, one identity column at a time."""
    cols = np.empty((dim, dim))
    e = np.zeros(dim)
    for i in range(dim):
        e[i] = 1.0
        cols[:, i] = apply_op(e)
        e[i] = 0.0
    return cols


@dataclass(frozen=True)
class CondEstimate:
    lmin: float
    lmax: float
    cond: float
    method: str


def estimate_condition(
    apply_op, apply_prec, dim: int, method: str = "dense", seed: int = 0
) -> CondEstimate:
    """Spectral bounds of prec . op for SPD op and prec.

    "dense" materializes both operators and solves the symmetric-definite
    eigenproblem exactly (prec.op is similar to C^T prec C with op = C C^T),
    so lmin/lmax are the true extremes.  "lanczos" runs preconditioned CG on
    a seeded random right-hand side and takes the extreme eigenvalues of the
    CG-Lanczos tridiagonal, which bound the spectrum from inside: the reported
    condition number is a lower bound on the true one.
    """
    if method == "dense":
        op = materialize(apply_op, dim)
        prec = materialize(apply_prec, dim)
        op = (op + op.T) / 2.0
        prec = (prec + prec.T) / 2.0
        try:
            chol = sla.cholesky(op, lower=True)
        except sla.LinAlgError as err:
            raise SingularOperatorError("operator is not SPD") from err
        w = chol.T @ prec @ chol
        evs = sla.eigvalsh((w + w.T) / 2.0)
        lmin, lmax = float(evs[0]), float(evs[-1])
    elif method == "lanczos":
        rng = np.random.default_rng(seed)
        rhs = rng.uniform(-1.0, 1.0, dim)
        report = pcg(
            apply_op, apply_prec, rhs, tol=1e-14, max_iter=min(dim, 200)
        )
        alphas = report.history.alphas
        betas = report.history.betas
        m = alphas.size
        if m == 0:
            raise SingularOperatorError("no CG steps taken; cannot estimate spectrum")
        diag = 1.0 / alphas
        diag[1:] += betas[: m - 1] / alphas[: m - 1]
        off = np.sqrt(betas[: m - 1]) / alphas[: m - 1]
        evs = sla.eigvalsh_tridiagonal(diag, off) if m > 1 else diag
        lmin, lmax = float(np.min(evs)), float(np.max(evs))
    else:
        raise ValueError(f"unknown method {method!r}")
    if lmin <= 0:
        raise SingularOperatorError(f"nonpositive eigenvalue estimate {lmin}")
    return CondEstimate(lmin, lmax, lmax / lmin, method)
