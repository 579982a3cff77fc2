"""Skeleton preconditioners: balancing Neumann-Neumann and the substructured Hiptmair-Xu.

The scalar preconditioner balances a one-level Neumann-Neumann average M,
which composes the skeleton split, the blockwise inverse DtN and the glue
(the split's transpose), scaled on both sides by per-copy weights D,

    M f = D^T . DtN^{-1} . D f,    (D f)_c = rho_c f_i / sum_{c' of i} rho_c',

for each copy c of a skeleton vertex i on a subdomain boundary.  rho_c is
the subdomain's coefficient at the vertex, the largest alpha among its tets
that touch it (Mandel & Brezina's rho-scaling), so across a coefficient jump
the stiffer side's Neumann solve dominates; under constant alpha every copy
weighs 1/degree.  Each subdomain's inverse DtN map is the inverse trace of a
Neumann solve,

    S_j^{-1} g = trace_b( A_j^{-1} extend_by_zero(g) ),

which ``test_schur_inverse_is_resolvent_boundary_block`` checks; it is
applied as the explicit inverse of the dense S_u of each distinct block
(``schur``), taken once by ``SpdFactor.inverse``, so no whole-block Neumann
factorization is needed.  M is balanced with a coarse space of one basis
function per subdomain (Mandel's balancing domain decomposition):

    Q f = Q0 f + (I - Q0 S) M (I - S Q0) f,    Q0 = Z (Z^T S Z)^{-1} Z^T,

where column j of Z is D^T (ones on boundary j), so the columns sum to one
on the skeleton.  With one subdomain M is already the exact inverse of the
interface operator, and so is Q.

The edge-space preconditioner sums a skeleton Jacobi term with one gradient
and three nodal-interpolation pullbacks of the scalar preconditioner:

    Q_hx f = f / jac + grad . Q(grad^T f) / gamma^2 + sum_d interp_d . Q(interp_d^T f)

so one application costs exactly four scalar applies (one per auxiliary-space
channel); an ``n_applies`` counter on Q makes that checkable.  The edge
operator curl curl + gamma^2 reads neither alpha nor beta, so its auxiliary
problems come from its own coefficients (Hiptmair & Xu 2007): Q is the
Neumann-Neumann of Delta + gamma^2 (alpha = 1, beta = gamma^2, so rho = 1),
which serves the three nodal channels, and the gradient channel, whose
auxiliary operator is gamma^2 Delta, scales it by 1 / gamma^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .assemble import Coefficients, assemble_edge, assemble_scalar
from .dofspaces import build_transfer
from .discrete_ops import build_gradient, build_nodal_interp
from .errors import AssemblyError, ConfigurationError
from .krylov import CondEstimate, pcg
from .mesh import BoxMesh, SkeletonIndex, extract_skeleton
from .schur import SchurSystem, SpdFactor, build_schur_system

__all__ = [
    "NeumannNeumann",
    "HiptmairXu",
    "ScalarProblem",
    "MaxwellProblem",
    "setup_scalar",
    "setup_maxwell",
    "estimate_condition",
]


class NeumannNeumann:
    """Balancing Neumann-Neumann: a rho-weighted average of subdomain Neumann
    solves, balanced by a coarse space of one function per subdomain.

    ``rho`` holds one positive coefficient per boundary-tuple copy.  Each
    copy weighs rho / (sum of rho over the copies of its skeleton vertex) in
    both the average M and the coarse basis Z; ``degree`` is that weighted
    degree.  Only ratios of rho matter, so it is scaled to a largest value of
    1: constant rho gives exactly the counting weights 1/degree.

    It is the only user of the inverse DtN map, so set-up inverts the dense
    Schur complement S_u of each distinct subdomain block here, each with one
    ``SpdFactor``.  Set-up also computes S Z in one blockwise pass (each
    subdomain applies its Schur complement to the few coarse columns it
    touches) and factorizes the coarse matrix S0 = Z^T S Z with one more
    ``SpdFactor``; ``cond_coarse`` reports its condition number.
    One application makes one call to the average M (one grouped inverse-DtN
    apply, counted by ``n_applies``) and two coarse solves, using

        Q f = m + Z S0^{-1} (Z^T f - (S Z)^T m),   m = M (f - S Z S0^{-1} Z^T f).
    """

    def __init__(self, schur: SchurSystem, rho: np.ndarray):
        field = schur.transfer.field
        if field != "scalar":
            raise ValueError(f"expected a scalar interface system, got {field}")
        rho = np.asarray(rho, dtype=float)
        if rho.shape != (schur.tuple_dim,):
            raise ValueError(f"expected rho of length {schur.tuple_dim}, got {rho.shape}")
        if not np.all(np.isfinite(rho) & (rho > 0)):
            raise ConfigurationError("Neumann-Neumann weights rho must be positive and finite")
        self.schur = schur
        self.split = schur.transfer.skeleton_split
        self.dim = schur.dim
        self.rho = rho / rho.max()
        self.degree = np.bincount(self.split, self.rho, minlength=self.dim)
        self.n_applies = 0
        self.inverse_dtn = [
            SpdFactor(s_u, f"{field} subdomain {members[0]} (Schur)").inverse()
            for s_u, members in schur.groups
        ]

        # Z: one entry rho_c / degree per copy c, at (its skeleton vertex, its
        # subdomain); no two copies share a place, so nothing is summed.
        offsets = schur.transfer.boundary_offsets
        n_sub = len(schur.group_of)
        block_of = np.repeat(np.arange(n_sub), np.diff(offsets))
        self.coarse_basis = sp.csr_matrix(
            (self.rho * (1.0 / self.degree)[self.split], (self.split, block_of)),
            shape=(self.dim, n_sub),
        )

        # S Z blockwise: each subdomain applies its group's Schur complement
        # to the few coarse columns that touch its boundary, all at once.
        # Subdomains go in ascending order, which fixes the summation order.
        split_basis = self.coarse_basis[self.split]
        self.s_coarse = np.zeros((self.dim, n_sub))
        for j, u in enumerate(schur.group_of):
            lo, hi = int(offsets[j]), int(offsets[j + 1])
            local = split_basis[lo:hi]
            cols = np.unique(local.indices)
            s_u = schur.groups[u][0]
            self.s_coarse[np.ix_(self.split[lo:hi], cols)] += s_u @ local[:, cols].toarray()
        s0 = self.coarse_basis.T @ self.s_coarse
        self.coarse_matrix = (s0 + s0.T) / 2.0
        self.coarse_factor = SpdFactor(self.coarse_matrix, "balancing coarse problem")

    @cached_property
    def cond_coarse(self) -> float:
        """Condition number of S0, from its eigenvalues on first read: the
        solve itself never needs it."""
        evs = sla.eigvalsh(self.coarse_matrix)
        return float(evs[-1] / evs[0])

    def apply_dtn_inv(self, g: np.ndarray) -> np.ndarray:
        """Blockwise inverse DtN on a boundary-tuple vector."""
        return self.schur.grouped_apply(self.inverse_dtn, g)

    def _average(self, f: np.ndarray) -> np.ndarray:
        w = self.apply_dtn_inv((f[self.split] * self.rho) / self.degree[self.split])
        return np.bincount(self.split, self.rho * w, minlength=self.dim) / self.degree

    def __call__(self, f: np.ndarray) -> np.ndarray:
        if f.shape != (self.dim,):
            raise ValueError(f"expected skeleton vector of length {self.dim}")
        self.n_applies += 1
        zf = self.coarse_basis.T @ f
        m = self._average(f - self.s_coarse @ self.coarse_factor.solve(zf))
        correction = self.coarse_factor.solve(zf - self.s_coarse.T @ m)
        return m + self.coarse_basis @ correction


class HiptmairXu:
    """Skeleton Jacobi plus gradient/interpolation pullbacks of Neumann-Neumann.

    ``gradient_weight`` scales the gradient channel (1 / gamma^2 in
    ``setup_maxwell``).
    """

    def __init__(
        self,
        jacobi_skeleton: np.ndarray,
        skeleton_gradient: sp.csr_matrix,
        skeleton_interps: list[sp.csr_matrix],
        nn: NeumannNeumann,
        gradient_weight: float,
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
        self.gradient_weight = gradient_weight
        self.dim = shape[0]

    def __call__(self, f: np.ndarray) -> np.ndarray:
        if f.shape != (self.dim,):
            raise ValueError(f"expected skeleton edge vector of length {self.dim}")
        out = self.jacobi_inv * f
        out = out + self.gradient_weight * (self.gradient @ self.nn(self.gradient.T @ f))
        for interp in self.interps:
            out = out + interp @ self.nn(interp.T @ f)
        return out


@dataclass
class ScalarProblem:
    """Everything the scalar interface solve and its report read."""

    coeffs: Coefficients  # the only home of the HX plug-in's (1, gamma^2)
    schur: SchurSystem
    qnn: NeumannNeumann
    dim_volume: int

    @property
    def dim_skeleton(self) -> int:
        return self.schur.dim


@dataclass
class MaxwellProblem:
    """The edge interface solve plus its auxiliary scalar problem."""

    schur: SchurSystem
    scalar: ScalarProblem
    qhx: HiptmairXu
    dim_volume: int

    @property
    def dim_skeleton(self) -> int:
        return self.schur.dim


def _copy_rho(mesh: BoxMesh, coeffs: Coefficients, skeleton: SkeletonIndex) -> np.ndarray:
    """rho of every boundary-tuple copy: the largest alpha among the
    subdomain's tets that touch the vertex, one subdomain at a time."""
    alpha = coeffs.per_tet("alpha", mesh.n_tets)
    parts = []
    for j, boundary in enumerate(skeleton.boundary_vertices):
        tet_ids = mesh.tets_of_subdomain(j)
        peak = np.zeros(mesh.n_vertices)
        np.maximum.at(peak, mesh.tets[tet_ids].ravel(), np.repeat(alpha[tet_ids], 4))
        parts.append(peak[boundary])
    return np.concatenate(parts)


def _scalar_problem(
    mesh: BoxMesh, coeffs: Coefficients, skeleton: SkeletonIndex
) -> ScalarProblem:
    transfer = build_transfer(mesh, skeleton, "scalar")
    # The blocks go once their Schur complements are formed.
    schur = build_schur_system(assemble_scalar(mesh, transfer, coeffs), transfer)
    qnn = NeumannNeumann(schur, _copy_rho(mesh, coeffs, skeleton))
    return ScalarProblem(coeffs, schur, qnn, mesh.n_vertices)


def setup_scalar(mesh: BoxMesh, coeffs: Coefficients) -> ScalarProblem:
    """The scalar interface solve, its Neumann-Neumann weighted by alpha."""
    return _scalar_problem(mesh, coeffs, extract_skeleton(mesh))


def setup_maxwell(mesh: BoxMesh, coeffs: Coefficients) -> MaxwellProblem:
    """The edge interface solve; it reads only gamma of ``coeffs``."""
    skeleton = extract_skeleton(mesh)
    gamma2 = float(coeffs.gamma) ** 2
    # HX's auxiliary problem Delta + gamma^2 (constant alpha, so rho = 1).
    scalar = _scalar_problem(mesh, Coefficients(alpha=1.0, beta=gamma2), skeleton)

    transfer = build_transfer(mesh, skeleton, "edge")
    blocks = assemble_edge(mesh, transfer, coeffs)
    schur = build_schur_system(blocks, transfer)

    # The skeleton Jacobi diagonal glues the subdomain boundary diagonals.
    # Copies add in ascending subdomain order, as in ``oracle.volume_matrix``,
    # so it equals the volume edge diagonal on the skeleton bit for bit.
    broken_diagonal = np.concatenate([block.diagonal() for block in blocks])
    jac = np.bincount(
        transfer.skeleton_split,
        broken_diagonal[transfer.boundary_trace],
        minlength=schur.dim,
    )
    gradient = build_gradient(mesh, skeleton)
    interps = [build_nodal_interp(mesh, d, skeleton) for d in range(3)]
    qhx = HiptmairXu(jac, gradient, interps, scalar.qnn, gradient_weight=1.0 / gamma2)
    return MaxwellProblem(schur, scalar, qhx, mesh.n_edges)


def estimate_condition(
    apply_op, apply_prec, dim: int, method: str = "lanczos", seed: int = 0
) -> CondEstimate:
    """Lanczos bounds of prec . op for SPD op and prec: preconditioned CG on a
    seeded random right-hand side, read through ``ConvergenceHistory.lanczos``.

    ``method`` accepts only "lanczos" and stays only for the benchmark's
    call; ROADMAP item 4 removes it.  The dense estimate is
    ``oracle.dense_condition``.
    """
    if method != "lanczos":
        raise ValueError(f"unknown method {method!r}")
    rhs = np.random.default_rng(seed).uniform(-1.0, 1.0, dim)
    report = pcg(apply_op, apply_prec, rhs, tol=1e-14, max_iter=min(dim, 200))
    return report.history.lanczos()
