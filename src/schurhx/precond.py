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
applied from one Cholesky factorization of each distinct block's S_u, so no
whole-block Neumann factorization is needed.  A lone member's S_u is kept
by ``SchurSystem`` only as its packed upper factor U (S_u = U^T U), and
Neumann-Neumann solves with that same array, S_u^{-1} = U^{-1} U^{-T}; a
group of several members keeps the explicit inverse from
``SpdFactor.inverse``, square, shared by one GEMM over all its members.
``NeumannNeumann.apply_dtn_inv`` applies these maps itself, on the rows of
the (J, n_b) boundary tuple.  M is balanced with a coarse space
of one basis function per subdomain (Mandel's balancing domain
decomposition):

    Q f = Q0 f + (I - Q0 S) M (I - S Q0) f,    Q0 = Z (Z^T S Z)^{-1} Z^T,

where column j of Z is D^T (ones on boundary j), so the columns sum to one
on the skeleton.  With one subdomain M is already the exact inverse of the
interface operator, and so is Q.  Set-up forms S Z as CSR, with no sparse
slicing and no dense (skeleton, J) array: a table of each subdomain's
neighbour coarse columns, its dense boundary rows of Z in them, one product
with its S_u, and one sparse product with the glue, which sums each entry in
ascending subdomain order.

The edge-space preconditioner sums a skeleton Jacobi term with one gradient
and three nodal-interpolation pullbacks of the scalar preconditioner:

    Q_hx f = f / jac + grad . Q(grad^T f) / gamma^2 + sum_d interp_d . Q(interp_d^T f)

so one application costs exactly four scalar applies (one per auxiliary-space
channel); an ``n_applies`` counter on Q makes that checkable, and
``setup_maxwell`` builds the four maps with one ``build_aux_maps`` call.  The
edge operator curl curl + gamma^2 reads neither alpha nor beta, so its auxiliary
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
from .dofspaces import TransferOps, build_transfer
from .discrete_ops import build_aux_maps
from .errors import AssemblyError, ConfigurationError
from .krylov import CondEstimate, pcg
from .mesh import BoxMesh
from .schur import SchurSystem, SpdFactor, build_schur_system, check_dense

__all__ = [
    "NeumannNeumann",
    "HiptmairXu",
    "ScalarProblem",
    "MaxwellProblem",
    "setup_scalar",
    "setup_maxwell",
    "estimate_condition",
]


def _schur_times_basis(schur: SchurSystem, basis: sp.csr_matrix) -> tuple:
    """S Z as canonical CSR, and each group's inverse DtN map: a lone member's packed U
    itself, a shared S_u's square inverse.  S Z comes from each subdomain j's dense Z_j: its
    boundary rows of Z in the columns of the subdomains it shares a skeleton dof with (8,
    12, 18 or 27 on a box partition).  Each Z_j is overwritten by S_u Z_j, one GEMM at its
    exact width (padding to another width changes the bits), or for a lone member by
    U^T (U Z_j), two TRMMs with U unpacked once.  The products are the rows of a (boundary
    tuple, J) CSR matrix V, and S Z = glue V, the glue being the split's transpose: scipy
    sums each entry over ascending tuple slots, so in ascending subdomain order, which fixes
    each entry's summation order."""
    split, offsets = schur.transfer.skeleton_split, schur.transfer.boundary_offsets
    n_sub, sizes = offsets.size - 1, np.diff(offsets)
    entries = basis[split].tocoo()  # Z's rows of every boundary copy
    sub = np.repeat(np.arange(n_sub), sizes)[entries.row]
    # The neighbour table: subdomain j's sorted columns are
    # cols[first[j] : first[j + 1]].
    pairs, pair_of = np.unique(sub * n_sub + entries.col, return_inverse=True)
    width = np.bincount(pairs // n_sub, minlength=n_sub)
    first = np.concatenate([[0], np.cumsum(width)])
    cols = pairs % n_sub
    rank = pair_of - first[sub]
    # Every Z_j, C-ordered, one after another in ascending j: row t of V.
    indptr = np.concatenate([[0], np.cumsum(np.repeat(width, sizes))])
    values = np.zeros(indptr[-1])
    values[indptr[entries.row] + rank] = entries.data
    indices = np.empty(indptr[-1], dtype=np.int32)
    del entries, sub, pair_of, rank  # before the inverses' arrays
    inverses = []
    trmm = sla.blas.dtrmm
    for s_u, js in schur.groups:
        lone = js.size == 1
        if lone:  # U, unpacked once
            upper = sla.lapack.dtpttr(sizes[js[0]], s_u, uplo="U")[0]
        for j in js:
            lo, hi = indptr[offsets[j]], indptr[offsets[j + 1]]
            z_j = values[lo:hi].reshape(sizes[j], width[j])
            if lone:
                # Z_j^T U^T U in place, on the F-ordered Z_j^T: (alpha, A, B,
                # side, lower, trans_a, diag, overwrite_b).
                trmm(1.0, upper, trmm(1.0, upper, z_j.T, 1, 0, 1, 0, 1), 1, 0, 0, 0, 1)
            else:
                z_j[:] = s_u @ z_j
            indices[lo:hi].reshape(sizes[j], width[j])[:] = cols[first[j] : first[j + 1]]
        if lone:  # U serves the packed solve too
            inverses.append(s_u)
        else:
            inverses.append(SpdFactor(s_u, f"scalar subdomain {js[0]} (Schur)").inverse())
    products = sp.csr_matrix((values, indices, indptr), shape=(split.size, n_sub))
    glue = sp.csc_matrix(
        (np.ones(split.size), split, np.arange(split.size + 1)), shape=(schur.dim, split.size)
    ).tocsr()
    product = glue @ products
    product.sort_indices()
    return product, inverses


class NeumannNeumann:
    """Balancing Neumann-Neumann: a rho-weighted average of subdomain Neumann
    solves, balanced by a coarse space of one function per subdomain.

    ``rho`` holds one positive coefficient per boundary-tuple copy.  Each
    copy weighs rho / (sum of rho over the copies of its skeleton vertex) in
    both the average M and the coarse basis Z; ``degree`` is that weighted
    degree.  Only ratios of rho matter, so it is scaled to a largest value of
    1: constant rho gives exactly the counting weights 1/degree.

    A lone member's inverse DtN map is the packed upper Cholesky factor U
    that ``SchurSystem`` keeps (``inverse_dtn[u] is schur.groups[u][0]``),
    applied by ``dpptrs``; a shared S_u is factorized here with one
    ``SpdFactor``, whose square inverse its members share.  Set-up computes
    S Z as CSR in the same pass (each S_u times the few coarse columns its
    members touch, summed in ascending subdomain order), then factorizes the
    dense J x J coarse matrix S0 = Z^T S Z with one more ``SpdFactor``;
    ``cond_coarse`` reports its condition number.
    One application makes one call to the average M (one blockwise inverse-DtN
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
        self._split_degree = self.degree[self.split]
        self.n_applies = 0
        # Z: one entry rho_c / degree per copy c, at (its skeleton vertex, its
        # subdomain); no two copies share a place, so nothing is summed.
        offsets = schur.transfer.boundary_offsets
        n_sub = len(schur.group_of)
        block_of = np.repeat(np.arange(n_sub), np.diff(offsets))
        self.coarse_basis = sp.csr_matrix(
            (self.rho * (1.0 / self.degree)[self.split], (self.split, block_of)),
            shape=(self.dim, n_sub),
        )

        # Z^T and (S Z)^T as CSR, stored once: each apply multiplies by both,
        # and a CSR product sums in the order of the CSC one of ``.T`` but
        # takes a half to a third of its time at 24^3/4^3.
        self._basis_t = self.coarse_basis.T.tocsr()
        self.s_coarse, self.inverse_dtn = _schur_times_basis(schur, self.coarse_basis)
        self._s_coarse_t = self.s_coarse.T.tocsr()
        s0 = (self._basis_t @ self.s_coarse).toarray()
        self.coarse_matrix = (s0 + s0.T) / 2.0
        self.coarse_factor = SpdFactor(self.coarse_matrix, "balancing coarse problem")

    @cached_property
    def cond_coarse(self) -> float:
        """Condition number of S0, from its eigenvalues on first read (the
        solve never needs it); ``inf`` if the smallest is not positive."""
        evs = sla.eigvalsh(self.coarse_matrix)
        return float(evs[-1] / evs[0]) if evs[0] > 0 else float("inf")

    def apply_dtn_inv(self, g: np.ndarray) -> np.ndarray:
        """Blockwise inverse DtN on a boundary-tuple vector: per group, one GEMM
        with its square inverse over its members' rows, or a lone member's
        packed Cholesky solve (``dpptrs``) with its upper factor U."""
        self.schur.check_tuple(g)
        # The packed solve overwrites its right-hand side, a row of ``out``,
        # and takes positional arguments, as ``apply_dtn``'s products do.
        out = np.array(g, dtype=float)
        rows = out.reshape(self.schur.group_of.size, -1)
        pptrs = sla.lapack.dpptrs
        for inverse, (_, js) in zip(self.inverse_dtn, self.schur.groups):
            if inverse.ndim == 2:
                rows[js] = (inverse @ rows[js].T.copy()).T
            else:  # (n, U, b, lower, overwrite_b)
                pptrs(rows.shape[1], inverse, rows[js[0]], 0, 1)
        return out

    def _average(self, f: np.ndarray) -> np.ndarray:
        w = self.apply_dtn_inv((f[self.split] * self.rho) / self._split_degree)
        return np.bincount(self.split, self.rho * w, minlength=self.dim) / self.degree

    def __call__(self, f: np.ndarray) -> np.ndarray:
        if f.shape != (self.dim,):
            raise ValueError(f"expected skeleton vector of length {self.dim}")
        self.n_applies += 1
        zf = self._basis_t @ f
        m = self._average(f - self.s_coarse @ self.coarse_factor.solve(zf))
        correction = self.coarse_factor.solve(zf - self._s_coarse_t @ m)
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
        # Each map's transpose as CSR, stored once: every apply multiplies by
        # all four, and a CSR product sums in the order of the CSC one of
        # ``.T`` in about 60 % of its time at 24^3/4^3.
        self._gradient_t = skeleton_gradient.T.tocsr()
        self._interps_t = [interp.T.tocsr() for interp in self.interps]
        self.nn = nn
        self.gradient_weight = gradient_weight
        self.dim = shape[0]

    def __call__(self, f: np.ndarray) -> np.ndarray:
        if f.shape != (self.dim,):
            raise ValueError(f"expected skeleton edge vector of length {self.dim}")
        out = self.jacobi_inv * f
        out = out + self.gradient_weight * (self.gradient @ self.nn(self._gradient_t @ f))
        for interp, interp_t in zip(self.interps, self._interps_t):
            out = out + interp @ self.nn(interp_t @ f)
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


def _copy_rho(mesh: BoxMesh, coeffs: Coefficients, transfer: TransferOps) -> np.ndarray:
    """rho of every boundary-tuple copy: the largest alpha among the
    subdomain's tets that touch the vertex, over its broken-space slots."""
    if np.ndim(coeffs.alpha) == 0:
        return np.full(transfer.boundary_offsets[-1], float(coeffs.alpha))
    alpha = coeffs.per_tet("alpha", mesh.n_tets)
    offsets = transfer.broken_offsets
    local = mesh.numbering("scalar")[1].ravel()
    peak = np.zeros(offsets[-1])
    for j in range(mesh.n_subdomains):
        np.maximum.at(peak, offsets[j] + local, np.repeat(alpha[mesh.tets_of_subdomain(j)], 4))
    return peak[transfer.boundary_trace]


def setup_scalar(mesh: BoxMesh, coeffs: Coefficients) -> ScalarProblem:
    """The scalar interface solve, its Neumann-Neumann weighted by alpha."""
    transfer = build_transfer(mesh, "scalar")
    # The blocks go once their Schur complements are formed.
    schur = build_schur_system(*assemble_scalar(mesh, coeffs), transfer, mesh)
    qnn = NeumannNeumann(schur, _copy_rho(mesh, coeffs, transfer))
    return ScalarProblem(coeffs, schur, qnn, mesh.n_vertices)


def setup_maxwell(mesh: BoxMesh, coeffs: Coefficients) -> MaxwellProblem:
    """The edge interface solve; it reads only gamma of ``coeffs``."""
    gamma2 = float(coeffs.gamma) ** 2
    # An edge S_u too large to form is refused before the auxiliary set-up.
    first, _, n_interior = mesh.numbering("edge")
    check_dense(first.size - n_interior, "edge subdomain 0")
    # HX's auxiliary problem Delta + gamma^2 (constant alpha, so rho = 1).
    scalar = setup_scalar(mesh, Coefficients(alpha=1.0, beta=gamma2))

    transfer = build_transfer(mesh, "edge")
    blocks, group_of = assemble_edge(mesh, coeffs)
    schur = build_schur_system(blocks, group_of, transfer, mesh)

    # The skeleton Jacobi diagonal glues the subdomain boundary diagonals.
    # Copies add in ascending subdomain order, as in ``oracle.volume_matrix``,
    # so it equals the volume edge diagonal on the skeleton bit for bit.
    diagonals = [block.diagonal() for block in blocks]
    broken_diagonal = np.concatenate([diagonals[u] for u in group_of])
    jac = np.bincount(
        transfer.skeleton_split,
        broken_diagonal[transfer.boundary_trace],
        minlength=schur.dim,
    )
    gradient, interps = build_aux_maps(mesh, (scalar.schur.transfer, transfer))
    qhx = HiptmairXu(jac, gradient, interps, scalar.qnn, gradient_weight=1.0 / gamma2)
    return MaxwellProblem(schur, scalar, qhx, mesh.n_edges)


def estimate_condition(
    apply_op, apply_prec, dim: int, method: str = "lanczos", seed: int = 0
) -> CondEstimate:
    """Lanczos bounds of prec . op for SPD op and prec: preconditioned CG on a
    seeded random right-hand side, read through ``ConvergenceHistory.lanczos``.

    ``method`` accepts only "lanczos" and stays only for the benchmark's
    call; ROADMAP item 1 removes it.  The dense estimate is
    ``oracle.dense_condition``.
    """
    if method != "lanczos":
        raise ValueError(f"unknown method {method!r}")
    rhs = np.random.default_rng(seed).uniform(-1.0, 1.0, dim)
    report = pcg(apply_op, apply_prec, rhs, tol=1e-14, max_iter=min(dim, 200))
    return report.history.lanczos()
