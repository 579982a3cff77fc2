"""Dense ground-truth checks for every structural identity the solvers rely on.

Two weighted Moore-Penrose pseudo-inverses drive most of the algebra.  For an
SPD weight A:

  surjective Theta (onto):   pinv_A(Theta) = A^{-1} Theta^T (Theta A^{-1} Theta^T)^{-1}
      with  (Theta A^{-1} Theta^T)^{-1} = pinv^T A pinv          (inverse transport)
  injective Phi (one-to-one): pinv_A(Phi) = (Phi^T A Phi)^{-1} Phi^T A
      with  (Phi^T A Phi)^{-1} = pinv A^{-1} pinv^T

Everything here is dense and deliberately independent of the sparse solver
paths: the identities are checked by materializing operators column by column
and comparing against closed forms, not by reusing the code under test.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assemble import Coefficients, assemble_edge, assemble_scalar
from .discrete_ops import build_aux_maps
from .dofspaces import TransferOps
from .errors import ConfigurationError, SingularOperatorError
from .mesh import BoxMesh
from .precond import setup_maxwell, setup_scalar

__all__ = [
    "materialize",
    "dense_condition",
    "pseudoinverse_surjective",
    "pseudoinverse_injective",
    "IdentityCheck",
    "IdentityReport",
    "volume_matrix",
    "probe_interface_inverse",
    "verify_dense_lemmas",
    "verify_identities",
]

#: Refuse dense verification on meshes bigger than this many edge dofs.
DENSE_DOF_LIMIT = 1500

#: Bound of ``probe_interface_inverse``, above its tested residuals: 1.8e-12
#: (edge, 12^3 cells on 2^3) and 2.8e-13 (scalar 24^3 on 4^3, alpha jumps).
PROBE_BOUND = 1e-11


def materialize(apply_op, dim: int) -> np.ndarray:
    """Dense matrix of a linear callable, one identity column at a time."""
    cols = np.empty((dim, dim))
    e = np.zeros(dim)
    for i in range(dim):
        e[i] = 1.0
        cols[:, i] = apply_op(e)
        e[i] = 0.0
    return cols


def dense_condition(op: np.ndarray, prec: np.ndarray) -> float:
    """Exact condition number of prec . op for symmetrized SPD arrays: it is
    similar to C^T prec C with op = C C^T.  Raises
    :class:`SingularOperatorError` unless both are positive definite.
    """
    try:
        chol = sla.cholesky((op + op.T) / 2.0, lower=True)
    except sla.LinAlgError as err:
        raise SingularOperatorError("operator is not SPD") from err
    w = chol.T @ ((prec + prec.T) / 2.0) @ chol
    evs = sla.eigvalsh((w + w.T) / 2.0)
    if evs[0] <= 0:
        raise SingularOperatorError(f"nonpositive eigenvalue estimate {evs[0]}")
    return float(evs[-1] / evs[0])


def pseudoinverse_surjective(theta, weight) -> np.ndarray:
    """A-weighted pseudo-inverse of a surjective map (right inverse, min norm).

    Raises :class:`SingularOperatorError` when ``theta`` lacks full row rank.
    """
    th = np.asarray(theta, dtype=float)
    a = np.asarray(weight, dtype=float)
    lifted = sla.solve(a, th.T, assume_a="pos")
    try:
        chol = sla.cho_factor(th @ lifted)
    except sla.LinAlgError as err:
        raise SingularOperatorError("map is not surjective (row-rank deficient)") from err
    return lifted @ sla.cho_solve(chol, np.eye(th.shape[0]))


def pseudoinverse_injective(phi, weight) -> np.ndarray:
    """A-weighted pseudo-inverse of an injective map (left inverse).

    Raises :class:`SingularOperatorError` when ``phi`` has dependent columns.
    """
    ph = np.asarray(phi, dtype=float)
    a = np.asarray(weight, dtype=float)
    gram = ph.T @ a @ ph
    try:
        chol = sla.cho_factor(gram)
    except sla.LinAlgError as err:
        raise SingularOperatorError("map is not injective (column-rank deficient)") from err
    return sla.cho_solve(chol, ph.T @ a)


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    context: str
    value: float  # residual, or the left side of an inequality
    bound: float  # allowed threshold / right side
    passed: bool


@dataclass
class IdentityReport:
    checks: list[IdentityCheck] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add_residual(self, name: str, context: str, value: float, bound: float):
        self.checks.append(
            IdentityCheck(name, context, float(value), float(bound), value <= bound)
        )

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            out.append(
                f"[{status}] {c.name} ({c.context}): value={c.value:.3e} bound={c.bound:.3e}"
            )
        return out

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("name,context,value,bound,passed\n")
            for c in self.checks:
                fh.write(f"{c.name},{c.context},{c.value!r},{c.bound!r},{int(c.passed)}\n")


def _random_spd(rng, n: int) -> np.ndarray:
    w = rng.uniform(-1.0, 1.0, (n, n))
    return w @ w.T + n * np.eye(n)


def _rel_max(diff: np.ndarray, reference: np.ndarray) -> float:
    """Max-abs of ``diff`` relative to the magnitude of ``reference`` (>= 1)."""
    return float(np.abs(diff).max() / max(1.0, np.abs(reference).max()))


def verify_dense_lemmas(seed: int = 0) -> IdentityReport:
    """Random-instance checks of the pseudo-inverse algebra: 20 draws, dims up
    to 12x8."""
    rng = np.random.default_rng(seed)
    report = IdentityReport()
    for k in range(20):
        n = int(rng.integers(2, 13))
        m = int(rng.integers(1, min(8, n) + 1))
        a = _random_spd(rng, n)
        theta = rng.uniform(-1.0, 1.0, (m, n))
        ctx = f"draw {k}: dims {m}x{n}"

        pinv = pseudoinverse_surjective(theta, a)
        gram_inv = sla.inv(theta @ sla.solve(a, theta.T, assume_a="pos"))
        report.add_residual(
            "surjective-right-inverse",
            ctx,
            float(np.abs(theta @ pinv - np.eye(m)).max()),
            1e-9,
        )
        # Transported inverses are compared relative to their own magnitude:
        # a nearly singular draw makes the inverse large without carrying any
        # meaning for the identity itself.
        report.add_residual(
            "surjective-inverse-transport",
            ctx,
            _rel_max(gram_inv - pinv.T @ a @ pinv, gram_inv),
            1e-9,
        )
        proj = pinv @ theta
        report.add_residual(
            "projector-idempotent", ctx, float(np.abs(proj @ proj - proj).max()), 1e-9
        )
        report.add_residual(
            "projector-self-adjoint-in-A",
            ctx,
            float(np.abs(a @ proj - proj.T @ a).max()),
            1e-9,
        )
        # Minimal-norm property, checked against the KKT system of
        #   min <A v, v>  subject to  Theta v = u.
        u = rng.uniform(-1.0, 1.0, m)
        kkt = np.block([[a, theta.T], [theta, np.zeros((m, m))]])
        v = sla.solve(kkt, np.concatenate([np.zeros(n), u]))[:n]
        report.add_residual(
            "surjective-minimal-norm", ctx, _rel_max(pinv @ u - v, v), 1e-9
        )

        phi = theta.T
        pinj = pseudoinverse_injective(phi, a)
        report.add_residual(
            "injective-left-inverse",
            ctx,
            float(np.abs(pinj @ phi - np.eye(m)).max()),
            1e-9,
        )
        gram2_inv = sla.inv(phi.T @ a @ phi)
        report.add_residual(
            "injective-inverse-transport",
            ctx,
            _rel_max(gram2_inv - pinj @ sla.inv(a) @ pinj.T, gram2_inv),
            1e-9,
        )
    return report


def _max_abs(matrix: np.ndarray) -> float:
    return float(np.abs(matrix).max()) if matrix.size else 0.0


def _selection(idx: np.ndarray, n_source: int) -> np.ndarray:
    """Dense 0/1 matrix of the index map ``target = source[idx]``."""
    return np.eye(n_source)[idx]


def volume_matrix(transfer: TransferOps, blocks: list, group_of: np.ndarray) -> np.ndarray:
    """Dense volume matrix of a field: subdomain j's block ``blocks[group_of[j]]``
    added at its slice of ``volume_split``, in ascending j."""
    n, offsets = transfer.n_volume, transfer.broken_offsets
    dense = np.zeros((n, n))
    for j, u in enumerate(group_of):
        dofs = transfer.volume_split[offsets[j] : offsets[j + 1]]
        dense[np.ix_(dofs, dofs)] += blocks[u].toarray()
    return dense


def probe_interface_inverse(schur, blocks: list, group_of: np.ndarray) -> float:
    """The paper's S^{-1} = Tr A^{-1} Tr^T at any size: the largest
    ||S Tr A^{-1} Tr^T v - v||_inf / ||v||_inf over four random v of seed 0, with
    A summed from the blocks by COO at ``volume_split`` and factorized by
    SuperLU, apart from the elimination under test (``schur.apply``)."""
    transfer, n = schur.transfer, schur.transfer.n_volume
    coo = sp.block_diag([blocks[u] for u in group_of], format="coo")
    dofs, trace = transfer.volume_split, transfer.skeleton_trace
    volume = sp.csc_matrix((coo.data, (dofs[coo.row], dofs[coo.col])), shape=(n, n))
    lu = spla.splu(volume, permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True})
    worst, lifted = 0.0, np.zeros(n)
    for v in np.random.default_rng(0).uniform(-1.0, 1.0, (4, trace.size)):
        lifted[trace] = v
        residual = schur.apply(lu.solve(lifted)[trace]) - v
        worst = max(worst, np.abs(residual).max() / np.abs(v).max())
    return worst


def _copy_rho(mesh: BoxMesh, coeffs: Coefficients, transfer: TransferOps) -> np.ndarray:
    """Per boundary-tuple copy of the scalar ``transfer``, the largest alpha
    among the subdomain's tets that touch the vertex, tet by tet."""
    alpha = coeffs.per_tet("alpha", mesh.n_tets)
    copies = transfer.volume_split[transfer.boundary_trace]
    rho = []
    for j in range(mesh.n_subdomains):
        boundary = copies[transfer.boundary_offsets[j] : transfer.boundary_offsets[j + 1]]
        peak = dict.fromkeys(boundary.tolist(), 0.0)
        for t in range(mesh.n_tets):
            if mesh.tet_subdomain[t] != j:
                continue
            for v in mesh.tets[t].tolist():
                if v in peak:
                    peak[v] = max(peak[v], float(alpha[t]))
        rho += [peak[v] for v in boundary.tolist()]
    return np.array(rho)


def verify_identities(mesh: BoxMesh, coeffs: Coefficients | None = None) -> IdentityReport:
    """Check every structural identity on one (small) partitioned mesh."""
    if mesh.n_edges > DENSE_DOF_LIMIT:
        raise ConfigurationError(
            f"dense verification is limited to {DENSE_DOF_LIMIT} edge dofs, "
            f"this mesh has {mesh.n_edges}; use fewer cells"
        )
    coeffs = coeffs or Coefficients()
    ctx = f"cells={mesh.cells} subdomains={mesh.subdomains}"
    report = IdentityReport()

    scalar = setup_scalar(mesh, coeffs)
    maxwell = setup_maxwell(mesh, coeffs)
    scalar_ops, edge_ops = scalar.schur.transfer, maxwell.schur.transfer

    grad_vol, interps_vol = build_aux_maps(mesh)
    grad_skel, interps_skel = build_aux_maps(mesh, (scalar_ops, edge_ops))

    # Commutation lattice: trace/split squares and the differential maps,
    # all exact in floating point (0/1 selection matrices and identical
    # coordinate arithmetic on both paths).
    for field_name, ops in (("scalar", scalar_ops), ("edge", edge_ops)):
        lhs = _selection(ops.boundary_trace, ops.volume_split.size) @ _selection(
            ops.volume_split, ops.n_volume
        )
        rhs = _selection(ops.skeleton_split, ops.skeleton_trace.size) @ _selection(
            ops.skeleton_trace, ops.n_volume
        )
        report.add_residual(
            f"trace-split-commutation-{field_name}", ctx, _max_abs(lhs - rhs), 0.0
        )

    trace_v = _selection(scalar_ops.skeleton_trace, scalar_ops.n_volume)
    trace_e = _selection(edge_ops.skeleton_trace, edge_ops.n_volume)
    report.add_residual(
        "gradient-trace-commutation",
        ctx,
        _max_abs(trace_e @ grad_vol - grad_skel @ trace_v),
        0.0,
    )
    for d, (pv, ps) in enumerate(zip(interps_vol, interps_skel)):
        report.add_residual(
            f"interp-trace-commutation-dir{d}",
            ctx,
            _max_abs(trace_e @ pv - ps @ trace_v),
            0.0,
        )

    # Interface inverse identity: (assembled Schur) . (trace volinv trace^T) = Id,
    # for both fields.
    blocks, group_of = assemble_scalar(mesh, coeffs)
    l_dense = volume_matrix(scalar_ops, blocks, group_of)
    m_dense = volume_matrix(edge_ops, *assemble_edge(mesh, coeffs))
    for field_name, problem, vol in (
        ("scalar", scalar, l_dense),
        ("edge", maxwell, m_dense),
    ):
        ops = problem.schur.transfer
        tr = _selection(ops.skeleton_trace, ops.n_volume)
        pushed = tr @ sla.solve(vol, tr.T, assume_a="pos")
        s_mat = materialize(problem.schur.apply, problem.schur.dim)
        report.add_residual(
            f"interface-inverse-identity-{field_name}",
            ctx,
            float(np.abs(s_mat @ pushed - np.eye(s_mat.shape[0])).max()),
            1e-9,
        )

    # Pseudo-inverse commutation: splitting the volume lift of skeleton data
    # equals lifting blockwise.
    l_blocks = sla.block_diag(*(blocks[u].toarray() for u in group_of))
    split = _selection(scalar_ops.skeleton_split, scalar_ops.skeleton_trace.size)
    lift_vol = pseudoinverse_surjective(trace_v, l_dense)
    lift_blk = pseudoinverse_surjective(
        _selection(scalar_ops.boundary_trace, scalar_ops.volume_split.size), l_blocks
    )
    report.add_residual(
        "pseudoinverse-commutation",
        ctx,
        float(
            np.abs(
                _selection(scalar_ops.volume_split, scalar_ops.n_volume) @ lift_vol
                - lift_blk @ split
            ).max()
        ),
        1e-9,
    )

    # Weighted average as a pseudo-inverse: the rho-weighted transpose of the
    # skeleton split, scaled by the rho-weighted degree, is its pseudo-inverse
    # for the weight diag(rho).  rho is scaled to a largest value of 1, as in
    # Neumann-Neumann, so under constant alpha this is the degree average.
    rho = _copy_rho(mesh, coeffs, scalar_ops)
    rho = rho / rho.max()
    report.add_residual(
        "degree-average-pseudoinverse",
        ctx,
        float(
            np.abs(
                pseudoinverse_injective(split, np.diag(rho))
                - split.T * rho / (split.T @ rho)[:, None]
            ).max()
        ),
        1e-12,
    )

    if mesh.n_subdomains == 1:
        q_mat = materialize(scalar.qnn, scalar.schur.dim)
        s_mat = materialize(scalar.schur.apply, scalar.schur.dim)
        report.add_residual(
            "single-subdomain-exactness",
            ctx,
            float(np.abs(q_mat @ s_mat - np.eye(s_mat.shape[0])).max()),
            1e-9,
        )

    _spectral_checks(report, ctx, scalar, maxwell, l_dense, m_dense, mesh, trace_v)
    return report


def _spectral_checks(report, ctx, scalar, maxwell, l_dense, m_dense, mesh, tr):
    """Dense spectral inequalities tying the preconditioners to volume bounds."""
    slack = 1.0 + 1e-9

    # Jacobi pushed through the skeleton: cond of the preconditioned interface
    # operator is bounded by the volume Jacobi condition number.
    s_mat = materialize(scalar.schur.apply, scalar.schur.dim)
    jac_inv = 1.0 / np.diag(l_dense)
    pushed = (tr * jac_inv) @ tr.T
    lhs = dense_condition(s_mat, pushed)
    rhs = dense_condition(l_dense, np.diag(jac_inv))
    report.add_residual("jacobi-pushdown-cond-bound", ctx, lhs, rhs * slack)

    # The same mechanism for the Neumann-Neumann average, using its volume
    # pullback X = lift Q lift^T + (I - P) Linv (I - P)^T, whose push-down is
    # exactly Q.
    q_mat = materialize(scalar.qnn, scalar.schur.dim)
    lift = pseudoinverse_surjective(tr, l_dense)
    proj = lift @ tr
    l_inv = sla.inv(l_dense)
    comp = np.eye(l_dense.shape[0]) - proj
    pullback = lift @ q_mat @ lift.T + comp @ l_inv @ comp.T
    report.add_residual(
        "volume-pullback-pushdown",
        ctx,
        float(np.abs(tr @ pullback @ tr.T - q_mat).max()),
        1e-9,
    )
    lhs = dense_condition(s_mat, q_mat)
    rhs = dense_condition(l_dense, pullback)
    report.add_residual("average-pushdown-cond-bound", ctx, lhs, rhs * slack)

    # Final estimate: the edge preconditioner's condition number is bounded by
    # that of its scalar plug-in times the volume auxiliary-space condition
    # number.  The plug-in has its own coefficients (Delta + gamma^2), so
    # under the default coefficients it equals ``scalar`` bit for bit.
    plug_in = maxwell.scalar
    s_aux = materialize(plug_in.schur.apply, plug_in.schur.dim)
    q_aux = materialize(plug_in.qnn, plug_in.schur.dim)
    cond_nn = dense_condition(s_aux, q_aux)
    aux_ops = plug_in.schur.transfer
    l_aux = volume_matrix(aux_ops, *assemble_scalar(mesh, plug_in.coeffs))
    se_mat = materialize(maxwell.schur.apply, maxwell.schur.dim)
    qhx_mat = materialize(maxwell.qhx, maxwell.qhx.dim)
    cond_hx = dense_condition(se_mat, qhx_mat)

    gradient, interps = build_aux_maps(mesh)
    grad_vol = gradient.toarray()
    jac_edge_inv = np.diag(1.0 / np.diag(m_dense))
    aux = jac_edge_inv + maxwell.qhx.gradient_weight * (
        grad_vol @ sla.solve(l_aux, grad_vol.T, assume_a="pos")
    )
    for interp in interps:
        pv = interp.toarray()
        aux = aux + pv @ sla.solve(l_aux, pv.T, assume_a="pos")
    cond_aux = dense_condition(m_dense, aux)
    report.add_residual(
        "edge-final-cond-estimate", ctx, cond_hx, cond_nn * cond_aux * slack
    )
