"""Element assembly for the nodal reaction-diffusion and edge curl-curl forms.

Everything is closed-form on straight tetrahedra.  With barycentric
coordinates l_0..l_3 and V the tet volume:

    int l_i l_j dV            = V (1 + delta_ij) / 20
    int grad l_i . grad l_j   = V  g_i . g_j          (g_i constant)

so the P1 matrices for  a(u,v) = int alpha grad u.grad v + beta u v  are

    K_ij = alpha V g_i.g_j
    M_ij = beta  V (1 + delta_ij) / 20.

The lowest-order edge basis function of the oriented edge (a, b) is
w_ab = l_a g_b - l_b g_a with curl w_ab = 2 g_a x g_b (constant).  Expanding
int w_ab . w_cd dV with the two integrals above gives

    int w_ab.w_cd = I_ac (g_b.g_d) - I_ad (g_b.g_c)
                  - I_bc (g_a.g_d) + I_bd (g_a.g_c),   I_ij = V(1+delta_ij)/20

and the curl-curl entry is simply V (2 g_a x g_b).(2 g_c x g_d).  Local edges
are oriented by ascending *global* vertex id, matching the mesh-wide edge
orientation, so no sign bookkeeping is needed anywhere downstream.

Global operators are assembled as the ascending-subdomain sum of the scattered
per-subdomain blocks.  That makes the algebraic identity

    global = split^T . blockdiag(blocks) . split

hold exactly (bitwise) in floating point, because both sides accumulate the
same per-block values in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.io
import scipy.sparse as sp

from .dofspaces import Spaces
from .errors import AssemblyError, ConfigurationError
from .mesh import LOCAL_EDGES, BoxMesh

__all__ = [
    "Coefficients",
    "SparseSymOp",
    "assemble_scalar",
    "assemble_edge",
    "jacobi_diagonal",
    "export_matrix_market",
]


@dataclass(frozen=True)
class Coefficients:
    """Strictly positive problem coefficients.

    ``alpha`` (diffusion) and ``beta`` (reaction) may be scalars or per-tet
    arrays; ``gamma`` (the zeroth-order Maxwell weight) is a scalar.
    """

    alpha: float | np.ndarray = 1.0
    beta: float | np.ndarray = 1.0
    gamma: float = 1.0

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma"):
            value = np.asarray(getattr(self, name), dtype=float)
            if value.size == 0 or np.any(value <= 0) or not np.all(np.isfinite(value)):
                raise ConfigurationError(f"coefficient {name} must be strictly positive")

    def per_tet(self, name: str, n_tets: int) -> np.ndarray:
        value = np.asarray(getattr(self, name), dtype=float)
        if value.ndim == 0:
            return np.full(n_tets, float(value))
        if value.shape != (n_tets,):
            raise ConfigurationError(
                f"coefficient {name} has shape {value.shape}, expected ({n_tets},)"
            )
        return value


@dataclass
class SparseSymOp:
    """An assembled symmetric operator: one global matrix, or its subdomain blocks."""

    kind: str  # "scalar-global" | "scalar-blocks" | "edge-global" | "edge-blocks"
    dim: int
    matrix: sp.csr_matrix | None = None
    blocks: list[sp.csr_matrix] | None = None


def tet_geometry(mesh: BoxMesh, tet_ids: np.ndarray | None = None):
    """Volumes and constant barycentric gradients, batched over tets.

    Edge vectors are integer lattice offsets times the cell size h of each
    axis, not differences of vertex coordinates, so tets of equal shape get
    bitwise-equal volumes and gradients wherever they sit, and equal
    subdomain blocks are bitwise equal (which lets ``schur`` share their
    Schur complements).  A vertex's lattice position is its coordinate over
    h, rounded; a vertex off the lattice raises :class:`AssemblyError`.
    """
    tets = mesh.tets if tet_ids is None else mesh.tets[tet_ids]
    cells = np.asarray(mesh.cells, dtype=float)
    p = mesh.vertex_coords[tets]  # (T, 4, 3)
    lattice = np.rint(p * cells)
    if not np.array_equal(lattice / cells, p):
        raise AssemblyError("vertex off the box lattice")
    e = (lattice[:, 1:] - lattice[:, :1]) * (1.0 / cells)  # rows p1-p0, p2-p0, p3-p0
    vols = np.linalg.det(e) / 6.0
    if np.any(vols <= 0) or not np.all(np.isfinite(vols)):
        raise AssemblyError("degenerate tetrahedron (non-positive volume)")
    # x - p0 = e^T (l1, l2, l3), hence grad l_i (i>=1) is column i-1 of inv(e),
    # i.e. row i-1 of inv(e)^T, and grad l_0 closes the partition of unity.
    inv_e = np.linalg.inv(e)
    grads = np.empty_like(p)
    grads[:, 1:] = inv_e.transpose(0, 2, 1)
    grads[:, 0] = -grads[:, 1:].sum(axis=1)
    return vols, grads


def _mirror_upper(batch: np.ndarray) -> np.ndarray:
    """Copy the upper triangle onto the lower one, forcing bitwise symmetry."""
    return np.triu(batch) + np.triu(batch, 1).transpose(0, 2, 1)


def scalar_element_matrices(mesh: BoxMesh, tet_ids: np.ndarray, alpha, beta):
    """Per-tet (stiffness, mass) pairs, each (T, 4, 4) and bitwise symmetric."""
    vols, grads = tet_geometry(mesh, tet_ids)
    gg = np.einsum("tik,tjk->tij", grads, grads)
    stiff = (alpha * vols)[:, None, None] * gg
    mass = (beta * vols / 20.0)[:, None, None] * (np.ones((4, 4)) + np.eye(4))
    return _mirror_upper(stiff), _mirror_upper(mass)


def edge_element_matrices(mesh: BoxMesh, tet_ids: np.ndarray):
    """Per-tet curl-curl and mass matrices in local edge numbering, (T, 6, 6).

    Local edge e of a tet is LOCAL_EDGES[e] reoriented so the global id of the
    tail is smaller than the head's, matching the global edge orientation.
    """
    tets = mesh.tets[tet_ids]
    vols, grads = tet_geometry(mesh, tet_ids)

    li = LOCAL_EDGES[:, 0][None, :]  # (1, 6)
    lj = LOCAL_EDGES[:, 1][None, :]
    swap = tets[:, LOCAL_EDGES[:, 0]] > tets[:, LOCAL_EDGES[:, 1]]
    tail = np.where(swap, lj, li)  # (T, 6) local index of low-id vertex
    head = np.where(swap, li, lj)

    t_idx = np.arange(tets.shape[0])[:, None]
    g_tail = grads[t_idx, tail]  # (T, 6, 3)
    g_head = grads[t_idx, head]

    curls = 2.0 * np.cross(g_tail, g_head)
    curl_mat = vols[:, None, None] * np.einsum("tei,tfi->tef", curls, curls)

    bary = vols[:, None, None] / 20.0 * (np.ones((4, 4)) + np.eye(4))
    gg = np.einsum("tik,tjk->tij", grads, grads)
    t3 = np.arange(tets.shape[0])[:, None, None]
    a_e, a_f = tail[:, :, None], tail[:, None, :]
    b_e, b_f = head[:, :, None], head[:, None, :]
    mass_mat = (
        bary[t3, a_e, a_f] * gg[t3, b_e, b_f]
        - bary[t3, a_e, b_f] * gg[t3, b_e, a_f]
        - bary[t3, b_e, a_f] * gg[t3, a_e, b_f]
        + bary[t3, b_e, b_f] * gg[t3, a_e, a_f]
    )
    return _mirror_upper(curl_mat), _mirror_upper(mass_mat)


def _coalesce_csr(rows, cols, vals, dim) -> sp.csr_matrix:
    """Deterministic COO -> CSR: stable sort, then left-to-right group sums."""
    order = np.lexsort((cols, rows))
    r, c, v = rows[order], cols[order], vals[order]
    if r.size == 0:
        return sp.csr_matrix((dim, dim))
    new_group = np.empty(r.size, dtype=bool)
    new_group[0] = True
    new_group[1:] = (r[1:] != r[:-1]) | (c[1:] != c[:-1])
    starts = np.flatnonzero(new_group)
    summed = np.add.reduceat(v, starts)
    m = sp.csr_matrix((summed, (r[starts], c[starts])), shape=(dim, dim))
    m.sort_indices()
    return m


def _scatter_block(block: sp.csr_matrix, dofs: np.ndarray, dim: int) -> sp.csr_matrix:
    coo = block.tocoo()
    m = sp.csr_matrix((coo.data, (dofs[coo.row], dofs[coo.col])), shape=(dim, dim))
    m.sort_indices()
    return m


def _assemble(
    mesh: BoxMesh,
    spaces: Spaces,
    scope: str,
    field: str,
    element_matrices,  # callable: tet_ids -> (T, k, k) local matrices
    tet_dofs: np.ndarray,  # (n_tets, k) global dof of each local dof
    sub_dofs: list[np.ndarray],
    volume_dim: int,
) -> SparseSymOp:
    if scope not in ("global", "blocks"):
        raise ValueError(f"unknown scope {scope!r}")
    blocks = []
    for j in range(mesh.n_subdomains):
        tet_ids = mesh.tets_of_subdomain(j)
        local = element_matrices(tet_ids)  # (T, k, k)
        k = local.shape[1]
        gdof = tet_dofs[tet_ids]
        ldof = np.searchsorted(sub_dofs[j], gdof)
        rows = np.repeat(ldof, k, axis=1).ravel()
        cols = np.tile(ldof, (1, k)).ravel()
        blocks.append(_coalesce_csr(rows, cols, local.ravel(), sub_dofs[j].size))

    if scope == "blocks":
        dim = sum(block.shape[0] for block in blocks)
        return SparseSymOp(kind=f"{field}-blocks", dim=dim, blocks=blocks)

    # Ascending-subdomain accumulation; see the module docstring for why the
    # order matters.
    total = sp.csr_matrix((volume_dim, volume_dim))
    for j, block in enumerate(blocks):
        total = total + _scatter_block(block, sub_dofs[j], volume_dim)
    total.sort_indices()
    return SparseSymOp(kind=f"{field}-global", dim=volume_dim, matrix=total)


def assemble_scalar(
    mesh: BoxMesh, spaces: Spaces, coeffs: Coefficients, scope: str = "global"
) -> SparseSymOp:
    """Assemble  int alpha grad u.grad v + beta u v  on P1 dofs."""
    alpha = coeffs.per_tet("alpha", mesh.n_tets)
    beta = coeffs.per_tet("beta", mesh.n_tets)

    def element(tet_ids):
        stiff, mass = scalar_element_matrices(
            mesh, tet_ids, alpha[tet_ids], beta[tet_ids]
        )
        return stiff + mass

    return _assemble(
        mesh,
        spaces,
        scope,
        "scalar",
        element,
        mesh.tets,
        spaces.subdomain_vertices,
        mesh.n_vertices,
    )


def assemble_edge(
    mesh: BoxMesh, spaces: Spaces, coeffs: Coefficients, scope: str = "global"
) -> SparseSymOp:
    """Assemble  int curl u.curl v + gamma^2 u.v  on lowest-order edge dofs."""
    gamma = float(np.asarray(coeffs.gamma))
    g2 = gamma * gamma

    def element(tet_ids):
        curl_mat, mass_mat = edge_element_matrices(mesh, tet_ids)
        return curl_mat + g2 * mass_mat

    return _assemble(
        mesh,
        spaces,
        scope,
        "edge",
        element,
        mesh.tet_edges,
        spaces.subdomain_edges,
        mesh.n_edges,
    )


def _global_matrix(op: SparseSymOp) -> sp.csr_matrix:
    if op.matrix is None:
        raise ValueError("need a global-scope operator")
    return op.matrix


def jacobi_diagonal(op: SparseSymOp) -> np.ndarray:
    """Diagonal of an assembled operator (the Jacobi smoother weights)."""
    diag = np.asarray(_global_matrix(op).diagonal())
    if np.any(diag <= 0):
        raise AssemblyError(f"{op.kind}: non-positive diagonal entry")
    return diag


def export_matrix_market(op: SparseSymOp, path) -> None:
    """Dump the operator in Matrix Market coordinate format for cross-checks."""
    scipy.io.mmwrite(str(path), sp.coo_matrix(_global_matrix(op)), symmetry="symmetric")
