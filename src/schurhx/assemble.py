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

Blocks are assembled per subdomain from tet classes: a class is a tet's lattice
edge offsets plus, for the edge field, its six edge orientations (a box mesh
has six).  Each class's geometry or element matrix comes from one
representative, cached for the ``assemble_*`` call; tets gather it and apply
their own coefficients in the per-tet operation order, so the values are
bitwise per-tet ones.  Subdomains with the same local dof pattern share one
coalesce plan (stable sort order, group starts, CSR indices and indptr), so a
block's data is one ``np.add.reduceat``.

Global operators are assembled as the ascending-subdomain sum of the scattered
per-subdomain blocks.  That makes the algebraic identity

    global = split^T . blockdiag(blocks) . split

hold exactly (bitwise) in floating point, because both sides accumulate the
same per-block values in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .dofspaces import TransferOps
from .errors import AssemblyError, ConfigurationError
from .mesh import LOCAL_EDGES, BoxMesh

__all__ = [
    "Coefficients",
    "SparseSymOp",
    "assemble_scalar",
    "assemble_edge",
]


@dataclass(frozen=True)
class Coefficients:
    """Strictly positive problem coefficients.

    ``alpha`` (diffusion) and ``beta`` (reaction) may be scalars or per-tet
    arrays; ``gamma`` (the zeroth-order Maxwell weight) is a scalar whose
    square must be finite.  Assembly multiplies alpha and beta by tet volumes
    (at most 1/6), so gamma^2 is the only product that can overflow.  The
    Hiptmair-Xu gradient channel is weighted by 1/gamma^2, so that must be
    finite too.
    """

    alpha: float | np.ndarray = 1.0
    beta: float | np.ndarray = 1.0
    gamma: float = 1.0

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma"):
            value = np.asarray(getattr(self, name), dtype=float)
            if value.size == 0 or np.any(value <= 0) or not np.all(np.isfinite(value)):
                raise ConfigurationError(f"coefficient {name} must be strictly positive")
        if np.ndim(self.gamma) != 0:
            raise ConfigurationError("coefficient gamma must be a scalar")
        gamma = float(self.gamma)
        if not np.isfinite(gamma * gamma):
            raise ConfigurationError(f"coefficient gamma={gamma!r}: gamma^2 overflows")
        if gamma * gamma == 0.0 or not np.isfinite(1.0 / (gamma * gamma)):
            raise ConfigurationError(f"coefficient gamma={gamma!r}: 1/gamma^2 overflows")

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


def _lattice(mesh: BoxMesh, tets: np.ndarray) -> np.ndarray:
    """Lattice positions (T, 4, 3) of the tets' vertices; off-lattice raises."""
    p, cells = mesh.vertex_coords[tets], np.asarray(mesh.cells, dtype=float)
    lattice = np.rint(p * cells)
    if not np.array_equal(lattice / cells, p):
        raise AssemblyError("vertex off the box lattice")
    return lattice


def tet_geometry(mesh: BoxMesh, tet_ids: np.ndarray):
    """Volumes and constant barycentric gradients, batched over tets.

    Edge vectors are integer lattice offsets times the cell size h of each
    axis, not differences of vertex coordinates, so tets of equal shape get
    bitwise-equal volumes and gradients wherever they sit, and equal
    subdomain blocks are bitwise equal (which lets ``schur`` share their
    Schur complements).  A vertex's lattice position is its coordinate over
    h, rounded; a vertex off the lattice raises :class:`AssemblyError`.
    """
    cells = np.asarray(mesh.cells, dtype=float)
    lattice = _lattice(mesh, mesh.tets[tet_ids])
    e = (lattice[:, 1:] - lattice[:, :1]) * (1.0 / cells)  # rows p1-p0, p2-p0, p3-p0
    vols = np.linalg.det(e) / 6.0
    if np.any(vols <= 0) or not np.all(np.isfinite(vols)):
        raise AssemblyError("degenerate tetrahedron (non-positive volume)")
    # x - p0 = e^T (l1, l2, l3), hence grad l_i (i>=1) is column i-1 of inv(e),
    # i.e. row i-1 of inv(e)^T, and grad l_0 closes the partition of unity.
    inv_e = np.linalg.inv(e)
    grads = np.empty_like(lattice)
    grads[:, 1:] = inv_e.transpose(0, 2, 1)
    grads[:, 0] = -grads[:, 1:].sum(axis=1)
    return vols, grads


def _mirror_upper(batch: np.ndarray) -> np.ndarray:
    """Copy the upper triangle onto the lower one, forcing bitwise symmetry."""
    return np.triu(batch) + np.triu(batch, 1).transpose(0, 2, 1)


def _p1_geometry(mesh: BoxMesh, tet_ids: np.ndarray):
    """Volumes (T,) and gradient Gram matrices g_i.g_j (T, 4, 4)."""
    vols, grads = tet_geometry(mesh, tet_ids)
    return vols, np.einsum("tik,tjk->tij", grads, grads)


def _p1_matrices(vols, gg, alpha, beta):
    stiff = (alpha * vols)[:, None, None] * gg
    mass = (beta * vols / 20.0)[:, None, None] * (np.ones((4, 4)) + np.eye(4))
    return _mirror_upper(stiff), _mirror_upper(mass)


def scalar_element_matrices(mesh: BoxMesh, tet_ids: np.ndarray, alpha, beta):
    """Per-tet (stiffness, mass) pairs, each (T, 4, 4) and bitwise symmetric."""
    return _p1_matrices(*_p1_geometry(mesh, tet_ids), alpha, beta)


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


def _per_class(mesh: BoxMesh, tet_ids, cache: dict, oriented: bool, compute):
    """Class of each tet and the stacked class data; ``compute(rep_ids)``
    returns a tuple of arrays and runs only for classes not in ``cache``."""
    tets = mesh.tets[tet_ids]
    lattice = _lattice(mesh, tets)
    key = (lattice[:, 1:] - lattice[:, :1]).astype(np.int64).reshape(len(tets), 9)
    if oriented:
        key = np.hstack([key, tets[:, LOCAL_EDGES[:, 0]] > tets[:, LOCAL_EDGES[:, 1]]])
    rows = key.view(np.dtype((np.void, key.itemsize * key.shape[1]))).ravel()
    _, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
    keys = [rows[i].tobytes() for i in first]
    missing = [c for c, k in enumerate(keys) if k not in cache]
    if missing:
        values = zip(*compute(tet_ids[first[missing]]))
        cache.update(zip((keys[c] for c in missing), values))
    return inverse, [np.stack(field) for field in zip(*(cache[k] for k in keys))]


def _coalesce_plan(ldof: np.ndarray, dim: int):
    """COO -> CSR plan of a local dof pattern: order, group starts, indices, indptr."""
    k = ldof.shape[1]
    rows = np.repeat(ldof, k, axis=1).ravel()
    cols = np.tile(ldof, (1, k)).ravel()
    order = np.lexsort((cols, rows))
    r, c = rows[order], cols[order]
    starts = np.flatnonzero(np.r_[True, (r[1:] != r[:-1]) | (c[1:] != c[:-1])])
    indptr = np.searchsorted(r[starts], np.arange(dim + 1)).astype(np.int32)
    return order, starts, c[starts].astype(np.int32), indptr


def _scatter_block(block: sp.csr_matrix, dofs: np.ndarray, dim: int) -> sp.csr_matrix:
    coo = block.tocoo()
    m = sp.csr_matrix((coo.data, (dofs[coo.row], dofs[coo.col])), shape=(dim, dim))
    m.sort_indices()
    return m


def _assemble(
    mesh: BoxMesh,
    transfer: TransferOps,
    scope: str,
    element_matrices,  # callable: tet_ids -> (T, k, k) local matrices
    tet_dofs: np.ndarray,  # (n_tets, k) global dof of each local dof
) -> SparseSymOp:
    if scope not in ("global", "blocks"):
        raise ValueError(f"unknown scope {scope!r}")
    field, offsets = transfer.field, transfer.broken.block_offsets
    sub_dofs = [transfer.volume_split[lo:hi] for lo, hi in zip(offsets[:-1], offsets[1:])]
    blocks = []
    plans = {}  # by local dof pattern; each block copies the shared index arrays
    for j in range(mesh.n_subdomains):
        tet_ids = mesh.tets_of_subdomain(j)
        local = element_matrices(tet_ids)  # (T, k, k)
        ldof = np.searchsorted(sub_dofs[j], tet_dofs[tet_ids])
        n = sub_dofs[j].size
        if (pattern := ldof.tobytes()) not in plans:
            plans[pattern] = _coalesce_plan(ldof, n)
        order, starts, indices, indptr = plans[pattern]
        data = np.add.reduceat(local.ravel()[order], starts)
        blocks.append(sp.csr_matrix((data, indices, indptr), shape=(n, n), copy=True))

    if scope == "blocks":
        dim = sum(block.shape[0] for block in blocks)
        return SparseSymOp(kind=f"{field}-blocks", dim=dim, blocks=blocks)

    # Ascending-subdomain accumulation; see the module docstring for why the
    # order matters.
    dim = transfer.volume.dim
    total = sp.csr_matrix((dim, dim))
    for j, block in enumerate(blocks):
        total = total + _scatter_block(block, sub_dofs[j], dim)
    total.sort_indices()
    return SparseSymOp(kind=f"{field}-global", dim=dim, matrix=total)


def assemble_scalar(
    mesh: BoxMesh, transfer: TransferOps, coeffs: Coefficients, scope: str = "global"
) -> SparseSymOp:
    """Assemble  int alpha grad u.grad v + beta u v  on the P1 dofs of ``transfer``."""
    if transfer.field != "scalar":
        raise ValueError(f"expected a scalar transfer, got {transfer.field}")
    alpha = coeffs.per_tet("alpha", mesh.n_tets)
    beta = coeffs.per_tet("beta", mesh.n_tets)
    classes: dict = {}

    def element(tet_ids):
        cls, (vols, gg) = _per_class(
            mesh, tet_ids, classes, False, lambda reps: _p1_geometry(mesh, reps)
        )
        stiff, mass = _p1_matrices(vols[cls], gg[cls], alpha[tet_ids], beta[tet_ids])
        return stiff + mass

    return _assemble(mesh, transfer, scope, element, mesh.tets)


def assemble_edge(
    mesh: BoxMesh, transfer: TransferOps, coeffs: Coefficients, scope: str = "global"
) -> SparseSymOp:
    """Assemble  int curl u.curl v + gamma^2 u.v  on the edge dofs of ``transfer``."""
    if transfer.field != "edge":
        raise ValueError(f"expected an edge transfer, got {transfer.field}")
    gamma = float(np.asarray(coeffs.gamma))
    g2 = gamma * gamma
    classes: dict = {}

    def element(tet_ids):
        cls, (curl_mat, mass_mat) = _per_class(
            mesh, tet_ids, classes, True, lambda reps: edge_element_matrices(mesh, reps)
        )
        return (curl_mat + g2 * mass_mat)[cls]

    return _assemble(mesh, transfer, scope, element, mesh.tet_edges)
