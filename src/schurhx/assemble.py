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
has six).  Subdomains of one shape (``BoxMesh.shapes``) share the coalesce
plan (stable sort order, group starts, CSR indices and indptr) built from its
``BoxMesh.numbering``, so a block's rows run in that order, boundary dofs
last, as ``dofspaces.build_transfer`` numbers them.  They also share the
per-tet data, gathered once per shape from class data computed on one
representative tet per class of the shape's first subdomain.  Each block
applies its own per-tet coefficients to it in the per-tet operation order, so
the values are bitwise per-tet ones, and a block's data is one
``np.add.reduceat``.  Subdomains of one shape with bitwise-equal per-tet
coefficients (alpha and beta for the scalar field; gamma is global) share a
block; assembly alone decides this.  Assembly reads only the mesh and the
coefficients; ``build_schur_system``, where blocks meet a transfer, refuses
blocks of another partition or field.
It returns ``(blocks, group_of)``: one CSR block per distinct block, in order
of first appearance, with read-only ``data``, ``indices`` and ``indptr``, and
the read-only int64 ``group_of[j]``, subdomain j's block.  No global matrix
is assembled; the dense oracle sums the blocks itself
(``oracle.volume_matrix``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import AssemblyError, ConfigurationError
from .mesh import LOCAL_EDGES, BoxMesh, _freeze

__all__ = [
    "Coefficients",
    "assemble_scalar",
    "assemble_edge",
]


@dataclass(frozen=True)
class Coefficients:
    """Positive, finite problem coefficients.

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
            bad = value[~(np.isfinite(value) & (value > 0))]
            if bad.size or value.size == 0:
                shown = repr(float(bad.flat[0])) if bad.size else "[]"
                raise ConfigurationError(
                    f"coefficient {name}={shown} must be positive and finite"
                )
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


def tet_geometry(mesh: BoxMesh, tet_ids: np.ndarray):
    """Volumes and constant barycentric gradients, batched over tets.

    Edge vectors are integer lattice offsets times the cell size h of each
    axis, not differences of vertex coordinates, so tets of equal shape get
    bitwise-equal volumes and gradients wherever they sit, and subdomains
    with equal tet classes and coefficients get bitwise-equal blocks.  A
    vertex's lattice position is its coordinate over h, rounded
    (``BoxMesh.vertex_lattice``); a vertex off the lattice raises
    :class:`AssemblyError`.
    """
    cells = np.asarray(mesh.cells, dtype=float)
    lattice = mesh.vertex_lattice[mesh.tets[tet_ids]]
    e = (lattice[:, 1:] - lattice[:, :1]) * (1.0 / cells)  # rows p1-p0, p2-p0, p3-p0
    vols = np.linalg.det(e) / 6.0
    if np.any(vols <= 0) or not np.all(np.isfinite(vols)):
        raise AssemblyError("degenerate tetrahedron (non-positive volume)")
    # x - p0 = e^T (l1, l2, l3), hence grad l_i (i>=1) is column i-1 of inv(e),
    # i.e. row i-1 of inv(e)^T, and grad l_0 closes the partition of unity.
    inv_e = np.linalg.inv(e)
    grads = np.empty(lattice.shape)
    grads[:, 1:] = inv_e.transpose(0, 2, 1)
    grads[:, 0] = -grads[:, 1:].sum(axis=1)
    return vols, grads


#: Row and column indices of the strict lower triangle of a 4x4 or 6x6 matrix.
_LOWER_SLOTS = {k: np.tril_indices(k, -1) for k in (4, 6)}


def _mirror_upper(batch: np.ndarray) -> np.ndarray:
    """Copy the upper triangle onto the lower one, forcing bitwise symmetry.
    Every entry gets +0.0 added, as a sum of the two triangles would, so a
    -0.0 reads +0.0."""
    out = batch + 0.0
    rows, cols = _LOWER_SLOTS[batch.shape[-1]]
    out[:, rows, cols] = out[:, cols, rows]
    return out


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


def _per_tet(mesh: BoxMesh, tet_ids: np.ndarray, oriented: bool, compute) -> tuple:
    """Per-tet arrays of ``tet_ids``: ``compute(rep_ids)`` returns a tuple of
    per-class arrays from one representative tet per class, where a class is a
    tet's lattice edge offsets and, if ``oriented``, its six edge orientations."""
    tets = mesh.tets[tet_ids]
    lattice = mesh.vertex_lattice[tets]
    rows = (lattice[:, 1:] - lattice[:, :1]).reshape(len(tets), 9)
    if oriented:
        rows = np.hstack([rows, tets[:, LOCAL_EDGES[:, 0]] > tets[:, LOCAL_EDGES[:, 1]]])
    rows = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    _, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
    return tuple(data[inverse] for data in compute(tet_ids[first]))


def _coalesce_plan(ldof: np.ndarray, dim: int):
    """COO -> CSR plan of a local dof pattern: order, group starts, and the
    read-only CSR indices and indptr."""
    k = ldof.shape[1]
    rows = np.repeat(ldof, k, axis=1).ravel()
    cols = np.tile(ldof, (1, k)).ravel()
    order = np.lexsort((cols, rows))
    r, c = rows[order], cols[order]
    starts = np.flatnonzero(np.r_[True, (r[1:] != r[:-1]) | (c[1:] != c[:-1])])
    indptr = np.searchsorted(r[starts], np.arange(dim + 1)).astype(np.int32)
    return order, starts, _freeze(c[starts].astype(np.int32)), _freeze(indptr)


def _assemble(
    mesh: BoxMesh,
    scope: str,
    field: str,  # "scalar" or "edge": the numbering, and whether orientations split classes
    compute,  # callable: representative tet ids -> tuple of per-class arrays
    element,  # callable: (*per-tet data, *coefficients) -> (T, k, k)
    coefficients: tuple[np.ndarray, ...],  # per-tet arrays ``element`` reads
) -> tuple[list[sp.csr_matrix], np.ndarray]:
    # "blocks" is the only scope.  The keyword stays because the benchmark's
    # tracer routes assembly spans by it; it goes together with that routing.
    if scope != "blocks":
        raise ValueError(f"unknown scope {scope!r}: only 'blocks' is assembled")
    shape_of, first = mesh.shapes
    numbering = mesh.numbering(field)
    sizes = [positions.size for positions, _, _ in numbering]
    structures = []  # per shape: coalesce plan and per-tet data
    for j, (_, local, _), size in zip(first, numbering, sizes):
        plan = _coalesce_plan(local, size)  # before the per-tet data: a lower peak
        per_tet = _per_tet(mesh, mesh.tets_of_subdomain(j), field == "edge", compute)
        structures.append((plan, per_tet))
    shared = {}  # (shape, per-tet coefficients) -> block number
    blocks = []
    group_of = np.empty(len(shape_of), dtype=np.int64)
    for j, s in enumerate(shape_of):
        (order, starts, indices, indptr), per_tet = structures[s]
        local_coeffs = [c[mesh.tets_of_subdomain(j)] for c in coefficients]
        value = (s, *(c.tobytes() for c in local_coeffs))
        if value not in shared:
            shared[value] = len(blocks)
            local = element(*per_tet, *local_coeffs)
            data = _freeze(np.add.reduceat(local.ravel()[order], starts))
            blocks.append(sp.csr_matrix((data, indices, indptr), shape=(sizes[s],) * 2, copy=False))
        group_of[j] = shared[value]
    return blocks, _freeze(group_of)


def assemble_scalar(
    mesh: BoxMesh, coeffs: Coefficients, scope: str = "blocks"
) -> tuple[list[sp.csr_matrix], np.ndarray]:
    """Distinct subdomain blocks of  int alpha grad u.grad v + beta u v  on the
    P1 dofs, and each subdomain's block number."""
    alpha = coeffs.per_tet("alpha", mesh.n_tets)
    beta = coeffs.per_tet("beta", mesh.n_tets)

    def element(vols, gg, alpha, beta):
        stiff, mass = _p1_matrices(vols, gg, alpha, beta)
        return stiff + mass

    return _assemble(
        mesh, scope, "scalar", lambda reps: _p1_geometry(mesh, reps), element, (alpha, beta)
    )


def assemble_edge(
    mesh: BoxMesh, coeffs: Coefficients, scope: str = "blocks"
) -> tuple[list[sp.csr_matrix], np.ndarray]:
    """Distinct subdomain blocks of  int curl u.curl v + gamma^2 u.v  on the
    edge dofs, and each subdomain's block number."""
    gamma = float(np.asarray(coeffs.gamma))
    g2 = gamma * gamma

    def compute(reps):
        curl_mat, mass_mat = edge_element_matrices(mesh, reps)
        return (curl_mat + g2 * mass_mat,)

    return _assemble(mesh, scope, "edge", compute, lambda matrices: matrices, ())
