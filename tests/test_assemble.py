"""Assembly: element closed forms vs an independent quadrature oracle, the
exact block-sum identity, symmetry, kernels, and coefficient handling."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.io
import scipy.linalg as sla
import scipy.sparse as sp

from schurhx.assemble import (
    Coefficients,
    assemble_edge,
    assemble_scalar,
    edge_element_matrices,
    export_matrix_market,
    jacobi_diagonal,
    scalar_element_matrices,
    tet_geometry,
)
from schurhx.discrete_ops import build_gradient, build_nodal_interp
from schurhx.dofspaces import build_spaces
from schurhx.errors import AssemblyError, ConfigurationError
from schurhx.mesh import LOCAL_EDGES, BoxMesh, build_box_mesh, extract_skeleton

# Degree-2 quadrature on the reference tet, in barycentric coordinates:
# four points (a, b, b, b) and permutations, equal weights.  Exact for all
# quadratic integrands, which covers every entry produced by P1 and
# lowest-order edge elements except the constant curl term (degree 0).
QP_A = 0.5854101966249685
QP_B = 0.1381966011250105
QUAD_BARY = np.array(
    [
        [QP_A, QP_B, QP_B, QP_B],
        [QP_B, QP_A, QP_B, QP_B],
        [QP_B, QP_B, QP_A, QP_B],
        [QP_B, QP_B, QP_B, QP_A],
    ]
)


def _quad_points(mesh, t):
    return QUAD_BARY @ mesh.vertex_coords[mesh.tets[t]]


def _whitney_at(lam, grads, a, b):
    """Value of the edge basis function of (a, b) at barycentric point lam."""
    return lam[a] * grads[b] - lam[b] * grads[a]


def _tet_edge_endpoints(mesh, t):
    """Local (tail, head) pairs reordered to ascending global vertex id."""
    verts = mesh.tets[t]
    out = []
    for a, b in LOCAL_EDGES:
        out.append((a, b) if verts[a] < verts[b] else (b, a))
    return out


@pytest.fixture(scope="module")
def spaces444(mesh444_j8):
    return build_spaces(mesh444_j8, extract_skeleton(mesh444_j8))


def test_p1_mass_matches_quadrature(mesh444_j8):
    t = 17
    vols, _ = tet_geometry(mesh444_j8, np.array([t]))
    _, mass = scalar_element_matrices(
        mesh444_j8, np.array([t]), np.array([0.0]), np.array([1.0])
    )
    oracle = np.zeros((4, 4))
    for lam in QUAD_BARY:
        oracle += 0.25 * vols[0] * np.outer(lam, lam)
    assert np.abs(mass[0] - oracle).max() <= 1e-14


def test_p1_mass_closed_form(mesh111):
    _, mass = scalar_element_matrices(
        mesh111, np.arange(6), np.zeros(6), np.ones(6)
    )
    vols, _ = tet_geometry(mesh111)
    expected = vols[:, None, None] / 20.0 * (np.ones((4, 4)) + np.eye(4))
    assert np.array_equal(mass, expected)


def test_p1_stiffness_matches_quadrature(mesh444_j8):
    t = 41
    vols, grads = tet_geometry(mesh444_j8, np.array([t]))
    stiff, _ = scalar_element_matrices(
        mesh444_j8, np.array([t]), np.array([1.0]), np.array([0.0])
    )
    # Gradients are constant, so one-point evaluation is already exact; the
    # 4-point rule just reuses the same machinery.
    oracle = np.zeros((4, 4))
    for _ in QUAD_BARY:
        oracle += 0.25 * vols[0] * (grads[0] @ grads[0].T)
    assert np.abs(stiff[0] - oracle).max() <= 1e-14


def test_edge_mass_matches_quadrature(mesh444_j8):
    t = 23
    vols, grads = tet_geometry(mesh444_j8, np.array([t]))
    _, mass = edge_element_matrices(mesh444_j8, np.array([t]))
    pairs = _tet_edge_endpoints(mesh444_j8, t)
    oracle = np.zeros((6, 6))
    for lam in QUAD_BARY:
        w = np.stack([_whitney_at(lam, grads[0], a, b) for a, b in pairs])
        oracle += 0.25 * vols[0] * (w @ w.T)
    assert np.abs(mass[0] - oracle).max() <= 1e-14


def test_edge_curl_matches_quadrature(mesh444_j8):
    t = 5
    vols, grads = tet_geometry(mesh444_j8, np.array([t]))
    curl, _ = edge_element_matrices(mesh444_j8, np.array([t]))
    pairs = _tet_edge_endpoints(mesh444_j8, t)
    c = np.stack([2.0 * np.cross(grads[0, a], grads[0, b]) for a, b in pairs])
    oracle = vols[0] * (c @ c.T)
    assert np.abs(curl[0] - oracle).max() <= 1e-14


@pytest.mark.parametrize("field", ["scalar", "edge"])
def test_assembled_operators_bitwise_symmetric(mesh444_j8, spaces444, field):
    assemble = assemble_scalar if field == "scalar" else assemble_edge
    op = assemble(mesh444_j8, spaces444, Coefficients(1.3, 0.7, 1.9))
    diff = op.matrix - op.matrix.T
    assert diff.nnz == 0 or np.abs(diff.data).max() == 0.0


@pytest.mark.parametrize("field", ["scalar", "edge"])
@pytest.mark.parametrize("grid", [(2, 1, 1), (2, 2, 2)])
def test_global_equals_split_blockdiag_split(field, grid, selection):
    """The defining identity of the assembly: exact, not approximate."""
    mesh = build_box_mesh((2, 2, 2), grid)
    skel = extract_skeleton(mesh)
    spaces = build_spaces(mesh, skel)
    assemble = assemble_scalar if field == "scalar" else assemble_edge
    coeffs = Coefficients(2.0, 0.5, 3.0)
    full = assemble(mesh, spaces, coeffs, scope="global")
    blocks = assemble(mesh, spaces, coeffs, scope="blocks")
    from schurhx.dofspaces import build_transfer

    split = selection(build_transfer(mesh, skel, spaces, field), "volume_split")
    triple = (split.T @ sp.block_diag(blocks.blocks, format="csr") @ split).tocsr()
    triple.sort_indices()
    diff = full.matrix - triple
    assert diff.nnz == 0 or np.abs(diff.data).max() == 0.0


def test_constant_energy_is_reaction_volume(mesh444_j8, spaces444):
    # The gradient term annihilates constants, so <L 1, 1> = beta * |box|
    # for any diffusion coefficient, including a tiny reaction limit.
    for beta in (3.25, 1e-8):
        op = assemble_scalar(mesh444_j8, spaces444, Coefficients(7.7, beta))
        ones = np.ones(op.dim)
        assert abs(ones @ (op.matrix @ ones) - beta) <= 1e-12 * max(beta, 1.0)


def test_constant_vector_field_energy(mesh222_j1):
    skel = extract_skeleton(mesh222_j1)
    spaces = build_spaces(mesh222_j1, skel)
    gamma = 1.5
    op = assemble_edge(mesh222_j1, spaces, Coefficients(gamma=gamma))
    # Edge dofs of the constant field e_0; its curl vanishes, so the energy
    # is gamma^2 * integral of |e_0|^2 = gamma^2.
    u = build_nodal_interp(mesh222_j1, 0) @ np.ones(mesh222_j1.n_vertices)
    assert abs(u @ (op.matrix @ u) - gamma * gamma) <= 1e-12


def test_gradient_field_energy_matches_scalar_stiffness(mesh222_j8, rng):
    skel = extract_skeleton(mesh222_j8)
    spaces = build_spaces(mesh222_j8, skel)
    gamma = 2.5
    edge_op = assemble_edge(mesh222_j8, spaces, Coefficients(gamma=gamma))
    grad = build_gradient(mesh222_j8)

    stiff, _ = scalar_element_matrices(
        mesh222_j8,
        np.arange(mesh222_j8.n_tets),
        np.ones(mesh222_j8.n_tets),
        np.zeros(mesh222_j8.n_tets),
    )
    k_dense = np.zeros((mesh222_j8.n_vertices,) * 2)
    for t in range(mesh222_j8.n_tets):
        idx = mesh222_j8.tets[t]
        k_dense[np.ix_(idx, idx)] += stiff[t]

    v = rng.uniform(-1, 1, mesh222_j8.n_vertices)
    gv = grad @ v
    lhs = gv @ (edge_op.matrix @ gv)
    rhs = gamma * gamma * (v @ (k_dense @ v))
    assert abs(lhs - rhs) <= 1e-12 * max(abs(rhs), 1.0)


def test_curl_part_annihilates_gradients(mesh222_j8, rng):
    """curl(grad v) = 0: the curl-curl part alone is machine zero on
    gradient fields, exhibiting the large kernel of the principal term."""
    curl, _ = edge_element_matrices(mesh222_j8, np.arange(mesh222_j8.n_tets))
    n = mesh222_j8.n_edges
    curl_dense = np.zeros((n, n))
    for t in range(mesh222_j8.n_tets):
        idx = mesh222_j8.tet_edges[t]
        curl_dense[np.ix_(idx, idx)] += curl[t]
    gv = build_gradient(mesh222_j8) @ rng.uniform(
        -1, 1, mesh222_j8.n_vertices
    )
    assert abs(gv @ (curl_dense @ gv)) <= 1e-12


def test_coercivity_bounded_below_by_mass(mesh222_j8):
    skel = extract_skeleton(mesh222_j8)
    spaces = build_spaces(mesh222_j8, skel)
    beta, gamma = 0.3, 0.8

    scal = assemble_scalar(mesh222_j8, spaces, Coefficients(1.0, beta)).matrix.toarray()
    _, sm = scalar_element_matrices(
        mesh222_j8,
        np.arange(mesh222_j8.n_tets),
        np.zeros(mesh222_j8.n_tets),
        np.ones(mesh222_j8.n_tets),
    )
    mass_s = np.zeros_like(scal)
    for t in range(mesh222_j8.n_tets):
        idx = mesh222_j8.tets[t]
        mass_s[np.ix_(idx, idx)] += sm[t]
    lmin_mass = sla.eigvalsh(mass_s)[0]
    assert lmin_mass > 0
    assert sla.eigvalsh(scal)[0] >= beta * lmin_mass * (1 - 1e-12)

    edge = assemble_edge(mesh222_j8, spaces, Coefficients(gamma=gamma)).matrix.toarray()
    _, em = edge_element_matrices(mesh222_j8, np.arange(mesh222_j8.n_tets))
    mass_e = np.zeros_like(edge)
    for t in range(mesh222_j8.n_tets):
        idx = mesh222_j8.tet_edges[t]
        mass_e[np.ix_(idx, idx)] += em[t]
    lmin_mass_e = sla.eigvalsh(mass_e)[0]
    assert lmin_mass_e > 0
    assert sla.eigvalsh(edge)[0] >= gamma**2 * lmin_mass_e * (1 - 1e-12)


def test_jacobi_diagonal_matches_matrix(mesh444_j8, spaces444):
    op = assemble_edge(mesh444_j8, spaces444, Coefficients(gamma=1.7))
    diag = jacobi_diagonal(op)
    assert np.array_equal(diag, op.matrix.diagonal())
    assert diag.min() > 0


def test_jacobi_diagonal_gamma_scaling(mesh222_j8):
    """Doubling gamma shifts each diagonal entry by 3 gamma^2 * mass diag."""
    skel = extract_skeleton(mesh222_j8)
    spaces = build_spaces(mesh222_j8, skel)
    gamma = 1.3
    d1 = jacobi_diagonal(assemble_edge(mesh222_j8, spaces, Coefficients(gamma=gamma)))
    d2 = jacobi_diagonal(
        assemble_edge(mesh222_j8, spaces, Coefficients(gamma=2 * gamma))
    )
    _, em = edge_element_matrices(mesh222_j8, np.arange(mesh222_j8.n_tets))
    mass_diag = np.zeros(mesh222_j8.n_edges)
    for t in range(mesh222_j8.n_tets):
        idx = mesh222_j8.tet_edges[t]
        mass_diag[idx] += np.diag(em[t])
    expected = 3.0 * gamma * gamma * mass_diag
    assert np.abs((d2 - d1) - expected).max() <= 1e-13 * np.abs(expected).max()


def test_negative_diagonal_rejected(mesh111):
    skel = extract_skeleton(mesh111)
    spaces = build_spaces(mesh111, skel)
    op = assemble_scalar(mesh111, spaces, Coefficients())
    op.matrix = -op.matrix
    with pytest.raises(AssemblyError):
        jacobi_diagonal(op)


def test_blocks_scope_keeps_only_blocks(mesh222_j8):
    # The solve path reads the subdomain blocks one by one, so the blocks
    # scope builds no block-diagonal copy of them.
    skel = extract_skeleton(mesh222_j8)
    spaces = build_spaces(mesh222_j8, skel)
    op = assemble_scalar(mesh222_j8, spaces, Coefficients(), scope="blocks")
    assert op.matrix is None and len(op.blocks) == 8
    assert op.dim == spaces.scalar_broken.dim


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(alpha=0.0),
        dict(beta=-1.0),
        dict(gamma=0.0),
        dict(alpha=np.inf),
        dict(beta=np.array([])),
    ],
)
def test_coefficient_validation(kwargs):
    with pytest.raises(ConfigurationError):
        Coefficients(**kwargs)


def test_per_tet_coefficients(mesh222_j8):
    skel = extract_skeleton(mesh222_j8)
    spaces = build_spaces(mesh222_j8, skel)
    uniform = assemble_scalar(mesh222_j8, spaces, Coefficients(2.0, 0.5))
    arrays = assemble_scalar(
        mesh222_j8,
        spaces,
        Coefficients(
            np.full(mesh222_j8.n_tets, 2.0), np.full(mesh222_j8.n_tets, 0.5)
        ),
    )
    diff = uniform.matrix - arrays.matrix
    assert diff.nnz == 0 or np.abs(diff.data).max() == 0.0
    with pytest.raises(ConfigurationError, match="shape"):
        Coefficients(np.ones(5)).per_tet("alpha", mesh222_j8.n_tets)


def test_matrix_market_roundtrip(tmp_path, mesh222_j8):
    skel = extract_skeleton(mesh222_j8)
    spaces = build_spaces(mesh222_j8, skel)
    op = assemble_scalar(mesh222_j8, spaces, Coefficients())
    path = tmp_path / "op.mtx"
    export_matrix_market(op, path)
    back = scipy.io.mmread(path).tocsr()
    assert np.abs((back - op.matrix).toarray()).max() <= 1e-15


def test_degenerate_tet_raises(mesh111):
    coords = mesh111.vertex_coords.copy()
    coords[7] = coords[0]  # collapse the far corner onto the origin
    bad = BoxMesh(
        cells=mesh111.cells,
        subdomains=mesh111.subdomains,
        vertex_coords=coords,
        tets=mesh111.tets,
        tet_subdomain=mesh111.tet_subdomain,
        edges=mesh111.edges,
        tet_edges=mesh111.tet_edges,
    )
    with pytest.raises(AssemblyError):
        tet_geometry(bad)


def test_off_lattice_vertex_raises(mesh111):
    coords = mesh111.vertex_coords.copy()
    coords[7] = (0.9, 1.0, 1.0)
    with pytest.raises(AssemblyError, match="lattice"):
        tet_geometry(replace(mesh111, vertex_coords=coords))


def test_lattice_geometry_matches_coordinates(mesh422_j211):
    """Lattice offsets times h agree with coordinate differences."""
    mesh = mesh422_j211
    vols, grads = tet_geometry(mesh)
    p = mesh.vertex_coords[mesh.tets]
    e = p[:, 1:] - p[:, :1]
    ref_vols = np.linalg.det(e) / 6.0
    ref_grads = np.empty_like(p)
    ref_grads[:, 1:] = np.linalg.inv(e).transpose(0, 2, 1)
    ref_grads[:, 0] = -ref_grads[:, 1:].sum(axis=1)
    assert np.abs(vols - ref_vols).max() <= 1e-12 * np.abs(ref_vols).max()
    assert np.abs(grads - ref_grads).max() <= 1e-12 * np.abs(ref_grads).max()


def test_equal_shapes_get_bitwise_equal_geometry():
    # Every cell is cut the same way, so tet v of each cell has one shape;
    # cell sizes 1/3, 1/6 and 1/5 are not binary fractions, so coordinate
    # differences would round differently from cell to cell.
    mesh = build_box_mesh((3, 6, 5))
    vols, grads = tet_geometry(mesh)
    assert np.array_equal(vols.reshape(-1, 6), np.tile(vols[:6], (mesh.n_tets // 6, 1)))
    assert np.array_equal(
        grads.reshape(-1, 6, 4, 3), np.tile(grads[:6], (mesh.n_tets // 6, 1, 1, 1))
    )


@pytest.mark.parametrize("check", [jacobi_diagonal, export_matrix_market])
def test_blocks_scope_rejected_where_a_matrix_is_needed(tmp_path, mesh222_j8, check):
    skel = extract_skeleton(mesh222_j8)
    spaces = build_spaces(mesh222_j8, skel)
    op = assemble_scalar(mesh222_j8, spaces, Coefficients(), scope="blocks")
    args = (op,) if check is jacobi_diagonal else (op, tmp_path / "op.mtx")
    with pytest.raises(ValueError, match="global-scope"):
        check(*args)


def test_spd_smallest_eigenvalue(mesh222_j2):
    skel = extract_skeleton(mesh222_j2)
    spaces = build_spaces(mesh222_j2, skel)
    for op in (
        assemble_scalar(mesh222_j2, spaces, Coefficients()),
        assemble_edge(mesh222_j2, spaces, Coefficients()),
    ):
        assert sla.eigvalsh(op.matrix.toarray())[0] > 0
