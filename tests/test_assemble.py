"""Assembly: element closed forms vs an independent quadrature oracle, the
block-sum identity of the volume matrix, symmetry, kernels, and coefficient
handling."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from conftest import jump_grids
from hypothesis import given, settings

from schurhx import assemble as assemble_module
from schurhx.assemble import (
    Coefficients,
    assemble_edge,
    assemble_scalar,
    edge_element_matrices,
    scalar_element_matrices,
    tet_geometry,
)
from schurhx.discrete_ops import build_gradient, build_nodal_interp
from schurhx.dofspaces import build_transfer
from schurhx.errors import AssemblyError, ConfigurationError
from schurhx.mesh import LOCAL_EDGES, BoxMesh, build_box_mesh
from schurhx.oracle import volume_matrix
from schurhx.schur import build_schur_system

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


def _transfers(mesh):
    """Both fields' transfer operators, by field name."""
    return {field: build_transfer(mesh, field) for field in ("scalar", "edge")}


@pytest.fixture(scope="module")
def transfers444(mesh444_j8):
    return _transfers(mesh444_j8)


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
    vols, _ = tet_geometry(mesh111, np.arange(6))
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
def test_assembled_operators_bitwise_symmetric(mesh444_j8, field):
    assemble = assemble_scalar if field == "scalar" else assemble_edge
    blocks, _ = assemble(mesh444_j8, Coefficients(1.3, 0.7, 1.9))
    for block in blocks:
        diff = block - block.T
        assert diff.nnz == 0 or np.abs(diff.data).max() == 0.0


@pytest.mark.parametrize("field", ["scalar", "edge"])
@pytest.mark.parametrize("grid", [(2, 1, 1), (2, 2, 2)])
def test_global_equals_split_blockdiag_split(field, grid, selection):
    """The oracle's dense volume matrix is split^T . blockdiag(blocks) . split
    and bitwise symmetric."""
    mesh = build_box_mesh((2, 2, 2), grid)
    transfer = build_transfer(mesh, field)
    assemble = assemble_scalar if field == "scalar" else assemble_edge
    blocks, group_of = assemble(mesh, Coefficients(2.0, 0.5, 3.0))
    dense = volume_matrix(transfer, blocks, group_of)
    assert np.array_equal(dense, dense.T)
    split = selection(transfer, "volume_split")
    blockdiag = sp.block_diag([blocks[u] for u in group_of], format="csr")
    triple = (split.T @ blockdiag @ split).toarray()
    assert np.abs(dense - triple).max() <= 1e-14 * np.abs(triple).max()


def test_constant_energy_is_reaction_volume(mesh444_j8, transfers444):
    # The gradient term annihilates constants, so <L 1, 1> = beta * |box|
    # for any diffusion coefficient, including a tiny reaction limit.
    for beta in (3.25, 1e-8):
        transfer = transfers444["scalar"]
        dense = volume_matrix(
            transfer, *assemble_scalar(mesh444_j8, Coefficients(7.7, beta))
        )
        ones = np.ones(transfer.n_volume)
        assert abs(ones @ (dense @ ones) - beta) <= 1e-12 * max(beta, 1.0)


def test_constant_vector_field_energy(mesh222_j1):
    transfer = build_transfer(mesh222_j1, "edge")
    gamma = 1.5
    dense = volume_matrix(
        transfer, *assemble_edge(mesh222_j1, Coefficients(gamma=gamma))
    )
    # Edge dofs of the constant field e_0; its curl vanishes, so the energy
    # is gamma^2 * integral of |e_0|^2 = gamma^2.
    u = build_nodal_interp(mesh222_j1, 0) @ np.ones(mesh222_j1.n_vertices)
    assert abs(u @ (dense @ u) - gamma * gamma) <= 1e-12


def test_gradient_field_energy_matches_scalar_stiffness(mesh222_j8, rng):
    transfer = build_transfer(mesh222_j8, "edge")
    gamma = 2.5
    edge_dense = volume_matrix(
        transfer, *assemble_edge(mesh222_j8, Coefficients(gamma=gamma))
    )
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
    lhs = gv @ (edge_dense @ gv)
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
    transfers = _transfers(mesh222_j8)
    beta, gamma = 0.3, 0.8

    scal = volume_matrix(
        transfers["scalar"],
        *assemble_scalar(mesh222_j8, Coefficients(1.0, beta)),
    )
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

    edge = volume_matrix(
        transfers["edge"],
        *assemble_edge(mesh222_j8, Coefficients(gamma=gamma)),
    )
    _, em = edge_element_matrices(mesh222_j8, np.arange(mesh222_j8.n_tets))
    mass_e = np.zeros_like(edge)
    for t in range(mesh222_j8.n_tets):
        idx = mesh222_j8.tet_edges[t]
        mass_e[np.ix_(idx, idx)] += em[t]
    lmin_mass_e = sla.eigvalsh(mass_e)[0]
    assert lmin_mass_e > 0
    assert sla.eigvalsh(edge)[0] >= gamma**2 * lmin_mass_e * (1 - 1e-12)


def test_jacobi_diagonal_gamma_scaling(mesh222_j8):
    """Doubling gamma shifts each diagonal entry by 3 gamma^2 * mass diag."""
    transfer = build_transfer(mesh222_j8, "edge")
    gamma = 1.3
    d1, d2 = (
        np.diag(volume_matrix(transfer, *assemble_edge(mesh222_j8, coeffs)))
        for coeffs in (Coefficients(gamma=gamma), Coefficients(gamma=2 * gamma))
    )
    _, em = edge_element_matrices(mesh222_j8, np.arange(mesh222_j8.n_tets))
    mass_diag = np.zeros(mesh222_j8.n_edges)
    for t in range(mesh222_j8.n_tets):
        idx = mesh222_j8.tet_edges[t]
        mass_diag[idx] += np.diag(em[t])
    expected = 3.0 * gamma * gamma * mass_diag
    assert np.abs((d2 - d1) - expected).max() <= 1e-13 * np.abs(expected).max()


def test_blocks_scope_keeps_only_blocks(mesh222_j8):
    # The solve path reads each distinct block once, so assembly returns them
    # as a plain list with each subdomain's block number, and builds no
    # block-diagonal copy.
    transfer = build_transfer(mesh222_j8, "scalar")
    blocks, group_of = assemble_scalar(mesh222_j8, Coefficients())
    assert isinstance(blocks, list) and len(blocks) == 1
    assert all(sp.isspmatrix_csr(block) for block in blocks)
    assert group_of.dtype == np.int64 and group_of.tolist() == [0] * 8
    assert not group_of.flags.writeable
    assert sum(blocks[u].shape[0] for u in group_of) == transfer.volume_split.size


def test_global_scope_rejected(mesh222_j8):
    """Blocks are the only scope; no global matrix is assembled."""
    with pytest.raises(ValueError, match="'global'"):
        assemble_scalar(mesh222_j8, Coefficients(), scope="global")
    with pytest.raises(ValueError, match="'global'"):
        assemble_edge(mesh222_j8, Coefficients(), scope="global")


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(alpha=0.0),
        dict(beta=-1.0),
        dict(gamma=0.0),
        dict(alpha=np.inf),
        dict(beta=np.array([])),
        dict(gamma=np.ones(6)),
        dict(gamma=1e160),
        dict(gamma=1e-160),
        dict(gamma=1e-170),
    ],
)
def test_coefficient_validation(kwargs):
    with pytest.raises(ConfigurationError):
        Coefficients(**kwargs)


@pytest.mark.parametrize(
    "kwargs, shown",
    [
        (dict(alpha=np.nan), "alpha=nan"),
        (dict(beta=-np.inf), "beta=-inf"),
        (dict(gamma=np.inf), "gamma=inf"),
        (dict(alpha=0.0), "alpha=0.0"),
        (dict(beta=np.array([1.0, np.nan, -2.0])), "beta=nan"),
        (dict(alpha=np.array([])), "alpha=[]"),
    ],
)
def test_coefficient_validation_finite(kwargs, shown):
    """NaN and infinities are rejected like non-positive values, and the
    message names the first offending value."""
    with pytest.raises(ConfigurationError, match="finite") as err:
        Coefficients(**kwargs)
    assert str(err.value) == f"coefficient {shown} must be positive and finite"


def test_per_tet_coefficients(mesh222_j8):
    uniform = assemble_scalar(mesh222_j8, Coefficients(2.0, 0.5))
    arrays = assemble_scalar(
        mesh222_j8,
        Coefficients(
            np.full(mesh222_j8.n_tets, 2.0), np.full(mesh222_j8.n_tets, 0.5)
        ),
    )
    assert np.array_equal(uniform[1], arrays[1])
    for a, b in zip(uniform[0], arrays[0], strict=True):
        diff = a - b
        assert diff.nnz == 0 or np.abs(diff.data).max() == 0.0
    with pytest.raises(ConfigurationError, match="shape"):
        Coefficients(np.ones(5)).per_tet("alpha", mesh222_j8.n_tets)


def _assembly_raises(mesh, match):
    with pytest.raises(AssemblyError, match=match):
        tet_geometry(mesh, np.arange(mesh.n_tets))
    with pytest.raises(AssemblyError, match=match):
        assemble_scalar(mesh, Coefficients())
    with pytest.raises(AssemblyError, match=match):
        assemble_edge(mesh, Coefficients())


def test_degenerate_tet_raises(mesh111):
    coords = mesh111.vertex_coords.copy()
    coords[7] = coords[0]  # collapse the far corner onto the origin
    bad = BoxMesh(
        cells=mesh111.cells,
        subdomains=mesh111.subdomains,
        vertex_coords=coords,
        tets=mesh111.tets,
        tet_subdomain=mesh111.tet_subdomain,
    )
    _assembly_raises(bad, "degenerate")


def test_off_lattice_vertex_raises(mesh111):
    coords = mesh111.vertex_coords.copy()
    coords[7] = (0.9, 1.0, 1.0)
    _assembly_raises(replace(mesh111, vertex_coords=coords), "lattice")


def _reference_blocks(mesh, coeffs, field, subdomain_dofs):
    """Per-tet element matrices, a stable lexsort and left-to-right group sums,
    on subdomain dof lists built here (interior dofs, then boundary dofs)
    rather than read from a transfer."""
    if field == "scalar":
        alpha = coeffs.per_tet("alpha", mesh.n_tets)
        beta = coeffs.per_tet("beta", mesh.n_tets)
        tet_dofs = mesh.tets
    else:
        g2 = float(coeffs.gamma) * float(coeffs.gamma)
        tet_dofs = mesh.tet_edges
    sub_dofs = [np.r_[interior, bnd] for interior, bnd in subdomain_dofs(mesh, field)]
    blocks = []
    for j in range(mesh.n_subdomains):
        tet_ids = mesh.tets_of_subdomain(j)
        if field == "scalar":
            stiff, mass = scalar_element_matrices(
                mesh, tet_ids, alpha[tet_ids], beta[tet_ids]
            )
            local = stiff + mass
        else:
            curl, mass = edge_element_matrices(mesh, tet_ids)
            local = curl + g2 * mass
        k = local.shape[1]
        position = np.full(tet_dofs.max() + 1, -1)
        position[sub_dofs[j]] = np.arange(sub_dofs[j].size)
        ldof = position[tet_dofs[tet_ids]]
        rows = np.repeat(ldof, k, axis=1).ravel()
        cols = np.tile(ldof, (1, k)).ravel()
        order = np.lexsort((cols, rows))
        r, c, v = rows[order], cols[order], local.ravel()[order]
        starts = np.flatnonzero(np.r_[True, (r[1:] != r[:-1]) | (c[1:] != c[:-1])])
        n = sub_dofs[j].size
        block = sp.csr_matrix(
            (np.add.reduceat(v, starts), (r[starts], c[starts])), shape=(n, n)
        )
        block.sort_indices()
        blocks.append(block)
    return blocks


@pytest.mark.parametrize("field", ["scalar", "edge"])
def test_blocks_match_per_tet_reference(field, subdomain_dofs):
    """Class-wise element matrices and the shared coalesce plan reproduce a
    straightforward per-tet assembly bit for bit, on an anisotropic mesh with
    per-tet coefficients."""
    mesh = build_box_mesh((3, 6, 5), (1, 2, 5))
    transfer = build_transfer(mesh, field)
    rng = np.random.default_rng(7)
    coeffs = Coefficients(
        rng.uniform(0.1, 10.0, mesh.n_tets), rng.uniform(0.1, 10.0, mesh.n_tets), 1.3
    )
    assemble = assemble_scalar if field == "scalar" else assemble_edge
    blocks, group_of = assemble(mesh, coeffs)
    reference = _reference_blocks(mesh, coeffs, field, subdomain_dofs)
    assert len(group_of) == len(reference) == mesh.n_subdomains
    for block, ref in zip([blocks[u] for u in group_of], reference):
        assert block.shape == ref.shape
        assert np.array_equal(block.data, ref.data)
        assert np.array_equal(block.indices, ref.indices)
        assert np.array_equal(block.indptr, ref.indptr)
        assert block.indices.dtype == ref.indices.dtype
        assert block.indptr.dtype == ref.indptr.dtype


def _assert_blocks_equal(assembled, reference):
    """Assembly's ``(blocks, group_of)`` gives each subdomain the bits of its
    reference block."""
    blocks, group_of = assembled
    for block, ref in zip([blocks[u] for u in group_of], reference, strict=True):
        for name in ("data", "indices", "indptr"):
            got, want = getattr(block, name), getattr(ref, name)
            assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("field", ["scalar", "edge"])
def test_two_shapes_match_per_subdomain_references(mesh422_two_shapes, field, subdomain_dofs):
    """With one cell moved between subdomains, each subdomain's transfer
    slices equal a reference of its interior dofs, then its dofs on the
    boundary faces counted over the whole mesh, and each block equals the
    per-tet reference."""
    mesh = mesh422_two_shapes
    assert mesh.shapes[1].tolist() == [0, 1]
    transfer = build_transfer(mesh, field)
    interior, bnd = zip(*subdomain_dofs(mesh, field))
    skel_dofs = np.unique(np.concatenate(bnd))
    assert np.array_equal(transfer.skeleton_trace, skel_dofs)
    sub_dofs = [np.r_[i, b] for i, b in zip(interior, bnd)]
    offsets = np.cumsum([0] + [d.size for d in sub_dofs])
    assert np.array_equal(transfer.broken_offsets, offsets)
    assert np.array_equal(transfer.volume_split, np.concatenate(sub_dofs))
    assert np.array_equal(
        transfer.boundary_trace,
        np.concatenate([offsets[j] + interior[j].size + np.arange(bnd[j].size) for j in range(2)]),
    )
    assert np.array_equal(
        transfer.skeleton_split, np.concatenate([np.searchsorted(skel_dofs, b) for b in bnd])
    )
    rng = np.random.default_rng(5)
    coeffs = Coefficients(rng.uniform(0.5, 2.0, mesh.n_tets), 0.3, 1.7)
    assemble = assemble_scalar if field == "scalar" else assemble_edge
    _assert_blocks_equal(
        assemble(mesh, coeffs), _reference_blocks(mesh, coeffs, field, subdomain_dofs)
    )


@pytest.mark.parametrize("field", ["scalar", "edge"])
def test_translated_ids_with_other_geometry_share_nothing(field, subdomain_dofs):
    """Subdomains whose tets are translates in vertex ids but not on the
    lattice (the last vertex plane moved out by one cell) get their own
    blocks, bitwise the per-tet reference."""
    mesh = build_box_mesh((4, 1, 1), (2, 1, 1))
    coords = mesh.vertex_coords.copy()
    coords[coords[:, 0] == 1.0, 0] = 1.25
    stretched = replace(mesh, vertex_coords=coords)
    assert mesh.shapes[0].tolist() == [0, 0] and stretched.shapes[0].tolist() == [0, 1]
    assemble = assemble_scalar if field == "scalar" else assemble_edge
    blocks, group_of = assemble(stretched, Coefficients())
    assert len(blocks) == 2 and group_of.tolist() == [0, 1]
    reference = _reference_blocks(stretched, Coefficients(), field, subdomain_dofs)
    _assert_blocks_equal((blocks, group_of), reference)


def test_empty_subdomain_rejected(mesh222_j2):
    """A subdomain without tets is refused by every layer that indexes
    subdomains, with the same typed error."""
    empty = replace(mesh222_j2, tet_subdomain=np.zeros(mesh222_j2.n_tets, dtype=np.int64))
    calls = [
        lambda: build_transfer(empty, "scalar"),
        lambda: build_transfer(empty, "edge"),
        lambda: assemble_scalar(empty, Coefficients()),
        lambda: assemble_edge(empty, Coefficients()),
    ]
    for call in calls:
        with pytest.raises(ConfigurationError, match="^subdomain 1 contains no tets$"):
            call()


@pytest.mark.parametrize("field", ["scalar", "edge"])
def test_element_matrices_once_per_class(field, monkeypatch, mesh422_two_shapes):
    """A box mesh has six tet classes, oriented or not; each is computed once
    per shape and assembly call, and gathered to the tets once per shape,
    however many subdomains or distinct blocks share it."""
    mesh = build_box_mesh((6, 6, 6), (3, 3, 3))
    alpha_j = 1.0 + np.arange(mesh.n_subdomains) / 8.0
    cases = [  # mesh, coefficients, distinct blocks per field
        (mesh, Coefficients(1.3, 0.7, 1.9), {"scalar": 1, "edge": 1}),
        (mesh, Coefficients(alpha_j[mesh.tet_subdomain], 0.7, 1.9), {"scalar": 27, "edge": 1}),
        (mesh422_two_shapes, Coefficients(1.3, 0.7, 1.9), {"scalar": 2, "edge": 2}),
    ]
    # Per call: the number of tets for the element functions, else 1.
    names = ("tet_geometry", "edge_element_matrices", "_per_tet", "_coalesce_plan")
    received = {name: [] for name in names}

    def counting(name):
        original = getattr(assemble_module, name)

        def wrapper(*args):
            received[name].append(len(args[1]) if name in names[:2] else 1)
            return original(*args)

        return wrapper

    for name in received:
        monkeypatch.setattr(assemble_module, name, counting(name))
    assemble = assemble_scalar if field == "scalar" else assemble_edge
    for case_mesh, coeffs, n_blocks in cases:
        for calls in received.values():
            calls.clear()
        n_shapes = case_mesh.shapes[1].size
        blocks, group_of = assemble(case_mesh, coeffs)
        assert len(blocks) == n_blocks[field] and len(group_of) == case_mesh.n_subdomains
        assert len(received["_per_tet"]) == n_shapes
        # Every subdomain of a shape has the same dof pattern.
        assert len(received["_coalesce_plan"]) == n_shapes
        assert 0 < sum(received["tet_geometry"]) <= 6 * n_shapes
        assert sum(received["edge_element_matrices"]) <= 6 * n_shapes
        if field == "edge":
            assert len(received["edge_element_matrices"]) == n_shapes


@pytest.mark.parametrize("field", ["scalar", "edge"])
@settings(max_examples=20, deadline=None)
@given(grid=jump_grids())
def test_equal_subdomains_share_one_block(field, content_partition, subdomain_dofs, grid):
    """Subdomains with equal dof pattern, tet classes and coefficients share
    one read-only block, bitwise the per-tet reference: ``group_of`` is the
    partition of the per-subdomain blocks by content, so per-subdomain alpha
    splits the scalar sharing exactly along its values, and
    ``build_schur_system`` forms one group per block."""
    mesh, alpha_j = grid
    transfer = build_transfer(mesh, field)
    coeffs = Coefficients(alpha=alpha_j[mesh.tet_subdomain], beta=0.3, gamma=1.7)
    assemble = assemble_scalar if field == "scalar" else assemble_edge
    blocks, group_of = assemble(mesh, coeffs)
    _assert_blocks_equal((blocks, group_of), _reference_blocks(mesh, coeffs, field, subdomain_dofs))
    # alpha does not enter the edge form, so all its subdomains share a block.
    assert len(blocks) == (np.unique(alpha_j).size if field == "scalar" else 1)
    per_subdomain = [blocks[u] for u in group_of]
    assert np.array_equal(group_of, content_partition(per_subdomain, transfer))
    system = build_schur_system(blocks, group_of, transfer)
    assert len(system.groups) == len(blocks) and system.group_of is group_of
    assert not group_of.flags.writeable
    for block in blocks:
        for name in ("data", "indices", "indptr"):
            assert not getattr(block, name).flags.writeable


def test_lattice_geometry_matches_coordinates(mesh422_j211):
    """Lattice offsets times h agree with coordinate differences."""
    mesh = mesh422_j211
    vols, grads = tet_geometry(mesh, np.arange(mesh.n_tets))
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
    vols, grads = tet_geometry(mesh, np.arange(mesh.n_tets))
    assert np.array_equal(vols.reshape(-1, 6), np.tile(vols[:6], (mesh.n_tets // 6, 1)))
    assert np.array_equal(
        grads.reshape(-1, 6, 4, 3), np.tile(grads[:6], (mesh.n_tets // 6, 1, 1, 1))
    )


def test_spd_smallest_eigenvalue(mesh222_j2):
    transfers = _transfers(mesh222_j2)
    for field, assemble in (("scalar", assemble_scalar), ("edge", assemble_edge)):
        transfer = transfers[field]
        dense = volume_matrix(transfer, *assemble(mesh222_j2, Coefficients()))
        assert sla.eigvalsh(dense)[0] > 0


def test_transfer_of_other_field_rejected(mesh222_j8):
    """Assembly takes no transfer; blocks of one field meet the other field's
    transfer in ``build_schur_system``, which refuses them by size."""
    transfers = _transfers(mesh222_j8)
    scalar_blocks = assemble_scalar(mesh222_j8, Coefficients())
    edge_blocks = assemble_edge(mesh222_j8, Coefficients())
    with pytest.raises(AssemblyError, match=r"^edge block 0: shape \(8, 8\), members of other"):
        build_schur_system(*scalar_blocks, transfers["edge"])
    with pytest.raises(AssemblyError, match=r"^scalar block 0: shape \(19, 19\), members of other"):
        build_schur_system(*edge_blocks, transfers["scalar"])


@pytest.mark.parametrize("field", ["scalar", "edge"])
@pytest.mark.parametrize(
    "cells, subdomains, foreign",
    [((4, 4, 4), (2, 2, 2), (2, 2, 1)), ((6, 4, 4), (3, 2, 2), (3, 2, 1))],
)
def test_transfer_of_another_mesh_rejected(cells, subdomains, foreign, field):
    """A transfer built for another partition of the grid has another
    subdomain count; ``build_schur_system`` raises instead of forming
    interface operators sized by it."""
    mesh = build_box_mesh(cells, subdomains)
    transfer = _transfers(build_box_mesh(cells, foreign))[field]
    assemble = assemble_scalar if field == "scalar" else assemble_edge
    n_sub, n_foreign = np.prod(subdomains), np.prod(foreign)
    with pytest.raises(
        AssemblyError, match=f"^{field}: {n_sub} group_of entries, {n_foreign} subdomains$"
    ):
        build_schur_system(*assemble(mesh, Coefficients()), transfer)
