"""Shared fixtures: small partitioned meshes and the problems built on them.

Everything here is session-scoped; the objects are immutable after setup
(factorizations included), so sharing them across test modules is safe and
keeps the suite fast.
"""

from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from hypothesis import strategies as st

import schurhx.assemble as assemble_mod
import schurhx.oracle as oracle_mod
from schurhx.assemble import Coefficients, assemble_edge, assemble_scalar
from schurhx.dofspaces import build_transfer
from schurhx.errors import ConfigurationError
from schurhx.mesh import LOCAL_EDGES, LOCAL_FACES, build_box_mesh
from schurhx.precond import setup_maxwell, setup_scalar


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def trailing_slots(ops) -> np.ndarray:
    """The broken -> boundary-tuple map as flat broken slots, from the table
    shapes: the last n_b of each subdomain's n slots, row by row."""
    (n_sub, n), n_b = ops.volume_split.shape, ops.skeleton_split.shape[1]
    return np.arange(n_sub * n).reshape(n_sub, n)[:, n - n_b :].ravel()


# Each transfer map, flat, and its source dimension: the volume size, or the
# size of the table or array that maps into the source space.  The broken ->
# boundary-tuple map, "boundary_trace", is stored nowhere; it is built here.
MAPS = {
    "skeleton_trace": (lambda ops: ops.skeleton_trace, lambda ops: ops.n_volume),
    "volume_split": (lambda ops: ops.volume_split.ravel(), lambda ops: ops.n_volume),
    "boundary_trace": (trailing_slots, lambda ops: ops.volume_split.size),
    "skeleton_split": (lambda ops: ops.skeleton_split.ravel(), lambda ops: ops.skeleton_trace.size),
}


@pytest.fixture(scope="session")
def selection():
    """Make the sorted CSR 0/1 matrix of a transfer map: row i holds a
    single 1 in column ``idx[i]``, so ``matrix @ u == u[idx]``."""

    def build(ops, name: str) -> sp.csr_matrix:
        index, source = MAPS[name]
        idx = index(ops)
        shape = (idx.size, source(ops))
        m = sp.csr_matrix((np.ones(idx.size), (np.arange(idx.size), idx)), shape=shape)
        m.sort_indices()
        return m

    return build


@pytest.fixture(scope="session")
def boundary_faces():
    """Make each subdomain's boundary faces by row-unique counting on the whole
    mesh, apart from ``BoxMesh.numbering``: the sorted vertex triples that
    exactly one tet of the subdomain touches, in ascending row order."""

    def build(mesh) -> list[np.ndarray]:
        out = []
        for j in range(mesh.n_subdomains):
            tets_j = mesh.tets[mesh.tet_subdomain == j]
            faces = np.sort(tets_j[:, LOCAL_FACES].reshape(-1, 3), axis=1)
            uniq, counts = np.unique(faces, axis=0, return_counts=True)
            out.append(uniq[counts == 1])
        return out

    return build


@pytest.fixture(scope="session")
def subdomain_dofs(boundary_faces):
    """Make each subdomain's (interior, boundary) dofs of a field, each
    ascending, from a whole-mesh np.unique and ``boundary_faces``, apart from
    ``BoxMesh.numbering``; a face's edges are looked up among ``mesh.edges``
    by their sorted vertex pairs."""

    def build(mesh, field) -> list[tuple[np.ndarray, np.ndarray]]:
        tet_dofs = mesh.tets if field == "scalar" else mesh.tet_edges
        edge_keys = mesh.edges @ [mesh.n_vertices, 1]
        out = []
        for j, faces in enumerate(boundary_faces(mesh)):
            if field == "scalar":
                bnd = np.unique(faces)
            else:
                pairs = faces[:, [[0, 1], [0, 2], [1, 2]]].reshape(-1, 2) @ [mesh.n_vertices, 1]
                ids = np.searchsorted(edge_keys, pairs)
                assert np.array_equal(edge_keys[ids], pairs)
                bnd = np.unique(ids)
            dofs = np.unique(tet_dofs[mesh.tet_subdomain == j])
            out.append((np.setdiff1d(dofs, bnd), bnd))
        return out

    return build


@pytest.fixture(scope="session")
def edge_numbering():
    """Make a mesh's edges and tet edge ids by sorting every tet's vertex
    pairs and taking their np.unique, apart from ``BoxMesh``: the distinct
    pairs ``(a, b)``, ``a < b``, in lexicographic order, and each local edge's
    row among them."""

    def build(mesh) -> tuple[np.ndarray, np.ndarray]:
        pairs = np.sort(mesh.tets[:, LOCAL_EDGES].reshape(-1, 2), axis=1)
        keys = pairs[:, 0].astype(np.int64) * mesh.n_vertices + pairs[:, 1]
        edge_keys, inverse = np.unique(keys, return_inverse=True)
        return np.column_stack(np.divmod(edge_keys, mesh.n_vertices)), inverse.reshape(-1, 6)

    return build


@pytest.fixture(scope="session")
def boundary_dofs():
    """Make each subdomain's boundary dofs read off a transfer, ascending
    global ids: the last n_b columns of its row of ``volume_split``."""

    def build(ops) -> list[np.ndarray]:
        return list(ops.volume_split[:, ops.n_interior :])

    return build


@pytest.fixture(scope="session")
def vertex_degree(boundary_faces):
    """Make the number of subdomain boundaries through each vertex (0 off
    the skeleton), counted from ``boundary_faces``."""

    def build(mesh) -> np.ndarray:
        degree = np.zeros(mesh.n_vertices, dtype=np.int64)
        for faces in boundary_faces(mesh):
            degree[np.unique(faces)] += 1
        return degree

    return build


@st.composite
def box_partitions(draw):
    """A mesh of 1 to 4 cells per axis on a divisor subdomain grid."""
    cells = tuple(draw(st.integers(1, 4)) for _ in range(3))
    subdomains = tuple(
        draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0])) for n in cells
    )
    return build_box_mesh(cells, subdomains)


@st.composite
def jump_grids(draw):
    """A ``box_partitions`` mesh and one alpha per subdomain drawn from {0.5, 2}."""
    mesh = draw(box_partitions())
    n_sub = mesh.n_subdomains
    alpha_j = draw(st.lists(st.sampled_from([0.5, 2.0]), min_size=n_sub, max_size=n_sub))
    return mesh, np.array(alpha_j)


@pytest.fixture(scope="session")
def content_partition():
    """Make the partition of subdomains by block content (CSR data, indices
    and indptr bytes) and local boundary positions, from a per-subdomain
    block list and apart from assembly: labels number the classes in order
    of first appearance, as assembly numbers its blocks in ``group_of``."""

    def build(blocks, transfer) -> np.ndarray:
        labels: dict = {}
        out = []
        boundary = np.arange(transfer.n_interior, transfer.volume_split.shape[1])
        for block in blocks:
            arrays = (block.data, block.indices, block.indptr, boundary)
            out.append(labels.setdefault(tuple(a.tobytes() for a in arrays), len(labels)))
        return np.array(out)

    return build


@pytest.fixture(scope="session")
def sliced_schur():
    """Make a dense Schur complement the way the solver once did, by scipy
    slicing: A_ii, A_ib and A_bb sliced out of the CSR block, then
    S = A_bb - X^T X with X = L^{-1} A_ib from a dense Cholesky of A_ii
    (dense blocks only), averaged with its transpose."""

    def build(block, boundary) -> np.ndarray:
        mask = np.ones(block.shape[0], dtype=bool)
        mask[boundary] = False
        interior = np.flatnonzero(mask)
        reduction = 0.0
        if interior.size:
            a_ii = block[interior][:, interior].tocsr().toarray(order="F")
            factor, _ = sla.cho_factor(a_ii, lower=True, overwrite_a=True, check_finite=False)
            x = block[interior][:, boundary].tocsr().toarray(order="F")
            x, _ = sla.lapack.dtrtrs(factor, x, lower=1, overwrite_b=1)
            reduction = x.T @ x
        schur = block[boundary][:, boundary].toarray() - reduction
        return (schur + schur.T) / 2.0

    return build


@pytest.fixture(scope="session")
def tril_inverse():
    """Make the explicit inverse of an SPD array from its dense Cholesky
    factor, mirrored by summing its two triangles."""

    def build(matrix) -> np.ndarray:
        factor, _ = sla.cho_factor(np.array(matrix, order="F"), lower=True, check_finite=False)
        inv, _ = sla.lapack.dpotri(factor, lower=True)
        return np.tril(inv) + np.tril(inv, -1).T

    return build


@pytest.fixture(scope="session")
def packed_cholesky():
    """Make the upper Cholesky factor U of an SPD array (A = U^T U), packed
    by columns."""

    def build(matrix) -> np.ndarray:
        factor, _ = sla.cho_factor(np.array(matrix, order="F"), lower=False, check_finite=False)
        return sla.lapack.dtrttp(factor, uplo="U")[0]

    return build


@pytest.fixture(scope="session")
def looped_coarse_product():
    """Make S Z subdomain by subdomain, by scipy slicing: each subdomain's
    boundary rows of Z in the coarse columns they touch, times its group's
    S_u, added into S Z in ascending subdomain order.  A shared S_u
    multiplies them by one GEMM; a lone member's packed factor U gives
    U^T (U Z_j) as two right-side TRMMs on a copy of Z_j^T, U unpacked."""

    def build(schur, basis) -> np.ndarray:
        split = schur.transfer.skeleton_split
        n_b = split.shape[1]
        split_basis = basis[split.ravel()]
        out = np.zeros(basis.shape)
        for j, u in enumerate(schur.group_of):
            local = split_basis[j * n_b : (j + 1) * n_b]
            cols = np.unique(local.indices)
            z_j = local[:, cols].toarray()
            s_u = schur.groups[u][0]
            if s_u.ndim == 2:
                product = s_u @ z_j
            else:
                upper = sla.lapack.dtpttr(n_b, s_u, uplo="U")[0]
                z_t = sla.blas.dtrmm(1.0, upper, np.asfortranarray(z_j.T), side=1, trans_a=1)
                product = sla.blas.dtrmm(1.0, upper, z_t, side=1).T
            out[np.ix_(split[j], cols)] += product
        return out

    return build


@pytest.fixture(scope="session")
def full_key_shapes():
    """Make each subdomain's shape number by keying it on all its tet rows,
    apart from ``BoxMesh.translations``: its vertex ids and their lattice
    positions, each less those of its first tet's first vertex.  A mesh
    whose shape numbers are all 0 is translates of subdomain 0."""

    def build(mesh) -> np.ndarray:
        keys: dict = {}
        out = []
        for j in range(mesh.n_subdomains):
            tets_j = mesh.tets[mesh.tet_subdomain == j]
            lattice = mesh.vertex_lattice[tets_j]
            key = ((tets_j - tets_j[0, 0]).tobytes(), (lattice - lattice[0, 0]).tobytes())
            out.append(keys.setdefault(key, len(keys)))
        return np.array(out)

    return build


@pytest.fixture
def assert_refused(monkeypatch):
    """Make a check that a hand-built mesh is refused with a
    ``ConfigurationError`` matching ``message`` by every read that numbers,
    transfers, assembles or sets up its subdomains, each on fresh caches and
    before any block is assembled."""

    def no_assembly(*args):
        raise AssertionError("a block was assembled")

    monkeypatch.setattr(assemble_mod, "_coalesce_plan", no_assembly)
    reads = (  # (field the read is of, or None for both; read)
        (None, lambda m: m.translations),
        (None, lambda m: m.edges),
        ("scalar", lambda m: m.numbering("scalar")),
        ("edge", lambda m: m.numbering("edge")),
        ("scalar", lambda m: m.member_dofs("scalar")),
        ("scalar", lambda m: build_transfer(m, "scalar")),
        ("edge", lambda m: build_transfer(m, "edge")),
        ("scalar", lambda m: assemble_scalar(m, Coefficients())),
        ("edge", lambda m: assemble_edge(m, Coefficients())),
        ("scalar", lambda m: setup_scalar(m, Coefficients())),
        ("edge", lambda m: setup_maxwell(m, Coefficients())),
    )

    def check(mesh, message: str, field: str | None = None) -> None:
        """Check every read, or with ``field`` the reads of that field and
        those of both."""
        for of, read in reads:
            if field is None or of in (None, field):
                with pytest.raises(ConfigurationError, match=message):
                    read(replace(mesh))

    return check


@pytest.fixture
def corrupt_gradient(monkeypatch):
    """Flip the sign of the first entry of every skeleton gradient the
    verifier builds, so its failure path can be exercised."""
    original = oracle_mod.build_aux_maps

    def corrupted(mesh, transfers=None):
        grad, interps = original(mesh, transfers)
        if transfers is not None:
            grad = grad.copy()
            grad.data[0] = -grad.data[0]
        return grad, interps

    monkeypatch.setattr(oracle_mod, "build_aux_maps", corrupted)


@pytest.fixture(scope="session")
def checkerboard():
    """Make per-tet alpha that is ``jump`` on every other subdomain (odd sum
    of subdomain grid coordinates) and 1 elsewhere."""

    def build(mesh, jump: float) -> np.ndarray:
        centroids = mesh.vertex_coords[mesh.tets].mean(axis=1)
        grid = np.floor(centroids * np.array(mesh.subdomains)).astype(int)
        return np.where(grid.sum(axis=1) % 2 == 1, jump, 1.0)

    return build


@pytest.fixture(scope="session")
def mesh111():
    return build_box_mesh((1, 1, 1))


@pytest.fixture(scope="session")
def mesh222_j1():
    return build_box_mesh((2, 2, 2), (1, 1, 1))


@pytest.fixture(scope="session")
def mesh222_j2():
    return build_box_mesh((2, 2, 2), (2, 1, 1))


@pytest.fixture(scope="session")
def mesh222_j8():
    return build_box_mesh((2, 2, 2), (2, 2, 2))


@pytest.fixture(scope="session")
def mesh422_j211():
    # Deliberately anisotropic cell counts: catches x/y/z index mix-ups that
    # cubic grids cannot see.
    return build_box_mesh((4, 2, 2), (2, 1, 1))


@pytest.fixture(scope="session")
def mesh422_two_shapes(mesh422_j211):
    """``mesh422_j211`` with the six tets of cell 2, the first cell of
    subdomain 1, moved to subdomain 0: its two subdomains are no longer
    translates of each other, so its set-up is refused."""
    tet_subdomain = mesh422_j211.tet_subdomain.copy()
    assert np.all(tet_subdomain[12:18] == 1)
    tet_subdomain[12:18] = 0
    return replace(mesh422_j211, tet_subdomain=tet_subdomain)


@pytest.fixture(scope="session")
def mesh444_j8():
    # Small enough for dense oracles, big enough that every subdomain has
    # interior vertices and edges (so Schur elimination is non-trivial).
    return build_box_mesh((4, 4, 4), (2, 2, 2))


@pytest.fixture(scope="session")
def transfers222_j1(mesh222_j1):
    return build_transfer(mesh222_j1, "scalar"), build_transfer(mesh222_j1, "edge")


@pytest.fixture(scope="session")
def transfers222_j8(mesh222_j8):
    return build_transfer(mesh222_j8, "scalar"), build_transfer(mesh222_j8, "edge")


@pytest.fixture(scope="session")
def scalar222_j1(mesh222_j1):
    return setup_scalar(mesh222_j1, Coefficients())


@pytest.fixture(scope="session")
def scalar222_j2(mesh222_j2):
    return setup_scalar(mesh222_j2, Coefficients())


@pytest.fixture(scope="session")
def scalar222_j8(mesh222_j8):
    return setup_scalar(mesh222_j8, Coefficients())


@pytest.fixture(scope="session")
def maxwell222_j2(mesh222_j2):
    return setup_maxwell(mesh222_j2, Coefficients())


@pytest.fixture(scope="session")
def maxwell222_j8(mesh222_j8):
    return setup_maxwell(mesh222_j8, Coefficients())


@pytest.fixture(scope="session")
def scalar444_j8(mesh444_j8):
    return setup_scalar(mesh444_j8, Coefficients())


@pytest.fixture(scope="session")
def mesh666_j27():
    return build_box_mesh((6, 6, 6), (3, 3, 3))


@pytest.fixture(scope="session")
def scalar444_j8_jump(mesh444_j8, checkerboard):
    return setup_scalar(mesh444_j8, Coefficients(alpha=checkerboard(mesh444_j8, 1e4)))


@pytest.fixture(scope="session")
def scalar444_j8_one_tet(mesh444_j8):
    """The scalar problem with alpha = 1.5 on one tet of subdomain 5, whose
    groups [0, 0, 0, 0, 0, 1, 0, 0] interleave."""
    alpha = np.ones(mesh444_j8.n_tets)
    alpha[mesh444_j8.tets_of_subdomain(5)[3]] = 1.5
    return setup_scalar(mesh444_j8, Coefficients(alpha=alpha))


@pytest.fixture(scope="session")
def maxwell444_j8(mesh444_j8):
    return setup_maxwell(mesh444_j8, Coefficients())
