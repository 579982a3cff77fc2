"""Subdomain Schur complements and the interface operator against dense oracles."""

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

import schurhx.schur as schur_mod
from schurhx.assemble import Coefficients, assemble_edge, assemble_scalar
from schurhx.dofspaces import build_transfer
from schurhx.errors import AssemblyError, SingularOperatorError
from schurhx.mesh import build_box_mesh
from schurhx.oracle import materialize, pseudoinverse_surjective, volume_matrix
from schurhx.precond import setup_scalar
from schurhx.schur import SpdFactor, build_schur_system


def _blocks(mesh, prob):
    """Each subdomain's block of a scalar problem, assembled again."""
    blocks, group_of = assemble_scalar(mesh, prob.coeffs)
    return [blocks[u] for u in group_of]


def _subdomain_schur(prob, j):
    """Subdomain j's dense Schur complement and its local boundary positions."""
    sys = prob.schur
    ops = sys.transfer
    lo, hi = ops.boundary_offsets[j : j + 2]
    boundary = ops.boundary_trace[lo:hi] - ops.broken_offsets[j]
    return sys.groups[sys.group_of[j]][0], boundary


def test_single_cell_subdomain_schur_is_whole_block(mesh222_j8, scalar222_j8):
    # Every vertex of a one-cell subdomain is a boundary vertex, so the
    # elimination is empty and the local DtN map is the block itself.
    s_u, boundary = _subdomain_schur(scalar222_j8, 0)
    block = _blocks(mesh222_j8, scalar222_j8)[0]
    assert boundary.size == block.shape[0]
    assert np.array_equal(s_u, block.toarray())


def test_schur_matches_dense_elimination(mesh444_j8, scalar444_j8, rng):
    s_u, bb = _subdomain_schur(scalar444_j8, 2)
    a = _blocks(mesh444_j8, scalar444_j8)[2].toarray()
    ii = np.setdiff1d(np.arange(a.shape[0]), bb)
    assert ii.size > 0
    dense_schur = a[np.ix_(bb, bb)] - a[np.ix_(bb, ii)] @ sla.solve(
        a[np.ix_(ii, ii)], a[np.ix_(ii, bb)], assume_a="pos"
    )
    p = rng.uniform(-1, 1, bb.size)
    got = s_u @ p
    want = dense_schur @ p
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_schur_inverse_is_resolvent_boundary_block(mesh444_j8, scalar444_j8):
    """T_j^{-1} equals the boundary block of the full Neumann inverse."""
    sys, qnn = scalar444_j8.schur, scalar444_j8.qnn
    j = 5
    _, bb = _subdomain_schur(scalar444_j8, j)
    a_inv = sla.inv(_blocks(mesh444_j8, scalar444_j8)[j].toarray())
    lo = int(sys.transfer.boundary_offsets[j])

    def block_inv(g):
        tup = np.zeros(sys.tuple_dim)
        tup[lo : lo + g.size] = g
        return qnn.apply_dtn_inv(tup)[lo : lo + g.size]

    t_inv = materialize(block_inv, bb.size)
    assert np.abs(t_inv - a_inv[np.ix_(bb, bb)]).max() <= 1e-10


def test_dtn_roundtrip(scalar444_j8, rng):
    sys, qnn = scalar444_j8.schur, scalar444_j8.qnn
    g = rng.uniform(-1, 1, sys.tuple_dim)
    back = sys.apply_dtn(qnn.apply_dtn_inv(g))
    assert np.abs(back - g).max() <= 1e-10 * np.abs(g).max()


def test_dtn_inverse_symmetric(scalar444_j8, rng):
    sys, qnn = scalar444_j8.schur, scalar444_j8.qnn
    g = rng.uniform(-1, 1, sys.tuple_dim)
    h = rng.uniform(-1, 1, sys.tuple_dim)
    left = h @ qnn.apply_dtn_inv(g)
    right = g @ qnn.apply_dtn_inv(h)
    assert abs(left - right) <= 1e-12 * max(abs(left), 1.0)


def test_global_schur_matches_dense_elimination(mesh222_j2, scalar222_j2):
    """Assembled interface operator == Schur complement of the global matrix
    after eliminating the non-skeleton unknowns."""
    prob = scalar222_j2
    transfer = prob.schur.transfer
    full = volume_matrix(transfer, *assemble_scalar(mesh222_j2, prob.coeffs))
    skel_ids = transfer.skeleton_trace
    mask = np.zeros(mesh222_j2.n_vertices, dtype=bool)
    mask[skel_ids] = True
    inner = np.flatnonzero(~mask)
    dense = full[np.ix_(skel_ids, skel_ids)] - full[
        np.ix_(skel_ids, inner)
    ] @ sla.solve(full[np.ix_(inner, inner)], full[np.ix_(inner, skel_ids)])
    s = materialize(prob.schur.apply, prob.schur.dim)
    assert np.abs(s - dense).max() <= 1e-10 * np.abs(dense).max()


def test_single_subdomain_interface_is_dtn(scalar222_j1, rng):
    # J=1: the skeleton split is the identity, so the assembled operator is
    # the one local Schur complement, reproduced bitwise.
    u = rng.uniform(-1, 1, scalar222_j1.schur.dim)
    direct = (scalar222_j1.schur.groups[0][0] @ u[:, None])[:, 0]
    assert np.array_equal(scalar222_j1.schur.apply(u), direct)


def test_interface_operator_spd(scalar444_j8, rng):
    for _ in range(5):
        u = rng.uniform(-1, 1, scalar444_j8.schur.dim)
        assert u @ scalar444_j8.schur.apply(u) > 0


def test_dtn_block_locality(scalar444_j8, rng):
    """Data supported in one subdomain's slot never leaks into another."""
    sys = scalar444_j8.schur
    offsets = sys.transfer.boundary_offsets
    j = 3
    vec = np.zeros(sys.tuple_dim)
    lo, hi = int(offsets[j]), int(offsets[j + 1])
    vec[lo:hi] = rng.uniform(-1, 1, hi - lo)
    for method in (sys.apply_dtn, scalar444_j8.qnn.apply_dtn_inv):
        out = method(vec)
        touched = np.flatnonzero(out != 0.0)
        assert touched.min() >= lo and touched.max() < hi


def test_blockwise_projector_algebra(mesh222_j8, scalar222_j8, selection):
    """P = (trace pseudo-inverse) . trace is an idempotent, self-adjoint
    (in the block energy) projector."""
    trace = selection(scalar222_j8.schur.transfer, "boundary_trace").toarray()
    blocks = sp.block_diag(_blocks(mesh222_j8, scalar222_j8), format="csr").toarray()
    lift = pseudoinverse_surjective(trace, blocks)
    proj = lift @ trace
    assert np.abs(proj @ proj - proj).max() <= 1e-10
    assert np.abs(blocks @ proj - proj.T @ blocks).max() <= 1e-9


def test_tuple_dimension_checked(scalar444_j8):
    sys = scalar444_j8.schur
    for method in (sys.apply_dtn, scalar444_j8.qnn.apply_dtn_inv):
        with pytest.raises(ValueError, match="boundary-tuple"):
            method(np.zeros(sys.tuple_dim + 1))


def test_spd_factor_modes_and_consistency(monkeypatch, rng):
    """``SpdFactor`` is one dense Cholesky, of a sparse matrix or an array;
    ``_inverse_form`` alone picks dense Cholesky or sparse LU by size, and
    both of its modes agree."""
    w = rng.uniform(-1, 1, (40, 40))
    a = sp.csr_matrix(w @ w.T + 40 * np.eye(40))
    b = rng.uniform(-1, 1, 40)
    coupling = sp.random(40, 25, density=0.2, format="csr", random_state=1)

    # An array is factorized on a copy, so the caller keeps its matrix.
    array = a.toarray()
    from_array = SpdFactor(array, "test")
    assert np.array_equal(array, a.toarray())
    assert np.array_equal(from_array.solve(b), SpdFactor(a, "test").solve(b))
    assert np.abs(array @ from_array.solve(b) - b).max() <= 1e-12
    inverse = from_array.inverse()
    assert np.array_equal(inverse, inverse.T)
    assert np.abs(inverse @ array - np.eye(40)).max() <= 1e-12

    # B^T A^{-1} B: both modes agree, and the dense one is bitwise symmetric.
    monkeypatch.setattr(schur_mod, "DENSE_CUTOFF", 0)
    want = schur_mod._inverse_form(a, coupling, "test")
    monkeypatch.undo()
    form = schur_mod._inverse_form(a, coupling, "test")
    assert form.shape == (25, 25) and np.array_equal(form, form.T)
    assert np.abs(form - want).max() <= 1e-12 * np.abs(want).max()
    direct = coupling.T @ np.linalg.solve(a.toarray(), coupling.toarray())
    assert np.abs(form - direct).max() <= 1e-12 * np.abs(direct).max()


def test_spd_factor_rejects_indefinite():
    singular = sp.csr_matrix(np.diag([1.0, 0.0, 2.0]))
    with pytest.raises(SingularOperatorError):
        SpdFactor(singular, "singular block")
    indefinite = sp.csr_matrix(np.diag([1.0, -1.0]))
    with pytest.raises(SingularOperatorError):
        SpdFactor(indefinite, "indefinite block")
    # Off-diagonal indefiniteness, too, fails at the in-place dense factor.
    saddle = sp.csr_matrix(np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 3.0]]))
    with pytest.raises(SingularOperatorError, match="not positive definite"):
        SpdFactor(saddle, "saddle block")


def test_edge_schur_above_old_cutoff_matches_sparse_lu(monkeypatch):
    """At H/h = 6 (12^3 cells on 2^3 subdomains) the edge interior has 1,206
    dofs and goes through the dense A_bb - X^T X path; its S_u matches the
    sparse-LU path to 1e-12 relative, and both are bitwise symmetric."""
    mesh = build_box_mesh((12, 12, 12), (2, 2, 2))
    transfer = build_transfer(mesh, "edge")
    block = assemble_edge(mesh, Coefficients())[0][0]
    lo, hi = transfer.boundary_offsets[:2]
    boundary = transfer.boundary_trace[lo:hi] - transfer.broken_offsets[0]
    n_interior = block.shape[0] - boundary.size
    assert n_interior == 1206 <= schur_mod.DENSE_CUTOFF
    dense = schur_mod._schur_complement(block, n_interior, "edge")
    monkeypatch.setattr(schur_mod, "DENSE_CUTOFF", 0)
    sparse = schur_mod._schur_complement(block, n_interior, "edge")
    assert np.array_equal(dense, dense.T) and np.array_equal(sparse, sparse.T)
    assert np.abs(dense - sparse).max() <= 1e-12 * np.abs(sparse).max()


def test_blocks_must_match_the_transfer(mesh444_j8):
    """``group_of`` names a block for every subdomain, each as large as its
    members' broken slices: a short ``group_of`` would leave tuple rows
    unwritten, and blocks of another field would index past their ends."""
    scalar = build_transfer(mesh444_j8, "scalar")
    edge = build_transfer(mesh444_j8, "edge")
    blocks, group_of = assemble_scalar(mesh444_j8, Coefficients())
    with pytest.raises(AssemblyError, match="^scalar: 7 group_of entries, 8 subdomains$"):
        build_schur_system(blocks, group_of[:-1], scalar)
    with pytest.raises(AssemblyError, match="^edge block 0: shape"):
        build_schur_system(blocks, group_of, edge)


def test_group_of_must_use_every_block(mesh444_j8):
    """A block that no subdomain names, or a name past the last block, is
    refused rather than left without a group."""
    scalar = build_transfer(mesh444_j8, "scalar")
    blocks, group_of = assemble_scalar(mesh444_j8, Coefficients())
    with pytest.raises(AssemblyError, match="each of the 2 blocks"):
        build_schur_system(blocks + [blocks[0]], group_of, scalar)
    with pytest.raises(AssemblyError, match="each of the 1 blocks"):
        build_schur_system(blocks, np.where(np.arange(8) == 3, 1, group_of), scalar)


def test_grouped_apply_needs_one_fitting_matrix_per_group(mesh444_j8, rng):
    """With eight jump groups, a matrix list one short or a matrix of another
    size raises instead of leaving tuple rows unwritten."""
    alpha = (1.0 + np.arange(8.0))[mesh444_j8.tet_subdomain]
    schur = setup_scalar(mesh444_j8, Coefficients(alpha=alpha)).schur
    matrices = [s_u for s_u, _ in schur.groups]
    assert len(matrices) == 8
    x = rng.uniform(-1, 1, schur.tuple_dim)
    with pytest.raises(ValueError, match="one matrix per group"):
        schur.grouped_apply(matrices[:-1], x)
    with pytest.raises(ValueError, match="one matrix per group"):
        schur.grouped_apply(matrices[:3] + [matrices[3][:-1, :-1]] + matrices[4:], x)
    assert np.array_equal(schur.grouped_apply(matrices, x), schur.apply_dtn(x))


def _per_member_apply(schur, matrices, x):
    """Each member's tuple slice x_j gathered, multiplied and scattered one
    member at a time.  A group's products S_u x_j are the columns of one
    GEMM, since BLAS rounds a GEMM column and a lone S_u @ x_j (a GEMV)
    differently."""
    offsets = schur.transfer.boundary_offsets
    out = np.full(x.shape, np.nan)
    for matrix, (_, members) in zip(matrices, schur.groups, strict=True):
        columns = matrix @ np.column_stack([x[offsets[j] : offsets[j + 1]] for j in members])
        for k, j in enumerate(members):
            out[offsets[j] : offsets[j + 1]] = columns[:, k]
    return out


@pytest.mark.parametrize("case", ["uniform", "one_member", "interleaved", "checkerboard"])
def test_grouped_apply_equals_per_member_products(
    case, mesh444_j8, maxwell444_j8, scalar444_j8_one_tet, scalar444_j8_jump, rng
):
    """Every group's members (one group of eight, eight groups of one,
    members 0-4, 6, 7 around subdomain 5, the checkerboard's two groups of
    four) get bitwise the per-member products of the S_u and of the inverse
    DtN maps, and S_u @ x_j to rounding."""
    if case == "uniform":
        prob, sizes = maxwell444_j8.scalar, [8]
    elif case == "one_member":
        alpha = (1.0 + np.arange(8.0))[mesh444_j8.tet_subdomain]
        prob = setup_scalar(mesh444_j8, Coefficients(alpha=alpha))
        sizes = [1] * 8
    elif case == "interleaved":
        prob, sizes = scalar444_j8_one_tet, [7, 1]
    else:
        prob, sizes = scalar444_j8_jump, [4, 4]
    schurs = [s_u for s_u, _ in prob.schur.groups]
    checks = [(prob.schur, schurs), (prob.schur, prob.qnn.inverse_dtn)]
    if case == "uniform":
        edge = maxwell444_j8.schur
        checks.append((edge, [s_u for s_u, _ in edge.groups]))
    for schur, matrices in checks:
        assert [members.size for _, members in schur.groups] == sizes
        x = rng.uniform(-1, 1, schur.tuple_dim)
        got = schur.grouped_apply(matrices, x)
        assert np.array_equal(got, _per_member_apply(schur, matrices, x))
        offsets = schur.transfer.boundary_offsets
        for j, u in enumerate(schur.group_of):
            lo, hi = offsets[j : j + 2]
            want = matrices[u] @ x[lo:hi]
            assert np.abs(got[lo:hi] - want).max() <= 1e-13 * np.abs(want).max()


def test_split_of_non_canonical_block_matches_toarray(mesh444_j8, sliced_schur):
    """A CSR block with unsorted column indices, each value split into two
    duplicate halves, and explicit +0.0 and -0.0 entries: its Schur
    complement is bitwise that of the canonical block and of the sliced
    reference."""
    transfer = build_transfer(mesh444_j8, "scalar")
    canonical = assemble_scalar(mesh444_j8, Coefficients(alpha=1.3))[0][0]
    lo, hi = transfer.boundary_offsets[:2]
    n_interior = canonical.shape[0] - (hi - lo)
    rng = np.random.default_rng(4)
    n = canonical.shape[0]
    rows, cols, data = [], [], []
    for i in range(n):
        lo, hi = canonical.indptr[i : i + 2]
        row_cols = np.r_[np.repeat(canonical.indices[lo:hi], 2), rng.integers(0, n, 2)]
        row_data = np.r_[np.repeat(canonical.data[lo:hi] / 2.0, 2), 0.0, -0.0]
        order = rng.permutation(row_cols.size)
        rows.append(np.full(row_cols.size, i))
        cols.append(row_cols[order])
        data.append(row_data[order])
    indptr = np.r_[0, np.cumsum([r.size for r in rows])]
    block = sp.csr_matrix((np.concatenate(data), np.concatenate(cols), indptr), shape=(n, n))
    assert not block.has_sorted_indices and block.nnz > 2 * canonical.nnz
    dense = block.toarray()
    assert np.array_equal(dense, canonical.toarray())

    s_u = schur_mod._schur_complement(block, n_interior, "scalar")
    assert s_u.tobytes() == schur_mod._schur_complement(canonical, n_interior, "scalar").tobytes()
    assert s_u.tobytes() == sliced_schur(canonical, np.arange(n_interior, n)).tobytes()
