"""Subdomain Schur complements and the interface operator against dense oracles."""

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from conftest import jump_grids
from hypothesis import given, settings

import schurhx.precond as precond_mod
import schurhx.schur as schur_mod
from schurhx.assemble import Coefficients, assemble_edge, assemble_scalar
from schurhx.dofspaces import build_transfer
from schurhx.errors import AssemblyError, ConfigurationError, SingularOperatorError
from schurhx.mesh import build_box_mesh
from schurhx.oracle import materialize, pseudoinverse_surjective, volume_matrix
from schurhx.precond import setup_maxwell, setup_scalar
from schurhx.schur import SpdFactor, build_schur_system


def _blocks(mesh, prob):
    """Each subdomain's block of a scalar problem, assembled again."""
    blocks, group_of = assemble_scalar(mesh, prob.coeffs)
    return [blocks[u] for u in group_of]


def _subdomain_schur(prob, j):
    """Subdomain j's dense Schur complement and its local boundary positions."""
    sys = prob.schur
    ops = sys.transfer
    boundary = np.arange(ops.n_interior, ops.volume_split.shape[1])
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

    def block_inv(g):
        tup = np.zeros(sys.transfer.skeleton_split.shape)
        tup[j] = g
        return qnn.apply_dtn_inv(tup)[j]

    t_inv = materialize(block_inv, bb.size)
    assert np.abs(t_inv - a_inv[np.ix_(bb, bb)]).max() <= 1e-10


def test_dtn_roundtrip(scalar444_j8, rng):
    sys, qnn = scalar444_j8.schur, scalar444_j8.qnn
    g = rng.uniform(-1, 1, sys.transfer.skeleton_split.shape)
    back = sys.apply_dtn(qnn.apply_dtn_inv(g))
    assert np.abs(back - g).max() <= 1e-10 * np.abs(g).max()


def test_dtn_inverse_symmetric(scalar444_j8, rng):
    sys, qnn = scalar444_j8.schur, scalar444_j8.qnn
    g = rng.uniform(-1, 1, sys.transfer.skeleton_split.shape)
    h = rng.uniform(-1, 1, sys.transfer.skeleton_split.shape)
    left = np.vdot(h, qnn.apply_dtn_inv(g))
    right = np.vdot(g, qnn.apply_dtn_inv(h))
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


def test_single_subdomain_interface_is_dtn(mesh222_j1, scalar222_j1, sliced_schur, rng):
    # J=1: the skeleton split is the identity, so the assembled operator is
    # the one local Schur complement, kept as its packed upper Cholesky
    # factor U: bitwise U^T (U u) by two packed triangular products, and
    # the sliced S_u to rounding.
    schur = scalar222_j1.schur
    u = rng.uniform(-1, 1, schur.dim)
    upper = schur.groups[0][0]
    direct = sla.blas.dtpmv(schur.dim, upper, sla.blas.dtpmv(schur.dim, upper, u), trans=1)
    assert np.array_equal(schur.apply(u), direct)
    _, boundary = _subdomain_schur(scalar222_j1, 0)
    want = sliced_schur(_blocks(mesh222_j1, scalar222_j1)[0], boundary) @ u
    assert np.linalg.norm(direct - want) <= 1e-14 * np.linalg.norm(want)


def test_interface_operator_spd(scalar444_j8, rng):
    for _ in range(5):
        u = rng.uniform(-1, 1, scalar444_j8.schur.dim)
        assert u @ scalar444_j8.schur.apply(u) > 0


def test_dtn_block_locality(scalar444_j8, rng):
    """Data supported in one subdomain's row never leaks into another."""
    sys = scalar444_j8.schur
    j = 3
    vec = np.zeros(sys.transfer.skeleton_split.shape)
    vec[j] = rng.uniform(-1, 1, vec.shape[1])
    for method in (sys.apply_dtn, scalar444_j8.qnn.apply_dtn_inv):
        out = method(vec)
        touched = np.flatnonzero(np.any(out != 0.0, axis=1))
        assert touched.min() >= j and touched.max() < j + 1


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
    """A boundary tuple is a (J, n_b) array: a longer row, or a flat vector
    of the right length, is refused."""
    sys = scalar444_j8.schur
    n_sub, n_b = sys.transfer.skeleton_split.shape
    for method in (sys.apply_dtn, scalar444_j8.qnn.apply_dtn_inv):
        for shape in ((n_sub, n_b + 1), (n_sub * n_b,)):
            with pytest.raises(ValueError, match="boundary-tuple"):
                method(np.zeros(shape))


def test_spd_factor_modes_and_consistency(rng, tril_inverse):
    """``SpdFactor`` is one dense Cholesky of an array, whose inverse is
    ``dpotri``'s lower triangle mirrored, C-ordered; ``_inverse_form``'s
    B^T A^{-1} B is bitwise symmetric."""
    w = rng.uniform(-1, 1, (40, 40))
    array = w @ w.T + 40 * np.eye(40)
    b = rng.uniform(-1, 1, 40)
    coupling = sp.random(40, 25, density=0.2, format="csr", random_state=1)

    # An array is factorized on a copy, so the caller keeps its matrix.
    kept = array.copy()
    from_array = SpdFactor(array, "test")
    assert np.array_equal(array, kept)
    assert np.abs(array @ from_array.solve(b) - b).max() <= 1e-12
    inverse = from_array.inverse()
    assert inverse.shape == (40, 40) and inverse.flags.c_contiguous
    assert inverse.tobytes() == tril_inverse(array).tobytes()
    assert np.abs(inverse @ array - np.eye(40)).max() <= 1e-12

    form = schur_mod._inverse_form(array, coupling.toarray(), "test")
    assert form.shape == (25, 25) and np.array_equal(form, form.T)
    direct = coupling.T @ np.linalg.solve(array, coupling.toarray())
    assert np.abs(form - direct).max() <= 1e-12 * np.abs(direct).max()


def test_spd_factor_rejects_indefinite():
    singular = np.diag([1.0, 0.0, 2.0])
    with pytest.raises(SingularOperatorError):
        SpdFactor(singular, "singular block")
    indefinite = np.diag([1.0, -1.0])
    with pytest.raises(SingularOperatorError):
        SpdFactor(indefinite, "indefinite block")
    # Off-diagonal indefiniteness, too, fails at the in-place dense factor.
    saddle = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 3.0]])
    with pytest.raises(SingularOperatorError, match="not positive definite"):
        SpdFactor(saddle, "saddle block")


def _block(mesh, field, j=0):
    """Subdomain j's block, its interior count and its dofs' positions."""
    transfer = build_transfer(mesh, field)
    assemble = assemble_scalar if field == "scalar" else assemble_edge
    blocks, group_of = assemble(mesh, Coefficients())
    block = blocks[group_of[j]]
    n_interior = block.shape[0] - transfer.skeleton_split.shape[1]
    return block, n_interior, mesh.dof_positions(field, transfer.volume_split[j])


@pytest.mark.parametrize(
    "cells, subdomains, leaf",
    [
        ((12, 12, 12), (2, 2, 2), 600),  # maxwell-24's 6^3-cell block, 1,206 interior
        ((5, 5, 5), (1, 1, 1), 600),  # an odd cell count: uneven cuts, 665 interior
        ((12, 6, 6), (1, 1, 1), 600),  # two levels of cuts, 2,508 interior
        ((4, 4, 4), (2, 1, 1), 0),  # both fields, cut down to single dofs
        ((20, 20, 10), (2, 2, 1), 600),  # scalar, 729 interior, four distinct blocks
    ],
    ids=["edge-12^3/2^3", "edge-5^3", "edge-12x6x6", "4x4x4/2x1x1-leaf0", "scalar-20x20x10/2x2x1"],
)
def test_nested_schur_matches_leaf(monkeypatch, packed_cholesky, cells, subdomains, leaf):
    """Nested dissection inside a block gives S_u to 1e-13 relative of the
    leaf elimination of the whole interior, bitwise symmetric.  The cuts move
    with a translate, so cutting at subdomain 0's positions, as
    ``build_schur_system`` does for every block, gives the same bits: under
    per-subdomain alpha on (20, 20, 10)/(2, 2, 1), the four distinct blocks,
    first members 0-3, keep bitwise the factors of their own members' cuts."""
    assert schur_mod.LEAF == 600
    mesh = build_box_mesh(cells, subdomains)
    cases = [("scalar", 1), ("edge", 0), ("edge", 1)] if leaf == 0 else [("edge", 0)]
    if mesh.n_subdomains == 4:
        cases = [("scalar", 3)]
    for field, j in cases:
        block, n_interior, positions = _block(mesh, field, j)
        assert n_interior > leaf
        monkeypatch.setattr(schur_mod, "LEAF", leaf)
        nested = schur_mod._schur_complement(block, n_interior, positions, field)
        translate = _block(mesh, field)[2]
        assert nested.tobytes() == (
            schur_mod._schur_complement(block, n_interior, translate, field).tobytes()
        )
        monkeypatch.setattr(schur_mod, "LEAF", n_interior)
        whole = schur_mod._schur_complement(block, n_interior, positions, field)
        assert np.array_equal(nested, nested.T) and np.array_equal(whole, whole.T)
        assert np.abs(nested - whole).max() <= 1e-13 * np.abs(whole).max()
    if mesh.n_subdomains == 4:
        monkeypatch.undo()
        transfer = build_transfer(mesh, "scalar")
        alpha = np.array([0.5, 2.0, 3.0, 7.0])[mesh.tet_subdomain]
        blocks, group_of = assemble_scalar(mesh, Coefficients(alpha=alpha))
        system = build_schur_system(blocks, group_of, transfer, mesh)
        for block, (upper, members) in zip(blocks, system.groups, strict=True):
            positions = mesh.dof_positions("scalar", transfer.volume_split[members[0]])
            want = schur_mod._schur_complement(block, transfer.n_interior, positions, "scalar")
            assert upper.tobytes() == packed_cholesky(want).tobytes()
        assert [members[0] for _, members in system.groups] == [0, 1, 2, 3]


def test_octants_that_share_an_entry_are_refused():
    """Positions that put two coupled dofs in different octants of a cut
    (here: shuffled) raise instead of dropping their coupling."""
    block, n_interior, positions = _block(build_box_mesh((5, 5, 5)), "edge")
    shuffled = positions[np.random.default_rng(0).permutation(positions.shape[0])]
    with pytest.raises(AssemblyError, match="two octants of a cut share a matrix entry"):
        schur_mod._schur_complement(block, n_interior, shuffled, "edge")


def test_oversized_dense_matrices_are_refused(monkeypatch):
    """A dense S_u, or the separator matrix of a cut, above
    ``DENSE_BYTES_LIMIT`` raises :class:`ConfigurationError` before it is
    allocated, an edge S_u before the scalar auxiliary set-up begins.  On
    5^3 cells in one subdomain the edge S_u is 450 square and its first
    separator matrix larger."""
    mesh = build_box_mesh((5, 5, 5))
    block, n_interior, positions = _block(mesh, "edge")
    assert block.shape[0] - n_interior == 450
    scalar_calls = []
    monkeypatch.setattr(
        precond_mod,
        "assemble_scalar",
        lambda *args: scalar_calls.append(args) or assemble_scalar(*args),
    )
    monkeypatch.setattr(schur_mod, "DENSE_BYTES_LIMIT", 8 * 450**2 - 1)
    with pytest.raises(ConfigurationError, match="^edge subdomain 0: dense 450 x 450 matrix"):
        setup_maxwell(mesh, Coefficients())
    assert scalar_calls == []
    monkeypatch.setattr(schur_mod, "DENSE_BYTES_LIMIT", 8 * 450**2)
    with pytest.raises(ConfigurationError, match=r"^edge subdomain 0 \(interior\): dense"):
        setup_maxwell(mesh, Coefficients())
    monkeypatch.undo()
    setup_maxwell(mesh, Coefficients())


def test_blocks_must_match_the_transfer(mesh444_j8):
    """``group_of`` names a block for every subdomain, each as large as its
    members' broken slices: a short ``group_of`` would leave tuple rows
    unwritten, and blocks of another field would index past their ends."""
    scalar = build_transfer(mesh444_j8, "scalar")
    edge = build_transfer(mesh444_j8, "edge")
    blocks, group_of = assemble_scalar(mesh444_j8, Coefficients())
    with pytest.raises(AssemblyError, match="^scalar: 7 group_of entries, 8 subdomains$"):
        build_schur_system(blocks, group_of[:-1], scalar, mesh444_j8)
    with pytest.raises(AssemblyError, match="^edge block 0: shape"):
        build_schur_system(blocks, group_of, edge, mesh444_j8)


def test_group_of_must_use_every_block(mesh444_j8):
    """A block that no subdomain names, or a name past the last block, is
    refused rather than left without a group."""
    scalar = build_transfer(mesh444_j8, "scalar")
    blocks, group_of = assemble_scalar(mesh444_j8, Coefficients())
    with pytest.raises(AssemblyError, match="each of the 2 blocks"):
        build_schur_system(blocks + [blocks[0]], group_of, scalar, mesh444_j8)
    with pytest.raises(AssemblyError, match="each of the 1 blocks"):
        build_schur_system(blocks, np.where(np.arange(8) == 3, 1, group_of), scalar, mesh444_j8)


@settings(max_examples=15, deadline=None)
@given(grid=jump_grids())
def test_one_member_groups_keep_packed_triangles(grid):
    """A group of one member keeps S_u and S_u^{-1} as n_b(n_b+1)/2 floats,
    any other group as n_b^2; the stored maps invert each other."""
    mesh, alpha_j = grid
    prob = setup_scalar(mesh, Coefficients(alpha=alpha_j[mesh.tet_subdomain]))
    schur, qnn = prob.schur, prob.qnn
    n = schur.transfer.skeleton_split.shape[1]
    for (s_u, members), inverse in zip(schur.groups, qnn.inverse_dtn, strict=True):
        shape = (n * (n + 1) // 2,) if members.size == 1 else (n, n)
        assert s_u.shape == inverse.shape == shape
    g = np.random.default_rng(0).uniform(-1, 1, schur.transfer.skeleton_split.shape)
    back = schur.apply_dtn(qnn.apply_dtn_inv(g))
    assert np.abs(back - g).max() <= 1e-10 * np.abs(g).max()


def _per_member_apply(schur, matrices, x, solve=False):
    """Each member's tuple row x_j gathered, multiplied and scattered one
    member at a time.  A group's products S_u x_j are the columns of one
    GEMM, since BLAS rounds a GEMM column and a lone S_u @ x_j (a GEMV)
    differently; a lone member's packed factor U is applied as U^T (U x_j)
    by two packed triangular products, or (``solve``) by a packed solve."""
    out = np.full(x.shape, np.nan)
    for matrix, (_, members) in zip(matrices, schur.groups, strict=True):
        slices = [x[j] for j in members]
        if matrix.ndim == 1 and solve:
            (x_j,) = slices
            columns = sla.lapack.dpptrs(x_j.size, matrix, x_j[:, None].copy(), lower=0)[0]
        elif matrix.ndim == 1:
            (x_j,) = slices
            u_x = sla.blas.dtpmv(x_j.size, matrix, x_j)
            columns = sla.blas.dtpmv(x_j.size, matrix, u_x, trans=1)[:, None]
        else:
            columns = matrix @ np.column_stack(slices)
        for k, j in enumerate(members):
            out[j] = columns[:, k]
    return out


@pytest.mark.parametrize("case", ["uniform", "one_member", "interleaved", "checkerboard"])
def test_grouped_apply_equals_per_member_products(
    case, mesh444_j8, maxwell444_j8, scalar444_j8_one_tet, scalar444_j8_jump, sliced_schur, rng
):
    """Every group's members (one group of eight, eight groups of one,
    members 0-4, 6, 7 around subdomain 5, the checkerboard's two groups of
    four) get bitwise the per-member products of the stored maps from
    ``apply_dtn`` and ``apply_dtn_inv`` (a lone member's U by two packed
    triangular products and by a packed Cholesky solve), and the dense
    S_u @ x_j or S_u^{-1} x_j (a lone member's from the sliced S_u) to
    rounding."""
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
    # A shared group's stored S_u and inverse are square; a lone member's
    # S_u is the sliced reference.
    blocks, _ = assemble_scalar(mesh444_j8, prob.coeffs)
    schurs = [
        s_u if s_u.ndim == 2 else sliced_schur(block, _subdomain_schur(prob, members[0])[1])
        for block, (s_u, members) in zip(blocks, prob.schur.groups, strict=True)
    ]
    inverses = [
        inverse if inverse.ndim == 2 else np.linalg.inv(s_u)
        for s_u, inverse in zip(schurs, prob.qnn.inverse_dtn)
    ]
    checks = [
        (prob.schur, prob.schur.apply_dtn, [s_u for s_u, _ in prob.schur.groups], False, schurs),
        (prob.schur, prob.qnn.apply_dtn_inv, prob.qnn.inverse_dtn, True, inverses),
    ]
    if case == "uniform":
        edge = maxwell444_j8.schur
        stored = [s_u for s_u, _ in edge.groups]
        checks.append((edge, edge.apply_dtn, stored, False, stored))
    for schur, apply, matrices, solve, dense in checks:
        assert [members.size for _, members in schur.groups] == sizes
        x = rng.uniform(-1, 1, schur.transfer.skeleton_split.shape)
        got = apply(x)
        assert np.array_equal(got, _per_member_apply(schur, matrices, x, solve))
        for j, u in enumerate(schur.group_of):
            want = dense[u] @ x[j]
            assert np.abs(got[j] - want).max() <= 1e-13 * np.abs(want).max()


def test_split_of_non_canonical_block_matches_toarray(mesh444_j8, sliced_schur):
    """A CSR block with unsorted column indices, each value split into two
    duplicate halves, and explicit +0.0 and -0.0 entries: its Schur
    complement is bitwise that of the canonical block and of the sliced
    reference."""
    transfer = build_transfer(mesh444_j8, "scalar")
    canonical = assemble_scalar(mesh444_j8, Coefficients(alpha=1.3))[0][0]
    n_interior = canonical.shape[0] - transfer.skeleton_split.shape[1]
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

    positions = mesh444_j8.dof_positions("scalar", transfer.volume_split[0])
    s_u = schur_mod._schur_complement(block, n_interior, positions, "scalar")
    want = schur_mod._schur_complement(canonical, n_interior, positions, "scalar")
    assert s_u.tobytes() == want.tobytes()
    assert s_u.tobytes() == sliced_schur(canonical, np.arange(n_interior, n)).tobytes()
