"""Subdomain Schur complements and the interface operator against dense oracles."""

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

import schurhx.schur as schur_mod
from schurhx.assemble import Coefficients, assemble_edge, assemble_scalar
from schurhx.dofspaces import build_transfer
from schurhx.errors import AssemblyError, SingularOperatorError
from schurhx.mesh import build_box_mesh, extract_skeleton
from schurhx.oracle import materialize, pseudoinverse_surjective, volume_matrix
from schurhx.schur import SpdFactor, build_schur_system


def _blocks(mesh, prob):
    """The subdomain blocks of a scalar problem, assembled again."""
    return assemble_scalar(mesh, prob.schur.transfer, prob.coeffs)


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
    full = volume_matrix(transfer, assemble_scalar(mesh222_j2, transfer, prob.coeffs))
    skel_ids = extract_skeleton(mesh222_j2).skeleton_vertices
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
    w = rng.uniform(-1, 1, (40, 40))
    a = sp.csr_matrix(w @ w.T + 40 * np.eye(40))
    b = rng.uniform(-1, 1, 40)
    coupling = sp.random(40, 25, density=0.2, format="csr", random_state=1)

    dense = SpdFactor(a, "test")
    assert dense.mode == "dense-cholesky"
    monkeypatch.setattr(schur_mod, "DENSE_CUTOFF", 0)
    sparse = SpdFactor(a, "test")
    assert sparse.mode == "sparse-lu"
    assert np.abs(dense.solve(b) - sparse.solve(b)).max() <= 1e-10

    # An array is already dense: whatever the cutoff, it gets dense Cholesky,
    # on a copy, so the caller keeps its matrix.
    array = a.toarray()
    from_array = SpdFactor(array, "test")
    assert from_array.mode == "dense-cholesky"
    assert np.array_equal(array, a.toarray())
    inverse = from_array.inverse()
    assert np.array_equal(inverse, inverse.T)
    assert np.abs(inverse @ array - np.eye(40)).max() <= 1e-12

    # B^T A^{-1} B: both modes agree, and the dense one is bitwise symmetric.
    form = dense.inverse_form(coupling)
    want = sparse.inverse_form(coupling)
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
    sparse-LU path to 1e-12 relative."""
    mesh = build_box_mesh((12, 12, 12), (2, 2, 2))
    skeleton = extract_skeleton(mesh)
    transfer = build_transfer(mesh, skeleton, "edge")
    block = assemble_edge(mesh, transfer, Coefficients())[0]
    lo, hi = transfer.boundary_offsets[:2]
    boundary = transfer.boundary_trace[lo:hi] - transfer.broken_offsets[0]
    assert block.shape[0] - boundary.size == 1206
    assert 1206 <= schur_mod.DENSE_CUTOFF
    dense = schur_mod._schur_complement(block, boundary, "edge")
    monkeypatch.setattr(schur_mod, "DENSE_CUTOFF", 0)
    sparse = schur_mod._schur_complement(block, boundary, "edge")
    assert np.array_equal(dense, dense.T)
    assert np.abs(dense - sparse).max() <= 1e-12 * np.abs(sparse).max()


@pytest.mark.parametrize("field", ["scalar", "edge"])
def test_equal_content_in_distinct_blocks_forms_distinct_groups(mesh444_j8, field):
    """Grouping reads assembly's sharing, not block content: a bitwise copy of
    the shared block is a group of its own, with a bitwise-equal S_u."""
    transfer = build_transfer(mesh444_j8, extract_skeleton(mesh444_j8), field)
    assemble = assemble_scalar if field == "scalar" else assemble_edge
    blocks = assemble(mesh444_j8, transfer, Coefficients())
    assert all(block is blocks[0] for block in blocks)
    blocks[5] = blocks[0].copy()
    system = build_schur_system(blocks, transfer)
    assert system.group_of.tolist() == [0, 0, 0, 0, 0, 1, 0, 0]
    (s_shared, _), (s_copy, _) = system.groups
    assert np.array_equal(s_shared, s_copy)


def test_blocks_must_match_the_transfer(mesh444_j8):
    """One block per subdomain, each as large as its broken slice: a short
    list would leave tuple rows unwritten, and blocks of another field would
    index past their ends."""
    skeleton = extract_skeleton(mesh444_j8)
    scalar = build_transfer(mesh444_j8, skeleton, "scalar")
    edge = build_transfer(mesh444_j8, skeleton, "edge")
    blocks = assemble_scalar(mesh444_j8, scalar, Coefficients())
    with pytest.raises(AssemblyError, match="8 subdomains, got 7 blocks"):
        build_schur_system(blocks[:-1], scalar)
    with pytest.raises(AssemblyError, match="edge subdomain 0: block of shape"):
        build_schur_system(blocks, edge)
