"""Subdomain solvers and the interface operator against dense oracles."""

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

import schurhx.schur as schur_mod
from schurhx.assemble import Coefficients, assemble_scalar
from schurhx.errors import SingularOperatorError
from schurhx.oracle import pseudoinverse_surjective
from schurhx.precond import materialize, setup_scalar
from schurhx.schur import SpdFactor, build_schur_system


def test_single_cell_subdomain_schur_is_whole_block(scalar222_j8):
    # Every vertex of a one-cell subdomain is a boundary vertex, so the
    # elimination is empty and the local DtN map is the block itself.
    solver = scalar222_j8.schur.solvers[0]
    assert solver.interior.size == 0
    assert np.array_equal(solver.schur, solver.matrix.toarray())


def test_schur_matches_dense_elimination(scalar444_j8, rng):
    solver = scalar444_j8.schur.solvers[2]
    assert solver.interior.size > 0
    a = solver.matrix.toarray()
    bb, ii = solver.boundary, solver.interior
    dense_schur = a[np.ix_(bb, bb)] - a[np.ix_(bb, ii)] @ sla.solve(
        a[np.ix_(ii, ii)], a[np.ix_(ii, bb)], assume_a="pos"
    )
    p = rng.uniform(-1, 1, solver.n_boundary)
    got = solver.apply_schur(p)
    want = dense_schur @ p
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_schur_inverse_is_resolvent_boundary_block(scalar444_j8):
    """T_j^{-1} equals the boundary block of the full Neumann inverse."""
    sys, qnn = scalar444_j8.schur, scalar444_j8.qnn
    j = 5
    solver = sys.solvers[j]
    a_inv = sla.inv(solver.matrix.toarray())
    bb = solver.boundary
    lo = int(sys._tuple_offsets[j])

    def block_inv(g):
        tup = np.zeros(sys.tuple_dim)
        tup[lo : lo + g.size] = g
        return qnn.apply_dtn_inv(tup)[lo : lo + g.size]

    t_inv = materialize(block_inv, solver.n_boundary)
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


def test_global_schur_matches_dense_elimination(scalar222_j2):
    """Assembled interface operator == Schur complement of the global matrix
    after eliminating the non-skeleton unknowns."""
    prob = scalar222_j2
    full = assemble_scalar(prob.mesh, prob.spaces, prob.coeffs).matrix.toarray()
    skel_ids = prob.skeleton.skeleton_vertices
    mask = np.zeros(prob.mesh.n_vertices, dtype=bool)
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
    direct = scalar222_j1.schur.solvers[0].apply_schur(u)
    assert np.array_equal(scalar222_j1.schur.apply(u), direct)


def test_interface_operator_spd(scalar444_j8, rng):
    for _ in range(5):
        u = rng.uniform(-1, 1, scalar444_j8.schur.dim)
        assert u @ scalar444_j8.schur.apply(u) > 0


def test_dtn_block_locality(scalar444_j8, rng):
    """Data supported in one subdomain's slot never leaks into another."""
    sys = scalar444_j8.schur
    offsets = sys._tuple_offsets
    j = 3
    vec = np.zeros(sys.tuple_dim)
    lo, hi = int(offsets[j]), int(offsets[j + 1])
    vec[lo:hi] = rng.uniform(-1, 1, hi - lo)
    for method in (sys.apply_dtn, scalar444_j8.qnn.apply_dtn_inv):
        out = method(vec)
        touched = np.flatnonzero(out != 0.0)
        assert touched.min() >= lo and touched.max() < hi


def test_harmonic_lift_preserves_trace(scalar444_j8, rng):
    sys = scalar444_j8.schur
    p = rng.uniform(-1, 1, sys.tuple_dim)
    lifted = sys.harmonic_lift(p)
    back = lifted[sys.transfer.boundary_trace]
    assert np.array_equal(back, p)


def test_harmonic_lift_minimizes_energy(scalar444_j8, rng, selection):
    """The lift beats 20 random extensions with the same boundary values,
    including the zero extension."""
    sys = scalar444_j8.schur
    blocks = sp.block_diag(scalar444_j8.blocks.blocks, format="csr")
    p = rng.uniform(-1, 1, sys.tuple_dim)
    lifted = sys.harmonic_lift(p)
    e_lift = lifted @ (blocks @ lifted)

    trace = selection(sys.transfer, "boundary_trace")
    zero_ext = trace.T @ p
    assert e_lift <= zero_ext @ (blocks @ zero_ext) + 1e-12

    interior_mask = np.asarray(trace.sum(axis=0)).ravel() == 0.0
    for _ in range(20):
        other = zero_ext.copy()
        other[interior_mask] = rng.uniform(-1, 1, int(interior_mask.sum()))
        assert e_lift <= other @ (blocks @ other) + 1e-12


def test_small_reaction_lift_of_constant_is_constant(mesh444_j8):
    # With a vanishing reaction term the harmonic extension of constant
    # boundary data approaches that constant in the interior.
    prob = setup_scalar(mesh444_j8, Coefficients(1.0, 1e-6))
    lifted = prob.schur.harmonic_lift(np.ones(prob.schur.tuple_dim))
    assert np.abs(lifted - 1.0).max() <= 1e-3


def test_blockwise_projector_algebra(scalar222_j8, selection):
    """P = (trace pseudo-inverse) . trace is an idempotent, self-adjoint
    (in the block energy) projector."""
    trace = selection(scalar222_j8.transfer, "boundary_trace").toarray()
    blocks = sp.block_diag(scalar222_j8.blocks.blocks, format="csr").toarray()
    lift = pseudoinverse_surjective(trace, blocks)
    proj = lift @ trace
    assert np.abs(proj @ proj - proj).max() <= 1e-10
    assert np.abs(blocks @ proj - proj.T @ blocks).max() <= 1e-9


def test_tuple_dimension_checked(scalar444_j8):
    sys = scalar444_j8.schur
    for method in (sys.apply_dtn, scalar444_j8.qnn.apply_dtn_inv):
        with pytest.raises(ValueError, match="boundary-tuple"):
            method(np.zeros(sys.tuple_dim + 1))
    with pytest.raises(ValueError):
        sys.harmonic_lift(np.zeros(3))


def test_build_requires_block_scope(mesh222_j8, scalar222_j8):
    full = assemble_scalar(
        scalar222_j8.mesh, scalar222_j8.spaces, scalar222_j8.coeffs
    )
    with pytest.raises(ValueError, match="block"):
        build_schur_system(
            full,
            scalar222_j8.transfer,
            scalar222_j8.skeleton.boundary_vertices,
            scalar222_j8.spaces.subdomain_vertices,
        )


def test_spd_factor_modes_and_consistency(monkeypatch, rng):
    w = rng.uniform(-1, 1, (40, 40))
    a = sp.csr_matrix(w @ w.T + 40 * np.eye(40))
    b = rng.uniform(-1, 1, 40)

    dense = SpdFactor(a, "test")
    assert dense.mode == "dense-cholesky"
    monkeypatch.setattr(schur_mod, "DENSE_CUTOFF", 0)
    sparse = SpdFactor(a, "test")
    assert sparse.mode == "sparse-lu"
    assert np.abs(dense.solve(b) - sparse.solve(b)).max() <= 1e-10

    empty = SpdFactor(sp.csr_matrix((0, 0)), "empty")
    assert empty.mode == "empty"
    assert empty.solve(np.zeros(0)).shape == (0,)


def test_spd_factor_rejects_indefinite():
    singular = sp.csr_matrix(np.diag([1.0, 0.0, 2.0]))
    with pytest.raises(SingularOperatorError):
        SpdFactor(singular, "singular block")
    indefinite = sp.csr_matrix(np.diag([1.0, -1.0]))
    with pytest.raises(SingularOperatorError):
        SpdFactor(indefinite, "indefinite block")
