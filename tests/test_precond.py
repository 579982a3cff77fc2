"""Neumann-Neumann and the edge preconditioner built on top of it."""

import copy
import types

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from conftest import jump_grids
from hypothesis import given, settings
from hypothesis import strategies as st

import schurhx.precond as precond_mod
import schurhx.schur as schur_mod
from schurhx.assemble import Coefficients, assemble_edge, assemble_scalar
from schurhx.discrete_ops import build_aux_maps
from schurhx.errors import (
    AssemblyError,
    ConfigurationError,
    PcgBreakdownError,
    SingularOperatorError,
)
from schurhx.krylov import pcg
from schurhx.dofspaces import build_transfer
from schurhx.mesh import build_box_mesh
from schurhx.oracle import (
    dense_condition,
    materialize,
    pseudoinverse_injective,
    volume_matrix,
)
from schurhx.precond import (
    HiptmairXu,
    NeumannNeumann,
    estimate_condition,
    setup_maxwell,
    setup_scalar,
)
from schurhx.schur import SchurSystem, SpdFactor, build_schur_system

TOL = 1e-9


def test_nn_symmetric(scalar444_j8, rng):
    q = scalar444_j8.qnn
    for _ in range(20):
        f = rng.uniform(-1, 1, q.dim)
        g = rng.uniform(-1, 1, q.dim)
        left, right = g @ q(f), f @ q(g)
        assert abs(left - right) <= 1e-12 * max(abs(left), 1.0)


def test_nn_exact_for_single_subdomain(scalar222_j1, rng):
    q, s = scalar222_j1.qnn, scalar222_j1.schur
    u = rng.uniform(-1, 1, q.dim)
    assert np.abs(q(s.apply(u)) - u).max() <= 1e-10
    report = pcg(s.apply, q, s.apply(u), tol=1e-9)
    assert report.history.converged and report.history.iterations <= 2


def test_nn_balances_residual_on_coarse_space(scalar444_j8, scalar444_j8_jump, rng):
    """Z^T (f - S Q f) = 0: the residual left by Q has no component on the
    subdomain coarse space, with counting weights and with rho weights
    across a 1e4 jump."""
    for prob in (scalar444_j8, scalar444_j8_jump):
        q, s = prob.qnn, prob.schur
        z = q.coarse_basis
        assert z.shape == (q.dim, 8)
        assert np.abs(z.sum(axis=1) - 1.0).max() <= 1e-14
        for _ in range(5):
            f = rng.uniform(-1, 1, q.dim)
            residual = z.T @ (f - s.apply(q(f)))
            assert np.abs(residual).max() <= 1e-10 * np.abs(z.T @ f).max()
    assert np.unique(scalar444_j8_jump.qnn.rho).tolist() == [1e-4, 1.0]


def test_nn_singular_coarse_problem_raises(scalar222_j8, monkeypatch):
    # Every Schur complement is zero, so S Z = 0 and S0 = Z^T S Z = 0; the
    # inverse DtN maps are stubbed so set-up reaches the coarse problem.
    schur = scalar222_j8.schur
    zeros = [np.zeros_like(s_u) for s_u, _ in schur.groups]
    zero = SchurSystem(schur.transfer, zeros, schur.group_of)

    class StubbedInverse(SpdFactor):
        """The 'inverse' of an S_u is S_u itself, unfactorized; any other
        matrix is factorized as usual."""

        def __init__(self, matrix, label):
            self._stub = matrix
            if not label.endswith("(Schur)"):
                super().__init__(matrix, label)

        def inverse(self):
            return self._stub

    monkeypatch.setattr(precond_mod, "SpdFactor", StubbedInverse)
    with pytest.raises(SingularOperatorError, match="coarse"):
        NeumannNeumann(zero, scalar222_j8.qnn.rho)


def test_nn_rejects_indefinite_schur_complement(mesh222_j8):
    prob = setup_scalar(mesh222_j8, Coefficients())
    s_u = prob.schur.groups[0][0]
    s_u *= -1.0
    with pytest.raises(SingularOperatorError, match="not positive definite"):
        NeumannNeumann(prob.schur, prob.qnn.rho)


def _shifted_boundary_block(blocks, group_of, transfer, j):
    """``blocks`` with subdomain j's block less c on its boundary diagonal, c
    above the block's largest absolute row sum: A_ii is untouched, and
    S_u - c I is negative definite."""
    block = blocks[group_of[j]]
    n_b = transfer.boundary_offsets[j + 1] - transfer.boundary_offsets[j]
    c = 2.0 * abs(block).sum(axis=1).max()
    shift = np.r_[np.zeros(block.shape[0] - n_b), np.full(n_b, c)]
    return [b - sp.diags(shift) if u == group_of[j] else b for u, b in enumerate(blocks)]


def test_nn_rejects_indefinite_lone_schur_complement(mesh444_j8):
    """A lone member's S_u is factorized once, as soon as
    ``build_schur_system`` forms it, so the scalar set-up behind
    Neumann-Neumann refuses a non-SPD one with the labelled typed error."""
    alpha = (1.0 + np.arange(8.0))[mesh444_j8.tet_subdomain]
    blocks, group_of = assemble_scalar(mesh444_j8, Coefficients(alpha=alpha))
    assert group_of.tolist() == list(range(8))
    transfer = build_transfer(mesh444_j8, "scalar")
    blocks = _shifted_boundary_block(blocks, group_of, transfer, 3)
    match = r"^scalar subdomain 3 \(Schur\): not positive definite$"
    with pytest.raises(SingularOperatorError, match=match):
        build_schur_system(blocks, group_of, transfer, mesh444_j8)


@pytest.mark.parametrize("mesh_name", ["mesh222_j1", "mesh111"])
def test_edge_lone_member_rejects_indefinite_schur_complement(mesh_name, request):
    """An edge lone member (one subdomain, with an interior or without) is
    factorized in ``build_schur_system`` too, under the same typed error."""
    mesh = request.getfixturevalue(mesh_name)
    blocks, group_of = assemble_edge(mesh, Coefficients())
    assert len(blocks) == mesh.n_subdomains
    transfer = build_transfer(mesh, "edge")
    j = mesh.n_subdomains - 1
    blocks = _shifted_boundary_block(blocks, group_of, transfer, j)
    match = rf"^edge subdomain {j} \(Schur\): not positive definite$"
    with pytest.raises(SingularOperatorError, match=match):
        build_schur_system(blocks, group_of, transfer, mesh)


def test_nn_rejects_edge_system(maxwell222_j8):
    with pytest.raises(ValueError, match="scalar"):
        NeumannNeumann(maxwell222_j8.schur, np.ones(maxwell222_j8.schur.tuple_dim))


def test_nn_validates_rho(scalar222_j8):
    schur = scalar222_j8.schur
    with pytest.raises(ValueError, match="length"):
        NeumannNeumann(schur, np.ones(schur.tuple_dim + 1))
    for bad in (0.0, -1.0, np.nan, np.inf):
        rho = np.ones(schur.tuple_dim)
        rho[3] = bad
        with pytest.raises(ConfigurationError, match="positive and finite"):
            NeumannNeumann(schur, rho)


def test_nn_constant_rho_is_counting_average(mesh222_j8, scalar222_j8, vertex_degree):
    """Only ratios of rho count: any constant rho gives bitwise the counting
    weights, with ``degree`` the number of copies of each skeleton vertex."""
    prob = scalar222_j8
    counting = np.bincount(prob.qnn.split, minlength=prob.qnn.dim).astype(float)
    assert np.array_equal(prob.qnn.degree, counting)
    degree = vertex_degree(mesh222_j8)
    assert np.array_equal(counting, degree[degree > 0])
    scaled = NeumannNeumann(prob.schur, np.full(prob.schur.tuple_dim, 2.7))
    assert np.array_equal(scaled.rho, prob.qnn.rho)
    assert np.array_equal(scaled.degree, counting)
    assert (scaled.coarse_basis != prob.qnn.coarse_basis).nnz == 0


def test_coarse_basis_from_index_arrays(scalar444_j8, scalar444_j8_jump, selection):
    """Z holds one entry rho_c / degree per copy c, at (its skeleton vertex,
    its subdomain), each row's columns ascending; ``Z[split]`` is bitwise the
    product of the 0/1 split matrix with Z."""
    for prob in (scalar444_j8, scalar444_j8_jump):
        q = prob.qnn
        z = q.coarse_basis
        assert z.has_canonical_format and z.has_sorted_indices
        assert z.nnz == q.split.size
        offsets = prob.schur.transfer.boundary_offsets
        block_of = np.repeat(np.arange(offsets.size - 1), np.diff(offsets))
        values = np.asarray(z[q.split, block_of]).ravel()
        assert np.array_equal(values, q.rho * (1.0 / q.degree)[q.split])
        product = selection(prob.schur.transfer, "skeleton_split") @ z
        assert np.array_equal(z[q.split].toarray(), product.toarray())


def test_nn_records_coarse_condition(scalar444_j8_jump):
    """cond_coarse is the condition number of S0 = Z^T S Z."""
    q, s = scalar444_j8_jump.qnn, scalar444_j8_jump.schur
    z = q.coarse_basis.toarray()
    s0 = z.T @ materialize(s.apply, s.dim) @ z
    evs = sla.eigvalsh((s0 + s0.T) / 2.0)
    assert q.cond_coarse >= 1.0
    assert abs(q.cond_coarse - evs[-1] / evs[0]) <= 1e-8 * q.cond_coarse


def _solve(prob, prec, seed=0):
    u = np.random.default_rng(seed).uniform(-1, 1, prob.dim_skeleton)
    report = pcg(prob.schur.apply, prec, prob.schur.apply(u), tol=TOL)
    error = np.linalg.norm(report.solution - u) / np.linalg.norm(u)
    return report.history, error


@pytest.mark.parametrize("jump", [1e2, 1e4])
def test_nn_robust_to_checkerboard_jump(mesh666_j27, checkerboard, jump):
    """rho-scaling keeps the count flat across jumps; with counting weights
    these took 28 and 40 iterations."""
    prob = setup_scalar(mesh666_j27, Coefficients(alpha=checkerboard(mesh666_j27, jump)))
    history, error = _solve(prob, prob.qnn)
    assert history.converged and history.iterations <= 12
    assert error <= 10 * TOL


def test_nn_robust_to_random_subdomain_coefficients(mesh666_j27):
    """Per-subdomain alpha log-uniform on [1e-3, 1e3]: every draw converges
    fast and accurately (counting weights took 300-800 iterations)."""
    for seed in range(12):
        rng = np.random.default_rng(seed)
        alpha_j = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), mesh666_j27.n_subdomains))
        prob = setup_scalar(
            mesh666_j27, Coefficients(alpha=alpha_j[mesh666_j27.tet_subdomain])
        )
        history, error = _solve(prob, prob.qnn)
        assert history.converged and history.iterations <= 15, seed
        assert error <= 100 * TOL, seed


def test_hx_plugin_ignores_alpha(mesh666_j27, checkerboard):
    """The edge operator reads neither alpha nor beta, and neither does HX's
    scalar plug-in: a Maxwell solve under an alpha checkerboard is bitwise
    the constant-alpha solve (the plug-in once took 82 iterations here)."""
    jump = setup_maxwell(mesh666_j27, Coefficients(alpha=checkerboard(mesh666_j27, 1e2)))
    flat = setup_maxwell(mesh666_j27, Coefficients())
    assert np.all(jump.scalar.qnn.rho == 1.0)
    (h_jump, e_jump), (h_flat, e_flat) = _solve(jump, jump.qhx), _solve(flat, flat.qhx)
    assert h_jump.converged and h_jump.iterations == h_flat.iterations
    assert np.array_equal(h_jump.relres, h_flat.relres) and e_jump == e_flat


@pytest.mark.parametrize("gamma", [1e-2, 1e2])
def test_hx_robust_to_gamma(mesh666_j27, gamma):
    """HX's auxiliary problems follow gamma: the plug-in solves Delta + gamma^2
    and the gradient channel is scaled by 1/gamma^2.  With the user's alpha
    and beta instead, gamma = 100 took 574 iterations."""
    prob = setup_maxwell(mesh666_j27, Coefficients(gamma=gamma))
    assert prob.qhx.gradient_weight == 1.0 / gamma**2
    history, error = _solve(prob, prob.qhx)
    assert history.converged and history.iterations <= 30
    assert error <= 100 * TOL


@pytest.mark.parametrize("gamma", [1e-100, 1e-8])
def test_hx_tiny_gamma_fails_typed(gamma):
    """When gamma^2 drops below the rounding of the curl-curl entries, the
    1/gamma^2 gradient channel makes PCG break down with a typed error
    instead of returning an answer with error 0.5.  On the way, products
    overflow; numpy's overflow warnings are expected here."""
    prob = setup_maxwell(build_box_mesh((3, 3, 3), (3, 3, 3)), Coefficients(gamma=gamma))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises((PcgBreakdownError, SingularOperatorError)):
            _solve(prob, prob.qhx)


def test_weak_scaling_iterations_stay_flat():
    """H/h = 2 fixed while the subdomain count grows 2^3 .. 5^3: balancing NN
    and HX keep their iteration counts bounded, and no step grows them by more
    than 1.3 (the ratio style of criterion 10).  Measured 8, 9, 9, 9 and
    16, 17, 18, 18."""
    counts = {"scalar": [], "maxwell": []}
    for j in range(2, 6):
        mesh = build_box_mesh((2 * j,) * 3, (j,) * 3)
        for field, setup in (("scalar", setup_scalar), ("maxwell", setup_maxwell)):
            prob = setup(mesh, Coefficients())
            history, error = _solve(prob, prob.qnn if field == "scalar" else prob.qhx)
            assert history.converged and error <= 100 * TOL, (field, j)
            counts[field].append(history.iterations)
    for field, cap in (("scalar", 12), ("maxwell", 22)):
        iters = counts[field]
        assert max(iters) <= cap, (field, iters)
        assert all(b / a <= 1.3 for a, b in zip(iters, iters[1:])), (field, iters)


def test_nn_dimension_checked(scalar222_j8):
    with pytest.raises(ValueError):
        scalar222_j8.qnn(np.zeros(scalar222_j8.qnn.dim + 1))


def test_schur_apply_dimension_checked(scalar444_j8):
    # A longer vector would otherwise be split at the skeleton positions and
    # its extra entries dropped without an error.
    schur = scalar444_j8.schur
    assert schur.dim == 117
    for n in (116, 124):
        with pytest.raises(ValueError, match="skeleton vector"):
            schur.apply(np.zeros(n))
    with pytest.raises(ValueError, match="skeleton vector"):
        schur.apply(np.zeros((117, 1)))


def test_ideal_weighted_average_is_exact_inverse(scalar222_j8, selection):
    """Swapping the counting weights for the energy-weighted pseudo-inverse
    of the skeleton split turns the average into the exact inverse."""
    prob = scalar222_j8
    split = selection(prob.schur.transfer, "skeleton_split").toarray()
    t_dense = materialize(prob.schur.apply_dtn, prob.schur.tuple_dim)
    pinj = pseudoinverse_injective(split, t_dense)
    q_ideal = pinj @ sla.solve(t_dense, pinj.T, assume_a="pos")
    s_dense = materialize(prob.schur.apply, prob.schur.dim)
    residual = np.abs(q_ideal @ s_dense - np.eye(prob.schur.dim)).max()
    assert residual <= 1e-9


def test_nn_spd_dense(scalar222_j8):
    q = materialize(scalar222_j8.qnn, scalar222_j8.qnn.dim)
    assert sla.eigvalsh((q + q.T) / 2.0)[0] > 0


def test_hx_symmetric(maxwell444_j8, rng):
    q = maxwell444_j8.qhx
    for _ in range(20):
        f = rng.uniform(-1, 1, q.dim)
        g = rng.uniform(-1, 1, q.dim)
        left, right = g @ q(f), f @ q(g)
        assert abs(left - right) <= 1e-12 * max(abs(left), 1.0)


def test_hx_spd_dense(maxwell222_j8):
    q = materialize(maxwell222_j8.qhx, maxwell222_j8.qhx.dim)
    assert sla.eigvalsh((q + q.T) / 2.0)[0] > 0


def test_hx_costs_four_scalar_applies(maxwell444_j8, rng):
    q = maxwell444_j8.qhx
    before = q.nn.n_applies
    q(rng.uniform(-1, 1, q.dim))
    assert q.nn.n_applies - before == 4


@pytest.mark.parametrize("which", ["nn", "hx"])
def test_preconditioners_linear(maxwell444_j8, rng, which):
    q = maxwell444_j8.scalar.qnn if which == "nn" else maxwell444_j8.qhx
    f = rng.uniform(-1, 1, q.dim)
    g = rng.uniform(-1, 1, q.dim)
    a, b = 2.3, -0.7
    combined = q(a * f + b * g)
    separate = a * q(f) + b * q(g)
    scale = np.abs(separate).max()
    assert np.abs(combined - separate).max() <= 1e-13 * max(scale, 1.0)


def test_hx_validates_inputs(mesh222_j8, transfers222_j8, maxwell222_j8, scalar222_j8):
    mesh = mesh222_j8
    vol_grad, _ = build_aux_maps(mesh)
    skel_grad, interps = build_aux_maps(mesh, transfers222_j8)
    jac = 1.0 / maxwell222_j8.qhx.jacobi_inv
    with pytest.raises(ValueError, match="skeleton"):
        HiptmairXu(jac, vol_grad, interps, scalar222_j8.qnn, 1.0)
    with pytest.raises(ValueError, match="direction"):
        HiptmairXu(jac, skel_grad, interps[:2], scalar222_j8.qnn, 1.0)
    for bad in (0.0, -1.0, np.nan, np.inf):
        broken = jac.copy()
        broken[3] = bad
        with pytest.raises(AssemblyError, match="Jacobi"):
            HiptmairXu(broken, skel_grad, interps, scalar222_j8.qnn, 1.0)
    q = HiptmairXu(jac, skel_grad, interps, scalar222_j8.qnn, 1.0)
    with pytest.raises(ValueError):
        q(np.zeros(q.dim + 1))


def test_hx_with_exact_scalar_inverse_is_pushed_down_volume_form(
    mesh222_j8, maxwell222_j8, selection
):
    """Replacing the scalar average by the exact interface inverse makes the
    edge preconditioner equal the skeleton push-down of

        diag(M)^{-1} + G L^{-1} G^T + sum_d P_d L^{-1} P_d^T

    assembled on the volume, which is the identity the whole construction
    rests on."""
    mw = maxwell222_j8
    mesh, coeffs = mesh222_j8, Coefficients()

    s_scalar = materialize(mw.scalar.schur.apply, mw.scalar.schur.dim)
    exact_inv = sla.inv(s_scalar)

    q_exact = copy.copy(mw.qhx)
    q_exact.nn = lambda f: exact_inv @ f
    lhs = materialize(q_exact, q_exact.dim)

    scalar_ops, edge_ops = mw.scalar.schur.transfer, mw.schur.transfer
    l_dense = volume_matrix(scalar_ops, *assemble_scalar(mesh, coeffs))
    m_dense = volume_matrix(edge_ops, *assemble_edge(mesh, coeffs))
    aux = np.diag(1.0 / np.diag(m_dense))
    gradient, interps = build_aux_maps(mesh)
    g = gradient.toarray()
    aux = aux + g @ sla.solve(l_dense, g.T, assume_a="pos")
    for p in (interp.toarray() for interp in interps):
        aux = aux + p @ sla.solve(l_dense, p.T, assume_a="pos")
    tr = selection(mw.schur.transfer, "skeleton_trace").toarray()
    rhs = tr @ aux @ tr.T

    assert np.abs(lhs - rhs).max() <= 1e-9


def test_hx_summands_positive_semidefinite(maxwell222_j8):
    mw = maxwell222_j8
    n = mw.qhx.dim
    assert np.all(mw.qhx.jacobi_inv > 0)

    q_nn = materialize(mw.scalar.qnn, mw.scalar.qnn.dim)
    g = mw.qhx.gradient.toarray()
    sandwiches = [g @ q_nn @ g.T]
    sandwiches += [p.toarray() @ q_nn @ p.toarray().T for p in mw.qhx.interps]
    for s in sandwiches:
        evs = sla.eigvalsh((s + s.T) / 2.0)
        assert evs[0] >= -1e-10
    # The gradient sandwich inherits the rank of the gradient itself: its
    # kernel is the orthogonal complement of Range(G).
    rank_g = np.linalg.matrix_rank(g)
    evs = sla.eigvalsh(sandwiches[0])
    assert np.sum(evs > 1e-10) == rank_g


def test_estimate_condition_identity():
    assert abs(dense_condition(np.eye(7), np.eye(7)) - 1.0) <= 1e-10
    est = estimate_condition(lambda u: 2.0 * u, lambda u: 0.5 * u, 7)
    assert abs(est.cond - 1.0) <= 1e-10


def test_estimate_condition_dense_vs_lanczos(scalar222_j8):
    prob = scalar222_j8
    dense = dense_condition(
        materialize(prob.schur.apply, prob.schur.dim), materialize(prob.qnn, prob.qnn.dim)
    )
    lanczos = estimate_condition(prob.schur.apply, prob.qnn, prob.schur.dim)
    assert dense >= 1.0
    # Lanczos bounds the spectrum from inside.
    assert lanczos.cond <= dense * (1 + 1e-9)
    assert lanczos.cond >= 0.5 * dense


def test_estimate_condition_validation():
    for method in ("power", "dense"):
        with pytest.raises(ValueError, match="unknown method"):
            estimate_condition(lambda u: u, lambda u: u, 4, method=method)
    with pytest.raises(SingularOperatorError):
        dense_condition(-np.eye(4), np.eye(4))
    with pytest.raises(SingularOperatorError, match="nonpositive"):
        dense_condition(np.eye(4), -np.eye(4))


@pytest.mark.parametrize(
    "name, prec_name", [("scalar222_j8", "qnn"), ("maxwell222_j8", "qhx")], ids=["scalar", "edge"]
)
def test_lanczos_lies_inside_dense_spectrum(request, name, prec_name, rng):
    """The Ritz values of a PCG solve's history lie inside the dense spectrum
    of the preconditioned operator, for both fields."""
    prob = request.getfixturevalue(name)
    prec = getattr(prob, prec_name)
    s_mat = materialize(prob.schur.apply, prob.schur.dim)
    q_mat = materialize(prec, prob.schur.dim)
    # S x = lambda Q^{-1} x, that is, Q S x = lambda x.
    evs = sla.eigvalsh((s_mat + s_mat.T) / 2.0, sla.inv((q_mat + q_mat.T) / 2.0))
    rhs = rng.uniform(-1.0, 1.0, prob.schur.dim)
    est = pcg(prob.schur.apply, prec, rhs, tol=1e-14, max_iter=prob.schur.dim).history.lanczos()
    slack = 1e-9 * evs[-1]
    assert evs[0] - slack <= est.lmin <= est.lmax <= evs[-1] + slack
    assert est.cond <= dense_condition(s_mat, q_mat) * (1 + 1e-9)


def test_pcg_rejects_nan_rhs_before_the_coarse_solve(scalar222_j8):
    """A NaN right-hand side is refused as input, not reported as a failure
    of the balancing coarse problem."""
    prob = scalar222_j8
    rhs = np.ones(prob.schur.dim)
    rhs[3] = np.nan
    before = prob.qnn.n_applies
    with pytest.raises(ValueError, match="finite"):
        pcg(prob.schur.apply, prob.qnn, rhs)
    assert prob.qnn.n_applies == before


@pytest.mark.parametrize(
    "mesh_name, gamma", [("mesh444_j8", 1.0), ("mesh422_j211", 1.7)]
)
def test_glued_jacobi_equals_global_diagonal(request, monkeypatch, mesh_name, gamma):
    """Set-up assembles the edge blocks once, and the skeleton Jacobi diagonal
    glued from them is the volume edge matrix's diagonal on the skeleton, bit
    for bit."""
    mesh = request.getfixturevalue(mesh_name)
    coeffs = Coefficients(gamma=gamma)
    calls = []
    glued = []

    def recording(*args, **kwargs):
        calls.append(kwargs)
        return assemble_edge(*args, **kwargs)

    class Recording(HiptmairXu):
        def __init__(self, jacobi_skeleton, *args, **kwargs):
            glued.append(jacobi_skeleton)
            super().__init__(jacobi_skeleton, *args, **kwargs)

    monkeypatch.setattr(precond_mod, "assemble_edge", recording)
    monkeypatch.setattr(precond_mod, "HiptmairXu", Recording)
    mw = setup_maxwell(mesh, coeffs)
    assert len(calls) == 1
    transfer = mw.schur.transfer
    volume = volume_matrix(transfer, *assemble_edge(mesh, coeffs))
    expected = np.diag(volume)[transfer.skeleton_trace]
    assert len(glued) == 1 and np.array_equal(glued[0], expected)


@pytest.mark.parametrize(
    "setup, fields", [(setup_scalar, ["scalar"]), (setup_maxwell, ["scalar", "edge"])]
)
def test_setup_builds_each_field_once(mesh222_j8, monkeypatch, setup, fields):
    """Each set-up builds the dofs of only the fields it solves on, each once,
    from the mesh."""
    calls = []

    def recording(name):
        original = getattr(precond_mod, name)

        def wrapper(*args):
            result = original(*args)
            calls.append((name, args, result))
            return result

        return wrapper

    monkeypatch.setattr(precond_mod, "build_transfer", recording("build_transfer"))
    setup(mesh222_j8, Coefficients())
    assert all(args[0] is mesh222_j8 for _, args, _ in calls)
    assert [args[1:] for _, args, _ in calls] == [(field,) for field in fields]


def test_solvers_keep_only_what_applies_read(maxwell444_j8):
    # The problem records hold only what the solve and its report read; the
    # mesh, skeleton, blocks and maps live with their callers or in qhx.
    assert set(vars(maxwell444_j8)) == {"schur", "scalar", "qhx", "dim_volume"}
    assert set(vars(maxwell444_j8.scalar)) == {"coeffs", "schur", "qnn", "dim_volume"}
    # The interior factor and the A_ib/A_bb blocks serve only to form S_u:
    # each distinct block keeps one dense, bitwise-symmetric S_u sized to
    # its members' rows of the boundary tuple.
    for schur in (maxwell444_j8.schur, maxwell444_j8.scalar.schur):
        assert set(vars(schur)) == {"transfer", "dim", "tuple_dim", "group_of", "groups"}
        sizes = np.diff(schur.transfer.boundary_offsets)
        for s_u, members in schur.groups:
            assert type(s_u) is np.ndarray and np.array_equal(s_u, s_u.T)
            assert np.all(sizes[members] == s_u.shape[0])


def test_one_factorization_per_distinct_block(mesh444_j8, monkeypatch):
    """Under constant coefficients all eight subdomains of each field share
    one block: every set-up factorization is one ``SpdFactor``, one interior
    factorization per field, one Cholesky of the scalar S_u for its inverse,
    one of the coarse problem, and no whole-block Neumann factorization."""
    labels = []

    class Recording(SpdFactor):
        def __init__(self, matrix, label):
            labels.append(label)
            super().__init__(matrix, label)

    monkeypatch.setattr(schur_mod, "SpdFactor", Recording)
    monkeypatch.setattr(precond_mod, "SpdFactor", Recording)
    mw = setup_maxwell(mesh444_j8, Coefficients())
    for schur in (mw.schur, mw.scalar.schur):
        assert len(schur.groups) == 1 and schur.group_of.tolist() == [0] * 8
        assert schur.groups[0][1].tolist() == list(range(8))
    assert labels == [
        "scalar subdomain 0 (interior)",
        "scalar subdomain 0 (Schur)",
        "balancing coarse problem",
        "edge subdomain 0 (interior)",
    ]


def _dense_interface_solve(mesh, prob, rhs):
    transfer = prob.schur.transfer
    full = volume_matrix(transfer, *assemble_scalar(mesh, prob.coeffs))
    skel = transfer.skeleton_trace
    inner = np.setdiff1d(np.arange(mesh.n_vertices), skel)
    s_dense = full[np.ix_(skel, skel)] - full[np.ix_(skel, inner)] @ sla.solve(
        full[np.ix_(inner, inner)], full[np.ix_(inner, skel)], assume_a="pos"
    )
    return sla.solve(s_dense, rhs, assume_a="pos")


@settings(max_examples=15, deadline=None)
@given(grid=jump_grids())
def test_blocks_grouped_by_shared_block(content_partition, grid):
    """For both fields and the plug-in, set-up's groups are assembly's
    ``group_of``, the partition of the per-subdomain blocks by content and
    boundary positions, under per-subdomain alpha drawn from {0.5, 2}; the
    scalar solve matches the dense interface solve."""
    mesh, alpha_j = grid
    jump_coeffs = Coefficients(alpha=alpha_j[mesh.tet_subdomain])
    jump = setup_scalar(mesh, jump_coeffs)
    maxwell = setup_maxwell(mesh, jump_coeffs)
    assert len(jump.schur.groups) == np.unique(alpha_j).size
    systems = [
        (jump.schur, assemble_scalar, jump_coeffs),
        (maxwell.scalar.schur, assemble_scalar, maxwell.scalar.coeffs),
        (maxwell.schur, assemble_edge, jump_coeffs),
    ]
    for system, assemble, coeffs in systems:
        blocks, group_of = assemble(mesh, coeffs)
        assert np.array_equal(system.group_of, group_of)
        per_subdomain = [blocks[u] for u in group_of]
        assert np.array_equal(group_of, content_partition(per_subdomain, system.transfer))
    rhs = np.random.default_rng(0).uniform(-1, 1, jump.dim_skeleton)
    want = _dense_interface_solve(mesh, jump, rhs)
    report = pcg(jump.schur.apply, jump.qnn, rhs, tol=1e-11)
    assert report.history.converged
    assert np.linalg.norm(report.solution - want) <= 1e-9 * np.linalg.norm(want)


def test_setup_dimensions(maxwell444_j8, mesh444_j8):
    mw = maxwell444_j8
    assert mw.dim_skeleton == build_transfer(mesh444_j8, "edge").skeleton_trace.size
    assert mw.dim_volume == mesh444_j8.n_edges
    assert mw.scalar.dim_skeleton == build_transfer(mesh444_j8, "scalar").skeleton_trace.size
    assert mw.scalar.dim_volume == mesh444_j8.n_vertices
    assert mw.qhx.jacobi_inv.shape == (mw.dim_skeleton,)


def test_maxwell_solve_end_to_end(mesh222_j2, rng):
    mw = setup_maxwell(mesh222_j2, Coefficients())
    u_ex = rng.uniform(-1, 1, mw.dim_skeleton)
    report = pcg(mw.schur.apply, mw.qhx, mw.schur.apply(u_ex), tol=1e-9)
    assert report.history.converged
    err = np.linalg.norm(report.solution - u_ex) / np.linalg.norm(u_ex)
    assert err <= 1e-7


def test_coarse_product_on_interleaved_groups(mesh444_j8, scalar444_j8_one_tet, rng):
    """S Z, formed subdomain by subdomain from each group's S_u, matches the
    assembled operator when one group's members surround another's, and the
    solve matches the dense interface solve."""
    prob = scalar444_j8_one_tet
    assert prob.schur.group_of.tolist() == [0, 0, 0, 0, 0, 1, 0, 0]
    qnn = prob.qnn
    want = materialize(prob.schur.apply, prob.schur.dim) @ qnn.coarse_basis.toarray()
    assert np.abs(qnn.s_coarse - want).max() <= 1e-12 * np.abs(want).max()
    rhs = rng.uniform(-1, 1, prob.dim_skeleton)
    want = _dense_interface_solve(mesh444_j8, prob, rhs)
    report = pcg(prob.schur.apply, prob.qnn, rhs, tol=1e-11)
    assert np.linalg.norm(report.solution - want) <= 1e-9 * np.linalg.norm(want)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return (a.dtype, a.shape, a.strides, a.tobytes()) == (b.dtype, b.shape, b.strides, b.tobytes())


def _is_canonical_csr(matrix) -> bool:
    """CSR whose (row, column) keys strictly ascend in storage order: each
    row's columns sorted, none stored twice."""
    rows = np.repeat(np.arange(matrix.shape[0]), np.diff(matrix.indptr))
    keys = rows * matrix.shape[1] + matrix.indices
    return sp.isspmatrix_csr(matrix) and bool(np.all(np.diff(keys) > 0))


def _sliced_group_schurs(prob, assemble, mesh, coeffs, sliced_schur):
    """Each group's S_u from the sliced reference, square, from its block
    assembled again on its first member's boundary."""
    transfer = prob.schur.transfer
    blocks, _ = assemble(mesh, coeffs)
    out = []
    for block, (_, members) in zip(blocks, prob.schur.groups, strict=True):
        j = members[0]
        lo, hi = transfer.boundary_offsets[j : j + 2]
        out.append(sliced_schur(block, transfer.boundary_trace[lo:hi] - transfer.broken_offsets[j]))
    return out


def _assert_setup_matches_references(mesh, alpha_j, sliced_schur, inverses, looped):
    """Every stored S_u of the scalar, plug-in and edge systems (a shared
    group's square array, a lone member's packed upper Cholesky factor),
    every inverse DtN map (a shared group's square inverse, a lone member's
    very factor), and S Z and the coarse matrix of both Neumann-Neumanns,
    bit for bit the sliced and looped references; S Z is canonical CSR
    holding no zero."""
    tril_inverse, packed_cholesky = inverses
    coeffs = Coefficients(alpha=alpha_j[mesh.tet_subdomain], beta=0.7, gamma=1.9)
    scalar = setup_scalar(mesh, coeffs)
    maxwell = setup_maxwell(mesh, coeffs)
    systems = [
        (scalar, assemble_scalar, coeffs),
        (maxwell.scalar, assemble_scalar, maxwell.scalar.coeffs),
        (maxwell, assemble_edge, coeffs),
    ]
    for prob, assemble, co in systems:
        sliced = _sliced_group_schurs(prob, assemble, mesh, co, sliced_schur)
        for want, (s_u, members) in zip(sliced, prob.schur.groups, strict=True):
            assert _same_bits(s_u, packed_cholesky(want) if members.size == 1 else want)
    for qnn in (scalar.qnn, maxwell.scalar.qnn):
        for inverse, (s_u, members) in zip(qnn.inverse_dtn, qnn.schur.groups, strict=True):
            if members.size == 1:
                assert inverse is s_u
            else:
                assert _same_bits(inverse, tril_inverse(s_u))
        s_coarse = looped(qnn.schur, qnn.coarse_basis)
        assert _is_canonical_csr(qnn.s_coarse) and np.all(qnn.s_coarse.data != 0)
        assert _same_bits(qnn.s_coarse.toarray(), s_coarse)
        s0 = qnn.coarse_basis.T @ s_coarse
        assert _same_bits(qnn.coarse_matrix, (s0 + s0.T) / 2.0)


# Suite grids, most of them anisotropic in cells or in subdomains.
BITWISE_GRIDS = [
    ((2, 3, 4), (1, 3, 2)),
    ((3, 6, 5), (1, 2, 5)),
    ((4, 4, 4), (4, 2, 1)),
    ((4, 6, 2), (2, 3, 1)),
    ((6, 6, 6), (3, 3, 3)),
    ((24, 6, 6), (2, 2, 2)),
]


@pytest.mark.parametrize(
    "grid",
    BITWISE_GRIDS,
    ids=["x".join(map(str, c)) + "/" + "x".join(map(str, j)) for c, j in BITWISE_GRIDS],
)
def test_setup_bitwise_equals_sliced_references(
    grid, sliced_schur, tril_inverse, packed_cholesky, looped_coarse_product
):
    """The one-split Schur complements, the inverses and the dense S Z
    reproduce the sliced, per-subdomain computations exactly,
    under log-uniform per-subdomain alpha on [0.1, 10]."""
    mesh = build_box_mesh(*grid)
    rng = np.random.default_rng(3)
    alpha_j = np.exp(rng.uniform(np.log(0.1), np.log(10.0), mesh.n_subdomains))
    _assert_setup_matches_references(
        mesh, alpha_j, sliced_schur, (tril_inverse, packed_cholesky), looped_coarse_product
    )


@settings(max_examples=15, deadline=None)
@given(grid=jump_grids())
def test_setup_bitwise_equals_sliced_references_on_jump_grids(
    sliced_schur, tril_inverse, packed_cholesky, looped_coarse_product, grid
):
    _assert_setup_matches_references(
        *grid, sliced_schur, (tril_inverse, packed_cholesky), looped_coarse_product
    )


@settings(max_examples=15, deadline=None)
@given(grid=st.one_of(st.just("one subdomain"), jump_grids()))
def test_lone_members_keep_packed_cholesky_factors(
    sliced_schur, tril_inverse, packed_cholesky, grid
):
    """A lone member keeps one array, bitwise the packed upper Cholesky
    factor of its sliced S_u, that is both its Schur complement and its
    inverse DtN map: ``apply_dtn`` applies S_u and ``apply_dtn_inv`` S_u^{-1}
    to 1e-12 relative of the sliced S_u.  A group of several members keeps
    its square S_u and ``dpotri`` inverse bitwise."""
    if grid == "one subdomain":
        grid = build_box_mesh((4, 3, 2)), np.array([2.0])
    mesh, alpha_j = grid
    coeffs = Coefficients(alpha=alpha_j[mesh.tet_subdomain], beta=0.5)
    prob = setup_scalar(mesh, coeffs)
    schur, qnn = prob.schur, prob.qnn
    sliced = _sliced_group_schurs(prob, assemble_scalar, mesh, coeffs, sliced_schur)
    offsets = schur.transfer.boundary_offsets
    g = np.random.default_rng(0).uniform(-1, 1, schur.tuple_dim)
    applied, solved = schur.apply_dtn(g), qnn.apply_dtn_inv(g)
    groups = zip(sliced, schur.groups, qnn.inverse_dtn, strict=True)
    for dense, (s_u, members), inverse in groups:
        if members.size == 1:
            assert inverse is s_u and _same_bits(s_u, packed_cholesky(dense))
        else:
            assert _same_bits(s_u, dense) and _same_bits(inverse, tril_inverse(dense))
        for j in members:
            lo, hi = offsets[j : j + 2]
            want = dense @ g[lo:hi], np.linalg.solve(dense, g[lo:hi])
            for got, w in zip((applied[lo:hi], solved[lo:hi]), want):
                assert np.linalg.norm(got - w) <= 1e-12 * np.linalg.norm(w)


@settings(max_examples=10, deadline=None)
@given(grid=jump_grids())
def test_nn_setup_unpacks_each_packed_matrix_once(grid):
    """Neumann-Neumann set-up unpacks each lone member's packed factor U
    once, the very array ``SchurSystem`` keeps, and packs and factorizes
    nothing of its own but a shared group's S_u and the coarse matrix.  The
    unpacked upper triangle is the packed one, bitwise."""
    mesh, alpha_j = grid
    coeffs = Coefficients(alpha=alpha_j[mesh.tet_subdomain], beta=0.5)
    transfer = build_transfer(mesh, "scalar")
    schur = build_schur_system(*assemble_scalar(mesh, coeffs), transfer, mesh)
    unpacked, labels = [], []
    unpack = sla.lapack.dtpttr

    def counting(n, packed, uplo):
        out = unpack(n, packed, uplo=uplo)
        unpacked.append(packed)
        rows, cols = np.triu_indices(n)
        order = np.lexsort((rows, cols))  # packed by columns
        assert uplo == "U" and out[0][rows[order], cols[order]].tobytes() == packed.tobytes()
        return out

    class Recording(SpdFactor):
        def __init__(self, matrix, label):
            labels.append(label)
            super().__init__(matrix, label)

    def no_pack(*args, **kwargs):
        raise AssertionError("Neumann-Neumann set-up packs a matrix")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sla.lapack, "dtpttr", counting)
        patch.setattr(sla.lapack, "dtrttp", no_pack)
        patch.setattr(precond_mod, "SpdFactor", Recording)
        qnn = NeumannNeumann(schur, np.ones(schur.tuple_dim))
    lone = [s_u for s_u, js in schur.groups if js.size == 1]
    assert len(unpacked) == len(lone)
    assert all(m is s_u for m, s_u in zip(unpacked, lone, strict=True))
    shared = [f"scalar subdomain {js[0]} (Schur)" for _, js in schur.groups if js.size > 1]
    assert labels == shared + ["balancing coarse problem"]
    assert len(qnn.inverse_dtn) == len(schur.groups)


def _owned_arrays(root) -> list:
    """Every ndarray reachable from ``root`` through instance attributes,
    containers and views' bases, as the arrays that own the data."""
    owners, seen, stack = {}, set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            owners[id(obj)] = obj
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif hasattr(obj, "__dict__"):
            stack.extend(vars(obj).values())
    return list(owners.values())


def test_lone_members_keep_one_packed_triangle(mesh666_j27):
    """On a jump grid of 27 lone members (log-uniform alpha on [0.1, 10]),
    the set-up problem keeps exactly one n_b(n_b+1)/2-float array per lone
    member, shared by identity between ``SchurSystem`` and Neumann-Neumann,
    and no n_b x n_b one."""
    mesh = mesh666_j27
    alpha_j = np.exp(np.random.default_rng(5).uniform(np.log(0.1), np.log(10.0), 27))
    prob = setup_scalar(mesh, Coefficients(alpha=alpha_j[mesh.tet_subdomain]))
    schur, qnn = prob.schur, prob.qnn
    assert all(js.size == 1 for _, js in schur.groups)
    sizes = np.diff(schur.transfer.boundary_offsets)
    arrays = _owned_arrays(prob)
    for (s_u, (j,)), inverse in zip(schur.groups, qnn.inverse_dtn, strict=True):
        n_b = int(sizes[j])
        assert inverse is s_u and s_u.shape == (n_b * (n_b + 1) // 2,)
    for n_b in np.unique(sizes):
        triangles = [a for a in arrays if a.shape == (n_b * (n_b + 1) // 2,)]
        lone = [s_u for s_u, js in schur.groups if sizes[js[0]] == n_b]
        assert len(triangles) == len(lone) and all(any(a is s for a in triangles) for s in lone)
        assert not any(a.shape == (n_b, n_b) for a in arrays)
