"""Neumann-Neumann and the edge preconditioner built on top of it."""

import numpy as np
import pytest
import scipy.linalg as sla

import schurhx.precond as precond_mod
import schurhx.schur as schur_mod
from schurhx.assemble import (
    Coefficients,
    assemble_edge,
    assemble_scalar,
    jacobi_diagonal,
)
from schurhx.discrete_ops import build_gradient, build_nodal_interp
from schurhx.errors import AssemblyError, SingularOperatorError
from schurhx.krylov import pcg
from schurhx.oracle import pseudoinverse_injective
from schurhx.precond import (
    HiptmairXu,
    NeumannNeumann,
    estimate_condition,
    materialize,
    setup_maxwell,
    setup_scalar,
)
from schurhx.schur import SpdFactor, SubdomainSolver


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


def test_nn_balances_residual_on_coarse_space(scalar444_j8, rng):
    """Z^T (f - S Q f) = 0: the residual left by Q has no component on the
    subdomain coarse space."""
    q, s = scalar444_j8.qnn, scalar444_j8.schur
    z = q.coarse_basis
    assert z.shape == (q.dim, 8)
    assert np.abs(z.sum(axis=1) - 1.0).max() <= 1e-14
    for _ in range(5):
        f = rng.uniform(-1, 1, q.dim)
        residual = z.T @ (f - s.apply(q(f)))
        assert np.abs(residual).max() <= 1e-10 * np.abs(z.T @ f).max()


def test_nn_singular_coarse_problem_raises(scalar222_j8, monkeypatch):
    # Every Schur complement returns zero, so S Z = 0 and S0 = Z^T S Z = 0.
    monkeypatch.setattr(SubdomainSolver, "apply_schur", lambda self, p: np.zeros_like(p))
    with pytest.raises(SingularOperatorError, match="coarse"):
        NeumannNeumann(scalar222_j8.schur)


def test_nn_rejects_indefinite_schur_complement(mesh222_j8):
    prob = setup_scalar(mesh222_j8, Coefficients())
    solver = prob.schur.groups[0][0]
    solver.schur = -solver.schur
    with pytest.raises(SingularOperatorError, match="not positive definite"):
        NeumannNeumann(prob.schur)


def test_nn_rejects_edge_system(maxwell222_j8):
    with pytest.raises(ValueError, match="scalar"):
        NeumannNeumann(maxwell222_j8.schur)


def test_nn_dimension_checked(scalar222_j8):
    with pytest.raises(ValueError):
        scalar222_j8.qnn(np.zeros(scalar222_j8.qnn.dim + 1))


def test_ideal_weighted_average_is_exact_inverse(scalar222_j8, selection):
    """Swapping the counting weights for the energy-weighted pseudo-inverse
    of the skeleton split turns the average into the exact inverse."""
    prob = scalar222_j8
    split = selection(prob.transfer, "skeleton_split").toarray()
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


def test_hx_validates_inputs(maxwell222_j8, scalar222_j8):
    mesh = maxwell222_j8.mesh
    skel = maxwell222_j8.skeleton
    vol_grad = build_gradient(mesh, "volume")
    skel_grad = build_gradient(mesh, "skeleton", skel)
    interps = [build_nodal_interp(mesh, d, "skeleton", skel) for d in range(3)]
    jac = maxwell222_j8.jacobi_skeleton
    with pytest.raises(ValueError, match="skeleton"):
        HiptmairXu(jac, vol_grad, interps, scalar222_j8.qnn)
    with pytest.raises(ValueError, match="direction"):
        HiptmairXu(jac, skel_grad, interps[:2], scalar222_j8.qnn)
    for bad in (0.0, -1.0, np.nan, np.inf):
        broken = jac.copy()
        broken[3] = bad
        with pytest.raises(AssemblyError, match="Jacobi"):
            HiptmairXu(broken, skel_grad, interps, scalar222_j8.qnn)
    q = HiptmairXu(jac, skel_grad, interps, scalar222_j8.qnn)
    with pytest.raises(ValueError):
        q(np.zeros(q.dim + 1))


def test_hx_with_exact_scalar_inverse_is_pushed_down_volume_form(
    maxwell222_j8, selection
):
    """Replacing the scalar average by the exact interface inverse makes the
    edge preconditioner equal the skeleton push-down of

        diag(M)^{-1} + G L^{-1} G^T + sum_d P_d L^{-1} P_d^T

    assembled on the volume, which is the identity the whole construction
    rests on."""
    mw = maxwell222_j8
    mesh, spaces, coeffs = mw.mesh, mw.spaces, mw.coeffs

    s_scalar = materialize(mw.scalar.schur.apply, mw.scalar.schur.dim)
    exact_inv = sla.inv(s_scalar)

    class ExactScalar:
        dim = s_scalar.shape[0]

        def __call__(self, f):
            return exact_inv @ f

    q_exact = HiptmairXu(
        mw.jacobi_skeleton, mw.gradient, mw.interps, ExactScalar()
    )
    lhs = materialize(q_exact, q_exact.dim)

    l_dense = assemble_scalar(mesh, spaces, coeffs).matrix.toarray()
    m_dense = assemble_edge(mesh, spaces, coeffs).matrix.toarray()
    aux = np.diag(1.0 / np.diag(m_dense))
    g = build_gradient(mesh).toarray()
    aux = aux + g @ sla.solve(l_dense, g.T, assume_a="pos")
    for d in range(3):
        p = build_nodal_interp(mesh, d).toarray()
        aux = aux + p @ sla.solve(l_dense, p.T, assume_a="pos")
    tr = selection(mw.transfer, "skeleton_trace").toarray()
    rhs = tr @ aux @ tr.T

    assert np.abs(lhs - rhs).max() <= 1e-9


def test_hx_summands_positive_semidefinite(maxwell222_j8):
    mw = maxwell222_j8
    n = mw.qhx.dim
    assert np.all(mw.qhx.jacobi_inv > 0)

    q_nn = materialize(mw.scalar.qnn, mw.scalar.qnn.dim)
    g = mw.gradient.toarray()
    sandwiches = [g @ q_nn @ g.T]
    sandwiches += [p.toarray() @ q_nn @ p.toarray().T for p in mw.interps]
    for s in sandwiches:
        evs = sla.eigvalsh((s + s.T) / 2.0)
        assert evs[0] >= -1e-10
    # The gradient sandwich inherits the rank of the gradient itself: its
    # kernel is the orthogonal complement of Range(G).
    rank_g = np.linalg.matrix_rank(g)
    evs = sla.eigvalsh(sandwiches[0])
    assert np.sum(evs > 1e-10) == rank_g


def test_estimate_condition_identity():
    est = estimate_condition(lambda u: u, lambda u: u, 7, method="dense")
    assert abs(est.cond - 1.0) <= 1e-10
    est = estimate_condition(lambda u: 2.0 * u, lambda u: 0.5 * u, 7, method="lanczos")
    assert abs(est.cond - 1.0) <= 1e-10


def test_estimate_condition_dense_vs_lanczos(scalar222_j8):
    prob = scalar222_j8
    dense = estimate_condition(prob.schur.apply, prob.qnn, prob.schur.dim, "dense")
    lanczos = estimate_condition(
        prob.schur.apply, prob.qnn, prob.schur.dim, "lanczos"
    )
    assert dense.cond >= 1.0
    # Lanczos bounds the spectrum from inside.
    assert lanczos.cond <= dense.cond * (1 + 1e-9)
    assert lanczos.cond >= 0.5 * dense.cond


def test_estimate_condition_validation(scalar222_j8):
    with pytest.raises(ValueError):
        estimate_condition(lambda u: u, lambda u: u, 4, method="power")
    with pytest.raises(SingularOperatorError):
        estimate_condition(lambda u: -u, lambda u: u, 4, method="dense")


@pytest.mark.parametrize(
    "mesh_name, gamma", [("mesh444_j8", 1.0), ("mesh422_j211", 1.7)]
)
def test_glued_jacobi_equals_global_diagonal(request, monkeypatch, mesh_name, gamma):
    """Set-up assembles only the edge blocks, and the skeleton Jacobi diagonal
    glued from them is the global edge matrix's diagonal on the skeleton, bit
    for bit."""
    mesh = request.getfixturevalue(mesh_name)
    scopes = []

    def recording(*args, **kwargs):
        scopes.append(kwargs.get("scope", "global"))
        return assemble_edge(*args, **kwargs)

    monkeypatch.setattr(precond_mod, "assemble_edge", recording)
    mw = setup_maxwell(mesh, Coefficients(gamma=gamma))
    assert scopes == ["blocks"]
    glob = assemble_edge(mesh, mw.spaces, mw.coeffs, scope="global")
    expected = jacobi_diagonal(glob)[mw.skeleton.skeleton_edges]
    assert np.array_equal(mw.jacobi_skeleton, expected)


def test_edge_subdomains_factorized_once(maxwell444_j8):
    for solver in maxwell444_j8.schur.solvers:
        factors = [v for v in vars(solver).values() if isinstance(v, SpdFactor)]
        assert len(factors) == 1


def test_one_factorization_per_distinct_block(mesh444_j8, monkeypatch):
    """Under constant coefficients all eight subdomains of each field share
    one block: one interior factorization per field, and no whole-block
    Neumann factorization at all."""
    labels = []

    class Recording(SpdFactor):
        def __init__(self, matrix, label):
            labels.append(label)
            super().__init__(matrix, label)

    monkeypatch.setattr(schur_mod, "SpdFactor", Recording)
    monkeypatch.setattr(precond_mod, "SpdFactor", Recording)
    mw = setup_maxwell(mesh444_j8, Coefficients())
    for schur in (mw.schur, mw.scalar.schur):
        assert len(schur.groups) == 1 and len(schur.solvers) == 8
        assert all(solver is schur.solvers[0] for solver in schur.solvers)
    assert labels == [
        "scalar-blocks subdomain 0 (interior)",
        "balancing coarse problem",
        "edge-blocks subdomain 0 (interior)",
    ]


def _dense_interface_solve(prob, rhs):
    full = assemble_scalar(prob.mesh, prob.spaces, prob.coeffs).matrix.toarray()
    skel = prob.skeleton.skeleton_vertices
    inner = np.setdiff1d(np.arange(prob.mesh.n_vertices), skel)
    s_dense = full[np.ix_(skel, skel)] - full[np.ix_(skel, inner)] @ sla.solve(
        full[np.ix_(inner, inner)], full[np.ix_(inner, skel)], assume_a="pos"
    )
    return sla.solve(s_dense, rhs, assume_a="pos")


def test_blocks_grouped_by_content(mesh444_j8, rng):
    """Per-subdomain jumps make every scalar block distinct; one perturbed tet
    splits off only its own subdomain.  Either way the solve matches the
    dense interface solve."""
    alpha_j = 1.0 + np.arange(8.0)
    jump = setup_scalar(mesh444_j8, Coefficients(alpha=alpha_j[mesh444_j8.tet_subdomain]))
    alpha = np.ones(mesh444_j8.n_tets)
    alpha[mesh444_j8.tets_of_subdomain(5)[3]] = 1.5
    one_tet = setup_scalar(mesh444_j8, Coefficients(alpha=alpha))
    assert len(jump.schur.groups) == 8
    groups = sorted(members.tolist() for _, members in one_tet.schur.groups)
    assert groups == [[0, 1, 2, 3, 4, 6, 7], [5]]
    for prob in (jump, one_tet):
        rhs = rng.uniform(-1, 1, prob.dim_skeleton)
        want = _dense_interface_solve(prob, rhs)
        report = pcg(prob.schur.apply, prob.qnn, rhs, tol=1e-11)
        assert report.history.converged
        err = np.linalg.norm(report.solution - want) / np.linalg.norm(want)
        assert err <= 1e-9


def test_setup_dimensions(maxwell444_j8, mesh444_j8):
    mw = maxwell444_j8
    assert mw.dim_skeleton == mw.skeleton.n_skeleton_edges
    assert mw.dim_volume == mesh444_j8.n_edges
    assert mw.scalar.dim_skeleton == mw.skeleton.n_skeleton_vertices
    assert mw.scalar.dim_volume == mesh444_j8.n_vertices
    assert mw.jacobi_skeleton.shape == (mw.dim_skeleton,)


def test_maxwell_solve_end_to_end(mesh222_j2, rng):
    mw = setup_maxwell(mesh222_j2, Coefficients())
    u_ex = rng.uniform(-1, 1, mw.dim_skeleton)
    report = pcg(mw.schur.apply, mw.qhx, mw.schur.apply(u_ex), tol=1e-9)
    assert report.history.converged
    err = np.linalg.norm(report.solution - u_ex) / np.linalg.norm(u_ex)
    assert err <= 1e-7
