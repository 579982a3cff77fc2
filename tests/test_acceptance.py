"""Acceptance gate: twelve numbered criteria, one pass/fail line each.

Each test prints `criterion NN PASS/FAIL: <measured values>` before asserting,
so a captured run shows exactly which gate moved and by how much.  Criteria 9
and 10 share module-scoped refinement tables (subdomain grid (3,3,3), cells 3,
6, 9, 12 per axis) with criterion 11.
"""

from time import perf_counter

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from schurhx.assemble import Coefficients, assemble_edge, assemble_scalar
from schurhx.cli import ExperimentConfig, run_experiment, run_table
from schurhx.discrete_ops import build_aux_maps
from schurhx.dofspaces import build_transfer
from schurhx.krylov import pcg
from schurhx.mesh import build_box_mesh
from schurhx.oracle import (
    dense_condition,
    materialize,
    pseudoinverse_injective,
    pseudoinverse_surjective,
    verify_dense_lemmas,
    volume_matrix,
)
from schurhx.precond import setup_maxwell, setup_scalar

SUBDOMAIN_GRIDS = ((1, 1, 1), (2, 1, 1), (2, 2, 2))

TEST_MESHES = (
    ((2, 2, 2), (1, 1, 1)),
    ((2, 2, 2), (2, 1, 1)),
    ((2, 2, 2), (2, 2, 2)),
    ((4, 2, 2), (2, 1, 1)),
    ((3, 3, 3), (3, 1, 1)),
    ((4, 4, 4), (2, 2, 2)),
)


def _report(criterion: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"criterion {criterion:02d} {status}: {detail}")


def _max_abs(matrix) -> float:
    data = matrix.data if hasattr(matrix, "data") else np.asarray(matrix)
    return float(np.abs(data).max()) if data.size else 0.0


@pytest.fixture(scope="module")
def scalar_table():
    t0 = perf_counter()
    reports = run_table(ExperimentConfig(problem="scalar", table=True))
    return reports, perf_counter() - t0


@pytest.fixture(scope="module")
def maxwell_table():
    t0 = perf_counter()
    reports = run_table(ExperimentConfig(problem="maxwell", table=True))
    return reports, perf_counter() - t0


def test_criterion_01_scalar_interface_inverse_formula(selection):
    t0 = perf_counter()
    worst = 0.0
    for grid in SUBDOMAIN_GRIDS:
        mesh = build_box_mesh((2, 2, 2), grid)
        prob = setup_scalar(mesh, Coefficients())
        schur = materialize(prob.schur.apply, prob.schur.dim)
        tr = selection(prob.schur.transfer, "skeleton_trace").toarray()
        vol = volume_matrix(
            prob.schur.transfer, *assemble_scalar(mesh, prob.coeffs)
        )
        pushed = tr @ sla.solve(vol, tr.T, assume_a="pos")
        resid = np.abs(schur @ pushed - np.eye(schur.shape[0])).max()
        worst = max(worst, resid)
    elapsed = perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 5.0
    _report(1, ok, f"worst residual {worst:.2e} (tol 1e-9), {elapsed:.2f}s (< 5s)")
    assert worst <= 1e-9
    assert elapsed < 5.0


def test_criterion_02_edge_interface_inverse_formula(selection):
    t0 = perf_counter()
    worst = 0.0
    for grid in SUBDOMAIN_GRIDS:
        mesh = build_box_mesh((2, 2, 2), grid)
        coeffs = Coefficients()
        prob = setup_maxwell(mesh, coeffs)
        schur = materialize(prob.schur.apply, prob.schur.dim)
        tr = selection(prob.schur.transfer, "skeleton_trace").toarray()
        vol = volume_matrix(prob.schur.transfer, *assemble_edge(mesh, coeffs))
        pushed = tr @ sla.solve(vol, tr.T, assume_a="pos")
        resid = np.abs(schur @ pushed - np.eye(schur.shape[0])).max()
        worst = max(worst, resid)
    elapsed = perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 10.0
    _report(2, ok, f"worst residual {worst:.2e} (tol 1e-9), {elapsed:.2f}s (< 10s)")
    assert worst <= 1e-9
    assert elapsed < 10.0


def test_criterion_03_weighted_pseudoinverse_lemmas():
    report = verify_dense_lemmas(seed=0)
    worst = max(c.value for c in report.checks)
    ok = report.passed and len(report.checks) >= 140
    _report(3, ok, f"{len(report.checks)} residuals over 20 draws, worst {worst:.2e} (tol 1e-9)")
    assert ok, "\n".join(report.lines())


def test_criterion_04_pseudoinverse_commutation(selection):
    worst = 0.0
    for grid in ((2, 1, 1), (2, 2, 2)):
        mesh = build_box_mesh((2, 2, 2), grid)
        prob = setup_scalar(mesh, Coefficients())
        ops = prob.schur.transfer
        blocks, group_of = assemble_scalar(mesh, prob.coeffs)
        lift_vol = pseudoinverse_surjective(
            selection(ops, "skeleton_trace").toarray(), volume_matrix(ops, blocks, group_of)
        )
        lift_blk = pseudoinverse_surjective(
            selection(ops, "boundary_trace").toarray(),
            sp.block_diag([blocks[u] for u in group_of], format="csr").toarray(),
        )
        split_vol = selection(ops, "volume_split").toarray()
        split_skel = selection(ops, "skeleton_split").toarray()
        resid = np.abs(split_vol @ lift_vol - lift_blk @ split_skel).max()
        worst = max(worst, resid)
    ok = worst <= 1e-9
    _report(4, ok, f"worst residual {worst:.2e} (tol 1e-9) over J=2, J=8")
    assert ok


def test_criterion_05_commutation_lattice_exact(selection):
    worst = 0.0
    for cells, grid in TEST_MESHES:
        mesh = build_box_mesh(cells, grid)
        scalar_ops = build_transfer(mesh, "scalar")
        edge_ops = build_transfer(mesh, "edge")
        for ops in (scalar_ops, edge_ops):
            lhs = selection(ops, "boundary_trace") @ selection(ops, "volume_split")
            rhs = selection(ops, "skeleton_split") @ selection(ops, "skeleton_trace")
            worst = max(worst, _max_abs(lhs - rhs))
        tr_v = selection(scalar_ops, "skeleton_trace")
        tr_e = selection(edge_ops, "skeleton_trace")
        g_vol, ps_vol = build_aux_maps(mesh)
        g_skel, ps_skel = build_aux_maps(mesh, (scalar_ops, edge_ops))
        worst = max(worst, _max_abs(tr_e @ g_vol - g_skel @ tr_v))
        for pv, ps in zip(ps_vol, ps_skel, strict=True):
            worst = max(worst, _max_abs(tr_e @ pv - ps @ tr_v))
    ok = worst == 0.0
    _report(5, ok, f"max residual {worst!r} over {len(TEST_MESHES)} meshes (must be exactly 0)")
    assert ok


def test_criterion_06_degree_average_closed_form(selection):
    worst = 0.0
    for grid in ((2, 1, 1), (2, 2, 2)):
        mesh = build_box_mesh((2, 2, 2), grid)
        prob = setup_scalar(mesh, Coefficients())
        ops = prob.schur.transfer
        split = selection(ops, "skeleton_split").toarray()
        closed = split.T / prob.qnn.degree[:, None]
        pinj = pseudoinverse_injective(split, np.eye(ops.skeleton_split.size))
        worst = max(worst, np.abs(pinj - closed).max())
    ok = worst <= 1e-12
    _report(6, ok, f"worst entrywise deviation {worst:.2e} (tol 1e-12)")
    assert ok


def test_criterion_07_single_subdomain_exactness():
    mesh = build_box_mesh((2, 2, 2), (1, 1, 1))
    prob = setup_scalar(mesh, Coefficients())
    exact = np.random.default_rng(0).uniform(-1.0, 1.0, prob.dim_skeleton)
    report = pcg(prob.schur.apply, prob.qnn, prob.schur.apply(exact), tol=1e-9)
    ok = report.history.converged and report.history.iterations <= 2
    _report(7, ok, f"converged={report.history.converged} in {report.history.iterations} iterations (<= 2)")
    assert ok


def test_criterion_08_spectral_inequalities(selection):
    t0 = perf_counter()
    mesh = build_box_mesh((2, 2, 2), (2, 2, 2))
    coeffs = Coefficients()
    mw = setup_maxwell(mesh, coeffs)
    sc = mw.scalar
    slack = 1.0 + 1e-9

    scalar_ops, edge_ops = sc.schur.transfer, mw.schur.transfer
    l_dense = volume_matrix(scalar_ops, *assemble_scalar(mesh, coeffs))
    m_dense = volume_matrix(edge_ops, *assemble_edge(mesh, coeffs))
    s_l = materialize(sc.schur.apply, sc.schur.dim)
    s_m = materialize(mw.schur.apply, mw.schur.dim)
    q_nn = materialize(sc.qnn, sc.qnn.dim)
    q_hx = materialize(mw.qhx, mw.qhx.dim)

    cond_hx = dense_condition(s_m, q_hx)
    cond_nn = dense_condition(s_l, q_nn)

    aux = np.diag(1.0 / np.diag(m_dense))
    gradient, interps = build_aux_maps(mesh)
    grad = gradient.toarray()
    aux = aux + grad @ sla.solve(l_dense, grad.T, assume_a="pos")
    for interp in (p.toarray() for p in interps):
        aux = aux + interp @ sla.solve(l_dense, interp.T, assume_a="pos")
    cond_aux = dense_condition(m_dense, aux)

    # The push-down corollary instantiated with the scalar Jacobi choice.
    tr = selection(sc.schur.transfer, "skeleton_trace").toarray()
    jac_inv = 1.0 / np.diag(l_dense)
    pushed = (tr * jac_inv) @ tr.T
    cond_push = dense_condition(s_l, pushed)
    cond_jac = dense_condition(l_dense, np.diag(jac_inv))

    elapsed = perf_counter() - t0
    product_ok = cond_hx <= cond_nn * cond_aux * slack
    pushdown_ok = cond_push <= cond_jac * slack
    ok = product_ok and pushdown_ok and elapsed < 60.0
    _report(
        8,
        ok,
        f"cond(QS_edge)={cond_hx:.2f} <= {cond_nn:.2f}*{cond_aux:.2f}={cond_nn * cond_aux:.2f}; "
        f"pushdown {cond_push:.2f} <= jacobi {cond_jac:.2f}; {elapsed:.1f}s (< 60s)",
    )
    assert product_ok and pushdown_ok
    assert elapsed < 60.0


def test_criterion_09_scalar_refinement_table(scalar_table):
    reports, total = scalar_table
    iters = [rep.metadata["iterations"] for rep in reports]
    ratios = [b / a for a, b in zip(iters, iters[1:])]
    progression = "->".join(str(i) for i in iters)
    ok = (
        all(rep.metadata["converged"] for rep in reports)
        and max(iters) <= 100
        and all(a <= b for a, b in zip(iters, iters[1:]))
        and max(ratios) <= 1.35
        and total < 600.0
    )
    _report(
        9,
        ok,
        f"iterations {progression} (cap 100), ratios "
        + "/".join(f"{r:.3f}" for r in ratios)
        + f" (cap 1.35), total {total:.1f}s (< 600s)",
    )
    assert ok, f"scalar table iterations {progression}, ratios {ratios}, total {total:.1f}s"


def test_criterion_10_maxwell_refinement_table(maxwell_table):
    reports, _total = maxwell_table
    iters = [rep.metadata["iterations"] for rep in reports]
    ratios = [b / a for a, b in zip(iters, iters[1:])]
    progression = "->".join(str(i) for i in iters)
    shown = "/".join(f"{r:.3f}" for r in ratios)
    largest = reports[-1].history.wall_time
    caps_ok = (
        all(rep.metadata["converged"] for rep in reports)
        and max(iters) <= 150
        and largest < 1200.0
    )
    # Refinement may lower the count a little (the auxiliary space alone
    # does, even with an exact scalar inverse), so drops are bounded like
    # growth rather than forbidden.
    ratio_ok = min(ratios) >= 1 / 1.3 and max(ratios) <= 1.3
    _report(
        10,
        caps_ok and ratio_ok,
        f"iterations {progression} (cap 150), ratios {shown} "
        f"(within [1/1.3, 1.3]), largest run {largest:.1f}s (< 1200s)",
    )
    assert caps_ok, f"iteration/time caps violated: {progression}, largest {largest:.1f}s"
    assert ratio_ok, (
        f"iterations {progression}: consecutive ratios {shown} leave "
        f"[1/1.3, 1.3] = [{1 / 1.3:.3f}, 1.300]"
    )


def test_criterion_11_manufactured_solution_accuracy(scalar_table, maxwell_table):
    errors = [
        rep.metadata["relative_error"]
        for rep in scalar_table[0] + maxwell_table[0]
    ]
    worst = max(errors)
    ok = worst <= 100 * 1e-9
    _report(11, ok, f"worst relative error {worst:.2e} over 8 runs (tol 1e-7)")
    assert ok


def test_criterion_12_deterministic_reruns(tmp_path, capsys):
    ok = True
    details = []
    for problem, grid in (("scalar", (2, 1, 1)), ("maxwell", (2, 2, 2))):
        out = tmp_path / f"{problem}.csv"
        cfg = ExperimentConfig(
            problem=problem, cells=(2, 2, 2), subdomains=grid, seed=3, out=str(out)
        )
        first_rep = run_experiment(cfg)
        first_body = out.read_bytes()
        second_rep = run_experiment(cfg)
        same_iters = first_rep.history.iterations == second_rep.history.iterations
        same_body = out.read_bytes() == first_body
        ok = ok and same_iters and same_body
        details.append(
            f"{problem}: iters {first_rep.history.iterations}=={second_rep.history.iterations}, "
            f"csv identical={same_body}"
        )
    _report(12, ok, "; ".join(details))
    assert ok
