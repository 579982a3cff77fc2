"""Dense verification layer: weighted pseudo-inverses and identity reports."""

import csv

import numpy as np
import pytest
import scipy.linalg as sla

import schurhx.oracle as oracle_mod
from schurhx.errors import ConfigurationError, SingularOperatorError
from schurhx.oracle import (
    DenseOp,
    IdentityReport,
    pseudoinverse_injective,
    pseudoinverse_surjective,
    verify_dense_lemmas,
    verify_identities,
)


def _spd(rng, n):
    w = rng.uniform(-1, 1, (n, n))
    return w @ w.T + n * np.eye(n)


def test_identity_map_is_own_pseudoinverse(rng):
    a = _spd(rng, 6)
    eye = np.eye(6)
    assert np.abs(pseudoinverse_surjective(eye, a) - eye).max() <= 1e-10
    assert np.abs(pseudoinverse_injective(eye, a) - eye).max() <= 1e-10


def test_unweighted_case_matches_moore_penrose(rng):
    theta = rng.uniform(-1, 1, (3, 5))
    pinv = pseudoinverse_surjective(theta, np.eye(5))
    assert np.abs(pinv - np.linalg.pinv(theta)).max() <= 1e-10


def test_surjective_projector_contracts_energy(rng):
    for _ in range(20):
        n = int(rng.integers(3, 12))
        m = int(rng.integers(1, n))
        a = _spd(rng, n)
        theta = rng.uniform(-1, 1, (m, n))
        proj = pseudoinverse_surjective(theta, a) @ theta
        v = rng.uniform(-1, 1, n)
        pv = proj @ v
        assert pv @ a @ pv <= v @ a @ v + 1e-10


def test_surjective_minimal_norm_among_feasible(rng):
    n, m = 9, 4
    a = _spd(rng, n)
    theta = rng.uniform(-1, 1, (m, n))
    pinv = pseudoinverse_surjective(theta, a)
    u = rng.uniform(-1, 1, m)
    star = pinv @ u
    energy = star @ a @ star
    for _ in range(50):
        v = rng.uniform(-2, 2, n)
        feasible = v - pinv @ (theta @ v - u)
        assert np.abs(theta @ feasible - u).max() <= 1e-9
        assert energy <= feasible @ a @ feasible + 1e-10


def test_injective_pseudoinverse_solves_least_squares(rng):
    n, m = 10, 4
    a = _spd(rng, n)
    phi = rng.uniform(-1, 1, (n, m))
    pinj = pseudoinverse_injective(phi, a)
    w = rng.uniform(-1, 1, n)
    chol = sla.cholesky(a)  # upper: |x|_A = |chol x|_2
    best = np.linalg.lstsq(chol @ phi, chol @ w, rcond=None)[0]
    assert np.abs(pinj @ w - best).max() <= 1e-9


def test_rank_deficient_maps_rejected(rng):
    a = _spd(rng, 5)
    row = rng.uniform(-1, 1, 5)
    with pytest.raises(SingularOperatorError, match="surjective"):
        pseudoinverse_surjective(np.vstack([row, 2.0 * row]), a)
    col = rng.uniform(-1, 1, 5)
    with pytest.raises(SingularOperatorError, match="injective"):
        pseudoinverse_injective(np.column_stack([col, np.zeros(5)]), a)


def test_dense_op_validation(rng):
    with pytest.raises(ValueError, match="ndim"):
        DenseOp(np.ones(4))
    with pytest.raises(ValueError, match="square"):
        DenseOp(np.ones((2, 3)), spd=True)
    skew = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(SingularOperatorError, match="symmetric"):
        DenseOp(skew, spd=True)
    with pytest.raises(SingularOperatorError, match="PD"):
        DenseOp(np.diag([1.0, -1.0]), spd=True)
    op = DenseOp(_spd(rng, 4), spd=True)
    assert op.shape == (4, 4)


def test_dense_lemmas_pass(rng):
    report = verify_dense_lemmas(seed=0, draws=20)
    assert report.passed
    assert len(report.checks) == 140
    assert all(c.bound <= 1e-9 for c in report.checks)
    # a different seed exercises different dimensions and still passes
    assert verify_dense_lemmas(seed=int(rng.integers(1, 1000)), draws=5).passed


def test_trace_range_orthogonal_to_kernel(scalar222_j8, rng, selection):
    """The coordinate-selection trace annihilates exactly the interior dofs,
    so Range(trace^T) is orthogonal to Ker(trace) in the plain dot product."""
    bt = selection(scalar222_j8.transfer, "boundary_trace").toarray()
    interior = np.flatnonzero(np.abs(bt).sum(axis=0) == 0)
    assert interior.size == bt.shape[1] - bt.shape[0]
    y = rng.uniform(-1, 1, bt.shape[0])
    assert np.all((bt.T @ y)[interior] == 0.0)


@pytest.mark.parametrize(
    "mesh_name", ["mesh222_j1", "mesh222_j2", "mesh222_j8"]
)
def test_verify_identities_passes(request, mesh_name):
    mesh = request.getfixturevalue(mesh_name)
    report = verify_identities(mesh)
    assert report.passed, "\n".join(report.lines())
    names = {c.name for c in report.checks}
    if mesh.n_subdomains == 1:
        assert "single-subdomain-exactness" in names
    assert "edge-final-cond-estimate" in names


def test_verify_identities_without_spectra(mesh222_j2):
    report = verify_identities(mesh222_j2, include_spectra=False)
    assert report.passed
    names = {c.name for c in report.checks}
    assert "jacobi-pushdown-cond-bound" not in names
    assert "interface-inverse-identity-edge" in names


def test_corrupted_gradient_is_caught(mesh222_j8):
    report = verify_identities(
        mesh222_j8, include_spectra=False, corrupt_gradient_sign=True
    )
    assert not report.passed
    failing = {c.name for c in report.checks if not c.passed}
    assert failing == {"gradient-trace-commutation"}


def test_dof_limit_enforced(mesh222_j1, monkeypatch):
    monkeypatch.setattr(oracle_mod, "DENSE_DOF_LIMIT", 10)
    with pytest.raises(ConfigurationError, match="10"):
        verify_identities(mesh222_j1)


def test_report_lines_and_csv(tmp_path):
    report = IdentityReport()
    report.add_residual("alpha", "ctx-a", 1e-12, 1e-9)
    report.add_residual("beta", "ctx-b", 2.0, 1.0)
    lines = report.lines()
    assert lines[0].startswith("[pass] alpha (ctx-a):")
    assert lines[1].startswith("[FAIL] beta (ctx-b):")
    assert not report.passed

    path = tmp_path / "checks.csv"
    report.write_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["name"] for r in rows] == ["alpha", "beta"]
    assert rows[0]["passed"] == "1" and rows[1]["passed"] == "0"
    assert float(rows[1]["value"]) == 2.0
