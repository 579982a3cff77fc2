"""PCG: termination, monotonicity, determinism, breakdown, history shape."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurhx.errors import PcgBreakdownError, SingularOperatorError
from schurhx.krylov import pcg


def _spd(rng, n):
    w = rng.uniform(-1.0, 1.0, (n, n))
    return w @ w.T + n * np.eye(n)


def test_identity_converges_in_one_iteration(rng):
    rhs = rng.uniform(-1, 1, 12)
    report = pcg(lambda u: u, lambda u: u, rhs, tol=1e-12)
    assert report.history.converged
    assert report.history.iterations == 1
    assert np.abs(report.solution - rhs).max() <= 1e-12


def test_two_distinct_eigenvalues_two_iterations():
    op = np.diag([1.0, 10.0])
    report = pcg(lambda u: op @ u, lambda u: u, np.array([1.0, 1.0]), tol=1e-10)
    assert report.history.converged
    assert report.history.iterations <= 2


def test_finite_termination(rng):
    n = 30
    a = _spd(rng, n)
    rhs = rng.uniform(-1, 1, n)
    report = pcg(lambda u: a @ u, lambda u: u, rhs, tol=1e-14, max_iter=100)
    assert report.history.converged
    assert report.history.iterations <= n + 2


def test_energy_error_monotone(rng):
    n = 25
    a = _spd(rng, n)
    u_ex = rng.uniform(-1, 1, n)

    def solve(max_iter):
        return pcg(lambda u: a @ u, lambda u: u, a @ u_ex, tol=1e-12, max_iter=max_iter)

    # CG is deterministic, so stopping after k steps yields its k-th iterate.
    iterations = solve(1000).history.iterations
    iterates = [np.zeros(n)] + [solve(k).solution for k in range(1, iterations + 1)]
    errors = np.array([float((x - u_ex) @ (a @ (x - u_ex))) for x in iterates])
    assert np.all(errors[1:] <= errors[:-1] * (1 + 1e-12) + 1e-15)


def test_preconditioner_accelerates(rng):
    n = 40
    a = _spd(rng, n) + np.diag(np.linspace(0, 500, n))
    rhs = rng.uniform(-1, 1, n)
    plain = pcg(lambda u: a @ u, lambda u: u, rhs, tol=1e-10, max_iter=500)
    inv = np.linalg.inv(a)
    exact = pcg(lambda u: a @ u, lambda u: inv @ u, rhs, tol=1e-10, max_iter=500)
    assert exact.history.iterations <= 2
    assert exact.history.iterations < plain.history.iterations


def test_histories_bitwise_deterministic(rng):
    n = 20
    a = _spd(rng, n)
    rhs = rng.uniform(-1, 1, n)
    r1 = pcg(lambda u: a @ u, lambda u: u, rhs, tol=1e-11)
    r2 = pcg(lambda u: a @ u, lambda u: u, rhs, tol=1e-11)
    assert np.array_equal(r1.history.relres, r2.history.relres)
    assert np.array_equal(r1.solution, r2.solution)


def test_manufactured_solution_accuracy(rng):
    n = 35
    a = _spd(rng, n)
    u_ex = rng.uniform(-1, 1, n)
    tol = 1e-9
    report = pcg(lambda u: a @ u, lambda u: u, a @ u_ex, tol=tol)
    err = np.linalg.norm(report.solution - u_ex) / np.linalg.norm(u_ex)
    assert err <= 100 * tol


def test_indefinite_operator_breaks_down(rng):
    op = np.diag([1.0, -1.0, 2.0])
    with pytest.raises(PcgBreakdownError, match="not SPD"):
        pcg(lambda u: op @ u, lambda u: u, np.array([1.0, 1.0, 1.0]))


def test_indefinite_preconditioner_detected(rng):
    a = _spd(rng, 4)
    rhs = np.ones(4)
    with pytest.raises(PcgBreakdownError):
        pcg(lambda u: a @ u, lambda u: -u, rhs)


def test_nan_input_detected(rng):
    """A NaN right-hand side is refused before any apply; a NaN that an
    operator returns is a breakdown."""
    a = _spd(rng, 3)
    applied = []

    def op(u):
        applied.append("op")
        return a @ u

    def prec(r):
        applied.append("prec")
        return r

    with pytest.raises(ValueError, match="rhs must be finite"):
        pcg(op, prec, np.array([1.0, np.nan, 0.0]))
    assert applied == []
    with pytest.raises(PcgBreakdownError, match="operator is not SPD"):
        pcg(lambda u: a @ u * np.nan, lambda u: u, np.ones(3))


@pytest.mark.parametrize("bad_apply", [1, 3])
def test_nan_from_operator_blames_the_operator(rng, bad_apply):
    """A NaN <p, op p> is reported at the iteration whose operator apply
    returned it, as the operator's fault, not a step later as the
    preconditioner's."""
    a = _spd(rng, 6)
    calls = []

    def op(u):
        calls.append(1)
        return a @ u * (np.nan if len(calls) == bad_apply else 1.0)

    with pytest.raises(
        PcgBreakdownError,
        match=rf"^operator is not SPD at iteration {bad_apply}: <p, op p> = nan$",
    ):
        pcg(op, lambda u: u, np.ones(6), tol=1e-12)
    assert len(calls) == bad_apply


@pytest.mark.parametrize("bad", [np.inf, -np.inf])
def test_infinite_rhs_rejected(bad):
    with pytest.raises(ValueError, match="rhs must be finite"):
        pcg(lambda u: u, lambda u: u, np.array([1.0, bad]))


def test_parameter_validation():
    with pytest.raises(ValueError):
        pcg(lambda u: u, lambda u: u, np.ones(2), tol=0.0)
    with pytest.raises(ValueError):
        pcg(lambda u: u, lambda u: u, np.ones(2), tol=1.5)
    with pytest.raises(ValueError):
        pcg(lambda u: u, lambda u: u, np.ones(2), max_iter=0)


def test_zero_rhs_short_circuits():
    report = pcg(lambda u: u, lambda u: u, np.zeros(5))
    assert report.history.converged
    assert report.history.iterations == 0
    assert np.array_equal(report.history.relres, [0.0])
    assert np.all(report.solution == 0.0)


@pytest.mark.parametrize(
    "prec",
    [
        lambda r: np.zeros_like(r),
        lambda r: np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 1.0], [0.0, -1.0, 0.0]]) @ r,
    ],
    ids=["zero", "skew"],
)
def test_preconditioner_orthogonal_to_residual_raises(prec):
    """A preconditioner that maps a nonzero residual to a zero or
    r-orthogonal vector is not SPD; it must not read as converged at x = 0."""
    a = np.diag([1.0, 2.0, 3.0])
    with pytest.raises(PcgBreakdownError, match=r"<z0, r0> = 0\.0"):
        pcg(lambda u: a @ u, prec, np.ones(3))


def test_semidefinite_preconditioner_raises_inside_loop():
    """P = diag(1, 0, 0) maps the residual after one step to zero: <z, r> = 0
    on a nonzero residual must raise, not read as converged (the true
    relative residual there is 0.82)."""
    a = np.diag([1.0, 2.0, 3.0])
    with pytest.raises(PcgBreakdownError, match=r"<z, r> = 0\.0 at iteration 1"):
        pcg(lambda u: a @ u, lambda r: np.array([r[0], 0.0, 0.0]), np.ones(3))


def test_max_iter_reached_reported(rng):
    a = _spd(rng, 30) + np.diag(np.linspace(0, 1000, 30))
    report = pcg(lambda u: a @ u, lambda u: u, np.ones(30), tol=1e-13, max_iter=3)
    assert not report.history.converged
    assert report.history.iterations == 3


def test_history_shapes(rng):
    a = _spd(rng, 15)
    report = pcg(lambda u: a @ u, lambda u: u, np.ones(15), tol=1e-10)
    h = report.history
    assert h.relres[0] == 1.0
    assert h.relres.size == h.iterations + 1
    assert h.alphas.size == h.iterations
    assert h.betas.size == h.iterations - 1
    assert np.all(h.alphas > 0)
    assert np.all(h.betas >= 0)
    assert h.relres[-1] <= 1e-10


def test_lanczos_of_two_eigenvalues_is_exact():
    """CG on diag(1, 4) ends after two steps, where the Ritz values are the
    eigenvalues themselves."""
    a = np.array([1.0, 4.0])
    est = pcg(lambda u: a * u, lambda u: u, np.ones(2), tol=1e-14).history.lanczos()
    assert est.lmin == pytest.approx(1.0, rel=1e-12)
    assert est.lmax == pytest.approx(4.0, rel=1e-12)
    assert est.cond == pytest.approx(4.0, rel=1e-12)


def test_lanczos_without_steps_raises():
    history = pcg(lambda u: u, lambda u: u, np.zeros(3)).history
    with pytest.raises(SingularOperatorError, match="no CG steps"):
        history.lanczos()
    history.alphas, history.iterations = np.array([-1.0]), 1
    with pytest.raises(SingularOperatorError, match="nonpositive"):
        history.lanczos()


@settings(max_examples=20, deadline=None)
@given(n=st.integers(min_value=2, max_value=16), seed=st.integers(0, 2**31))
def test_random_spd_systems_solve(n, seed):
    rng = np.random.default_rng(seed)
    a = _spd(rng, n)
    rhs = rng.uniform(-1, 1, n)
    report = pcg(lambda u: a @ u, lambda u: u, rhs, tol=1e-12, max_iter=10 * n)
    assert report.history.converged
    res = np.linalg.norm(a @ report.solution - rhs) / np.linalg.norm(rhs)
    assert res <= 1e-8
