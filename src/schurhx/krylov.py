"""Preconditioned conjugate gradients with a preconditioned-residual stop rule.

The iteration monitors  sqrt(<z_k, r_k> / <z_0, r_0>)  where z = prec(r); that
quantity is the energy norm of the preconditioned residual and is what the
convergence histories and the stopping test use.  The CG coefficients
(alpha_k, beta_k) are kept: they define the Lanczos tridiagonal whose extreme
eigenvalues bound the preconditioned spectrum from inside, which the condition
estimator uses.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import PcgBreakdownError

__all__ = ["ConvergenceHistory", "SolveReport", "pcg"]


@dataclass
class ConvergenceHistory:
    relres: np.ndarray  # relres[k] after k iterations; relres[0] = 1
    iterations: int
    converged: bool
    wall_time: float
    alphas: np.ndarray = field(default_factory=lambda: np.empty(0))
    betas: np.ndarray = field(default_factory=lambda: np.empty(0))


@dataclass
class SolveReport:
    solution: np.ndarray
    history: ConvergenceHistory
    metadata: dict


def pcg(
    apply_op,
    apply_prec,
    rhs: np.ndarray,
    tol: float = 1e-9,
    max_iter: int = 1000,
) -> SolveReport:
    """Solve  op x = rhs  with SPD ``apply_op`` and SPD ``apply_prec``.

    Raises :class:`PcgBreakdownError` when <z, r> <= 0 for a nonzero
    residual, before the first iteration or after any, when <p, op p> <= 0,
    or when an iterate goes non-finite: each means an operator is not SPD as
    promised.
    """
    if not (0 < tol < 1):
        raise ValueError(f"tol must lie in (0, 1), got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    rhs = np.asarray(rhs, dtype=float)
    start = time.perf_counter()

    x = np.zeros_like(rhs)
    r = rhs.copy()
    z = apply_prec(r)
    rho = float(z @ r)
    # Only a zero residual is converged before the first iteration; an SPD
    # preconditioner gives <z0, r0> > 0 for any other.
    converged = not np.any(r)
    if not converged and not rho > 0:
        raise PcgBreakdownError(f"preconditioner is not SPD: <z0, r0> = {rho} for r0 != 0")
    rho0 = rho
    relres = [0.0 if converged else 1.0]
    alphas: list[float] = []
    betas: list[float] = []
    p = z.copy()
    k = 0
    while not converged and k < max_iter:
        q = apply_op(p)
        p_op_p = float(p @ q)
        if p_op_p <= 0:
            raise PcgBreakdownError(
                f"operator is not SPD at iteration {k + 1}: <p, op p> = {p_op_p}"
            )
        alpha = rho / p_op_p
        x = x + alpha * p
        r = r - alpha * q
        z = apply_prec(r)
        rho_new = float(z @ r)
        # As before the loop, <z, r> = 0 means convergence only for r = 0;
        # r is scanned only in this rare branch.
        if not (np.isfinite(rho_new) and rho_new > 0) and (rho_new != 0 or np.any(r)):
            raise PcgBreakdownError(
                f"non-finite or non-positive <z, r> = {rho_new} at iteration {k + 1}"
            )
        k += 1
        alphas.append(alpha)
        relres.append(float(np.sqrt(rho_new / rho0)))
        if relres[-1] <= tol:
            converged = True
            break
        beta = rho_new / rho
        betas.append(beta)
        p = z + beta * p
        rho = rho_new

    history = ConvergenceHistory(
        relres=np.asarray(relres),
        iterations=k,
        converged=converged,
        wall_time=time.perf_counter() - start,
        alphas=np.asarray(alphas),
        betas=np.asarray(betas),
    )
    return SolveReport(x, history, {})
