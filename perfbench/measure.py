"""Workloads and the measured solve loop of the schurhx benchmark.

One solve follows the call sequence of ``schurhx.cli.run_experiment``:
``build_box_mesh`` -> ``setup_scalar``/``setup_maxwell`` -> ``krylov.pcg``,
with the manufactured solution drawn from the workload seed and the
right-hand side formed as ``schur.apply(exact)``.  Calls are resolved through
the program's modules at call time, so the traced run sees them.

Per solve, ``setup_s`` runs from the ``build_box_mesh`` call to the return of
``setup_*`` and ``solve_s`` is the wall time of ``pcg``.  RHS generation and
the correctness check are outside both.  A run reports, per size, the median
of each over its repetitions, summed over the workload's sizes.  A solve
fails when it raises, does not converge, or when its error against the
manufactured solution or its true residual ``|b - S x| / |b|`` (computed
with the public ``schur.apply``) exceeds ``CHECK_FACTOR * TOL``.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, replace

import numpy as np

import schurhx
import schurhx.errors
from schurhx.assemble import Coefficients
from spans import Tracer

TOL = 1e-9
#: A solve passes when its error and true residual are at most this times TOL.
#: At tol 1e-9 the program reaches at most 4.1e-9 and 1.8e-9 respectively.
CHECK_FACTOR = 100
#: setup_s is the median of at least this many set-ups per run.
MIN_SETUPS = 3
#: Seed of the fixed per-subdomain diffusion draw; part of the workload
#: definition, independent of the benchmark seed.
ALPHA_SEED = 2306

#: The typed errors the program raises on bad input or a failed solve.
PROGRAM_ERRORS = tuple(
    value
    for value in vars(schurhx.errors).values()
    if isinstance(value, type) and issubclass(value, Exception)
)


@dataclass(frozen=True)
class Workload:
    field: str  # "scalar" | "maxwell"
    sizes: tuple[int, ...]  # cells per axis, one solve per entry
    subdomains: int  # subdomains per axis
    alpha_jump: bool = False  # per-subdomain alpha, log-uniform on [0.1, 10]
    max_iter: int = 1000


# The iteration caps sit at about three times the counts seen at seed 0, so
# a preconditioner regression fails the solve instead of overrunning the
# run's time limit.
WORKLOADS = {
    "maxwell-24": Workload("maxwell", (24,), 4, max_iter=300),
    "scalar-24-jump": Workload("scalar", (24,), 4, alpha_jump=True, max_iter=500),
    "maxwell-table": Workload("maxwell", (3, 6, 9, 12), 3, max_iter=200),
}


def smoke(workload: Workload) -> Workload:
    """The tiny-size variant used by the benchmark's tests and for warm-up."""
    sizes = (3, 6) if len(workload.sizes) > 1 else (6,)
    return replace(workload, sizes=sizes, subdomains=3)


def coefficients(workload: Workload, mesh) -> Coefficients:
    if not workload.alpha_jump:
        return Coefficients()
    rng = np.random.default_rng(ALPHA_SEED)
    alpha_j = np.exp(rng.uniform(np.log(0.1), np.log(10.0), mesh.n_subdomains))
    return Coefficients(alpha=alpha_j[mesh.tet_subdomain])


def solve(workload: Workload, cells: int, seed: int, tracer: Tracer | None,
          setup_only: bool = False, cond: bool = False) -> dict:
    """One mesh-to-solution run at ``cells``^3; raises what the program raises."""
    window = tracer.window if tracer else (lambda kind: nullcontext())
    setup = (
        schurhx.precond.setup_maxwell
        if workload.field == "maxwell"
        else schurhx.precond.setup_scalar
    )
    with window("setup"):
        t0 = time.perf_counter()
        mesh = schurhx.mesh.build_box_mesh((cells,) * 3, (workload.subdomains,) * 3)
        problem = setup(mesh, coefficients(workload, mesh))
        setup_s = time.perf_counter() - t0
    if setup_only:
        return {"setup_s": setup_s}

    op = problem.schur.apply
    prec = problem.qhx if workload.field == "maxwell" else problem.qnn
    exact = np.random.default_rng(seed).uniform(-1.0, 1.0, problem.dim_skeleton)
    rhs = op(exact)
    if tracer:
        op, prec = tracer.counted("krylov.op_calls", op), tracer.counted("krylov.prec_calls", prec)
    with window("solve"):
        t0 = time.perf_counter()
        report = schurhx.krylov.pcg(op, prec, rhs, tol=TOL, max_iter=workload.max_iter)
        solve_s = time.perf_counter() - t0

    x = report.solution
    error = float(np.linalg.norm(x - exact) / np.linalg.norm(exact))
    residual = float(np.linalg.norm(rhs - problem.schur.apply(x)) / np.linalg.norm(rhs))
    limit = CHECK_FACTOR * TOL
    sample = {
        "cells": cells,
        "setup_s": setup_s,
        "solve_s": solve_s,
        "iterations": report.history.iterations,
        "converged": report.history.converged,
        "error": error,
        "true_residual": residual,
        "ok": bool(report.history.converged and error <= limit and residual <= limit),
    }
    if cond:
        try:
            sample["cond_lanczos"] = schurhx.precond.estimate_condition(
                problem.schur.apply, prec, problem.dim_skeleton, method="lanczos", seed=seed
            ).cond
        except PROGRAM_ERRORS as err:  # an estimate failure is not a failed solve
            print(f"condition estimate failed: {err}", file=sys.stderr)
            sample["cond_lanczos"] = 0.0
    return sample


class Run:
    """The repetitions of one benchmark run and their failure count."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.reps: list[dict] = []  # full repetitions in which every solve completed
        self.setups: dict[int, list[float]] = {n: [] for n in workload.sizes}
        self.peak_rss_mb = 0.0

    def _attempt(self, fn) -> dict | None:
        self.attempted += 1
        try:
            sample = fn()
        except Exception as err:  # a failed solve is counted, never fatal
            self.failed += 1
            if not isinstance(err, PROGRAM_ERRORS):
                traceback.print_exc(file=sys.stderr)
            else:
                print(f"solve failed: {type(err).__name__}: {err}", file=sys.stderr)
            return None
        if not sample.get("ok", True):
            self.failed += 1
            print(f"solve failed its check: {sample}", file=sys.stderr)
        return sample

    def rep(self, tracer: Tracer | None = None, cond: bool = False) -> dict | None:
        """Solve every size once; the repetition's totals, or None on an error."""
        solves = [
            self._attempt(lambda n=n: solve(self.workload, n, self.seed, tracer, cond=cond))
            for n in self.workload.sizes
        ]
        if not self.peak_rss_mb:
            # Taken after the first repetition only: freed set-ups are not
            # all returned to the OS, so later ones would inflate the peak.
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if any(s is None for s in solves):
            return None
        rep = {
            "setup_s": sum(s["setup_s"] for s in solves),
            "solve_s": sum(s["solve_s"] for s in solves),
            "iterations": sum(s["iterations"] for s in solves),
            "solves": solves,
        }
        self.reps.append(rep)
        for s in solves:
            self.setups[s["cells"]].append(s["setup_s"])
        return rep

    def setup_rep(self) -> bool:
        """Set every size up once more, without solving.

        A set-up that raises counts as one failed attempt and ends the run's
        extra set-ups.
        """
        times = {}
        for n in self.workload.sizes:
            gc.collect()
            try:
                times[n] = solve(self.workload, n, self.seed, None, setup_only=True)["setup_s"]
            except Exception:
                self.attempted += 1
                self.failed += 1
                traceback.print_exc(file=sys.stderr)
                return False
        for n, t in times.items():
            self.setups[n].append(t)
        return True

    def n_setups(self) -> int:
        return min(len(times) for times in self.setups.values())

    def repeat(self, seconds: float, tracer: Tracer | None = None, cond: bool = False,
               on_rep=None) -> None:
        """Full repetitions within ``seconds`` (at least one).

        A repetition starts only if one of median length still ends inside
        the window, so a run does not overshoot it by most of a repetition.
        """
        start = time.perf_counter()
        durations: list[float] = []
        while True:
            gc.collect()
            t0 = time.perf_counter()
            rep = self.rep(tracer, cond=cond and not durations)
            durations.append(time.perf_counter() - t0)
            if on_rep is not None:
                on_rep(rep)
            if rep is None or time.perf_counter() - start + median(durations) > seconds:
                break


def median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def warm_up(workload: Workload) -> None:
    """Finish lazy imports and first-call set-up before anything is timed."""
    Run(smoke(workload), 0).rep()


def end_to_end(run: Run) -> dict:
    """Per-size medians, summed over sizes, so a slow spell on the machine
    that hits one solve of a repetition does not move the whole repetition."""
    setup_s = sum(median(times) for times in run.setups.values())
    solve_s = sum(
        median([r["solves"][i]["solve_s"] for r in run.reps])
        for i in range(len(run.workload.sizes))
    )
    return {
        "time_to_solution_s": (setup_s + solve_s, "s"),
        "setup_s": (setup_s, "s"),
        "solve_s": (solve_s, "s"),
        "iterations": (median([r["iterations"] for r in run.reps]), "count"),
        "peak_rss_mb": (run.peak_rss_mb, "MB"),
        "solved_fraction": ((run.attempted - run.failed) / max(run.attempted, 1), "ratio"),
    }


def measure(workload: Workload, seed: int, seconds: float) -> tuple[Run, dict]:
    """Untraced run: end-to-end metrics."""
    run = Run(workload, seed)
    run.repeat(seconds)
    while run.reps and run.n_setups() < MIN_SETUPS and run.setup_rep():
        pass
    return run, end_to_end(run)


def measure_traced(workload: Workload, seed: int, seconds: float) -> tuple[Run, dict, dict]:
    """Traced run: per-layer metrics, after one untraced repetition.

    The untraced repetition is the reference for ``trace.overhead_s``.  The
    Lanczos condition estimate runs after the first traced solve of each
    size, outside every span and timer.
    """
    run = Run(workload, seed)
    gc.collect()
    untraced = run.rep()
    tracer = Tracer()
    per_rep: list[dict] = []
    labels: dict = {}

    def collect(rep):
        metrics, table = tracer.take()
        if rep is not None:
            metrics["trace.overhead_s"] = (
                rep["setup_s"] + rep["solve_s"] - untraced["setup_s"] - untraced["solve_s"]
                if untraced
                else 0.0
            )
            per_rep.append(metrics)
            labels.update(table)

    tracer.install(schurhx)
    try:
        run.repeat(seconds, tracer, cond=True, on_rep=collect)
    finally:
        tracer.uninstall()

    if not per_rep:
        per_rep = [dict(tracer.take()[0], **{"trace.overhead_s": 0.0})]
    metrics = {
        name: type(value)(median([m[name] for m in per_rep]))
        for name, value in per_rep[0].items()
    }
    traced_reps = run.reps[1:] if untraced else run.reps
    solves = traced_reps[0]["solves"] if traced_reps else []
    conds = [s["cond_lanczos"] for s in solves]
    iters = [s["iterations"] for s in solves]
    metrics["precond.cond_lanczos"] = conds[-1] if conds else 0.0
    growth = [b / a for a, b in zip(iters, iters[1:]) if a]
    detail = {
        "cells": list(workload.sizes),
        "iterations_per_size": iters,
        "cond_lanczos_per_size": conds,
        "max_iteration_growth": max(growth) if growth else None,
        "spans": labels,
    }
    return run, metrics, detail


def openblas() -> list[dict]:
    """Version and live thread count of every OpenBLAS this process loaded."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return []
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        info = {"library": os.path.basename(path)}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if config is not None and threads is not None:
                    config.restype = ctypes.c_char_p
                    threads.restype = ctypes.c_int
                    info["config"] = config().decode(errors="replace").strip()
                    info["threads"] = threads()
        found.append(info)
    return found


def environment() -> dict:
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's BLAS so it is reported)

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "openblas": openblas(),
    }
