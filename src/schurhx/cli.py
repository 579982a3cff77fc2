"""Command-line driver: interface solves, refinement tables, identity checks.

``ExperimentConfig`` is the one list of settings: argparse only splits argv,
and a value from a flag or a config file is parsed by ``_coerce`` from its
field's default and checked by ``ExperimentConfig``, so it exits 2 if bad.
So does a setting the run does not read, unless it keeps its default: verify
takes no mesh, solver, table or VTK setting, maxwell no alpha or beta, scalar
no gamma, and the table no cells.  Coefficients for which PCG's inner
products would overflow exit 2 too: gamma before set-up, alpha and beta
before PCG.

Outputs are deterministic for a fixed configuration: the convergence CSV and
the summary CSV are byte-identical across reruns (timings go to stdout only).
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np
import scipy.linalg as sla

from .assemble import Coefficients
from .errors import (
    AssemblyError,
    ConfigurationError,
    PcgBreakdownError,
    SingularOperatorError,
)
from .krylov import SolveReport, pcg
from .mesh import build_box_mesh, export_vtk
from .oracle import IdentityReport, verify_dense_lemmas, verify_identities
from .precond import setup_maxwell, setup_scalar

__all__ = ["ExperimentConfig", "run_experiment", "run_table", "run_verify", "main"]

TABLE_CELLS = (3, 6, 9, 12)
VERIFY_SUBDOMAIN_GRIDS = ((1, 1, 1), (2, 1, 1), (2, 2, 2))


@dataclass(frozen=True)
class ExperimentConfig:
    problem: str = "scalar"
    cells: tuple[int, int, int] = (3, 3, 3)
    subdomains: tuple[int, int, int] = (3, 3, 3)
    alpha: float = 1.0
    beta: float = 1.0
    gamma: float = 1.0
    tol: float = 1e-9
    max_iter: int = 1000
    seed: int = 0
    out: str | None = None
    export_vtk: str | None = None
    table: bool = False

    def __post_init__(self):
        if self.problem not in ("scalar", "maxwell", "verify"):
            raise ConfigurationError(f"unknown problem {self.problem!r}")
        if not (0 < self.tol < 1):
            raise ConfigurationError(f"tol must lie in (0, 1), got {self.tol}")
        if self.max_iter < 1:
            raise ConfigurationError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")
        for name in ("out", "export_vtk"):
            path = getattr(self, name)
            if path == "":
                raise ConfigurationError(f"{name} must be a non-empty path")
            if path is not None and Path(path).is_dir():
                raise ConfigurationError(f"{name} {path} is a directory, expected a file path")
        self.coefficients()
        # A setting the run does not read must keep its default.
        unread = [{
            "verify": ["verify runs its fixed meshes", "cells", "subdomains", "tol", "max_iter",
                       "table", "export_vtk"],
            "maxwell": ["maxwell reads only gamma", "alpha", "beta"],
            "scalar": ["scalar reads only alpha and beta", "gamma"],
        }[self.problem]]
        if self.table:
            unread.append(["the table runs cells 3,6,9,12", "cells"])
        for run, *names in unread:
            for name in names:
                if getattr(self, name) != getattr(ExperimentConfig, name):
                    raise ConfigurationError(f"{run} and takes no {name}")
        # For large gamma the edge operator is gamma^2 times the edge mass
        # matrix, whose absolute row sums stay below 1 on the unit cube, so
        # PCG's first inner products <z0, r0> and <p0, S p0> stay under
        # gamma^2 per edge (<p0, S p0> is 38 gamma^2 at 3^3 cells, 68 gamma^2
        # at 12^3).  A lattice vertex starts at most 7 edges: 3 axis edges,
        # 3 face diagonals and 1 body diagonal.
        if self.problem == "maxwell":
            cells = (max(TABLE_CELLS),) * 3 if self.table else self.cells
            edges = 7.0 * float(np.prod(np.add(cells, 1)))
            gamma = float(self.gamma)  # squared as Coefficients checks it, without raising
            if not gamma * gamma * edges < sys.float_info.max:
                raise ConfigurationError(
                    f"gamma={self.gamma!r}: PCG's inner products overflow "
                    f"(gamma^2 times {edges:.0f} edges)"
                )

    def coefficients(self) -> Coefficients:
        return Coefficients(self.alpha, self.beta, self.gamma)

    def echo_items(self) -> list[tuple[str, str]]:
        items = []
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = ",".join(str(v) for v in value)
            elif isinstance(value, float):
                value = repr(value)
            items.append((f.name, str(value)))
        return items


def _parse_triple(text: str, flag: str) -> tuple[int, int, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise ConfigurationError(f"{flag} expects NX,NY,NZ, got {text!r}")
    try:
        return tuple(int(p) for p in parts)  # type: ignore[return-value]
    except ValueError as err:
        raise ConfigurationError(f"{flag} expects integers, got {text!r}") from err


def _read_config_file(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigurationError(f"cannot read config file {path}: {err}") from err
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        values[key.replace("-", "_")] = value
    return values


def _coerce(key: str, value):
    """Text ``value`` as the type of field ``key``'s default (str or None: as is)."""
    default = getattr(ExperimentConfig, key)
    if not isinstance(value, str) or default is None or isinstance(default, str):
        return value
    if isinstance(default, tuple):
        return _parse_triple(value, key)
    if isinstance(default, bool):
        truth = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}
        if value.lower() not in truth:
            raise ConfigurationError(f"{key} expects a boolean, got {value!r}")
        return truth[value.lower()]
    number = type(default)
    try:
        return number(value)
    except ValueError as err:
        raise ConfigurationError(f"{key} expects {number.__name__}, got {value!r}") from err


def build_config(cli_values: dict, file_values: dict) -> ExperimentConfig:
    """Defaults, overridden by the config file, overridden by CLI flags."""
    known = {f.name for f in fields(ExperimentConfig)}
    merged = {**file_values, **cli_values}
    for key in merged:
        if key not in known:
            raise ConfigurationError(f"unknown config key {key!r}")
    return ExperimentConfig(**{key: _coerce(key, value) for key, value in merged.items()})


def _history_lines(config: ExperimentConfig, report: SolveReport) -> list[str]:
    lines = [f"# {key}={value}" for key, value in config.echo_items()]
    for key in ("dim_skeleton", "dim_volume", "iterations", "converged", "relative_error"):
        value = report.metadata[key]
        lines.append(f"# {key}={value!r}" if isinstance(value, float) else f"# {key}={value}")
    lines.append("iter,relres")
    lines += [f"{k},{float(r)!r}" for k, r in enumerate(report.history.relres)]
    return lines


def _summary_path(out: str) -> Path:
    p = Path(out)
    return p.with_name(p.stem + ".summary.csv")


def _per_size_path(path: str, n: int, suffix: str) -> Path:
    """A table run's ``<stem>.cells<n>`` file, with the suffix of ``path`` or ``suffix``."""
    p = Path(path)
    return p.with_name(f"{p.stem}.cells{n}{p.suffix or suffix}")


@contextmanager
def _writing(path):
    """Create the directory of ``path``; an OSError inside is a ConfigurationError."""
    try:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        yield
    except OSError as err:
        raise ConfigurationError(f"cannot write {path}: {err}") from err


def _write_outputs(config: ExperimentConfig, reports: list[SolveReport]) -> None:
    if config.out is None:
        return
    with _writing(config.out):
        if len(reports) == 1:
            Path(config.out).write_text("\n".join(_history_lines(config, reports[0])) + "\n")
        else:
            for rep in reports:
                per_size = _per_size_path(config.out, rep.metadata["cells"][0], ".csv")
                cfg = replace(config, cells=rep.metadata["cells"], table=False)
                per_size.write_text("\n".join(_history_lines(cfg, rep)) + "\n")
        rows = ["dim_skeleton,dim_volume,iters"]
        rows += [
            f"{rep.metadata['dim_skeleton']},{rep.metadata['dim_volume']},"
            f"{rep.metadata['iterations']}"
            for rep in reports
        ]
        _summary_path(config.out).write_text("\n".join(rows) + "\n")


def run_experiment(config: ExperimentConfig) -> SolveReport:
    """One interface solve with a manufactured random solution."""
    mesh = build_box_mesh(config.cells, config.subdomains)
    coeffs = config.coefficients()
    if config.problem == "scalar":
        problem = setup_scalar(mesh, coeffs)
        apply_op, apply_prec = problem.schur.apply, problem.qnn
        schurs = {"scalar": problem.schur}
        qnn = problem.qnn
    elif config.problem == "maxwell":
        problem = setup_maxwell(mesh, coeffs)
        apply_op, apply_prec = problem.schur.apply, problem.qhx
        schurs = {"edge": problem.schur, "scalar": problem.scalar.schur}
        qnn = problem.scalar.qnn
    else:
        raise ConfigurationError(f"run_experiment cannot run {config.problem!r}")

    rng = np.random.default_rng(config.seed)
    exact = rng.uniform(-1.0, 1.0, problem.dim_skeleton)
    rhs = apply_op(exact)
    read = ("gamma",) if config.problem == "maxwell" else ("alpha", "beta")
    named = ", ".join(f"{name}={getattr(config, name)!r}" for name in read)
    if not np.all(np.isfinite(rhs)):
        raise ConfigurationError(f"coefficients {named}: the right-hand side overflows")
    # PCG's inner products stay under a quarter of sum |A_ij| = 4 alpha (nx^2 +
    # ny^2 + nz^2) + beta on the table's meshes; the sum bounds x^T A x for x in
    # [-1, 1]: the Freudenthal stiffness matrix has zero row sums, no positive
    # entry off its diagonal and trace 2 sum n^2; the mass matrix sums to 1.
    energy = 4.0 * float(config.alpha) * sum(n * n for n in config.cells) + float(config.beta)
    if config.problem == "scalar" and not energy < sys.float_info.max:
        raise ConfigurationError(f"coefficients {named}: PCG's inner products overflow")
    report = pcg(apply_op, apply_prec, rhs, tol=config.tol, max_iter=config.max_iter)
    rel_error = float(
        np.linalg.norm(report.solution - exact) / np.linalg.norm(exact)
    )
    # BLAS nrm2 scales as it sums, so large coefficients cannot overflow it.
    true_relres = float(sla.norm(rhs - apply_op(report.solution)) / sla.norm(rhs))
    report.metadata.update(
        problem=config.problem,
        cells=config.cells,
        subdomains=config.subdomains,
        dim_skeleton=problem.dim_skeleton,
        dim_volume=problem.dim_volume,
        iterations=report.history.iterations,
        converged=report.history.converged,
        relative_error=rel_error,
        true_relres=true_relres,
        distinct_blocks={
            field: (len(s.groups), len(s.group_of)) for field, s in schurs.items()
        },
        cond_coarse=qnn.cond_coarse,
        cond_precond=report.history.lanczos().cond,
    )
    print(
        f"{config.problem}: cells={config.cells} subdomains={config.subdomains} "
        f"dim_skeleton={problem.dim_skeleton} dim_volume={problem.dim_volume} "
        f"iters={report.history.iterations} converged={report.history.converged} "
        f"relres={report.history.relres[-1]:.3e} true_relres={true_relres:.3e} "
        f"relerr={rel_error:.3e} cond_precond={report.metadata['cond_precond']:.4g} "
        f"time={report.history.wall_time:.2f}s"
    )
    if config.export_vtk:
        with _writing(config.export_vtk):
            export_vtk(mesh, config.export_vtk)
    _write_outputs(config, [report])
    return report


def run_table(config: ExperimentConfig) -> list[SolveReport]:
    """The refinement table: cells {3,6,9,12} per axis, fixed subdomain grid."""
    reports = []
    for n in TABLE_CELLS:
        vtk = config.export_vtk and str(_per_size_path(config.export_vtk, n, ".vtk"))
        cfg = replace(config, cells=(n, n, n), table=False, out=None, export_vtk=vtk)
        reports.append(run_experiment(cfg))
    print(f"\n{config.problem} refinement table (subdomains={config.subdomains}):")
    print("dim_skeleton  dim_volume  iters")
    for rep in reports:
        print(
            f"{rep.metadata['dim_skeleton']:>12}  {rep.metadata['dim_volume']:>10}  "
            f"{rep.metadata['iterations']:>5}"
        )
    _write_outputs(config, reports)
    return reports


def run_verify(config: ExperimentConfig) -> int:
    """Identity suite on small meshes; exit code 0 when everything passes."""
    checks = []
    lemmas = verify_dense_lemmas(seed=config.seed)
    checks.extend(lemmas.checks)
    for grid in VERIFY_SUBDOMAIN_GRIDS:
        mesh = build_box_mesh((2, 2, 2), grid)
        checks.extend(verify_identities(mesh, config.coefficients()).checks)

    combined = IdentityReport(checks)
    for line in combined.lines():
        print(line)
    n_fail = sum(not c.passed for c in combined.checks)
    print(f"verify: {len(combined.checks)} checks, {n_fail} failures")
    if config.out:
        with _writing(config.out):
            combined.write_csv(config.out)
    return 0 if combined.passed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="schurhx",
        argument_default=argparse.SUPPRESS,
        description=(
            "Substructured interface solves on the unit box: scalar "
            "reaction-diffusion with a Neumann-Neumann preconditioner, "
            "curl-curl with a substructured Hiptmair-Xu preconditioner, "
            "plus a dense identity verifier."
        ),
    )
    parser.add_argument("--problem", help="scalar, maxwell or verify (default scalar)")
    parser.add_argument("--cells", help="cells per axis, NX,NY,NZ")
    parser.add_argument("--subdomains", help="subdomains per axis, JX,JY,JZ")
    parser.add_argument("--alpha", help="diffusion coefficient")
    parser.add_argument("--beta", help="reaction coefficient")
    parser.add_argument("--gamma", help="zeroth-order Maxwell weight")
    parser.add_argument("--tol", help="PCG relative tolerance")
    parser.add_argument("--max-iter", help="PCG iteration cap")
    parser.add_argument("--seed", help="RNG seed")
    parser.add_argument("--out", help="convergence CSV path")
    parser.add_argument("--export-vtk", help="write the mesh as VTK")
    parser.add_argument("--table", action="store_true", help="refinement table, cells 3,6,9,12")
    parser.add_argument("--config", help="key=value config file")
    cli_values = vars(parser.parse_args(argv))
    config_path = cli_values.pop("config", None)
    try:
        file_values = _read_config_file(config_path) if config_path else {}
        config = build_config(cli_values, file_values)
        print("effective configuration:")
        for key, value in config.echo_items():
            print(f"  {key}={value}")
        if config.problem == "verify":
            return run_verify(config)
        if config.table:
            run_table(config)
        else:
            run_experiment(config)
        return 0
    except ConfigurationError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (AssemblyError, SingularOperatorError, PcgBreakdownError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
