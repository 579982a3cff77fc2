"""End-to-end driver tests, run in process through main(argv)."""

from dataclasses import fields

import numpy as np
import pytest

from schurhx.cli import (
    ExperimentConfig,
    build_config,
    main,
    run_experiment,
    run_table,
)
from schurhx.errors import ConfigurationError
from schurhx.mesh import build_box_mesh
from schurhx.oracle import dense_condition, materialize
from schurhx.precond import setup_maxwell, setup_scalar

SMALL = ["--cells", "2,2,2", "--subdomains", "2,1,1"]


def test_defaults():
    cfg = ExperimentConfig()
    assert cfg.problem == "scalar"
    assert cfg.cells == (3, 3, 3) and cfg.subdomains == (3, 3, 3)
    assert cfg.tol == 1e-9 and cfg.seed == 0 and not cfg.table


def test_config_validation():
    with pytest.raises(ConfigurationError, match="problem"):
        ExperimentConfig(problem="eigen")
    with pytest.raises(ConfigurationError, match="tol"):
        ExperimentConfig(tol=2.0)
    with pytest.raises(ConfigurationError, match="max_iter"):
        ExperimentConfig(max_iter=0)
    with pytest.raises(ConfigurationError, match="gamma"):
        ExperimentConfig(gamma=-1.0)
    with pytest.raises(ConfigurationError, match="alpha=nan must be positive and finite"):
        ExperimentConfig(alpha=float("nan"))
    with pytest.raises(ConfigurationError, match="gamma\\^2 overflows"):
        ExperimentConfig(gamma=1e160)
    with pytest.raises(ConfigurationError, match="seed"):
        ExperimentConfig(seed=-1)


def test_build_config_precedence():
    cfg = build_config(
        {"alpha": 2.0, "out": None},
        {"alpha": "9.0", "seed": "7", "subdomains": "2,2,2", "table": "yes"},
    )
    assert cfg.alpha == 2.0  # CLI beats file
    assert cfg.seed == 7 and cfg.subdomains == (2, 2, 2) and cfg.table
    with pytest.raises(ConfigurationError, match="unknown config key"):
        build_config({}, {"widgets": "3"})
    # A method of ExperimentConfig is not a setting.
    with pytest.raises(ConfigurationError, match="unknown config key 'coefficients'"):
        build_config({"coefficients": "x"}, {})


def test_main_echoes_configuration(capsys, tmp_path):
    assert main(["--problem", "scalar", *SMALL]) == 0
    out = capsys.readouterr().out
    assert "effective configuration:" in out
    assert "  problem=scalar" in out
    assert "  cells=2,2,2" in out
    assert "scalar: cells=(2, 2, 2)" in out


def test_rerun_writes_identical_csv(tmp_path, capsys):
    out = tmp_path / "run.csv"
    assert main(["--problem", "scalar", *SMALL, "--out", str(out)]) == 0
    first = out.read_bytes()
    summary_first = (tmp_path / "run.summary.csv").read_bytes()
    assert main(["--problem", "scalar", *SMALL, "--out", str(out)]) == 0
    assert out.read_bytes() == first
    assert (tmp_path / "run.summary.csv").read_bytes() == summary_first
    text = first.decode()
    assert "# problem=scalar" in text
    assert "iter,relres" in text
    assert "\n0,1.0\n" in text


def test_history_file_matches_report(tmp_path, capsys):
    out = tmp_path / "hist.csv"
    cfg = ExperimentConfig(
        problem="scalar", cells=(2, 2, 2), subdomains=(2, 1, 1), out=str(out)
    )
    report = run_experiment(cfg)
    lines = out.read_text().splitlines()
    data = [ln for ln in lines if not ln.startswith("#")][1:]
    assert len(data) == report.history.iterations + 1
    relres = np.array([float(ln.split(",")[1]) for ln in data])
    assert np.array_equal(relres, report.history.relres)
    assert f"# iterations={report.history.iterations}" in lines


def test_table_outputs(tmp_path, capsys):
    out = tmp_path / "table.csv"
    cfg = ExperimentConfig(problem="scalar", table=True, out=str(out))
    reports = run_table(cfg)
    assert len(reports) == 4
    for n in (3, 6, 9, 12):
        assert (tmp_path / f"table.cells{n}.csv").exists()
    summary = (tmp_path / "table.summary.csv").read_text().splitlines()
    assert summary[0] == "dim_skeleton,dim_volume,iters"
    assert len(summary) == 5
    dims = [tuple(int(v) for v in row.split(",")) for row in summary[1:]]
    for prev, cur in zip(dims, dims[1:]):
        assert cur[0] > prev[0] and cur[1] > prev[1]
    assert "refinement table" in capsys.readouterr().out


def test_config_file(tmp_path, capsys):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(
        "# small experiment\nbeta = 2.5\nmax-iter = 400\ncells = 2,2,2\n"
        "subdomains = 2,1,1\n"
    )
    assert main(["--config", str(cfg_file), "--beta", "3.0"]) == 0
    out = capsys.readouterr().out
    assert "  beta=3.0" in out  # flag overrides file
    assert "  max_iter=400" in out
    assert "  cells=2,2,2" in out


def test_config_file_errors(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("tol 1e-9\n")
    assert main(["--config", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err

    unknown = tmp_path / "unknown.cfg"
    unknown.write_text("widgets = 3\n")
    assert main(["--config", str(unknown)]) == 2
    assert "unknown config key" in capsys.readouterr().err

    for line in ("seed = abc", "alpha = x"):
        not_a_number = tmp_path / "not_a_number.cfg"
        not_a_number.write_text(line + "\n")
        assert main(["--config", str(not_a_number)]) == 2
        assert f"error: {line.split()[0]} expects" in capsys.readouterr().err

    for unreadable in (tmp_path / "missing.cfg", tmp_path):
        assert main(["--config", str(unreadable)]) == 2
        assert f"error: cannot read config file {unreadable}" in capsys.readouterr().err

    # An empty path is rejected with the configuration, before any solve.
    for key in ("out", "export_vtk"):
        empty = tmp_path / "empty.cfg"
        empty.write_text(f"{key} =\n")
        assert main(["--config", str(empty), *SMALL]) == 2
        captured = capsys.readouterr()
        assert f"error: {key} must be a non-empty path" in captured.err
        assert "effective configuration" not in captured.out

    # So is an existing directory, from the file or from a flag.
    for key in ("out", "export_vtk"):
        directory = tmp_path / "existing"
        directory.mkdir(exist_ok=True)
        in_file = tmp_path / "dir.cfg"
        in_file.write_text(f"{key} = {directory}\n")
        assert main(["--config", str(in_file), *SMALL]) == 2
        captured = capsys.readouterr()
        assert f"error: {key} {directory} is a directory" in captured.err
        assert "effective configuration" not in captured.out


def test_bad_arguments_exit_2(capsys, tmp_path):
    assert main(["--cells", "3,3,3", "--subdomains", "2,1,1"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["--tol", "2.0", *SMALL]) == 2
    assert main(["--cells", "4"]) == 2
    assert main(["--cells", "a,b,c"]) == 2
    capsys.readouterr()
    assert main(["--seed", "-1", *SMALL]) == 2
    assert "error: seed must be >= 0" in capsys.readouterr().err
    # Coefficients fail at configuration time, before any set-up.
    assert main(["--problem", "maxwell", "--gamma", "1e160", *SMALL]) == 2
    captured = capsys.readouterr()
    assert "error: coefficient gamma=1e+160: gamma^2 overflows" in captured.err
    assert "effective configuration" not in captured.out
    assert main(["--alpha", "nan", *SMALL]) == 2
    captured = capsys.readouterr()
    assert "error: coefficient alpha=nan must be positive and finite" in captured.err
    assert "effective configuration" not in captured.out
    for flag in ("--out", "--export-vtk"):
        assert main([flag, str(tmp_path), *SMALL]) == 2
        captured = capsys.readouterr()
        assert "is a directory, expected a file path" in captured.err
        assert "effective configuration" not in captured.out
    for problem in ("verify", "maxwell"):
        assert main(["--problem", problem, "--table", "--out", str(tmp_path)]) == 2
        assert "error: out" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value",
    [
        ("problem", "bogus"),
        ("cells", "4"),
        ("subdomains", "a,b,c"),
        ("alpha", "x"),
        ("beta", "0"),
        ("gamma", "1e160"),
        ("tol", "2.0"),
        ("max_iter", "1.5"),
        ("seed", "abc"),
        ("out", ""),
        ("export_vtk", ""),
        ("table", "maybe"),
    ],
)
def test_flag_and_file_values_share_one_parse(tmp_path, capsys, key, value):
    """A bad value returns 2 from main with the same ``error:`` line whether
    it comes from a flag or from a config file; argparse never exits."""
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{key} = {value}\n")
    assert main(["--config", str(cfg)]) == 2
    from_file = capsys.readouterr()
    assert from_file.err.startswith("error: ") and key in from_file.err
    assert from_file.err.count("\n") == 1
    assert "effective configuration" not in from_file.out
    if key != "table":  # --table takes no value
        assert main([f"--{key.replace('_', '-')}", value]) == 2
        assert capsys.readouterr().err == from_file.err


def test_help_names_a_flag_for_every_setting(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    for field in fields(ExperimentConfig):
        assert f"--{field.name.replace('_', '-')} " in out


@pytest.mark.parametrize("key", ["table", "export_vtk"])
def test_verify_refuses_table_and_vtk_export(tmp_path, capsys, key):
    """verify runs its fixed meshes: a table or a VTK path, from a flag or a
    file, is refused instead of silently dropped."""
    vtk = tmp_path / "mesh.vtk"
    flag, value = (["--table"], "yes") if key == "table" else (["--export-vtk", str(vtk)], vtk)
    cfg = tmp_path / "verify.cfg"
    cfg.write_text(f"problem = verify\n{key} = {value}\n")
    for argv in (["--problem", "verify", *flag], ["--config", str(cfg)]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: verify runs its fixed meshes and takes no {key}\n"
        assert "effective configuration" not in captured.out
    assert not vtk.exists()


@pytest.mark.parametrize(
    "run, key, value",
    [
        ("verify", "cells", "4,4,4"),
        ("verify", "subdomains", "1,1,1"),
        ("verify", "tol", "1e-3"),
        ("verify", "max_iter", "1"),
        ("table", "cells", "5,5,5"),
    ],
)
def test_unread_settings_are_refused(tmp_path, capsys, run, key, value):
    """A setting the run does not read, set away from its default by a flag
    or a config file, exits 2 with one ``error:`` line instead of being
    dropped; left at its default, it is accepted."""
    refusal, chosen = {
        "verify": ("verify runs its fixed meshes", {"problem": "verify"}),
        "table": ("the table runs cells 3,6,9,12", {"table": "yes"}),
    }[run]
    cfg = tmp_path / "unread.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in {**chosen, key: value}.items()))
    flags = ["--problem", "verify"] if run == "verify" else ["--table"]
    for argv in ([*flags, f"--{key.replace('_', '-')}", value], ["--config", str(cfg)]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {refusal} and takes no {key}\n"
        assert "effective configuration" not in captured.out
    default = {"cells": "3,3,3", "subdomains": "3,3,3", "tol": "1e-9", "max_iter": "1000"}[key]
    build_config({key: default}, chosen)


@pytest.mark.parametrize(
    "grid, message",
    [
        # On 3^3 subdomains the overflowing Schur complement fails Cholesky
        # (SingularOperatorError); on 2,2,2 / 2,1,1 it factors, and PCG then
        # meets negative curvature (PcgBreakdownError).
        (["--cells", "3,3,3", "--subdomains", "3,3,3"], "not positive definite"),
        (SMALL, "operator is not SPD"),
    ],
)
def test_failed_solve_exits_1_without_traceback(capsys, grid, message):
    assert main(["--problem", "scalar", "--alpha", "1e200", *grid]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


def test_true_residual_survives_large_reaction(capsys):
    """The squared norms of a beta = 1e160 residual overflow; nrm2 does not."""
    cfg = ExperimentConfig(problem="scalar", beta=1e160)
    report = run_experiment(cfg)
    assert report.metadata["converged"]
    assert 0.0 < report.metadata["true_relres"] <= 100 * cfg.tol


def test_verify_passes(capsys):
    assert main(["--problem", "verify"]) == 0
    out = capsys.readouterr().out
    assert "0 failures" in out
    assert "[pass]" in out and "[FAIL]" not in out


def test_verify_catches_seeded_corruption(capsys, tmp_path, corrupt_gradient):
    out = tmp_path / "checks.csv"
    code = main(["--problem", "verify", "--out", str(out)])
    assert code == 1
    stdout = capsys.readouterr().out
    assert "[FAIL] gradient-trace-commutation" in stdout
    assert ",0\n" in out.read_text()


def test_export_vtk(tmp_path, capsys):
    path = tmp_path / "mesh.vtk"
    assert main(["--problem", "scalar", *SMALL, "--export-vtk", str(path)]) == 0
    assert path.read_text().startswith("# vtk DataFile")


def test_table_exports_one_vtk_per_size(tmp_path, capsys):
    """A table run writes ``<stem>.cells<n>.vtk`` per size, as it names its
    history files, instead of overwriting one file with each mesh."""
    path = tmp_path / "sub" / "mesh.vtk"
    assert main(["--problem", "scalar", "--table", "--export-vtk", str(path)]) == 0
    assert not path.exists()
    for n in (3, 6, 9, 12):
        text = (tmp_path / "sub" / f"mesh.cells{n}.vtk").read_text()
        assert f"POINTS {(n + 1) ** 3} " in text


@pytest.mark.parametrize("flag, name", [("--export-vtk", "mesh.vtk"), ("--out", "run.csv")])
def test_unwritable_output_exits_2_without_traceback(tmp_path, capsys, flag, name):
    """An output path under a regular file cannot be written: the CLI
    reports it as a configuration error instead of raising NotADirectoryError."""
    blocker = tmp_path / "file"
    blocker.write_text("")
    path = blocker / "sub" / name
    assert main(["--problem", "scalar", *SMALL, flag, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {path}: ") and "Not a directory" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("problem", ["scalar", "maxwell"])
def test_report_carries_coarse_condition(capsys, problem):
    cfg = ExperimentConfig(problem=problem, cells=(4, 4, 4), subdomains=(2, 2, 2))
    report = run_experiment(cfg)
    cond = report.metadata["cond_coarse"]
    assert isinstance(cond, float) and 1.0 <= cond < 1e3


@pytest.mark.parametrize(
    "cells, subdomains, beta", [((8, 8, 8), (4, 4, 4), 1e-30), ((12, 12, 12), (6, 6, 6), 1e-16)]
)
def test_singular_coarse_matrix_reads_infinite_condition(capsys, cells, subdomains, beta):
    """A reaction so small that S0 is singular to rounding gives a smallest
    computed eigenvalue that is not positive: cond_coarse reads inf, not a
    negative number."""
    cfg = ExperimentConfig(problem="scalar", cells=cells, subdomains=subdomains, beta=beta)
    assert run_experiment(cfg).metadata["cond_coarse"] == float("inf")


@pytest.mark.parametrize("problem", ["scalar", "maxwell"])
def test_report_carries_preconditioned_condition(capsys, problem):
    """cond_precond, read from the solve's own Lanczos extremes, lies between
    1 and the dense condition number of the preconditioned operator, and the
    stdout line prints it."""
    cfg = ExperimentConfig(problem=problem, cells=(4, 4, 4), subdomains=(2, 2, 2))
    report = run_experiment(cfg)
    cond = report.metadata["cond_precond"]
    assert f"cond_precond={cond:.4g} " in capsys.readouterr().out
    mesh = build_box_mesh(cfg.cells, cfg.subdomains)
    if problem == "scalar":
        prob = setup_scalar(mesh, cfg.coefficients())
        prec = prob.qnn
    else:
        prob = setup_maxwell(mesh, cfg.coefficients())
        prec = prob.qhx
    dense = dense_condition(
        materialize(prob.schur.apply, prob.schur.dim), materialize(prec, prob.schur.dim)
    )
    assert isinstance(cond, float) and 1.0 <= cond <= dense * (1 + 1e-9)


def test_single_subdomain_converges_immediately(capsys):
    cfg = ExperimentConfig(problem="scalar", cells=(2, 2, 2), subdomains=(1, 1, 1))
    report = run_experiment(cfg)
    assert report.metadata["iterations"] <= 2
    assert report.metadata["relative_error"] <= 1e-7


def test_maxwell_solve_through_driver(capsys):
    cfg = ExperimentConfig(problem="maxwell", cells=(2, 2, 2), subdomains=(2, 2, 2))
    report = run_experiment(cfg)
    assert report.metadata["converged"]
    assert report.metadata["dim_skeleton"] == 90
    assert report.metadata["relative_error"] <= 1e-7


@pytest.mark.parametrize(
    "problem, fields", [("scalar", ["scalar"]), ("maxwell", ["edge", "scalar"])]
)
def test_report_carries_true_residual_and_block_counts(capsys, problem, fields):
    cfg = ExperimentConfig(problem=problem, cells=(2, 2, 2), subdomains=(2, 2, 2))
    report = run_experiment(cfg)
    assert 0.0 <= report.metadata["true_relres"] <= 100 * cfg.tol
    # One-cell subdomains of a uniform grid all have the same block.
    assert report.metadata["distinct_blocks"] == {field: (1, 8) for field in fields}
