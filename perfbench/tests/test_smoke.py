"""Smoke tests of the benchmark at tiny sizes (6^3 cells on 3^3 subdomains).

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import measure  # noqa: E402
import run  # noqa: E402
from schurhx.errors import SingularOperatorError  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def smoke_run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "0.1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170,
    )
    assert proc.returncode == 0
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_workloads_match_spec():
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOAD_NAMES)
    assert list(measure.WORKLOADS) == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted(workload, trace):
    result = smoke_run(workload, trace)
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    if trace:
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        assert metrics["schur.apply_calls"] == metrics["krylov.op_calls"] > 0
        assert metrics["precond.cond_lanczos"] > 1
        if workload.startswith("maxwell"):
            assert metrics["precond.nn_calls"] == 4 * metrics["precond.hx_calls"]
        else:
            # Layers off the scalar path read 0 with 0 calls.
            for name in ("assemble.global", "discrete_ops.build"):
                assert metrics[f"{name}_s"] == 0 and metrics[f"{name}_calls"] == 0
            assert metrics["precond.hx_self_s"] == 0 and metrics["precond.hx_calls"] == 0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_failed_solves_are_counted_not_raised():
    bench = measure.Run(measure.smoke(measure.WORKLOADS["maxwell-24"]), seed=0)

    def singular():
        raise SingularOperatorError("block 0: not positive definite")

    assert bench._attempt(singular) is None
    assert bench._attempt(lambda: {"ok": False}) == {"ok": False}
    assert bench._attempt(lambda: {"ok": True}) == {"ok": True}
    assert (bench.attempted, bench.failed) == (3, 2)


def test_missing_sources_exit_without_result(monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", BENCH_DIR / "no-such-checkout")
    code = run.main(["--workload", "maxwell-24", "--seed", "0", "--seconds", "1", "--trace", "0"])
    assert code != 0
    assert capsys.readouterr().out == ""
