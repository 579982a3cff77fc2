"""schurhx benchmark: time to solution, set-up, solve, iterations, memory.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload maxwell-24 --seed 0 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 50 --trace 0
    python3 perfbench/run.py --workload maxwell-table --smoke --seconds 1 --trace 1

Each workload runs in a fresh child process with one BLAS thread and
``src/`` on its import path; nothing needs installing.  With ``--trace 0``
the run reports the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of ``spans.py``.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it describe the machine and every repetition.  See
``README.md`` in this directory for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("maxwell-24", "scalar-24-jump", "maxwell-table")
#: A child that outlives this is killed; a run must finish within 180 s.
CHILD_TIMEOUT_S = 175


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    return env


def run_child(args, workload: str, capture: bool) -> subprocess.CompletedProcess:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--child",
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ] + (["--smoke"] if args.smoke else [])
    return subprocess.run(
        cmd, env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S,
        stdout=subprocess.PIPE if capture else None, text=True,
    )


def child_main(args) -> int:
    """Measure one workload in this process and print its result line."""
    import measure

    workload = measure.WORKLOADS[args.workload]
    if args.smoke:
        workload = measure.smoke(workload)
    print("env " + json.dumps(measure.environment()), flush=True)
    measure.warm_up(workload)
    if args.trace:
        run, metrics, detail = measure.measure_traced(workload, args.seed, args.seconds)
        units = {name: unit_of(name) for name in metrics}
        print("trace " + json.dumps(detail), flush=True)
        print_span_table(detail["spans"])
    else:
        run, e2e = measure.measure(workload, args.seed, args.seconds)
        metrics = {name: value for name, (value, _) in e2e.items()}
        units = {name: unit for name, (_, unit) in e2e.items()}
    for i, rep in enumerate(run.reps):
        print("rep %d %s" % (i, json.dumps(rep)))
    print("setups " + json.dumps(run.setups))
    result = {
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0


def unit_of(metric: str) -> str:
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("cond_lanczos"):
        return "ratio"
    return "count"


def print_span_table(spans: dict) -> None:
    print(f"{'span':<44}{'calls':>8}{'self_s':>11}{'total_s':>11}", file=sys.stderr)
    for label, row in sorted(spans.items(), key=lambda kv: -kv[1]["self_s"]):
        print(
            f"{label:<44}{row['calls']:>8}{row['self_s']:>11.4f}{row['total_s']:>11.4f}",
            file=sys.stderr,
        )


def run_all(args) -> int:
    """Every workload in its own process; a table, then a combined result."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = run_child(args, name, capture=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            print(f"{name}: exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print()
    print(f"{'workload':<16}{'metric':<28}{'value':>14}  unit")
    for name, result in results.items():
        for metric, m in result["metrics"].items():
            print(f"{name:<16}{metric:<28}{m['value']:>14.6g}  {m['unit']}")
    combined = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{name}:{metric}": m
            for name, r in results.items()
            for metric, m in r["metrics"].items()
        },
    }
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0, help="draws the manufactured solution")
    parser.add_argument("--seconds", type=float, default=50.0,
                        help="run full repetitions within this window (at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for tests")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        return child_main(args)
    if not (ROOT / "src" / "schurhx" / "__init__.py").is_file():
        print(f"error: no schurhx sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_child(args, args.workload, capture=False).returncode


if __name__ == "__main__":
    sys.exit(main())
