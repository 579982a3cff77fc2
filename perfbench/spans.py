"""Layer spans for the traced benchmark run.

The tracer wraps entry points where the program resolves them, so a
refactor that reroutes a call shows up as a span that stops firing (and
reads 0 calls) rather than being hidden by a replica of today's call
sequence:

* every function that ``schurhx.precond`` imported from a layer module
  (``mesh``, ``dofspaces``, ``assemble``, ``discrete_ops``, ``schur``,
  ``krylov``), patched in the ``schurhx.precond`` namespace;
* the entry points the benchmark itself calls, patched in their home
  modules: ``mesh.build_box_mesh``, ``precond.setup_scalar``,
  ``precond.setup_maxwell`` and ``krylov.pcg``;
* the callables on the problem objects that the solve runs through:
  ``SchurSystem.apply``, ``SchurSystem.apply_dtn_inv`` and the ``__call__``
  of ``NeumannNeumann`` (``qnn``) and ``HiptmairXu`` (``qhx``), patched on
  their classes.

Spans are recorded only while the tracer is armed (inside a timed setup or
solve window), kept in memory, and reduced to per-layer self times and call
counts when a repetition ends.  A span's self time is its duration minus the
durations of its direct child spans.
"""

from __future__ import annotations

import inspect
import resource
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("mesh", "dofspaces", "assemble", "discrete_ops", "schur", "krylov")

# Span stem -> (self-time metric, call-count metric).
TIMED = {
    "mesh.build": ("mesh.build_s", "mesh.build_calls"),
    "mesh.skeleton": ("mesh.skeleton_s", "mesh.skeleton_calls"),
    "dofspaces.build": ("dofspaces.build_s", "dofspaces.build_calls"),
    "assemble.blocks": ("assemble.blocks_s", "assemble.blocks_calls"),
    "assemble.global": ("assemble.global_s", "assemble.global_calls"),
    "discrete_ops.build": ("discrete_ops.build_s", "discrete_ops.build_calls"),
    "schur.factor": ("schur.factor_s", "schur.factor_calls"),
    "schur.apply": ("schur.apply_s", "schur.apply_calls"),
    "schur.dtn_inv": ("schur.dtn_inv_s", "schur.dtn_inv_calls"),
    "precond.setup": ("precond.setup_self_s", "precond.setup_calls"),
    "precond.hx": ("precond.hx_self_s", "precond.hx_calls"),
    "precond.nn": ("precond.nn_self_s", "precond.nn_calls"),
    "krylov.pcg": ("krylov.self_s", "krylov.pcg_calls"),
}

# Values the tracer collects at span boundaries besides times and calls.
COUNTERS = {
    "schur.factors_dense": int,
    "schur.factors_sparse": int,
    "schur.factor_rss_mb": float,
    "krylov.op_calls": int,
    "krylov.prec_calls": int,
}

# Class methods wrapped on the problem objects: (module, class, method) -> span.
METHOD_SPANS = {
    ("schur", "SchurSystem", "apply"): "schur.apply",
    ("schur", "SchurSystem", "apply_dtn_inv"): "schur.dtn_inv",
    ("precond", "NeumannNeumann", "__call__"): "precond.nn",
    ("precond", "HiptmairXu", "__call__"): "precond.hx",
}


def stem_of(layer: str, func: str, scope: str | None) -> str:
    """Map a wrapped layer function to the span stem its time counts toward."""
    if layer == "mesh":
        return "mesh.build" if func == "build_box_mesh" else "mesh.skeleton"
    if layer == "assemble":
        return "assemble.blocks" if scope == "blocks" else "assemble.global"
    if layer == "schur":
        return "schur.factor"
    if layer == "krylov":
        return "krylov.pcg"
    if layer == "precond":
        return "precond.setup"
    return f"{layer}.build"


def current_rss_mb() -> float:
    """Resident set of this process now (Linux ``/proc/self/statm``)."""
    try:
        with open("/proc/self/statm") as fh:
            pages = int(fh.read().split()[1])
    except (OSError, IndexError, ValueError):
        return 0.0
    return pages * resource.getpagesize() / 2**20


class Tracer:
    """In-memory spans around the program's layer boundaries."""

    def __init__(self):
        self.armed = False
        self.spans: list[list] = []  # [stem, label, start, end, parent index]
        self._stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.uncovered = {"setup": 0.0, "solve": 0.0}
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _span(self, stem: str, label: str, fn, after=None):
        def traced(*args, **kwargs):
            if not self.armed:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else -1
            record = [stem, label, 0.0, 0.0, parent]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            rss0 = current_rss_mb() if after else 0.0
            record[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(result, current_rss_mb() - rss0)
            return result

        return traced

    def counted(self, name: str, fn):
        """Count calls of ``fn`` while armed, without opening a span."""

        def counting(*args, **kwargs):
            if self.armed:
                self.counters[name] += 1
            return fn(*args, **kwargs)

        return counting

    def _after_factor(self, result, rss_delta_mb: float) -> None:
        """Count factorization modes of a freshly built Schur system."""
        self.counters["schur.factor_rss_mb"] += rss_delta_mb
        for solver in getattr(result, "solvers", ()):
            for value in vars(solver).values():
                mode = str(getattr(value, "mode", ""))
                if "dense" in mode:
                    self.counters["schur.factors_dense"] += 1
                elif "sparse" in mode:
                    self.counters["schur.factors_sparse"] += 1

    @contextmanager
    def window(self, kind: str):
        """Arm the tracer for one timed setup or solve window."""
        first = len(self.spans)
        self.armed = True
        start = time.perf_counter()
        try:
            yield
        finally:
            wall = time.perf_counter() - start
            self.armed = False
            covered = sum(s[3] - s[2] for s in self.spans[first:] if s[4] == -1)
            self.uncovered[kind] += wall - covered

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _function_span(self, layer: str, fn):
        after = self._after_factor if layer == "schur" else None
        signature = inspect.signature(fn)
        if "scope" not in signature.parameters:
            stem = stem_of(layer, fn.__name__, None)
            return self._span(stem, f"{layer}.{fn.__name__}", fn, after)

        # Assembly routes by its ``scope`` argument: one span per scope.
        spans = {}

        def by_scope(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            scope = bound.arguments["scope"]
            if scope not in spans:
                stem = stem_of(layer, fn.__name__, scope)
                spans[scope] = self._span(stem, f"{layer}.{fn.__name__}[{scope}]", fn, after)
            return spans[scope](*args, **kwargs)

        return by_scope

    def install(self, schurhx) -> None:
        """Wrap the layer entry points of an imported ``schurhx`` package."""
        precond = schurhx.precond
        for name, value in list(vars(precond).items()):
            if not inspect.isfunction(value):
                continue
            layer = value.__module__.rpartition(".")[2]
            if value.__module__.startswith("schurhx.") and layer in LAYERS:
                self._patch(precond, name, self._function_span(layer, value))
        own = (
            (schurhx.mesh, "mesh", "build_box_mesh"),
            (schurhx.precond, "precond", "setup_scalar"),
            (schurhx.precond, "precond", "setup_maxwell"),
            (schurhx.krylov, "krylov", "pcg"),
        )
        for module, layer, name in own:
            fn = vars(module).get(name)
            if inspect.isfunction(fn):
                self._patch(module, name, self._function_span(layer, fn))
        for (module, cls, method), stem in METHOD_SPANS.items():
            owner = getattr(getattr(schurhx, module), cls, None)
            fn = None if owner is None else vars(owner).get(method)
            if inspect.isfunction(fn):
                self._patch(owner, method, self._span(stem, f"{module}.{cls}.{method}", fn))

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- reduction ---------------------------------------------------------

    def take(self) -> tuple[dict[str, float], dict[str, dict]]:
        """Per-layer metrics of the spans since the last call, then reset.

        Returns the metric dict (every metric of ``TIMED`` and ``COUNTERS``
        plus the two uncovered-time metrics, 0 when nothing fired) and a
        per-label table of calls, self and total seconds.
        """
        child = [0.0] * len(self.spans)
        for stem, label, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        metrics: dict[str, float] = {}
        for time_metric, calls_metric in TIMED.values():
            metrics[time_metric] = 0.0
            metrics[calls_metric] = 0
        labels: dict[str, dict] = {}
        for i, (stem, label, start, end, parent) in enumerate(self.spans):
            self_s = (end - start) - child[i]
            time_metric, calls_metric = TIMED[stem]
            metrics[time_metric] += self_s
            metrics[calls_metric] += 1
            row = labels.setdefault(label, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            row["calls"] += 1
            row["self_s"] += self_s
            row["total_s"] += end - start
        for name, kind in COUNTERS.items():
            metrics[name] = kind(self.counters.get(name, 0))
        metrics["trace.setup_uncovered_s"] = self.uncovered["setup"]
        metrics["trace.solve_uncovered_s"] = self.uncovered["solve"]
        self.spans.clear()
        self.counters.clear()
        self.uncovered = {"setup": 0.0, "solve": 0.0}
        return metrics, labels
