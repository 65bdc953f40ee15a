"""Timed passes over a workload's solver calls, their checks, and the metrics.

A pass runs every solver call of the workload once.  Wall and process CPU
time cover the calls only; the checks run after the clock stops.  In a
traced run, untraced and traced passes alternate, so the tracing overhead
is measured in the same process.
"""

from __future__ import annotations

import contextlib
import resource
import statistics
import time
import traceback
import warnings
from collections import Counter
from dataclasses import dataclass, field

from . import workloads
from .tracing import Tracer, plain, span_table

# per-layer metric -> span name whose inclusive seconds or call count it reads
SPAN_SECONDS = {
    "caputo.l1_weights_s": "caputo.l1_weights",
    "caputo.history_load_s": "caputo.history_load",
    "spatial.assemble_s": "spatial.assemble",
    "spatial.scatter_s": "spatial.scatter",
    "spatial.data_vector_s": "spatial.data_vector",
    "spatial.check_max_principle_s": "spatial.check_max_principle",
    "expressions.eval_s": "expressions.eval",
    "nonlinearity.eval_s": "nonlinearity.eval",
    "nonlinearity.deriv_s_s": "nonlinearity.deriv_s",
    "pde.splu_s": "pde.splu",
    "pde.krylov_s": "pde.krylov",
    "scalar.solve_scalar_s": "scalar.solve_scalar",
    "stability.solve_resolvent_s": "stability.solve_resolvent",
    "stability.long_time_check_s": "stability.long_time_check",
    "special.mittag_leffler_s": "special.mittag_leffler",
    "harness.two_mesh_error_s": "harness.two_mesh_error",
    "mesh.check_step_restriction_s": "mesh.check_step_restriction",
}
SPAN_CALLS = {
    "caputo.l1_weights_calls": "caputo.l1_weights",
    "spatial.assemble_calls": "spatial.assemble",
    "expressions.eval_calls": "expressions.eval",
    "nonlinearity.eval_calls": "nonlinearity.eval",
    "nonlinearity.deriv_s_calls": "nonlinearity.deriv_s",
    "pde.splu_calls": "pde.splu",
    "pde.krylov_calls": "pde.krylov",
    "special.mittag_leffler_calls": "special.mittag_leffler",
}
SPAN_SELF = {
    "pde.self_s": "pde.solve_pde",
    "scalar.self_s": "scalar.solve_scalar",
    "harness.self_s": "harness.table_run",
}
RESULT_COUNTS = (
    "caputo.history_bytes_computed",
    "pde.newton_iters",
    "pde.lin_iters",
    "scalar.newton_iters",
)
WARNINGS = ("StepRestrictionWarning", "IntegrationWarning")

PER_LAYER = tuple(
    sorted(
        list(SPAN_SECONDS) + list(SPAN_CALLS) + list(SPAN_SELF) + list(RESULT_COUNTS)
        + ["harness.solve_pde_s", "harness.solve_pde_calls", "config.parse_config_s",
           "trace.overhead_frac", "trace.coverage_frac"]
        + [f"warn.{w}" for w in WARNINGS]
    )
)

UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
SUFFIX_UNITS = {"_s": "s", "_calls": "count", "_iters": "count", "_frac": "ratio",
                "_bytes_computed": "B"}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.startswith("warn."):
        return "count"
    return next(u for suffix, u in SUFFIX_UNITS.items() if name.endswith(suffix))


@dataclass
class Pass:
    wall_s: float
    cpu_s: float
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    warnings: Counter = field(default_factory=Counter)
    layers: dict | None = None


def run_pass(ops, tracer: Tracer | None = None) -> Pass:
    """Run every call once under the clock, then check each output."""
    outcomes = []
    recording = tracer.recording() if tracer is not None else contextlib.nullcontext()
    if tracer is not None:
        tracer.reset()
    with warnings.catch_warnings(record=True) as caught, recording:
        warnings.simplefilter("always")
        t0, c0 = time.perf_counter(), time.process_time()
        for op in ops:
            try:
                outcomes.append((op, op.run(), None))
            except Exception:  # a failed operation is counted, not fatal
                outcomes.append((op, None, traceback.format_exc(limit=3)))
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    p = Pass(wall_s=wall, cpu_s=cpu)
    p.warnings.update(type(w.message).__name__ for w in caught)
    for op, result, error in outcomes:
        p.attempted += op.n_ops
        if error is not None:
            p.failed += op.n_ops
            p.problems.append(f"{op.name}: raised\n{error}")
            continue
        try:
            per_op = op.check(result)
            p.counts.update(op.counts(result))
        except Exception:  # a malformed output fails its check
            per_op = [[f"check raised\n{traceback.format_exc(limit=3)}"]] * op.n_ops
        for problems in per_op:
            if problems:
                p.failed += 1
                p.problems.append(f"{op.name}: " + "; ".join(problems))
    if tracer is not None:
        p.layers = layer_metrics(span_table(tracer.spans), p)
    return p


def layer_metrics(table: dict, p: Pass) -> dict:
    total, calls, self_s = table["total_s"], table["calls"], table["self_s"]
    out = {k: total.get(v, 0.0) for k, v in SPAN_SECONDS.items()}
    out.update({k: calls.get(v, 0) for k, v in SPAN_CALLS.items()})
    out.update({k: self_s.get(v, 0.0) for k, v in SPAN_SELF.items()})
    out.update({k: p.counts.get(k, 0) for k in RESULT_COUNTS})
    s, n = table["by_parent"].get(("harness.table_run", "pde.solve_pde"), (0.0, 0))
    out["harness.solve_pde_s"] = s
    out["harness.solve_pde_calls"] = n
    out["trace.coverage_frac"] = table["below_roots_s"] / p.wall_s
    out.update({f"warn.{w}": p.warnings.get(w, 0) for w in WARNINGS})
    return out


@dataclass
class Run:
    warmup: Pass
    passes: list
    traced: list
    setup_layers: dict
    spans: list  # of the last traced pass

    @property
    def checked(self) -> list:
        return [self.warmup] + self.passes + self.traced

    @property
    def attempted(self) -> int:
        return sum(p.attempted for p in self.checked)

    @property
    def failed(self) -> int:
        return sum(p.failed for p in self.checked)

    @property
    def problems(self) -> list:
        return [q for p in self.checked for q in p.problems]


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> Run:
    """Passes of ``workload`` for about ``seconds`` seconds.

    The first pass is a warm-up: it lets lazy imports, first-call set-up and
    the allocator's first page faults finish, and its outputs are checked,
    but its times are not reported.  A further pass starts only while the
    time used plus the longest pass so far stays within ``seconds``; there is
    always at least one timed pass, and a traced run has at least one
    untraced and one traced pass.
    """
    reference = workloads.load_reference() if size == "full" and seed == 0 else None
    ops = workloads.build(workload, seed, size, plain, reference)
    tracer = Tracer()
    setup_layers = {}
    traced_ops = None
    if trace:
        tracer.enabled = True
        try:
            traced_ops = workloads.build(workload, seed, size, tracer.wrap, reference)
        finally:
            tracer.enabled = False
        setup_layers["config.parse_config_s"] = span_table(tracer.spans)["total_s"].get(
            "config.parse_config", 0.0
        )
    start = time.perf_counter()
    run = Run(run_pass(ops), [], [], setup_layers, tracer.spans)
    longest = time.perf_counter() - start
    while (
        not run.passes
        or (trace and not run.traced)
        or time.perf_counter() - start + longest <= seconds
    ):
        t0 = time.perf_counter()
        if trace and len(run.passes) > len(run.traced):
            run.traced.append(run_pass(traced_ops, tracer))
        else:
            run.passes.append(run_pass(ops))
        longest = max(longest, time.perf_counter() - t0)
    return run


def end_to_end(run: Run, setup_samples: list[float]) -> dict:
    return {
        "wall_s": statistics.median(p.wall_s for p in run.passes),
        "cpu_s": statistics.median(p.cpu_s for p in run.passes),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(run: Run) -> dict:
    """Medians over the traced passes; ``median_low`` keeps counts whole."""
    names = run.traced[0].layers.keys()
    out = {k: statistics.median_low(p.layers[k] for p in run.traced) for k in names}
    out.update(run.setup_layers)
    out["trace.overhead_frac"] = (
        statistics.median(p.wall_s for p in run.traced)
        / statistics.median(p.wall_s for p in run.passes)
        - 1.0
    )
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
