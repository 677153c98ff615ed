"""Span tracing of the library's layers, done from outside the library.

``Tracer.install`` replaces each traced function with a wrapper at every
module of the package that binds it (``rk4_step``, for example, is bound
in ``numerics``, ``dynamics``, ``harness`` and ``nnlqr``), and replaces
the traced ``RelativePlant`` methods on the class.  Each call records a
span ``[name, start, end, parent index, failed]`` in memory;
``Tracer.uninstall`` puts the originals back.  ``layer_metrics`` turns
the spans into the per-layer metrics.

Helpers of a few microseconds (``chief_kinematics``,
``cw_nonlinear_deriv``) are deliberately not wrapped: the wrapper would
cost as much as the call.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

# (span name, defining module, function name).  Several functions may
# share a span name; the report writers are timed together.
FUNCTIONS = (
    ("numerics.solve_are", "numerics", "solve_are"),
    ("numerics.rk4_step", "numerics", "rk4_step"),
    ("numerics.matrix_exponential", "numerics", "matrix_exponential"),
    ("dynamics.j2_differential_accel", "dynamics", "j2_differential_accel"),
    ("dynamics.propagate_nu", "dynamics", "propagate_nu"),
    ("lqr.design_lqr", "lqr", "design_lqr"),
    ("lqr.lqr_tracking_control", "lqr", "lqr_tracking_control"),
    ("sdre.sdre_infinite_control", "sdre", "sdre_infinite_control"),
    ("sdre.finite_time_sdre_control", "sdre", "finite_time_sdre_control"),
    ("mpsp.solve", "mpsp", "mpsp_solve"),
    ("mpsp.predict", "mpsp", "predict_trajectory"),
    ("mpsp.jacobians", "mpsp", "analytic_state_jacobians"),
    ("mpsp.sensitivities", "mpsp", "compute_sensitivities"),
    ("mpsp.update", "mpsp", "mpsp_update"),
    ("gmpsp.solve", "gmpsp", "gmpsp_solve"),
    ("gmpsp.field", "gmpsp", "integrate_W_backward"),
    ("gmpsp.accumulate", "gmpsp", "gmpsp_accumulate"),
    ("gmpsp.update", "gmpsp", "gmpsp_update"),
    ("nnlqr.nnlqr_control_step", "nnlqr", "nnlqr_control_step"),
    ("harness.run_scenario", "harness", "run_scenario"),
    ("harness.report", "harness", "write_trajectory_csv"),
    ("harness.report", "harness", "write_metrics_csv"),
    ("harness.report", "harness", "write_iteration_log_csv"),
    ("cli.parse_config", "cli", "parse_config"),
)

# (span name, RelativePlant method name).
PLANT_METHODS = (
    ("dynamics.deriv", "deriv"),
    ("dynamics.f_jacobian", "f_jacobian"),
    ("dynamics.propagate", "propagate"),
)

PACKAGE = "formation_guidance"

# Per-layer metric names, in report order.  Every traced run reports all
# of them, with 0 for layers a workload does not reach.
LAYER_METRICS = (
    "numerics.solve_are.calls",
    "numerics.solve_are.busy_s",
    "numerics.solve_are.p50_us",
    "numerics.solve_are.p99_us",
    "numerics.solve_are.failures",
    "numerics.rk4_step.calls",
    "numerics.rk4_step.self_s",
    "numerics.matrix_exponential.calls",
    "numerics.matrix_exponential.busy_s",
    "dynamics.deriv.calls",
    "dynamics.deriv.busy_s",
    "dynamics.j2_differential_accel.calls",
    "dynamics.j2_differential_accel.busy_s",
    "dynamics.f_jacobian.calls",
    "dynamics.f_jacobian.busy_s",
    "dynamics.f_jacobian.p50_us",
    "dynamics.j2_per_jacobian",
    "dynamics.propagate.calls",
    "dynamics.propagate.busy_s",
    "dynamics.plant_steps_per_grid_step",
    "dynamics.propagate_nu.busy_s",
    "lqr.design_lqr.calls",
    "lqr.design_lqr.busy_s",
    "lqr.lqr_tracking_control.calls",
    "lqr.lqr_tracking_control.busy_s",
    "sdre.sdre_infinite_control.calls",
    "sdre.sdre_infinite_control.busy_s",
    "sdre.sdre_infinite_control.p50_us",
    "sdre.sdre_infinite_control.p99_us",
    "sdre.finite_time_sdre_control.calls",
    "sdre.finite_time_sdre_control.busy_s",
    "sdre.finite_time_sdre_control.p50_us",
    "sdre.finite_time_sdre_control.p99_us",
    "mpsp.predict_s",
    "mpsp.jacobians_s",
    "mpsp.sensitivities_s",
    "mpsp.update_s",
    "mpsp.iterations",
    "mpsp.converged_frac",
    "gmpsp.propagate_s",
    "gmpsp.field_s",
    "gmpsp.accumulate_s",
    "gmpsp.update_s",
    "gmpsp.iterations",
    "gmpsp.converged_frac",
    "nnlqr.nnlqr_control_step.calls",
    "nnlqr.nnlqr_control_step.busy_s",
    "nnlqr.nnlqr_control_step.p50_us",
    "nnlqr.nnlqr_control_step.p99_us",
    "harness.run_scenario.calls",
    "harness.run_scenario.busy_s",
    "harness.self_s",
    "harness.report_s",
    "harness.report_bytes",
    "cli.parse_config.calls",
    "cli.parse_config.busy_s",
    "trace.overhead_s",
)

NAME, START, END, PARENT, FAILED = range(5)


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its last name component."""
    stat = metric.rpartition(".")[2]
    if stat.endswith("_us"):
        return "us"
    if stat.endswith("_s"):
        return "s"
    if stat.endswith("_bytes"):
        return "B"
    if stat in ("calls", "failures", "iterations"):
        return "count"
    return "1"


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        # Per solver span: [calls, corrections, converged calls].
        self.solver_logs: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
        self.report_bytes = 0
        self.grid_steps = 0
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, on_return=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, False]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[FAILED] = True
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if on_return is not None:
                on_return(args, result)
            return result

        return traced

    def _on_solver_return(self, name: str):
        def record(args, result) -> None:
            log = result[1]
            entry = self.solver_logs[name]
            entry[0] += 1
            entry[1] += len(log) - 1
            entry[2] += bool(log and log[-1]["converged"])

        return record

    def _on_report_return(self, args, result) -> None:
        self.report_bytes += os.path.getsize(args[0])

    def _on_run_return(self, args, result) -> None:
        self.grid_steps += len(result.time) - 1

    def install(self) -> None:
        modules = [
            m for key, m in sys.modules.items()
            if key == PACKAGE or key.startswith(PACKAGE + ".")
        ]
        for name, module_name, attr in FUNCTIONS:
            original = getattr(sys.modules[f"{PACKAGE}.{module_name}"], attr)
            on_return = None
            if name in ("mpsp.solve", "gmpsp.solve"):
                on_return = self._on_solver_return(name)
            elif name == "harness.report":
                on_return = self._on_report_return
            elif name == "harness.run_scenario":
                on_return = self._on_run_return
            wrapper = self._wrap(name, original, on_return)
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, binding, wrapper)
        plant = sys.modules[f"{PACKAGE}.dynamics"].RelativePlant
        for name, attr in PLANT_METHODS:
            self._patch(plant, attr, self._wrap(name, vars(plant)[attr]))

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def _percentile_us(durations: list[float], q: float) -> float:
    """Nearest-rank percentile of durations in seconds, in microseconds."""
    if not durations:
        return 0.0
    ordered = sorted(durations)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1] * 1e6


def layer_metrics(tracer: Tracer, passes: int) -> tuple[dict[str, float], dict[str, dict]]:
    """Per-layer metrics per traced pass, plus a per-span-name table.

    The table maps each span name to its calls, busy and self time (all
    per pass); self time is busy time minus the time of wrapped children.
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    durations: dict[str, list[float]] = defaultdict(list)
    failures: dict[str, int] = defaultdict(int)
    for span in spans:
        duration = span[END] - span[START]
        durations[span[NAME]].append(duration)
        failures[span[NAME]] += span[FAILED]
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += duration
    self_time: dict[str, float] = defaultdict(float)
    for index, span in enumerate(spans):
        self_time[span[NAME]] += span[END] - span[START] - child_time[index]

    def parent_name(span) -> str | None:
        return spans[span[PARENT]][NAME] if span[PARENT] >= 0 else None

    j2_in_jacobian = sum(
        1 for s in spans
        if s[NAME] == "dynamics.j2_differential_accel"
        and parent_name(s) == "dynamics.f_jacobian"
    )
    plant_steps = len({
        s[PARENT] for s in spans
        if s[NAME] == "dynamics.deriv" and parent_name(s) == "numerics.rk4_step"
    })
    gmpsp_propagate = sum(
        s[END] - s[START] for s in spans
        if s[NAME] == "dynamics.propagate" and parent_name(s) == "gmpsp.solve"
    )

    def calls(name):
        return len(durations.get(name, ()))

    def busy(name):
        return sum(durations.get(name, ()))

    out = dict.fromkeys(LAYER_METRICS, 0.0)
    for metric in LAYER_METRICS:
        layer, _, stat = metric.rpartition(".")
        if stat == "calls":
            out[metric] = calls(layer)
        elif stat == "busy_s":
            out[metric] = busy(layer)
        elif stat == "self_s":
            out[metric] = self_time.get(layer, 0.0)
        elif stat in ("p50_us", "p99_us"):
            out[metric] = _percentile_us(durations.get(layer, []), float(stat[1:3]))
        elif stat == "failures":
            out[metric] = failures.get(layer, 0)
        elif layer in ("mpsp", "gmpsp") and stat.endswith("_s"):
            out[metric] = busy(f"{layer}.{stat[:-2]}")  # a solver phase
    for solver in ("mpsp", "gmpsp"):
        solves, corrections, converged = tracer.solver_logs[f"{solver}.solve"]
        out[f"{solver}.iterations"] = corrections
        out[f"{solver}.converged_frac"] = converged / solves if solves else 0.0
    out["gmpsp.propagate_s"] = gmpsp_propagate
    f_jac = calls("dynamics.f_jacobian")
    out["dynamics.j2_per_jacobian"] = j2_in_jacobian / f_jac if f_jac else 0.0
    grid_steps = tracer.grid_steps
    out["dynamics.plant_steps_per_grid_step"] = plant_steps / grid_steps if grid_steps else 0.0
    out["harness.self_s"] = self_time.get("harness.run_scenario", 0.0)
    out["harness.report_s"] = busy("harness.report")
    out["harness.report_bytes"] = tracer.report_bytes
    # Everything except ratios, fractions and percentiles is per pass.
    per_pass_exempt = ("p50_us", "p99_us", "converged_frac", "j2_per_jacobian",
                       "plant_steps_per_grid_step")
    for metric in out:
        if not metric.endswith(per_pass_exempt):
            out[metric] /= passes
    table = {
        name: {
            "calls": len(d) / passes,
            "busy_s": sum(d) / passes,
            "self_s": self_time[name] / passes,
        }
        for name, d in durations.items()
    }
    return out, table
