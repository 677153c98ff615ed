"""Per-scenario result summaries and the workload checks.

A check takes the summaries of one workload pass, keyed by scenario name,
and returns the scenarios that failed with a reason.  Together with the
scenarios that raised, these are the failures counted in ``fail_frac``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from workloads import (
    GMPSP_POS_BOUND_KM,
    MPSP_POS_BOUND_KM,
    POSITION_ROWS,
    SWEEP_R_VALUES,
)


@dataclass(frozen=True)
class Summary:
    """What the checks and the end-to-end metrics read from one run."""

    pos_err_km: float  # terminal position-error norm against the command
    pos_err_axis_km: float  # largest terminal position-error component
    initial_err_km: float  # position-error norm at t = 0
    effort: float
    corrections: int  # iterative solvers: log rows after iteration 0
    finite: bool


def summarize(scenario, result) -> Summary:
    """Summarize a ``harness.RunResult`` of ``scenario``."""
    from formation_guidance.harness import desired_trajectory

    rows = list(POSITION_ROWS)
    desired0, _ = desired_trajectory(scenario, result.time[:1])
    position_errors = result.terminal_errors[rows]
    return Summary(
        pos_err_km=float(np.linalg.norm(position_errors)),
        pos_err_axis_km=float(np.max(np.abs(position_errors))),
        initial_err_km=float(np.linalg.norm((result.states[0] - desired0[0])[rows])),
        effort=float(result.control_effort),
        corrections=max(len(result.log) - 1, 0),
        finite=bool(
            np.all(np.isfinite(result.states))
            and np.all(np.isfinite(result.controls))
            and np.all(np.isfinite(result.terminal_errors))
        ),
    )


def _check_sdre_sweep(runs: dict[str, Summary]) -> dict[str, str]:
    """Control effort strictly decreases as the control weight grows."""
    failed = {}
    names = [f"R{r:.0e}" for r in SWEEP_R_VALUES]
    for lighter, heavier in zip(names, names[1:]):
        if lighter in runs and heavier in runs:
            if not runs[heavier].effort < runs[lighter].effort:
                failed[heavier] = (
                    f"effort {runs[heavier].effort:.6g} not below "
                    f"{lighter}'s {runs[lighter].effort:.6g}"
                )
    return failed


def _check_predictive_j2(runs: dict[str, Summary]) -> dict[str, str]:
    """Preset error bounds, and at least one correction per solver."""
    failed = {}
    for name, bound in (("mpsp", MPSP_POS_BOUND_KM), ("gmpsp", GMPSP_POS_BOUND_KM)):
        run = runs.get(name)
        if run is None:
            continue
        if not run.pos_err_axis_km <= bound:
            failed[name] = f"terminal position error {run.pos_err_axis_km:.3g} km > {bound:g} km"
        elif run.corrections < 1:
            failed[name] = "no correction made: the result is the LQR guess"
    return failed


def _check_uncertain_j2(runs: dict[str, Summary]) -> dict[str, str]:
    """NN-LQR ends closer to the command than it started."""
    run = runs.get("nnlqr")
    if run is not None and not run.pos_err_km < run.initial_err_km:
        return {
            "nnlqr": f"terminal error {run.pos_err_km:.4g} km not below "
            f"initial {run.initial_err_km:.4g} km"
        }
    return {}


_CHECKS = {
    "sdre-sweep": _check_sdre_sweep,
    "predictive-j2": _check_predictive_j2,
    "uncertain-j2": _check_uncertain_j2,
}


def check(workload: str, runs: dict[str, Summary]) -> dict[str, str]:
    """Failed scenario names of one pass, with reasons."""
    failed = {
        name: "non-finite state, control or terminal error"
        for name, run in runs.items()
        if not run.finite
    }
    for name, reason in _CHECKS[workload](runs).items():
        failed.setdefault(name, reason)
    return failed
