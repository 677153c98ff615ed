"""Scenarios, runs and reports.

``run_scenario`` builds the control law of a ``Scenario``'s controller
options, flies it on the truth plant (or solves MPSP/G-MPSP from a
closed-loop LQR guess) and returns a ``RunResult`` with its metrics;
``compare`` runs scenarios against controllers, and the ``write_*``
functions write CSV reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from . import nnlqr
from .dynamics import (
    POSITION_ROWS,
    ChiefOrbit,
    FormationParams,
    GravityModel,
    RelativePlant,
    B,
    chief_kinematics_table,
    formation_to_hill,
    formation_to_hill_deriv,
    propagate_nu,
)
from .gmpsp import gmpsp_solve
from .lqr import design_lqr, lqr_tracking_control
from .mpsp import RENDEZVOUS_LENGTH_KM, mpsp_solve, rho_error_pct
from .numerics import NumericsError, RiccatiState, riccati_weights
from .options import CONTROLLER_OPTIONS, LqrOptions
from .sdre import FiniteHorizonSpec, finite_time_sdre_control, sdre_infinite_control

#: Sentinel returned by settle_time when the error never stays inside the band.
NOT_SETTLED = math.inf

#: Settle band [% of the commanded baseline length] of a run unless one is given.
SETTLE_THRESHOLD_PCT = 1.0

class HarnessError(RuntimeError):
    """Raised for invalid scenarios or failures inside a simulation run."""


@dataclass(frozen=True)
class Scenario:
    """Complete description of one simulation experiment.

    chief is the believed chief orbit used for control design; when
    truth_chief is set the plant flies that orbit instead (uncertainty
    studies).  gravity applies to the truth plant.  controller is an
    instance of one of the options classes of
    :data:`~formation_guidance.options.CONTROLLER_OPTIONS`; its ``kind``
    selects the control law and its fields configure it.  Anything else
    raises HarnessError.
    """

    chief: ChiefOrbit
    gravity: GravityModel
    initial: FormationParams
    desired: FormationParams
    tf: float
    dt: float
    controller: object
    truth_chief: ChiefOrbit | None = None

    def __post_init__(self) -> None:
        if type(self.controller) not in CONTROLLER_OPTIONS.values():
            raise HarnessError(f"controller {self.controller!r} is not a controller options object")
        if not (self.tf > 0.0 and self.dt > 0.0):
            raise HarnessError("tf and dt must be positive")
        steps = self.tf / self.dt
        if not math.isfinite(steps) or abs(steps - round(steps)) > 1e-9:
            raise HarnessError("tf must be an integral number of dt steps")
        if self.n_steps < 1:
            raise HarnessError("tf must span at least one dt step")

    @property
    def n_steps(self) -> int:
        return round(self.tf / self.dt)

    @property
    def plant_chief(self) -> ChiefOrbit:
        return self.truth_chief if self.truth_chief is not None else self.chief


@dataclass
class RunResult:
    """Trajectory, control history and metrics from one scenario run."""

    time: np.ndarray  # (N+1,)
    states: np.ndarray  # (N+1, 6)
    controls: np.ndarray  # (N+1, 3), last row repeats the final held control
    terminal_errors: np.ndarray  # (6,)
    rho_error_pct: float
    control_effort: float
    settle_time: float
    log: list[dict]  # MPSP/G-MPSP iteration rows; empty for other kinds


def control_effort(controls: np.ndarray, dt: float) -> float:
    """Trapezoidal integral of U^T U over the run."""
    u2 = np.einsum("ij,ij->i", controls, controls)
    return float(np.trapezoid(u2, dx=dt))


def desired_trajectory(
    scenario: Scenario, times: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Commanded states and their time derivatives on the grid, one row
    per time."""
    omega = scenario.chief.mean_motion()
    return (
        formation_to_hill(scenario.desired, omega, times),
        formation_to_hill_deriv(scenario.desired, omega, times),
    )


def settle_time(
    times: np.ndarray,
    states: np.ndarray,
    desired: np.ndarray,
    rho_command: float,
    threshold_pct: float,
) -> float:
    """First time after which the position-error norm stays inside the band.

    The band is threshold_pct percent of the commanded baseline length
    rho_command, or of RENDEZVOUS_LENGTH_KM for a rendezvous target
    (rho_command = 0).  Returns 0.0 when the whole trajectory is inside
    and NOT_SETTLED when the final sample is still outside.
    """
    if not threshold_pct > 0.0:
        raise HarnessError("threshold_pct must be positive")
    err = np.linalg.norm((states - desired)[:, POSITION_ROWS], axis=1)
    band = threshold_pct / 100.0 * (rho_command or RENDEZVOUS_LENGTH_KM)
    outside = np.flatnonzero(err >= band)
    if outside.size == 0:
        return 0.0
    last = outside[-1]
    if last == len(times) - 1:
        return NOT_SETTLED
    return float(times[last + 1])


def _feedback_law(
    scenario: Scenario, x0: np.ndarray, Xd: np.ndarray, Xd_dot: np.ndarray
) -> Callable[[int, float, np.ndarray], np.ndarray]:
    """Control u_k = law(k, t_k, X_k) of the feedback controller kinds.

    Xd and Xd_dot are the commanded states and their derivatives on the
    grid (see :func:`desired_trajectory`); law k reads their row k, and
    the finite-time SDRE's terminal constraint is Xd's last row.
    """
    opts = scenario.controller
    believed, desired, dt = scenario.chief, scenario.desired, scenario.dt
    omega = believed.mean_motion()

    if opts.kind == "zero":
        return lambda k, t, X: np.zeros(3)

    if opts.kind == "lqr":
        design = design_lqr(omega, Q=opts.Q, R=opts.R)
        return lambda k, t, X: lqr_tracking_control(design, X, Xd[k], Xd_dot[k])

    if opts.kind == "nnlqr":
        rbf = nnlqr.make_rbf_network(opts.basis, desired.rho or RENDEZVOUS_LENGTH_KM, omega)
        ctrl = nnlqr.NnLqrController(
            design=design_lqr(omega, Q=opts.Q, R=opts.R), rbf=rbf,
            basis=nnlqr.DisturbanceBasis(believed.a), X_a=x0.copy(),
            K_tau=opts.k_tau * np.eye(6), beta=opts.beta, gamma=opts.gamma,
            Theta=opts.theta * np.eye(6), R1=opts.R1, dt=dt,
        )

        def nnlqr_law(k, t, X):
            theta = believed.arg_perigee + believed.nu0 + omega * t
            return nnlqr.nnlqr_control_step(ctrl, X, Xd[k], Xd_dot[k], Xd[k + 1], theta)

        return nnlqr_law

    # Believed chief kinematics on the control grid.
    kins = chief_kinematics_table(believed, propagate_nu(believed, scenario.n_steps, dt))

    if opts.kind == "sdre":
        # Each step's Riccati solution, with the Schur form of its closed
        # loop, warm-starts the next, and the weights' invariants serve
        # every step; both are local to this run's law.  Weights that
        # cannot be factored are left to the first step's solve, which
        # reports them with its state.
        riccati = RiccatiState(None)
        try:
            weights = riccati_weights(B, opts.Q, opts.R)
        except NumericsError:
            weights = None

        def sdre_law(k, t, X):
            nonlocal riccati
            u, riccati = sdre_infinite_control(X, Xd[k], opts, kins[k], riccati, weights)
            return u

        return sdre_law

    horizon = FiniteHorizonSpec(tf=scenario.tf, Xf=Xd[-1], Q=opts.Q, R=opts.R)

    def fsdre_law(k, t, X):
        return finite_time_sdre_control(X, t, horizon, opts, kins[k])

    return fsdre_law


def _run_closed_loop(
    scenario: Scenario, plant: RelativePlant, x0: np.ndarray,
    reference: tuple[np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fly the feedback law on the plant; returns the states, the chief
    anomalies and the (N, 3) controls of ``RelativePlant.simulate``.

    reference is the (Xd, Xd_dot) pair of :func:`desired_trajectory`.
    """
    law = _feedback_law(scenario, x0, *reference)

    def policy(k, t, X):
        try:
            return law(k, t, X)
        except Exception as exc:
            raise HarnessError(f"controller failed at step {k} (t={t}): {exc}") from exc

    return plant.simulate(x0, scenario.n_steps, scenario.dt, policy)


def _solve_open_loop(
    scenario: Scenario, plant: RelativePlant, x0: np.ndarray,
    reference: tuple[np.ndarray, np.ndarray],
) -> tuple[np.ndarray, list[dict], np.ndarray]:
    """MPSP/G-MPSP seeded with the closed-loop LQR control history, whose
    flight is the solver's first prediction.  The commanded terminal
    state is the last row of ``reference``'s states."""
    Y_star = reference[0][-1]
    lqr = replace(scenario, controller=LqrOptions())
    states, nus, guess = _run_closed_loop(lqr, plant, x0, reference)
    solve = mpsp_solve if scenario.controller.kind == "mpsp" else gmpsp_solve
    return solve(plant, x0, Y_star, guess, scenario.dt, scenario.controller,
                 prediction=(states, nus))


def run_scenario(
    scenario: Scenario, settle_threshold_pct: float = SETTLE_THRESHOLD_PCT
) -> RunResult:
    """Simulate one scenario and compute its metrics."""
    plant = RelativePlant(scenario.plant_chief, scenario.gravity)
    n, dt = scenario.n_steps, scenario.dt
    x0 = formation_to_hill(scenario.initial, scenario.chief.mean_motion(), 0.0)
    times = np.arange(n + 1) * dt
    reference = desired_trajectory(scenario, times)
    log: list[dict] = []
    if scenario.controller.kind in ("mpsp", "gmpsp"):
        U, log, states = _solve_open_loop(scenario, plant, x0, reference)
    elif getattr(scenario.controller, "open_loop", False):
        # Plan closed-loop against the believed, unperturbed model, then
        # replay the resulting control history on the truth plant.  This
        # matches how guess/comparison control histories are evaluated in
        # the predictive-guidance studies.
        plan_plant = RelativePlant(scenario.chief, GravityModel(j2_enabled=False))
        _, _, U = _run_closed_loop(scenario, plan_plant, x0, reference)
        states, _ = plant.propagate(x0, U, dt)
    else:
        states, _, U = _run_closed_loop(scenario, plant, x0, reference)
    controls = np.vstack([U, U[-1]])
    desired = reference[0]
    return RunResult(
        time=times,
        states=states,
        controls=controls,
        terminal_errors=states[-1] - desired[-1],
        rho_error_pct=rho_error_pct(states[-1], desired[-1]),
        control_effort=control_effort(controls, dt),
        settle_time=settle_time(
            times, states, desired, scenario.desired.rho, settle_threshold_pct
        ),
        log=log,
    )


# ---------------------------------------------------------------------------
# Report generation


def _row_template(n: int) -> str:
    """%-format of n comma-separated floats, each written as
    ``format(v, ".17g")`` writes it (17 significant digits)."""
    return ",".join(["%.17g"] * n)


def write_trajectory_csv(path, result: RunResult) -> None:
    table = np.column_stack([result.time, result.states, result.controls])
    line = _row_template(table.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,x,xdot,y,ydot,z,zdot,ux,uy,uz\n")
        fh.writelines(line % tuple(row) for row in table.tolist())


METRIC_COLUMNS = (
    "ex",
    "exdot",
    "ey",
    "eydot",
    "ez",
    "ezdot",
    "rho_error_pct",
    "control_effort",
    "settle_time",
)


def metrics_row(result: RunResult) -> list[float]:
    return [
        *result.terminal_errors,
        result.rho_error_pct,
        result.control_effort,
        result.settle_time,
    ]


def write_metrics_csv(path, named_results: Sequence[tuple[str, RunResult]]) -> None:
    line = "%s," + _row_template(len(METRIC_COLUMNS)) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("name," + ",".join(METRIC_COLUMNS) + "\n")
        for name, result in named_results:
            fh.write(line % (name, *metrics_row(result)))


def write_iteration_log_csv(path, result: RunResult) -> None:
    line = "%d," + _row_template(7) + ",%d\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("iteration,ex,exdot,ey,eydot,ez,ezdot,rho_error_pct,converged\n")
        for row in result.log:
            fh.write(line % (row["iteration"], *row["terminal_errors"],
                             row["rho_error_pct"], row["converged"]))


@dataclass
class CompareCell:
    scenario_name: str
    controller_name: str
    result: RunResult | None
    error: str | None = None


def compare(
    scenarios: Sequence[tuple[str, Scenario]],
    controllers: Sequence[object],
) -> list[CompareCell]:
    """Run every scenario with every controller; failures become cells.

    The scenario's own controller is replaced by each options object of
    controllers in turn, and the cell is named by its ``kind``.  Cells
    are emitted in (scenario, controller) order, deterministically.
    """
    if not scenarios or not controllers:
        raise HarnessError("compare needs at least one scenario and controller")
    cells: list[CompareCell] = []
    for s_name, scenario in scenarios:
        for options in controllers:
            try:
                result = run_scenario(replace(scenario, controller=options))
                cells.append(CompareCell(s_name, options.kind, result))
            except Exception as exc:
                cells.append(CompareCell(s_name, options.kind, None, error=str(exc)))
    return cells


def write_compare_csv(path, cells: Sequence[CompareCell]) -> None:
    line = "%s,%s,ok," + _row_template(len(METRIC_COLUMNS)) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("scenario,controller,status," + ",".join(METRIC_COLUMNS) + "\n")
        for cell in cells:
            if cell.result is None:
                fh.write(f"{cell.scenario_name},{cell.controller_name},error\n")
            else:
                names = (cell.scenario_name, cell.controller_name)
                fh.write(line % (*names, *metrics_row(cell.result)))


def format_compare_table(cells: Sequence[CompareCell]) -> str:
    """Aligned text table of terminal errors, one row per cell."""
    headers = ["scenario", "controller", "ex", "ey", "ez", "rho_err_pct", "effort"]
    rows = [headers]
    for cell in cells:
        if cell.result is None:
            rows.append([cell.scenario_name, cell.controller_name, "error:", cell.error or "", "", "", ""])
            continue
        e = cell.result.terminal_errors
        rows.append(
            [
                cell.scenario_name,
                cell.controller_name,
                f"{e[0]:.6g}",
                f"{e[2]:.6g}",
                f"{e[4]:.6g}",
                f"{cell.result.rho_error_pct:.6g}",
                f"{cell.result.control_effort:.6g}",
            ]
        )
    widths = [max(len(r[i]) for r in rows) for i in range(len(headers))]
    lines = ["  ".join(r[i].ljust(widths[i]) for i in range(len(headers))).rstrip() for r in rows]
    return "\n".join(lines) + "\n"
