"""Scenarios, runs and reports.

``run_scenario`` builds the control law of a ``Scenario``'s controller
options, flies it on the truth plant (or solves MPSP/G-MPSP from a
closed-loop LQR guess) and returns a ``RunResult`` with its metrics;
``compare`` runs scenarios against controllers, and the ``write_*``
functions write CSV reports.  Every flight of a run (a closed-loop law,
an open-loop plan and its replay, the MPSP/G-MPSP guess) is one
``_fly`` call, which builds its law, flies it and names each failure.
Every file the library writes is rewritten in place by ``_rewrite``.
"""

from __future__ import annotations

import math
import os
import stat
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Iterator, Sequence, TextIO

import numpy as np

from . import nnlqr
from .dynamics import (
    POSITION_ROWS,
    ChiefOrbit,
    DynamicsError,
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
from .mpsp import RENDEZVOUS_LENGTH_KM, MpspError, mpsp_solve, rho_error_pct
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
    opts, scenario: Scenario, x0: np.ndarray, Xd: np.ndarray, Xd_dot: np.ndarray
) -> Callable[[int, float, np.ndarray], np.ndarray]:
    """Control u_k = law(k, t_k, X_k) of the feedback controller options
    opts on the scenario's believed chief and grid.

    Xd and Xd_dot are the commanded states and their derivatives on the
    grid (see :func:`desired_trajectory`); law k reads their row k, and
    the finite-time SDRE's terminal constraint is Xd's last row.  NN-LQR's
    virtual plant starts at x0.
    """
    believed, dt = scenario.chief, scenario.dt

    if opts.kind == "zero":
        return lambda k, t, X: np.zeros(3)

    if opts.kind == "lqr":
        design = design_lqr(believed.mean_motion(), Q=opts.Q, R=opts.R)
        return lambda k, t, X: lqr_tracking_control(design, X, Xd[k], Xd_dot[k])

    if opts.kind == "nnlqr":
        scale = scenario.desired.rho or RENDEZVOUS_LENGTH_KM
        ctrl = nnlqr.NnLqrController(opts, believed, scale, x0.copy(), dt)
        return lambda k, t, X: nnlqr.nnlqr_control_step(ctrl, X, Xd[k], Xd_dot[k], Xd[k + 1], t)

    # Believed chief kinematics on the control grid.
    kins = chief_kinematics_table(believed, propagate_nu(believed, scenario.n_steps, dt))

    if opts.kind == "sdre":
        # Each step's Riccati solution, with the Schur form its chords
        # contract on, warm-starts the next, and the weights' invariants
        # serve every step; both are local to this run's law.
        riccati = RiccatiState(None)
        weights = riccati_weights(B, opts.Q, opts.R)

        def sdre_law(k, t, X):
            nonlocal riccati
            u, riccati = sdre_infinite_control(X, Xd[k], opts, kins[k], riccati, weights)
            return u

        return sdre_law

    horizon = FiniteHorizonSpec(tf=scenario.tf, Xf=Xd[-1], options=opts)

    def fsdre_law(k, t, X):
        return finite_time_sdre_control(X, t, horizon, kins[k])

    return fsdre_law


def _fly(
    scenario: Scenario, plant: RelativePlant, x0: np.ndarray,
    build_law: Callable[[], Callable[[int, float, np.ndarray], np.ndarray]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one flight of a run: ``RelativePlant.simulate`` over the
    scenario's grid under the law that ``build_law()`` returns; returns
    the states, the chief anomalies and the (N, 3) controls.

    A law that cannot be built fails as the controller's step 0, a law
    that fails in flight as its step, and the plant's NumericsError or
    DynamicsError as a HarnessError naming the scenario's controller
    kind and the step it was flying.  numpy's warnings are silenced: a
    law or flight that goes non-finite fails on its own error, at its
    step, instead.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        try:
            law = build_law()
        except Exception as exc:
            raise HarnessError(f"controller failed at step 0 (t=0.0): {exc}") from exc
        step = (0, 0.0)

        def policy(k, t, X):
            nonlocal step
            step = (k, t)
            try:
                return law(k, t, X)
            except Exception as exc:
                raise HarnessError(f"controller failed at step {k} (t={t}): {exc}") from exc

        try:
            return plant.simulate(x0, scenario.n_steps, scenario.dt, policy)
        except (NumericsError, DynamicsError) as exc:
            raise HarnessError(f"plant failed under {scenario.controller.kind} at step {step[0]} "
                               f"(t={step[1]}): {exc}") from exc


def run_scenario(
    scenario: Scenario, settle_threshold_pct: float = SETTLE_THRESHOLD_PCT
) -> RunResult:
    """Simulate one scenario and compute its metrics."""
    plant = RelativePlant(scenario.plant_chief, scenario.gravity)
    opts, n, dt = scenario.controller, scenario.n_steps, scenario.dt
    x0 = formation_to_hill(scenario.initial, scenario.chief.mean_motion(), 0.0)
    times = np.arange(n + 1) * dt
    Xd, Xd_dot = desired_trajectory(scenario, times)
    log: list[dict] = []
    if opts.kind in ("mpsp", "gmpsp"):
        # MPSP/G-MPSP start from the closed-loop LQR control history,
        # whose flight is the solver's first prediction.  A failed
        # correction names the kind and the correction, with the
        # solver's or the plant's error as the cause.
        guess_law = partial(_feedback_law, LqrOptions(), scenario, x0, Xd, Xd_dot)
        states, nus, guess = _fly(scenario, plant, x0, guess_law)
        solve = mpsp_solve if opts.kind == "mpsp" else gmpsp_solve
        try:
            U, log, states = solve(plant, x0, Xd[-1], guess, dt, opts, prediction=(states, nus))
        except MpspError as exc:
            raise HarnessError(f"{opts.kind} {exc}") from exc.__cause__
    else:
        law = partial(_feedback_law, opts, scenario, x0, Xd, Xd_dot)
        if getattr(opts, "open_loop", False):
            # Plan closed-loop against the believed, unperturbed model,
            # then replay the resulting control history on the truth
            # plant.  This matches how guess/comparison control histories
            # are evaluated in the predictive-guidance studies.
            plan_plant = RelativePlant(scenario.chief, GravityModel(j2_enabled=False))
            _, _, U = _fly(scenario, plan_plant, x0, law)
            states, _, _ = _fly(scenario, plant, x0, lambda: lambda k, t, X: U[k])
        else:
            states, _, U = _fly(scenario, plant, x0, law)
    controls = np.vstack([U, U[-1]])
    return RunResult(
        time=times,
        states=states,
        controls=controls,
        terminal_errors=states[-1] - Xd[-1],
        rho_error_pct=rho_error_pct(states[-1], Xd[-1]),
        control_effort=control_effort(controls, dt),
        settle_time=settle_time(times, states, Xd, scenario.desired.rho, settle_threshold_pct),
        log=log,
    )


# ---------------------------------------------------------------------------
# Report generation


@contextmanager
def _rewrite(path) -> Iterator[TextIO]:
    """UTF-8 text stream that rewrites the file at path in place.

    Every file the library writes goes through here.  The file is opened
    without ``O_TRUNC``, with the permissions ``open(path, "w")`` gives,
    and cut at the stream's final position on the way out, also when
    writing fails.  Only a regular file is cut, so a path such as
    ``/dev/null`` is written as ``open(path, "w")`` writes it.  The
    reason: ext4 (``auto_da_alloc``) starts the writeback of a file that
    was truncated to zero and written again when it is closed, and the
    next truncating open of that file waits for it, so every rerun into
    the same output directory would wait once per report.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w", encoding="utf-8") as fh:
        try:
            yield fh
        finally:
            if stat.S_ISREG(os.fstat(fd).st_mode):
                fh.truncate()


def _row_template(n: int) -> str:
    """%-format of n comma-separated floats, each written as
    ``format(v, ".17g")`` writes it (17 significant digits)."""
    return ",".join(["%.17g"] * n)


def _csv_field(text: str) -> str:
    """text as one CSV field, quoted as the csv module quotes it by
    default (RFC 4180): a field holding a comma, a quote, CR or LF is
    wrapped in quotes, with its quotes doubled."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_trajectory_csv(path, result: RunResult) -> None:
    table = np.column_stack([result.time, result.states, result.controls])
    line = _row_template(table.shape[1]) + "\n"
    with _rewrite(path) as fh:
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
    with _rewrite(path) as fh:
        fh.write("name," + ",".join(METRIC_COLUMNS) + "\n")
        for name, result in named_results:
            fh.write(line % (_csv_field(name), *metrics_row(result)))


def write_iteration_log_csv(path, result: RunResult) -> None:
    line = "%d," + _row_template(7) + ",%d\n"
    with _rewrite(path) as fh:
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
    """One row per cell; a failed cell's status is ``error`` and its
    metric fields are empty."""
    line = "%s,%s,ok," + _row_template(len(METRIC_COLUMNS)) + "\n"
    failed = "%s,%s,error" + "," * len(METRIC_COLUMNS) + "\n"
    with _rewrite(path) as fh:
        fh.write("scenario,controller,status," + ",".join(METRIC_COLUMNS) + "\n")
        for cell in cells:
            names = (_csv_field(cell.scenario_name), _csv_field(cell.controller_name))
            if cell.result is None:
                fh.write(failed % names)
            else:
                fh.write(line % (*names, *metrics_row(cell.result)))


def _one_line(text: str) -> str:
    """text with CR and LF written as the escapes ``\\r`` and ``\\n``."""
    return text.replace("\r", "\\r").replace("\n", "\\n")


def format_compare_table(cells: Sequence[CompareCell]) -> str:
    """Aligned text table of terminal errors, one line per cell; a failed
    cell's row gives its error message after the names and widens no
    column.  CR and LF in names and messages are written as ``\\r`` and
    ``\\n``."""
    headers = ["scenario", "controller", "ex", "ey", "ez", "rho_err_pct", "effort"]
    rows = [headers]
    for cell in cells:
        names = [_one_line(cell.scenario_name), _one_line(cell.controller_name)]
        if cell.result is None:
            rows.append([*names, f"error: {_one_line(cell.error or '')}"])
            continue
        res = cell.result
        values = (*res.terminal_errors[POSITION_ROWS], res.rho_error_pct, res.control_effort)
        rows.append([*names, *(f"{v:.6g}" for v in values)])
    widths = [max(len(r[i]) for r in rows if i < len(r) - 1) for i in range(len(headers) - 1)]
    lines = ["  ".join(f.ljust(w) for f, w in zip(r, [*widths, 0])).rstrip() for r in rows]
    return "\n".join(lines) + "\n"
