"""Model predictive static programming (discrete form).

Converts the finite-horizon guidance problem into a static program:
the plant is propagated with RK4, output sensitivities are built from
Euler-discretized analytic Jacobians by a backward recursion, and the
control history is corrected in closed form.  The outer loop repeats
prediction and correction until the terminal baseline error is inside
tolerance.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dynamics import POSITION_ROWS, B, RelativePlant
from .options import MpspOptions


class MpspError(RuntimeError):
    """Raised on sensitivity or update failures."""


@dataclass
class SensitivitySet:
    """Per-step output-sensitivity blocks and the static-program data."""

    B_k: np.ndarray  # (N-1, 6, 3)
    A_lambda: np.ndarray  # (6, 6), equals -sum B_k R_k^-1 B_k^T
    b_lambda: np.ndarray  # (6,)


def predict_trajectory(
    plant: RelativePlant, x0: np.ndarray, controls: np.ndarray, dt: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """RK4 propagation of the truth plant under the control history.

    Returns (states, nus, Y_N) where Y_N is the full terminal state.
    """
    states, nus = plant.propagate(x0, controls, dt)
    return states, nus, states[-1]


def analytic_state_jacobians(
    plant: RelativePlant, states: np.ndarray, nus: np.ndarray, dt: float
) -> tuple[np.ndarray, np.ndarray]:
    """Euler-discretized transition Jacobians along a trajectory.

    dF_k/dX_k = I + dt * df/dX evaluated at (X_k, nu_k) for k < N - 1,
    from one batched ``f_jacobian`` call over the grid; the control
    Jacobian dF_k/dU_k = dt * B is constant.
    """
    return np.eye(6) + dt * plant.f_jacobian(states[:-1], nus[:-1]), dt * B


def compute_sensitivities(
    dF_dX: np.ndarray,
    dF_dU: np.ndarray,
    R_k: np.ndarray,
    U0: np.ndarray,
) -> SensitivitySet:
    """Backward recursion for the output sensitivities B_k.

    B_k = [dY_N/dX_N] dF_{N-1}/dX ... dF_{k+1}/dX dF_k/dU, accumulated
    from the terminal step (dY_N/dX_N = I for full-state output), with

        A_lambda = -sum_k B_k R_k^-1 B_k^T,   b_lambda = sum_k B_k U0_k.
    """
    n = len(dF_dX)
    B_k = np.empty((n, 6, 3))
    phi = np.eye(6)
    for k in range(n - 1, -1, -1):
        B_k[k] = phi @ dF_dU
        phi = phi @ dF_dX[k]
    Rinv_BkT = np.linalg.solve(R_k, B_k.transpose(0, 2, 1))  # (n, 3, 6)
    A_lambda = -np.einsum("kij,kjl->il", B_k, Rinv_BkT)
    b_lambda = np.einsum("kij,kj->i", B_k, U0)
    return SensitivitySet(B_k=B_k, A_lambda=A_lambda, b_lambda=b_lambda)


def mpsp_update(sens: SensitivitySet, dY_N: np.ndarray, R_k: np.ndarray) -> np.ndarray:
    """Closed-form control-history correction.

    U_k = R_k^-1 B_k^T A_lambda^-1 (dY_N - b_lambda), where dY_N is the
    achieved-minus-desired terminal output of the previous prediction;
    the previous history enters through ``sens.b_lambda``.
    """
    try:
        lam = np.linalg.solve(sens.A_lambda, dY_N - sens.b_lambda)
    except np.linalg.LinAlgError as exc:
        raise MpspError(
            "static-program matrix singular; use more steps or a smaller R"
        ) from exc
    rhs = sens.B_k.transpose(0, 2, 1) @ lam  # (N-1, 3)
    return np.linalg.solve(R_k, rhs.T).T


#: Reference baseline length [km] of a rendezvous target, whose commanded
#: baseline length is 0.  There :func:`rho_error_pct`, and with it the
#: MPSP/G-MPSP stop, and the harness's settle band measure the absolute
#: position error against 1 km: 1 % is 10 m.  NN-LQR's default grid basis
#: is sized by it too.
RENDEZVOUS_LENGTH_KM = 1.0


def rho_error_pct(Y_N: np.ndarray, Y_star: np.ndarray) -> float:
    """Percent error between achieved and commanded terminal baseline.

    rho is the terminal position norm; the commanded value comes from
    the desired terminal state.  A commanded rho of 0 (rendezvous) is
    measured against RENDEZVOUS_LENGTH_KM instead.
    """
    rho_f = np.linalg.norm(Y_N[POSITION_ROWS])
    rho_d = np.linalg.norm(Y_star[POSITION_ROWS])
    return abs(rho_f - rho_d) / (rho_d or RENDEZVOUS_LENGTH_KM) * 100.0


def predict_correct(
    guess: np.ndarray,
    Y_star: np.ndarray,
    predict: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    correct: Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    tol_rho_pct: float,
    max_iter: int,
    prediction: tuple[np.ndarray, np.ndarray],
) -> tuple[np.ndarray, list[dict], np.ndarray]:
    """Outer prediction/correction loop shared by MPSP and G-MPSP.

    predict(U) returns the (states, nus) flown under the control history
    U; correct(states, nus, dY, U) returns the corrected history, where
    dY is the achieved-minus-desired terminal state.  ``prediction`` is
    the (states, nus) already flown under ``guess`` (the harness's
    closed-loop guess flight, or ``predict(guess)``); it is iteration
    0's prediction, so the loop flies once per correction.  Returns
    (controls, iteration log, final trajectory).  Each log row records
    the iteration number, the six terminal errors, and %rho_e; the last
    row carries converged=False if the tolerance was not met within
    max_iter corrections.
    """
    U = np.asarray(guess, dtype=float).copy()
    log: list[dict] = []
    states, nus = prediction
    for it in itertools.count():
        dY = states[-1] - Y_star
        pct = rho_error_pct(states[-1], Y_star)
        converged = pct < tol_rho_pct
        log.append(
            {
                "iteration": it,
                "terminal_errors": dY.copy(),
                "rho_error_pct": pct,
                "converged": converged,
            }
        )
        if converged or it >= max_iter:
            return U, log, states
        U = correct(states, nus, dY, U)
        states, nus = predict(U)


def mpsp_solve(
    plant: RelativePlant,
    x0: np.ndarray,
    Y_star: np.ndarray,
    guess: np.ndarray,
    dt: float,
    options: MpspOptions,
    prediction: tuple[np.ndarray, np.ndarray],
) -> tuple[np.ndarray, list[dict], np.ndarray]:
    """Discrete static programming; see :func:`predict_correct`, which
    takes ``prediction``.

    options.R is the continuous control weight; the per-step static
    weight is R_k = dt * R.
    """
    R_kmat = dt * options.R

    def predict(U):
        states, nus, _ = predict_trajectory(plant, x0, U, dt)
        return states, nus

    def correct(states, nus, dY, U):
        dF_dX, dF_dU = analytic_state_jacobians(plant, states, nus, dt)
        sens = compute_sensitivities(dF_dX, dF_dU, R_kmat, U)
        return mpsp_update(sens, dY, R_kmat)

    return predict_correct(guess, Y_star, predict, correct, options.tol_rho_pct, options.max_iter,
                           prediction)
