"""Generalized (continuous-time) model predictive static programming.

Replaces the discrete sensitivity products with a weight matrix W(t)
integrated backward from the final time, accumulates the static-program
data by trapezoidal quadrature, and applies a closed-form continuous
control-history correction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import B, RelativePlant
from .mpsp import predict_correct
from .options import GmpspOptions


class GmpspError(RuntimeError):
    """Raised on sensitivity-field or update failures."""


@dataclass
class SensitivityField:
    """Backward weight matrices and continuous input sensitivities.

    W has shape (N, 6, 6) with W[-1] = I (full-state terminal output);
    B_c[k] = W[k] @ B on the same grid.
    """

    W: np.ndarray
    B_c: np.ndarray


@dataclass
class GmpspAccumulators:
    """Static-program data: A_lambda = int Bc R^-1 Bc^T dt (symmetric PD)
    and b_lambda = int Bc U0 dt."""

    A_lambda: np.ndarray
    b_lambda: np.ndarray


def integrate_W_backward(
    plant: RelativePlant, states: np.ndarray, nus: np.ndarray, dt: float
) -> SensitivityField:
    """Integrate dW/dt = -W df/dX backward by RK4 from W(tf) = I.

    The Jacobians come from two batched ``f_jacobian`` calls: one on the
    grid and one on the midpoints of the stored trajectory samples,
    (X_k + X_{k+1}) / 2 at the averaged anomaly (nu_k + nu_{k+1}) / 2.
    RK4 on this linear equation is linear in W, so each backward step
    is W_k = W_{k+1} Phi_k with Phi_k the step's RK4 polynomial in
    J_{k+1}, J_mid and J_k (the RK4 stages started from the identity);
    all Phi_k are formed by batched products and the loop holds one
    6x6 product per step.  Raises GmpspError at the highest grid index
    whose weight is not finite.
    """
    n = len(states)
    J = plant.f_jacobian(states, nus)
    J_mid = plant.f_jacobian(0.5 * (states[:-1] + states[1:]), 0.5 * (nus[:-1] + nus[1:]))
    eye = np.eye(6)
    h = -dt  # stepping backward in time
    k1 = -J[1:]
    k2 = -(eye + 0.5 * h * k1) @ J_mid
    k3 = -(eye + 0.5 * h * k2) @ J_mid
    k4 = -(eye + h * k3) @ J[:-1]
    Phi = eye + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    W = np.empty((n, 6, 6))
    W[-1] = eye
    for k in range(n - 2, -1, -1):
        np.matmul(W[k + 1], Phi[k], out=W[k])
    bad = np.flatnonzero(~np.isfinite(W).all(axis=(1, 2)))
    if bad.size:
        raise GmpspError(f"non-finite sensitivity weight at grid index {bad[-1]}")
    return SensitivityField(W=W, B_c=W @ B)


def _controls_on_grid(U0: np.ndarray, n: int) -> np.ndarray:
    """Zero-order-hold control history sampled at the n grid points."""
    U_grid = np.empty((n, 3))
    U_grid[:-1] = U0
    U_grid[-1] = U0[-1]
    return U_grid


def gmpsp_accumulate(
    field: SensitivityField, U0: np.ndarray, R: np.ndarray, dt: float
) -> GmpspAccumulators:
    """Trapezoidal accumulation of A_lambda and b_lambda on the grid."""
    Bc = field.B_c
    n = len(Bc)
    Rinv_BcT = np.linalg.solve(R, Bc.transpose(0, 2, 1))
    quad_A = np.einsum("kij,kjl->kil", Bc, Rinv_BcT)
    quad_b = np.einsum("kij,kj->ki", Bc, _controls_on_grid(U0, n))
    A_lambda = np.trapezoid(quad_A, dx=dt, axis=0)
    b_lambda = np.trapezoid(quad_b, dx=dt, axis=0)
    return GmpspAccumulators(A_lambda=A_lambda, b_lambda=b_lambda)


def gmpsp_update(
    acc: GmpspAccumulators,
    dY_tf: np.ndarray,
    field: SensitivityField,
    R: np.ndarray,
) -> np.ndarray:
    """Closed-form continuous control correction sampled on the grid.

    U(t) = -R^-1 Bc(t)^T [A_lambda^-1 (dY(tf) - b_lambda)], where dY(tf)
    is the achieved-minus-desired terminal output.  The returned history
    holds the first N-1 grid samples (zero-order hold).
    """
    try:
        lam = np.linalg.solve(acc.A_lambda, dY_tf - acc.b_lambda)
    except np.linalg.LinAlgError as exc:
        raise GmpspError("accumulated static-program matrix singular") from exc
    rhs = field.B_c.transpose(0, 2, 1) @ lam  # (N, 3)
    U_grid = -np.linalg.solve(R, rhs.T).T
    return U_grid[:-1]


def gmpsp_solve(
    plant: RelativePlant,
    x0: np.ndarray,
    Y_star: np.ndarray,
    guess: np.ndarray,
    dt: float,
    options: GmpspOptions,
    prediction: tuple[np.ndarray, np.ndarray],
) -> tuple[np.ndarray, list[dict], np.ndarray]:
    """Outer prediction/correction loop of the continuous formulation.

    Returns (controls, iteration log, final trajectory) with the same log
    schema as the discrete solver; see
    :func:`formation_guidance.mpsp.predict_correct`, which takes
    ``prediction``.
    """

    def correct(states, nus, dY, U):
        field = integrate_W_backward(plant, states, nus, dt)
        acc = gmpsp_accumulate(field, U, options.R, dt)
        return gmpsp_update(acc, dY, field, options.R)

    return predict_correct(
        guess, Y_star, lambda U: plant.propagate(x0, U, dt), correct,
        options.tol_rho_pct, options.max_iter, prediction,
    )
