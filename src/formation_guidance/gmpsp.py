"""Generalized (continuous-time) model predictive static programming.

Replaces the discrete sensitivity products with a weight matrix W(t)
integrated backward from the final time and accumulates the static
program by trapezoidal quadrature, in MPSP's sign convention.  The
correction, the outer loop and the error are MPSP's
(:mod:`formation_guidance.mpsp`).
"""

from __future__ import annotations

import numpy as np

from .dynamics import B, RelativePlant
from .mpsp import MpspError, SensitivitySet, predict_correct, static_program_correction
from .options import GmpspOptions


def integrate_W_backward(
    plant: RelativePlant, states: np.ndarray, nus: np.ndarray, dt: float
) -> np.ndarray:
    """Integrate dW/dt = -W df/dX backward by RK4 from W(tf) = I.

    The Jacobians come from two batched ``f_jacobian`` calls: one on the
    grid and one on the midpoints of the stored trajectory samples,
    (X_k + X_{k+1}) / 2 at the averaged anomaly (nu_k + nu_{k+1}) / 2.
    RK4 on this linear equation is linear in W, so each backward step
    is W_k = W_{k+1} Phi_k with Phi_k the step's RK4 polynomial in
    J_{k+1}, J_mid and J_k (the RK4 stages started from the identity);
    all Phi_k are formed by batched products and the loop holds one
    6x6 product per step.  Returns the (N, 6, 6) weights, W[-1] = I
    (full-state terminal output).  Raises MpspError at the highest grid
    index whose weight is not finite.
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
        raise MpspError(f"non-finite sensitivity weight at grid index {bad[-1]}")
    return W


def gmpsp_accumulate(
    W: np.ndarray, U0: np.ndarray, R: np.ndarray, dt: float
) -> SensitivitySet:
    """Trapezoidal accumulation of the static program on the grid.

    With Bc = W B, A_lambda = -int Bc R^-1 Bc^T dt and b_lambda =
    int Bc U0 dt, U0 held over the last grid point.  B_k are Bc's first
    N-1 grid points, where the zero-order-hold correction samples
    U(t) = R^-1 Bc(t)^T lambda.
    """
    Bc = W @ B
    U_grid = np.empty((len(Bc), 3))  # C-ordered, as einsum's summation order depends on it
    U_grid[:-1], U_grid[-1] = U0, U0[-1]
    Rinv_BcT = np.linalg.solve(R, Bc.transpose(0, 2, 1))
    quad_A = np.einsum("kij,kjl->kil", Bc, Rinv_BcT)
    quad_b = np.einsum("kij,kj->ki", Bc, U_grid)
    A_lambda = -np.trapezoid(quad_A, dx=dt, axis=0)
    b_lambda = np.trapezoid(quad_b, dx=dt, axis=0)
    return SensitivitySet(B_k=Bc[:-1], A_lambda=A_lambda, b_lambda=b_lambda)


def gmpsp_update(program: SensitivitySet, dY_tf: np.ndarray, R: np.ndarray) -> np.ndarray:
    """G-MPSP's correction: :func:`~formation_guidance.mpsp.static_program_correction`."""
    return static_program_correction(program, dY_tf, R)


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
        W = integrate_W_backward(plant, states, nus, dt)
        return gmpsp_update(gmpsp_accumulate(W, U, options.R, dt), dY, options.R)

    return predict_correct(
        guess, Y_star, lambda U: plant.propagate(x0, U, dt), correct,
        options.tol_pct, options.max_iter, prediction,
    )
