"""Shared numerical kernels.

A fixed-step classical RK4 integrator, an algebraic Riccati solver with
residual verification, a matrix exponential, and a central-difference
Jacobian used as an oracle for analytic derivatives.

All operations are pure functions of their inputs and may be called
concurrently.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import scipy.linalg


class NumericsError(RuntimeError):
    """Raised when a numerical kernel fails to meet its contract."""


def rk4_step(
    derivative: Callable[[float, np.ndarray], np.ndarray],
    t: float,
    x: np.ndarray,
    dt: float,
) -> np.ndarray:
    """Advance ``x`` by one classical fourth-order Runge-Kutta step.

    Parameters
    ----------
    derivative : callable
        Right-hand side f(t, x) of the ODE.
    t : float
        Current time [s].
    x : ndarray
        Current state.
    dt : float
        Step size [s], must be positive.

    Returns
    -------
    ndarray
        State at ``t + dt``.
    """
    x = np.asarray(x, dtype=float)
    k1 = np.asarray(derivative(t, x), dtype=float)
    k2 = np.asarray(derivative(t + 0.5 * dt, x + 0.5 * dt * k1), dtype=float)
    k3 = np.asarray(derivative(t + 0.5 * dt, x + 0.5 * dt * k2), dtype=float)
    k4 = np.asarray(derivative(t + dt, x + dt * k3), dtype=float)
    out = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.all(np.isfinite(out)):
        raise NumericsError(f"non-finite state after RK4 step at t={t}")
    return out


def solve_are(
    A: np.ndarray, B: np.ndarray, Q: np.ndarray, R: np.ndarray
) -> np.ndarray:
    """Solve the continuous algebraic Riccati equation.

    Finds the symmetric positive-semidefinite ``P`` satisfying

        P A + Aᵀ P + Q − P B R⁻¹ Bᵀ P = 0

    such that the closed loop ``A − B R⁻¹ Bᵀ P`` is Hurwitz.  The
    solution is obtained from the Hamiltonian invariant-subspace method
    and verified against a residual bound of ``1e-8 * (1 + ||P||)``.

    Raises
    ------
    NumericsError
        If the solver fails or the residual/stability contract is not met.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    Q = np.asarray(Q, dtype=float)
    R = np.asarray(R, dtype=float)
    try:
        # Absorb R into the input map (B L^-T with R = L L^T) so widely
        # scaled control weights keep the Hamiltonian pencil balanced.
        L = np.linalg.cholesky(R)
        B_tilde = scipy.linalg.solve_triangular(L, B.T, lower=True).T
        P = scipy.linalg.solve_continuous_are(A, B_tilde, Q, np.eye(B.shape[1]))
    except Exception as exc:  # scipy raises LinAlgError or ValueError
        raise NumericsError(f"Riccati solve failed: {exc}") from exc
    P = 0.5 * (P + P.T)
    Rinv_BT_P = np.linalg.solve(R, B.T @ P)
    residual = P @ A + A.T @ P + Q - P @ B @ Rinv_BT_P
    res_norm = np.linalg.norm(residual)
    if res_norm > 1e-8 * (1.0 + np.linalg.norm(P)):
        raise NumericsError(
            f"Riccati residual too large: {res_norm:.3e}"
        )
    closed = A - B @ Rinv_BT_P
    if np.max(np.linalg.eigvals(closed).real) >= 0.0:
        raise NumericsError("closed loop not Hurwitz; (A, B) may not be stabilizable")
    return P


def matrix_exponential(M: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """Compute ``exp(M * scale)`` by Pade scaling-and-squaring.

    Accurate to about 1e-10 relative on well-conditioned inputs.
    """
    M = np.asarray(M, dtype=float)
    out = scipy.linalg.expm(M * scale)
    if not np.all(np.isfinite(out)):
        raise NumericsError("overflow in matrix exponential")
    return out


def fd_jacobian(
    f: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    h: float = 1e-6,
) -> np.ndarray:
    """Central-difference Jacobian of ``f`` at ``x``.

    The step for component ``j`` is ``h * max(1, |x_j|)``.
    """
    x = np.asarray(x, dtype=float)
    f0 = np.asarray(f(x), dtype=float)
    n = x.size
    J = np.zeros((f0.size, n))
    for j in range(n):
        step = h * max(1.0, abs(x[j]))
        xp = x.copy()
        xm = x.copy()
        xp[j] += step
        xm[j] -= step
        J[:, j] = (np.asarray(f(xp), dtype=float) - np.asarray(f(xm), dtype=float)) / (
            2.0 * step
        )
    return J
