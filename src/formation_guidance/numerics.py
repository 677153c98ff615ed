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


#: Most Newton-Kleinman steps a warm start takes before the cold solve.
NEWTON_MAX_STEPS = 4

#: Relative Riccati residual at which Newton-Kleinman stops, far inside
#: the 1e-8 contract so a warm ``P`` agrees with the cold one.
NEWTON_TOL = 1e-14


def solve_are(
    A: np.ndarray,
    B: np.ndarray,
    Q: np.ndarray,
    R: np.ndarray,
    guess: np.ndarray | None = None,
) -> np.ndarray:
    """Solve the continuous algebraic Riccati equation.

    Finds the symmetric positive-semidefinite ``P`` satisfying

        P A + Aᵀ P + Q − P B R⁻¹ Bᵀ P = 0

    such that the closed loop ``A − B R⁻¹ Bᵀ P`` is Hurwitz.

    Without ``guess`` the solution is obtained from the Hamiltonian
    invariant-subspace method (a cold solve).  With ``guess``, typically
    the solution for a nearby ``A``, Kleinman's Newton iteration (IEEE
    TAC 1968) starts from it instead: each step solves one Lyapunov
    equation for the closed loop of the previous iterate, and a guess
    close to the answer converges in one or two steps.  The warm start
    falls back to the cold solve when the guess does not stabilize the
    closed loop, or when Newton has not reached a relative residual of
    ``NEWTON_TOL`` within ``NEWTON_MAX_STEPS`` steps.

    Either way the returned ``P`` is verified against a residual bound
    of ``1e-8 * (1 + ||P||)`` and a Hurwitz closed loop; a warm result
    that fails either check is discarded for the cold solve, so a guess
    never makes the solve raise where a cold solve succeeds.

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
    except Exception as exc:  # numpy raises LinAlgError, scipy ValueError
        raise NumericsError(f"Riccati solve failed: {exc}") from exc
    if guess is not None:
        P = _newton_kleinman(A, B_tilde @ B_tilde.T, Q, np.asarray(guess, dtype=float))
        if P is not None:
            try:
                return _verified(A, B, Q, R, P)
            except NumericsError:
                pass  # fall through to the cold solve
    try:
        P = scipy.linalg.solve_continuous_are(A, B_tilde, Q, np.eye(B.shape[1]))
    except Exception as exc:  # scipy raises LinAlgError or ValueError
        raise NumericsError(f"Riccati solve failed: {exc}") from exc
    return _verified(A, B, Q, R, P)


def _newton_kleinman(
    A: np.ndarray, G: np.ndarray, Q: np.ndarray, P: np.ndarray
) -> np.ndarray | None:
    """Newton-Kleinman for P A + Aᵀ P + Q − P G P = 0 from ``P``.

    Returns the converged iterate, or None when ``A − G P`` is not
    Hurwitz, an iterate is not finite, or ``NEWTON_MAX_STEPS`` steps do
    not reach the ``NEWTON_TOL`` residual.
    """
    try:
        closed = A - G @ P
        if np.max(np.linalg.eigvals(closed).real) >= 0.0:
            return None
        for _ in range(NEWTON_MAX_STEPS):
            # (A − G P_k)ᵀ P_{k+1} + P_{k+1} (A − G P_k) = −(Q + P_k G P_k)
            P = scipy.linalg.solve_continuous_lyapunov(closed.T, -(Q + P @ G @ P))
            P = 0.5 * (P + P.T)
            closed = A - G @ P
            residual = P @ closed + A.T @ P + Q
            if np.linalg.norm(residual) <= NEWTON_TOL * (1.0 + np.linalg.norm(P)):
                return P
    except (np.linalg.LinAlgError, ValueError):  # non-finite or singular iterate
        pass
    return None


def _verified(
    A: np.ndarray, B: np.ndarray, Q: np.ndarray, R: np.ndarray, P: np.ndarray
) -> np.ndarray:
    """Symmetrize ``P`` and check the residual and Hurwitz contract."""
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
