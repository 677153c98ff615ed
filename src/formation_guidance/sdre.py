"""State-dependent Riccati equation (SDRE) guidance.

Two state-dependent coefficient (SDC) factorizations of the nonlinear
relative dynamics, pointwise infinite-horizon SDRE control, and a
finite-horizon variant that enforces a hard terminal constraint through
the Hamiltonian state-transition matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import MU_EARTH, B, ChiefKinematics
from .numerics import matrix_exponential, solve_are
from .options import SdreOptions


class SdreError(RuntimeError):
    """Raised when an SDC factorization or gain computation fails."""


@dataclass(frozen=True)
class SdcModel:
    """Choice of SDC factorization.

    variant is "SDC1" (power-series factorization, valid for eccentric
    chiefs) or "SDC2" (sigma-form factorization, exact only for circular
    chiefs); series_order is the number of power-series correction terms
    kept by SDC1.
    """

    variant: str = SdreOptions.variant
    series_order: int = SdreOptions.series_order

    def __post_init__(self) -> None:
        if self.variant not in ("SDC1", "SDC2"):
            raise SdreError(f"unknown SDC variant {self.variant!r}")
        if self.series_order < 1:
            raise SdreError("series_order must be >= 1")


@dataclass(frozen=True)
class FiniteHorizonSpec:
    """Finite-horizon problem data: final time, hard terminal state, weights."""

    tf: float
    Xf: np.ndarray
    Q: np.ndarray
    R: np.ndarray


def _psi_series(xi: float, order: int) -> float:
    """Power-series factor psi = 1 + psi_1 + ... + psi_order.

    Defined by (1 - xi)^(-3/2) = 1 + (3/2) xi psi; the terms follow the
    recursion psi_k = ((2k + 3) / (2 (k + 1))) * psi_{k-1} * xi with
    psi_0 = 1.
    """
    psi = 1.0
    term = 1.0
    for k in range(1, order + 1):
        term *= (2.0 * k + 3.0) / (2.0 * (k + 1.0)) * xi
        psi += term
    return psi


def sdc1_matrix(
    state: np.ndarray,
    kin: ChiefKinematics,
    order: int = SdreOptions.series_order,
    mu: float = MU_EARTH,
) -> np.ndarray:
    """Power-series SDC factorization A(X) of the nonlinear dynamics.

    Exact in the along-track and cross-track rows; the radial row uses
    the series factor psi in xi = -2x/r_c - (x^2+y^2+z^2)/r_c^2, which
    must satisfy |xi| < 1 for convergence.  A(X) X reproduces the
    unforced drift f(X) up to the series truncation.
    """
    x, _, y, _, z, _ = state
    r_c, nd, ndd = kin.r_c, kin.nu_dot, kin.nu_ddot
    xi = -2.0 * x / r_c - (x**2 + y**2 + z**2) / r_c**2
    if abs(xi) >= 1.0:
        rho = float(np.hypot(np.hypot(x, y), z))
        raise SdreError(
            f"series factorization diverges: |xi| = {abs(xi):.3f} >= 1 "
            f"(rho = {rho:.3f} km, r_c = {r_c:.3f} km)"
        )
    psi = _psi_series(xi, order)
    s = (r_c + x) ** 2 + y**2 + z**2
    gamma = s**1.5
    c = 1.5 * mu / r_c**2 * psi
    A = np.zeros((6, 6))
    A[0, 1] = 1.0
    A[2, 3] = 1.0
    A[4, 5] = 1.0
    A[1, 0] = nd**2 - mu / gamma + c * (2.0 / r_c + x / r_c**2)
    A[1, 2] = ndd + c * y / r_c**2
    A[1, 4] = c * z / r_c**2
    A[1, 3] = 2.0 * nd
    A[3, 0] = -ndd
    A[3, 1] = -2.0 * nd
    A[3, 2] = nd**2 - mu / gamma
    A[5, 4] = -mu / gamma
    return A


def sdc2_matrix(state: np.ndarray, omega: float, mu: float = MU_EARTH) -> np.ndarray:
    """Sigma-form SDC factorization, exact for a circular chief.

    The reference radius is tied to ``omega`` by the circular relation
    r_c = (mu / omega^2)^(1/3); applying the form to an eccentric chief
    is therefore an approximation, and its accuracy degrades with
    eccentricity.  Near x = 0 the radial factor sigma_x is evaluated by a
    three-term series limit (sigma_x -> 3 at the origin).
    """
    x, _, y, _, z, _ = state
    r_c = (mu / omega**2) ** (1.0 / 3.0)
    if r_c + x <= 0.0:
        raise SdreError("deputy radially below the geocenter")
    q = y**2 + z**2
    xi = (2.0 * r_c * x + x**2 + q) / r_c**2
    sig_z = float(np.exp(-1.5 * np.log1p(xi)))
    sig_y = float(-np.expm1(-1.5 * np.log1p(xi)))
    tiny = 1e-9 * r_c
    if abs(x) < tiny:
        # sigma_x = (r_c/x + 1) sigma_y is 0/0 at the origin; expand
        # sigma_y = (3/2) xi (1 - (5/4) xi + (35/24) xi^2) and cancel x
        # analytically in the leading factor.
        bracket = 1.0 - 1.25 * xi + (35.0 / 24.0) * xi**2
        lead = (r_c + x) * (2.0 * r_c + x) / r_c**2
        if x != 0.0:
            lead += (r_c + x) * q / (x * r_c**2)
        sig_x = 1.5 * lead * bracket
    else:
        sig_x = (r_c / x + 1.0) * sig_y
    w2 = omega**2
    A = np.zeros((6, 6))
    A[0, 1] = 1.0
    A[2, 3] = 1.0
    A[4, 5] = 1.0
    A[1, 0] = w2 * sig_x
    A[1, 3] = 2.0 * omega
    A[3, 1] = -2.0 * omega
    A[3, 2] = w2 * sig_y
    A[5, 4] = -w2 * sig_z
    return A


def sdc_matrix(
    state: np.ndarray, kin: ChiefKinematics, model: SdcModel, mu: float = MU_EARTH
) -> np.ndarray:
    """Dispatch to the configured SDC factorization."""
    if model.variant == "SDC1":
        return sdc1_matrix(state, kin, model.series_order, mu)
    return sdc2_matrix(state, kin.nu_dot, mu)


def sdre_infinite_control(
    state: np.ndarray,
    Xd: np.ndarray,
    model: SdcModel,
    kin: ChiefKinematics,
    Q: np.ndarray,
    R: np.ndarray,
    mu: float = MU_EARTH,
    guess: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise infinite-horizon SDRE control U = -R^-1 B^T P(X) (X - Xd).

    Returns ``(U, P)``.  ``guess`` is handed to ``solve_are`` as a warm
    start; passing the ``P`` of the previous control step lets the next
    Riccati solve take a Newton step instead of a cold solve.
    """
    A = sdc_matrix(state, kin, model, mu)
    try:
        P = solve_are(A, B, Q, R, guess)
    except Exception as exc:
        raise SdreError(f"pointwise Riccati failed at state {state}: {exc}") from exc
    return -np.linalg.solve(R, B.T @ (P @ (state - Xd))), P


def finite_time_sdre_control(
    state: np.ndarray,
    t: float,
    horizon: FiniteHorizonSpec,
    model: SdcModel,
    kin: ChiefKinematics,
    mu: float = MU_EARTH,
) -> np.ndarray:
    """Finite-horizon SDRE control with hard terminal constraint X(tf) = Xf.

    The Hamiltonian matrix is assembled from the SDC factorization frozen
    at the current state; its matrix exponential over the remaining
    horizon gives the state/costate transition blocks, from which the
    current costate follows from the terminal constraint:

        lambda(t) = phi_12^-1 (Xf - phi_11 X(t)),   U = -R^-1 B^T lambda.
    """
    tau = horizon.tf - t
    if tau <= 0.0:
        raise SdreError("finite-horizon control requested at or past tf")
    A = sdc_matrix(state, kin, model, mu)
    R, Q = horizon.R, horizon.Q
    BRB = B @ np.linalg.solve(R, B.T)
    H = np.zeros((12, 12))
    H[:6, :6] = A
    H[:6, 6:] = -BRB
    H[6:, :6] = -Q
    H[6:, 6:] = -A.T
    phi = matrix_exponential(H, tau)
    phi11 = phi[:6, :6]
    phi12 = phi[:6, 6:]
    if np.linalg.cond(phi12) > 1e12:
        raise SdreError(
            f"terminal-constraint transition block ill-conditioned at t={t}: "
            "horizon too short or too long"
        )
    lam = np.linalg.solve(phi12, horizon.Xf - phi11 @ state)
    return -np.linalg.solve(R, B.T @ lam)
