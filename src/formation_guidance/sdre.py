"""State-dependent Riccati equation (SDRE) guidance.

Two state-dependent coefficient (SDC) factorizations of the nonlinear
relative dynamics, pointwise infinite-horizon SDRE control, and a
finite-horizon variant that enforces a hard terminal constraint through
the Hamiltonian state-transition matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import MU_EARTH, B, ChiefKinematics
from .numerics import (
    RiccatiState,
    RiccatiWeights,
    matrix_exponential,
    solve_are,
)
from .options import FsdreOptions, SdreOptions


class SdreError(RuntimeError):
    """Raised when an SDC factorization or gain computation fails."""


@dataclass(frozen=True)
class FiniteHorizonSpec:
    """Finite-horizon problem data: final time, hard terminal state, and
    the options whose SDC factorization and weights Q and R the law reads.

    What every step shares is built once, here: ``R_inv_BT = R⁻¹ Bᵀ``
    and ``hamiltonian``, the 12 × 12 Hamiltonian ``[[A, −B R⁻¹ Bᵀ], [−Q,
    −Aᵀ]]`` with zeros where each step's ``A`` and ``−Aᵀ`` go.
    """

    tf: float
    Xf: np.ndarray
    options: FsdreOptions
    R_inv_BT: np.ndarray = field(init=False, repr=False, compare=False)
    hamiltonian: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        R_inv_BT = np.linalg.solve(self.options.R, B.T)
        H = np.zeros((12, 12))
        H[:6, 6:] = -(B @ R_inv_BT)
        H[6:, :6] = -self.options.Q
        object.__setattr__(self, "R_inv_BT", R_inv_BT)
        object.__setattr__(self, "hamiltonian", H)


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


def sdc1_matrix(state: np.ndarray, kin: ChiefKinematics, order: int) -> np.ndarray:
    """Power-series SDC factorization A(X) of the nonlinear dynamics.

    Exact in the along-track and cross-track rows; the radial row uses
    the series factor psi, kept to ``order`` correction terms, in xi =
    -2x/r_c - (x^2+y^2+z^2)/r_c^2, which must satisfy |xi| < 1 for
    convergence.  A(X) X reproduces the unforced drift f(X) up to the
    series truncation.
    """
    x, _, y, _, z, _ = state.tolist()
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
    c = 1.5 * MU_EARTH / r_c**2 * psi
    radial = nd**2 - MU_EARTH / gamma
    return np.array([
        0.0, 1.0, 0.0, 0.0, 0.0, 0.0,
        radial + c * (2.0 / r_c + x / r_c**2), 0.0, ndd + c * y / r_c**2, 2.0 * nd,
        c * z / r_c**2, 0.0,
        0.0, 0.0, 0.0, 1.0, 0.0, 0.0,
        -ndd, -2.0 * nd, radial, 0.0, 0.0, 0.0,
        0.0, 0.0, 0.0, 0.0, 0.0, 1.0,
        0.0, 0.0, 0.0, 0.0, -MU_EARTH / gamma, 0.0,
    ]).reshape(6, 6)


def sdc2_matrix(state: np.ndarray, omega: float) -> np.ndarray:
    """Sigma-form SDC factorization, exact for a circular chief.

    The reference radius is tied to ``omega`` by the circular relation
    r_c = (mu / omega^2)^(1/3); applying the form to an eccentric chief
    is therefore an approximation, and its accuracy degrades with
    eccentricity.  Near x = 0 the radial factor sigma_x is evaluated by a
    three-term series limit (sigma_x -> 3 at the origin).
    """
    x, _, y, _, z, _ = state
    r_c = (MU_EARTH / omega**2) ** (1.0 / 3.0)
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


def sdc_matrix(state: np.ndarray, kin: ChiefKinematics, options: SdreOptions) -> np.ndarray:
    """The SDC factorization ``options.variant`` names: SDC1 keeps
    ``options.series_order`` series terms, SDC2 is the sigma form."""
    if options.variant == "SDC1":
        return sdc1_matrix(state, kin, options.series_order)
    return sdc2_matrix(state, kin.nu_dot)


def sdre_infinite_control(
    state: np.ndarray,
    Xd: np.ndarray,
    options: SdreOptions,
    kin: ChiefKinematics,
    guess: RiccatiState,
    weights: RiccatiWeights,
) -> tuple[np.ndarray, RiccatiState]:
    """Pointwise infinite-horizon SDRE control U = -R^-1 B^T P(X) (X - Xd).

    ``options`` gives the SDC factorization and the weights ``Q =
    q_weight I`` and ``R = r_weight I``.  Returns ``(U, riccati)``: ``riccati`` is the
    :class:`~formation_guidance.numerics.RiccatiState` of this step's
    ``solve_are``, its ``P`` and, after a warm solve, a Hurwitz Schur
    form on which chords contract: that of ``P``'s own closed loop, or
    the form handed in with ``guess`` where chords on it reached ``P``
    and Lyapunov's theorem certified ``P``'s closed loop Hurwitz.
    ``guess`` is handed to ``solve_are`` as a warm start; passing the
    previous control step's ``riccati`` lets the next Riccati solve take
    chord corrections on that Schur form instead of a cold solve.
    ``RiccatiState(None)`` starts a chain with a cold solve.  ``weights``
    is ``riccati_weights(B, options.Q, options.R)``, which a run builds
    once and hands to every step; ``R^-1 B^T`` is its ``R_inv_BT``, so
    no step factors ``R``.
    """
    A = sdc_matrix(state, kin, options)
    try:
        riccati = solve_are(A, B, options.Q, options.R, guess, weights=weights)
    except Exception as exc:
        raise SdreError(f"pointwise Riccati failed at state {state}: {exc}") from exc
    return -weights.R_inv_BT.dot(riccati.P.dot(state - Xd)), riccati


def finite_time_sdre_control(
    state: np.ndarray,
    t: float,
    horizon: FiniteHorizonSpec,
    kin: ChiefKinematics,
) -> np.ndarray:
    """Finite-horizon SDRE control with hard terminal constraint X(tf) = Xf.

    The Hamiltonian matrix is assembled from the SDC factorization that
    ``horizon.options`` names, frozen at the current state; its matrix
    exponential over the remaining horizon gives the state/costate
    transition blocks, from which the current costate follows from the
    terminal constraint:

        lambda(t) = phi_12^-1 (Xf - phi_11 X(t)),   U = -R^-1 B^T lambda.

    Only the SDC blocks ``A`` and ``−Aᵀ`` change from step to step: the
    weight blocks and ``R⁻¹ Bᵀ`` come from ``horizon``.  The exponential
    is :func:`~formation_guidance.numerics.matrix_exponential`'s, in
    numpy, so the law never imports ``scipy.linalg``.  A ``phi_12``
    whose 2-norm condition number, the ratio of its extreme singular
    values, exceeds 1e12 is rejected as an ill-posed horizon.
    """
    tau = horizon.tf - t
    if not tau > 0.0:
        raise SdreError(f"finite-horizon control requested at t={t}, not before tf={horizon.tf}")
    A = sdc_matrix(state, kin, horizon.options)
    H = horizon.hamiltonian.copy()
    H[:6, :6] = A
    H[6:, 6:] = -A.T
    phi = matrix_exponential(H, tau)
    phi12 = phi[:6, 6:]
    sv = np.linalg.svd(phi12, compute_uv=False).tolist()
    if sv[-1] == 0.0 or sv[0] / sv[-1] > 1e12:
        raise SdreError(
            f"terminal-constraint transition block ill-conditioned at t={t}: "
            "horizon too short or too long"
        )
    lam = np.linalg.solve(phi12, horizon.Xf - phi[:6, :6].dot(state))
    return -horizon.R_inv_BT.dot(lam)
