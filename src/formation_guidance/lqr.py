"""Infinite-horizon LQR tracking over the linearized relative dynamics.

Also supplies the initial control guess for the predictive methods and
the baseline inside the neural-augmented controller.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import ACCEL_ROWS, hill_linear_matrices
from .numerics import solve_are
from .options import LqrOptions


@dataclass(frozen=True)
class LqrDesign:
    """Immutable LQR design: weights, Riccati solution, and gain."""

    Q: np.ndarray
    R: np.ndarray
    P: np.ndarray
    K: np.ndarray
    A: np.ndarray
    B: np.ndarray


def design_lqr(
    omega: float, Q: np.ndarray | None = None, R: np.ndarray | None = None
) -> LqrDesign:
    """Design the tracking LQR for a circular chief with mean motion ``omega``.

    Q and R default to those of ``LqrOptions``.  The closed loop A - BK
    is guaranteed Hurwitz by the Riccati solver contract.
    """
    defaults = LqrOptions()
    Q = defaults.Q if Q is None else np.asarray(Q, dtype=float)
    R = defaults.R if R is None else np.asarray(R, dtype=float)
    A, B = hill_linear_matrices(omega)
    P = solve_are(A, B, Q, R)
    K = np.linalg.solve(R, B.T @ P)
    return LqrDesign(Q=Q, R=R, P=P, K=K, A=A, B=B)


def lqr_feedforward(A: np.ndarray, Xd: np.ndarray, Xd_dot: np.ndarray) -> np.ndarray:
    """Feedforward acceleration cancelling the desired-trajectory forcing.

    Solves B U_ff = Xd_dot - A Xd in the least-squares sense; because B
    column-selects the acceleration rows this is simply the extraction
    of rows 2, 4, 6 with flipped sign on the forcing term.
    """
    forcing = A @ Xd - Xd_dot
    return -forcing[ACCEL_ROWS]


def lqr_tracking_control(
    design: LqrDesign,
    X: np.ndarray,
    Xd: np.ndarray,
    Xd_dot: np.ndarray,
) -> np.ndarray:
    """Tracking control U = -K (X - Xd) + U_ff.

    The feedforward makes the tracking-error dynamics homogeneous when
    the desired trajectory is consistent with the design's linear model.
    """
    return -design.K @ (X - Xd) + lqr_feedforward(design.A, Xd, Xd_dot)
