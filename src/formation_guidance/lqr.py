"""Infinite-horizon LQR tracking over the linearized relative dynamics.

Also supplies the initial control guess for the predictive methods and
the baseline inside the neural-augmented controller.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import ACCEL_ROWS, hill_linear_matrices
from .numerics import solve_are


@dataclass(frozen=True)
class LqrDesign:
    """Immutable LQR design: the Riccati solution P, the gain K and the
    linear model's A it was designed on (B is ``dynamics.B``)."""

    P: np.ndarray
    K: np.ndarray
    A: np.ndarray


def design_lqr(omega: float, Q: np.ndarray, R: np.ndarray) -> LqrDesign:
    """Design the tracking LQR for a circular chief with mean motion ``omega``.

    Q is the 6x6 state weight and R the 3x3 control weight.  The closed
    loop A - BK is guaranteed Hurwitz by the Riccati solver contract.
    """
    A, B = hill_linear_matrices(omega)
    P = solve_are(A, B, Q, R)
    K = np.linalg.solve(R, B.T @ P)
    return LqrDesign(P=P, K=K, A=A)


def lqr_feedforward(A: np.ndarray, Xd: np.ndarray, Xd_dot: np.ndarray) -> np.ndarray:
    """Feedforward acceleration cancelling the desired-trajectory forcing.

    Solves B U_ff = Xd_dot - A Xd in the least-squares sense; because B
    column-selects the acceleration rows this is simply the extraction
    of rows 2, 4, 6 with flipped sign on the forcing term.
    """
    forcing = A.dot(Xd) - Xd_dot
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
    return (-design.K).dot(X - Xd) + lqr_feedforward(design.A, Xd, Xd_dot)
