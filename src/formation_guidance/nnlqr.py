"""Neural-network-augmented LQR for plant uncertainty.

Two single-layer networks augment a baseline LQR designed on the
believed (possibly wrong) chief model: NN1 is a radial-basis-function
network producing an additive costate correction, trained online from a
back-propagated costate target; NN2 identifies the unmodeled dynamics
channel-by-channel through a virtual plant whose tracking error drives a
Lyapunov-based weight update.  One ``NnLqrController``, built from its
options and the believed chief, holds it all; ``nnlqr_control_step`` steps it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import mul

import numpy as np

from .dynamics import ACCEL_ROWS, POSITION_ROWS, B, ChiefOrbit
from .lqr import LqrDesign, design_lqr
from .numerics import NumericsError
from .options import NnlqrOptions


# ---------------------------------------------------------------------------
# NN1: RBF costate network


@dataclass
class RbfNetwork:
    """Gaussian RBF network mapping the state to a costate increment.

    centers: (p, 6) Gaussian centers; width: shared width; vel_scale:
    factor converting velocity deviations to position scale inside the
    Gaussian argument; W_c: (p, 6) output weights.
    """

    centers: np.ndarray
    width: float
    vel_scale: float
    W_c: np.ndarray

    def __post_init__(self) -> None:
        if not self.width > 0.0 or len(self.centers) < 1:
            raise ValueError("RBF network needs at least one basis and width > 0")


def make_rbf_network(basis: str, rho: float, omega: float) -> RbfNetwork:
    """NN1's layout, with zero weights.

    "grid": 27 centres on a 3x3x3 position grid spanning +/- rho in each
    position axis (zero in the velocity axes), x slowest and z fastest;
    the shared width equals the grid spacing rho, and velocity
    deviations are weighted by 1/omega to bring them to position scale.
    "global": one centre at the origin, so wide (1e6) that its feature
    is near 1 wherever the formation flies; rho and omega are not read.
    """
    if basis == "grid":
        pts = (-rho, 0.0, rho)
        centers = np.array([[cx, 0.0, cy, 0.0, cz, 0.0] for cx in pts for cy in pts for cz in pts])
        width, vel_scale = rho, 1.0 / omega
    elif basis == "global":
        centers, width, vel_scale = np.zeros((1, 6)), 1e6, 1.0
    else:
        raise ValueError(f"unknown RBF basis {basis!r}: expected 'grid' or 'global'")
    W_c = np.zeros((len(centers), 6))
    return RbfNetwork(centers=centers, width=width, vel_scale=vel_scale, W_c=W_c)


def rbf_features(net: RbfNetwork, X: np.ndarray) -> np.ndarray:
    """Gaussian basis vector phi_c(X), shape (p,)."""
    diff = X[None, :] - net.centers
    diff[:, 1::2] *= net.vel_scale
    return np.exp(np.einsum("pj,pj->p", diff, diff) / (-2.0 * net.width**2))


# ---------------------------------------------------------------------------
# NN2: disturbance identification network


@dataclass(frozen=True)
class DisturbanceBasis:
    """Basis functions for the unmodeled-dynamics network.

    Power-series products p(psi) * (x, y, z) with
    psi = -2x/r_c - (x^2+y^2+z^2)/r_c^2 and p(s) = s + s^2 + s^3 + s^4,
    plus trigonometric terms in the (believed) argument of latitude for
    the J2-type periodic content.  The basis and its analytic state
    Jacobian are shared across channels.  r_c: believed chief radius [km].
    """

    r_c: float

    def __post_init__(self) -> None:
        if not self.r_c > 0.0:
            raise ValueError("r_c must be positive")

    def power_series(self, x: float, y: float, z: float) -> tuple[float, list[list[float]]]:
        """p(psi) at the position (x, y, z), and d (p x, p y, p z) / d (x, y, z)
        as three rows: the only nonzero block of the basis's state
        Jacobian, since the trigonometric and constant terms depend on
        time only."""
        r = self.r_c
        psi = -2.0 * x / r - (x**2 + y**2 + z**2) / r**2
        p = psi * (1.0 + psi * (1.0 + psi * (1.0 + psi)))
        dp_dpsi = 1.0 + psi * (2.0 + psi * (3.0 + 4.0 * psi))
        dpsi = (-2.0 / r - 2.0 * x / r**2, -2.0 * y / r**2, -2.0 * z / r**2)
        block = [[dp_dpsi * d * c for d in dpsi] for c in (x, y, z)]
        for i in range(3):
            block[i][i] += p
        return p, block


# ---------------------------------------------------------------------------
# Per-step training/control loop


@dataclass
class NnLqrController:
    """The augmented controller: its settings and its trained state.

    Given: options, the ``NnlqrOptions`` the step reads; chief, the
    believed chief orbit; scale, the length [km] of NN1's grid layout;
    X_a, the virtual plant's initial state; and dt.  Built from them, so
    none can disagree with the options: design, the LQR on the chief's
    mean motion and the options' Q and R; rbf, NN1's ``make_rbf_network``
    layout; basis, NN2's, on the chief radius; and NN2's (3, 7) weights
    W_dist (rows follow ACCEL_ROWS), at zero.  Trained at each step:
    rbf.W_c, W_dist, and X_a, which k_tau pulls toward the measurement.

    Construction also derives the invariants each step reads, as floats:
    R^-1 B^T, P, Q, A^T, A's acceleration rows, A + k_tau I, NN2's
    argument of latitude arg_perigee + nu0 at t = 0 and its rate omega,
    and the virtual plant's exact one-step RK4 propagator: with f held
    over a step, RK4 on x_a' = f - k_tau x_a gives x_a+ = phi x_a + psi f,
    one component at a time, where m = dt k_tau,

        phi = 1 - m + m^2/2 - m^3/6 + m^4/24,
        psi = dt (1 - m/2 + m^2/6 - m^3/24).
    """

    options: NnlqrOptions
    chief: ChiefOrbit
    scale: float
    X_a: np.ndarray
    dt: float
    design: LqrDesign = field(init=False)
    rbf: RbfNetwork = field(init=False)
    basis: DisturbanceBasis = field(init=False)
    W_dist: np.ndarray = field(init=False, default_factory=lambda: np.zeros((3, 7)))

    def __post_init__(self) -> None:
        o, chief = self.options, self.chief
        omega = chief.mean_motion()
        self.design = d = design_lqr(omega, o.Q, o.R)
        self.rbf = make_rbf_network(o.basis, self.scale, omega)
        self.basis = DisturbanceBasis(chief.a)
        self._theta0, self._omega = chief.arg_perigee + chief.nu0, float(omega)
        m = self.dt * o.k_tau
        m2 = m * m
        m3 = m2 * m
        m4 = m3 * m
        self._phi = 1.0 - m + m2 / 2.0 - m3 / 6.0 + m4 / 24.0
        self._psi = self.dt * (1.0 - m / 2.0 + m2 / 6.0 - m3 / 24.0)
        self._Rinv_Bt = np.linalg.solve(o.R, B.T).tolist()
        self._P, self._Q, self._At = d.P.tolist(), o.Q.tolist(), d.A.T.tolist()
        self._A_acc, self._A_K = d.A[ACCEL_ROWS].tolist(), (d.A + o.k_tau * np.eye(6)).tolist()


# ACCEL_ROWS and POSITION_ROWS as int tuples, to index float lists.
_ACCEL = tuple(ACCEL_ROWS.tolist())
_POSITION = tuple(POSITION_ROWS.tolist())


def _matvec(rows: list[list[float]], v: list[float]) -> list[float]:
    """rows @ v for a 6-vector v, in floats."""
    v0, v1, v2, v3, v4, v5 = v
    return [
        r0 * v0 + r1 * v1 + r2 * v2 + r3 * v3 + r4 * v4 + r5 * v5
        for r0, r1, r2, r3, r4, r5 in rows
    ]


def _solve3(M: list[list[float]], v: list[float]) -> list[float]:
    """Solve the 3x3 system M x = v by Cramer's rule."""
    (a, b, c), (d, e, f), (g, h, i) = M
    v0, v1, v2 = v
    c0, c1, c2 = e * i - f * h, f * g - d * i, d * h - e * g
    det = a * c0 + b * c1 + c * c2
    return [
        (c0 * v0 + (c * h - b * i) * v1 + (b * f - c * e) * v2) / det,
        (c1 * v0 + (a * i - c * g) * v1 + (c * d - a * f) * v2) / det,
        (c2 * v0 + (b * g - a * h) * v1 + (a * e - b * d) * v2) / det,
    ]


def nnlqr_control_step(
    ctrl: NnLqrController,
    X: np.ndarray,
    Xd: np.ndarray,
    Xd_dot: np.ndarray,
    Xd_next: np.ndarray,
    t: float,
) -> np.ndarray:
    """One control-and-training cycle at time t; returns the applied control.

    Steps: (1) evaluate the LQR costate lambda_1 = P (X - Xd) and the
    network costate lambda_2 at the current state and form the control;
    (2) train NN2 from the virtual-plant channel errors; (3) advance the
    virtual plant under the applied control; (4) re-evaluate both
    costates at the predicted state; (5) back-propagate the combined
    costate one step; (6) train NN1 toward the network share of the
    back-propagated costate, lambda_target - lambda_1(X_a_next).

    Step 6 subtracts the LQR costate evaluated at the predicted state
    (the step-4 value), not at the measured state.  Subtracting the
    measured-state costate couples the network target to the feedback
    loop through a difference term that exactly consumes the Riccati
    identity; on oscillatory plants that coupling has a parasitic
    equilibrium in which the network learns to null the LQR feedback
    and the closed loop goes open.  With the predicted-state costate
    the update integrates the stationarity residual Q (X - Xd) + A^T
    lambda, whose unique fixed point is the disturbance-compensating
    costate.

    Up to round-off this is the composition of ``lqr_feedforward``,
    ``rbf_features`` and the readable reference pieces kept beside its
    oracle test in ``tests/test_nnlqr.py`` (``nn2_update``,
    ``virtual_plant_step``, ``costate_backprop`` and ``nn1_update``).
    The fixed-size algebra runs in floats on the controller's run
    invariants; the RBF layer stays in numpy.  Raises NumericsError for a
    non-finite virtual-plant state, with the start of the message of
    ``numerics.rk4_step``; t enters only NN2's basis, and the harness
    adds the step index and time to the message.
    """
    o, dt, W_c = ctrl.options, ctrl.dt, ctrl.rbf.W_c
    x, xd, xd_dot, xa = X.tolist(), Xd.tolist(), Xd_dot.tolist(), ctrl.X_a.tolist()
    # The RBF features at the measured state, which no weight update
    # below changes.
    phi_c = rbf_features(ctrl.rbf, X)

    # (1) costates at the measured state, then the control.
    lam1 = _matvec(ctrl._P, [a - b for a, b in zip(x, xd)])
    lam2 = (W_c.T @ phi_c).tolist()
    lam = [a + b for a, b in zip(lam1, lam2)]
    forcing = _matvec(ctrl._A_acc, xd)
    U = [
        xd_dot[r] - ff - u
        for r, ff, u in zip(_ACCEL, forcing, _matvec(ctrl._Rinv_Bt, lam))
    ]

    # (2) NN2 training from the virtual-plant error.  The basis Jacobian
    # G is zero outside its position block, so I/gamma + G Theta G^T,
    # Theta = theta_gain I, is block-diagonal: only its 3x3 position
    # block is solved, and the other four entries of the direction are
    # gamma phi.
    p, G = ctrl.basis.power_series(x[0], x[2], x[4])
    theta = ctrl._theta0 + ctrl._omega * t
    sin, cos = math.sin(theta), math.cos(theta)
    phi_d = [p * x[0], p * x[2], p * x[4], sin, cos, sin * cos, 1.0]
    G_Theta = [[g * o.theta_gain for g in row] for row in G]
    M = [[a0 * g0 + a1 * g1 + a2 * g2 for g0, g1, g2 in G] for a0, a1, a2 in G_Theta]
    for i in range(3):
        M[i][i] += 1.0 / o.gamma
    direction = _solve3(M, phi_d[:3]) + [o.gamma * v for v in phi_d[3:]]
    rate = dt * o.beta
    W = [
        [w + rate * (x[r] - xa[r]) * d for w, d in zip(row, direction)]
        for r, row in zip(_ACCEL, ctrl.W_dist.tolist())
    ]
    ctrl.W_dist = np.array(W)

    # (3) virtual-plant propagation under the applied control, with the
    # forcing f = (A + k_tau I) X + B U + d_hat held over the step.
    f = _matvec(ctrl._A_K, x)
    for r, u, row in zip(_ACCEL, U, W):
        f[r] += u + sum(map(mul, row, phi_d))
    xa_next = [ctrl._phi * a + ctrl._psi * b for a, b in zip(xa, f)]
    if not all(map(math.isfinite, xa_next)):
        raise NumericsError("non-finite state after RK4 step of the virtual plant")
    Xa_next = ctrl.X_a = np.array(xa_next)

    # (4) costates at the predicted state.
    dx_next = [a - b for a, b in zip(xa_next, Xd_next.tolist())]
    lam1_next = _matvec(ctrl._P, dx_next)
    lam2_next = (W_c.T @ rbf_features(ctrl.rbf, Xa_next)).tolist()
    lam_next = [a + b for a, b in zip(lam1_next, lam2_next)]

    # (5) costate back-propagation, lambda + dt (Q dX + (A + D)^T lambda),
    # where D = d d_hat / d X is W G in its (acceleration, position) block.
    back = _matvec(ctrl._At, lam_next)
    lam_accel = [lam_next[r] for r in _ACCEL]
    W_lam = [sum(map(mul, column, lam_accel)) for column in zip(*(row[:3] for row in W))]
    for c, column in zip(_POSITION, zip(*G)):
        back[c] += sum(map(mul, W_lam, column))
    lam_target = [
        lam_i + dt * (q + b) for lam_i, q, b in zip(lam_next, _matvec(ctrl._Q, dx_next), back)
    ]

    # (6) NN1 training toward the network share of the target.
    resid = np.array([t - a - b for t, a, b in zip(lam_target, lam1_next, lam2)])
    W_c += phi_c[:, None] * resid / (phi_c @ phi_c + o.r1)
    return np.array(U)
