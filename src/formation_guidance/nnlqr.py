"""Neural-network-augmented LQR for plant uncertainty.

Two single-layer networks augment a baseline LQR designed on the
believed (possibly wrong) chief model: NN1 is a radial-basis-function
network producing an additive costate correction, trained online from a
back-propagated costate target; NN2 identifies the unmodeled dynamics
channel-by-channel through a virtual plant whose tracking error drives a
Lyapunov-based weight update.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import ACCEL_ROWS
from .lqr import LqrDesign, lqr_feedforward
from .numerics import rk4_step


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
        if self.width <= 0.0 or len(self.centers) < 1:
            raise ValueError("RBF network needs at least one basis and width > 0")


def make_rbf_network(rho: float, omega: float) -> RbfNetwork:
    """Default RBF layout: 27 centers on a 3x3x3 position grid.

    The grid spans +/- rho in each position axis (zero in the velocity
    axes), the shared width equals the grid spacing rho, and velocity
    deviations are weighted by 1/omega to bring them to position scale.
    """
    pts = np.array([-rho, 0.0, rho])
    centers = np.zeros((27, 6))
    idx = 0
    for cx in pts:
        for cy in pts:
            for cz in pts:
                centers[idx, 0] = cx
                centers[idx, 2] = cy
                centers[idx, 4] = cz
                idx += 1
    return RbfNetwork(
        centers=centers, width=rho, vel_scale=1.0 / omega, W_c=np.zeros((27, 6))
    )


def rbf_features(net: RbfNetwork, X: np.ndarray) -> np.ndarray:
    """Gaussian basis vector phi_c(X), shape (p,)."""
    diff = X[None, :] - net.centers
    diff = diff.copy()
    diff[:, (1, 3, 5)] *= net.vel_scale
    return np.exp(-np.einsum("pj,pj->p", diff, diff) / (2.0 * net.width**2))


def rbf_eval(net: RbfNetwork, X: np.ndarray) -> np.ndarray:
    """Costate increment lambda_2 = W_c^T phi_c(X)."""
    return net.W_c.T @ rbf_features(net, X)


def nn1_update(net: RbfNetwork, target: np.ndarray, X: np.ndarray, R1: float) -> None:
    """Regularized least-squares weight update toward a costate target.

    Minimizes ||W^T phi - target||^2 + R1 ||W - W_prev||^2, whose exact
    minimizer for a single sample is the rank-one correction

        W = W_prev + phi (target - W_prev^T phi)^T / (phi^T phi + R1).
    """
    if R1 <= 0.0:
        raise ValueError("R1 must be positive")
    phi = rbf_features(net, X)
    resid = target - net.W_c.T @ phi
    net.W_c += np.outer(phi, resid) / (phi @ phi + R1)


# ---------------------------------------------------------------------------
# NN2: disturbance identification network


@dataclass(frozen=True)
class DisturbanceBasis:
    """Basis functions for the unmodeled-dynamics network.

    Power-series products p(psi) * (x, y, z) with
    psi = -2x/r_c - (x^2+y^2+z^2)/r_c^2 and p(s) = s + s^2 + s^3 + s^4,
    plus trigonometric terms in the (believed) argument of latitude for
    the J2-type periodic content.  The basis and its analytic state
    Jacobian are shared across channels.
    """

    r_c: float

    @property
    def size(self) -> int:
        return 7

    def eval(self, X: np.ndarray, theta: float) -> np.ndarray:
        x, _, y, _, z, _ = X
        r = self.r_c
        psi = -2.0 * x / r - (x**2 + y**2 + z**2) / r**2
        p = psi * (1.0 + psi * (1.0 + psi * (1.0 + psi)))
        return np.array(
            [
                p * x,
                p * y,
                p * z,
                np.sin(theta),
                np.cos(theta),
                np.sin(theta) * np.cos(theta),
                1.0,
            ]
        )

    def jacobian(self, X: np.ndarray, theta: float) -> np.ndarray:
        """Analytic d Phi / d X, shape (size, 6)."""
        x, _, y, _, z, _ = X
        r = self.r_c
        psi = -2.0 * x / r - (x**2 + y**2 + z**2) / r**2
        p = psi * (1.0 + psi * (1.0 + psi * (1.0 + psi)))
        dp_dpsi = 1.0 + psi * (2.0 + psi * (3.0 + 4.0 * psi))
        dpsi = np.zeros(6)
        dpsi[0] = -2.0 / r - 2.0 * x / r**2
        dpsi[2] = -2.0 * y / r**2
        dpsi[4] = -2.0 * z / r**2
        J = np.zeros((self.size, 6))
        J[0] = dp_dpsi * dpsi * x
        J[0, 0] += p
        J[1] = dp_dpsi * dpsi * y
        J[1, 2] += p
        J[2] = dp_dpsi * dpsi * z
        J[2, 4] += p
        # Trig terms depend on time only; the constant term is flat.
        return J


def build_disturbance_basis(r_c: float) -> DisturbanceBasis:
    """Basis descriptor for a believed chief radius r_c [km]."""
    if r_c <= 0.0:
        raise ValueError("r_c must be positive")
    return DisturbanceBasis(r_c=r_c)


@dataclass
class DisturbanceNet:
    """Per-channel weights over a shared basis; d_hat_i = W_i^T Phi."""

    basis: DisturbanceBasis
    weights: np.ndarray = field(default=None)  # (3, p), rows follow ACCEL_ROWS

    def __post_init__(self) -> None:
        if self.weights is None:
            self.weights = np.zeros((3, self.basis.size))

    def d_hat(self, X: np.ndarray, theta: float) -> np.ndarray:
        """Estimated unmodeled acceleration as a 6-vector (rows 2, 4, 6)."""
        phi = self.basis.eval(X, theta)
        out = np.zeros(6)
        out[ACCEL_ROWS] = self.weights @ phi
        return out

    def d_hat_jacobian(self, X: np.ndarray, theta: float) -> np.ndarray:
        """d d_hat / d X as a 6x6 matrix."""
        J_phi = self.basis.jacobian(X, theta)
        out = np.zeros((6, 6))
        out[ACCEL_ROWS, :] = self.weights @ J_phi
        return out


@dataclass(frozen=True)
class AdaptationGains:
    """Per-channel learning gains: rates beta, regularizers gamma, and the
    Jacobian-weighting matrices Theta (6x6 PD, shared here)."""

    beta: float
    gamma: float
    Theta: np.ndarray

    def __post_init__(self) -> None:
        if self.beta <= 0.0 or self.gamma <= 0.0:
            raise ValueError("adaptation gains must be positive")


def nn2_update(
    net: DisturbanceNet,
    e: np.ndarray,
    X: np.ndarray,
    theta: float,
    gains: AdaptationGains,
    dt: float,
) -> None:
    """Lyapunov-based weight update, explicit Euler at the control step.

        dW_i/dt = beta_i e_i (I/gamma_i + G Theta G^T)^-1 Phi,

    with G = d Phi / d X; e_i is the virtual-plant error on channel i.
    The identity regularization keeps the solve nonsingular.
    """
    phi = net.basis.eval(X, theta)
    G = net.basis.jacobian(X, theta)
    M = np.eye(net.basis.size) / gains.gamma + G @ gains.Theta @ G.T
    direction = np.linalg.solve(M, phi)
    for row, ch in enumerate(ACCEL_ROWS):
        net.weights[row] += dt * gains.beta * e[ch] * direction


@dataclass
class VirtualPlant:
    """Observer-like auxiliary system tracking the measured state.

    X_a follows the believed linear model plus the identified
    disturbance, pulled toward the measurement by the diagonal Hurwitz
    gain K_tau; the residual E = X - X_a drives NN2 adaptation.
    """

    X_a: np.ndarray
    K_tau: np.ndarray

    def __post_init__(self) -> None:
        if np.any(np.diag(self.K_tau) <= 0.0):
            raise ValueError("K_tau diagonal entries must be positive")


def virtual_plant_step(
    vp: VirtualPlant,
    X: np.ndarray,
    U: np.ndarray,
    d_hat: np.ndarray,
    A: np.ndarray,
    B: np.ndarray,
    dt: float,
) -> np.ndarray:
    """Advance the virtual plant one RK4 step; returns the new X_a.

    The measured state X (and hence d_hat(X)) is held over the step.
    """
    forcing = A @ X + B @ U + d_hat + vp.K_tau @ X

    def deriv(t: float, xa: np.ndarray) -> np.ndarray:
        return forcing - vp.K_tau @ xa

    vp.X_a = rk4_step(deriv, 0.0, vp.X_a, dt)
    return vp.X_a


def costate_backprop(
    Xa_next: np.ndarray,
    Xd_next: np.ndarray,
    lam_next: np.ndarray,
    A: np.ndarray,
    Q: np.ndarray,
    d_jac: np.ndarray,
    dt: float,
) -> np.ndarray:
    """One backward Euler step of the costate equation.

    lambda_dot = -Q (X - X_d) - (A + d d_hat/d X)^T lambda, evaluated at
    the predicted state, stepped from t+dt back to t.
    """
    return lam_next + dt * (Q @ (Xa_next - Xd_next) + (A + d_jac).T @ lam_next)


# ---------------------------------------------------------------------------
# Per-step training/control loop


@dataclass
class NnLqrController:
    """State of the augmented controller across a run."""

    design: LqrDesign
    rbf: RbfNetwork
    dist: DisturbanceNet
    vp: VirtualPlant
    gains: AdaptationGains
    R1: float
    dt: float


def nnlqr_control_step(
    ctrl: NnLqrController,
    X: np.ndarray,
    Xd: np.ndarray,
    Xd_dot: np.ndarray,
    Xd_next: np.ndarray,
    theta: float,
) -> np.ndarray:
    """One control-and-training cycle; returns the applied control.

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
    """
    design, dt = ctrl.design, ctrl.dt
    P, A, B, Q, R = design.P, design.A, design.B, design.Q, design.R

    # (1) costates at the measured state, then the control.
    lam1 = P @ (X - Xd)
    lam2 = rbf_eval(ctrl.rbf, X)
    U = -np.linalg.solve(R, B.T @ (lam1 + lam2)) + lqr_feedforward(A, Xd, Xd_dot)

    # (2) NN2 training from the virtual-plant error.
    e = X - ctrl.vp.X_a
    nn2_update(ctrl.dist, e, X, theta, ctrl.gains, dt)

    # (3) virtual-plant propagation under the applied control.
    d_hat = ctrl.dist.d_hat(X, theta)
    Xa_next = virtual_plant_step(ctrl.vp, X, U, d_hat, A, B, dt)

    # (4) costates at the predicted state.
    lam1_next = P @ (Xa_next - Xd_next)
    lam2_next = rbf_eval(ctrl.rbf, Xa_next)

    # (5) costate back-propagation to the current step.
    d_jac = ctrl.dist.d_hat_jacobian(X, theta)
    lam_target = costate_backprop(
        Xa_next, Xd_next, lam1_next + lam2_next, A, Q, d_jac, dt
    )

    # (6) NN1 training toward the network share of the target.
    nn1_update(ctrl.rbf, lam_target - lam1_next, X, ctrl.R1)
    return U
