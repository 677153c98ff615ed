import math

import numpy as np
import pytest

from formation_guidance.dynamics import (
    ACCEL_ROWS,
    POSITION_ROWS,
    ChiefOrbit,
    FormationParams,
    GravityModel,
    chief_kinematics,
    cw_nonlinear_deriv,
    formation_to_hill,
    formation_to_hill_deriv,
    hill_linear_matrices,
    j2_differential_accel,
)
from formation_guidance.lqr import design_lqr, lqr_feedforward, lqr_tracking_control
from formation_guidance.nnlqr import (
    DisturbanceBasis,
    NnLqrController,
    RbfNetwork,
    make_rbf_network,
    nnlqr_control_step,
    rbf_features,
)
from formation_guidance.numerics import NumericsError, fd_jacobian, rk4_step
from formation_guidance.options import NnlqrOptions

ORBIT = ChiefOrbit(a=10000.0)
OMEGA = ORBIT.mean_motion()
B = np.zeros((6, 3))
B[1, 0] = B[3, 1] = B[5, 2] = 1.0


# ---------------------------------------------------------------------------
# The NN-LQR step in readable pieces, one per stage of the paper's loop.
# Composed by ``_reference_step``, they are the oracle of the library's
# single fused step, ``nnlqr_control_step``.


def rbf_eval(net: RbfNetwork, X: np.ndarray) -> np.ndarray:
    """Costate increment lambda_2 = W_c^T phi_c(X)."""
    return net.W_c.T @ rbf_features(net, X)


def nn1_update(net: RbfNetwork, target: np.ndarray, phi: np.ndarray, R1: float) -> None:
    """Regularized least-squares weight update toward a costate target.

    ``phi`` is ``rbf_features(net, X)`` at the training state X.
    Minimizes ||W^T phi - target||^2 + R1 ||W - W_prev||^2, whose exact
    minimizer for a single sample is the rank-one correction

        W = W_prev + phi (target - W_prev^T phi)^T / (phi^T phi + R1).
    """
    if not R1 > 0.0:
        raise ValueError("R1 must be positive")
    resid = target - net.W_c.T @ phi
    net.W_c += np.outer(phi, resid) / (phi @ phi + R1)


def basis_eval(basis: DisturbanceBasis, X: np.ndarray, theta: float) -> np.ndarray:
    """The disturbance basis Phi(X, theta), shape (7,)."""
    x, _, y, _, z, _ = X
    p, _ = basis.power_series(x, y, z)
    return np.array(
        [p * x, p * y, p * z, np.sin(theta), np.cos(theta), np.sin(theta) * np.cos(theta), 1.0]
    )


def basis_jacobian(basis: DisturbanceBasis, X: np.ndarray, theta: float) -> np.ndarray:
    """Analytic d Phi / d X, shape (7, 6)."""
    x, _, y, _, z, _ = X
    J = np.zeros((7, 6))
    # Trig terms depend on time only; the constant term is flat.
    J[:3, POSITION_ROWS] = basis.power_series(x, y, z)[1]
    return J


def d_hat(W: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Estimated unmodeled acceleration as a 6-vector (rows 2, 4, 6),
    from NN2's (3, 7) weights W and the basis
    ``phi = basis_eval(basis, X, theta)``."""
    out = np.zeros(6)
    out[ACCEL_ROWS] = W @ phi
    return out


def d_hat_jacobian(W: np.ndarray, J_phi: np.ndarray) -> np.ndarray:
    """d d_hat / d X as a 6x6 matrix, from NN2's weights W and the basis
    Jacobian ``J_phi = basis_jacobian(basis, X, theta)``."""
    out = np.zeros((6, 6))
    out[ACCEL_ROWS, :] = W @ J_phi
    return out


def nn2_update(
    W: np.ndarray,
    e: np.ndarray,
    phi: np.ndarray,
    G: np.ndarray,
    beta: float,
    gamma: float,
    Theta: np.ndarray,
    dt: float,
) -> None:
    """Lyapunov-based update of NN2's (3, 7) weights W in place,
    explicit Euler at the control step.

        dW_i/dt = beta_i e_i (I/gamma_i + G Theta G^T)^-1 Phi,

    with the basis ``phi = Phi(X, theta)`` and its Jacobian
    ``G = d Phi / d X`` at the measured state; e_i is the virtual-plant
    error on channel i.  The identity regularization keeps the solve
    nonsingular.
    """
    M = np.eye(len(phi)) / gamma + G @ Theta @ G.T
    direction = np.linalg.solve(M, phi)
    for row, ch in enumerate(ACCEL_ROWS):
        W[row] += dt * beta * e[ch] * direction


def virtual_plant_step(
    X_a: np.ndarray,
    K_tau: np.ndarray,
    X: np.ndarray,
    U: np.ndarray,
    d_hat: np.ndarray,
    A: np.ndarray,
    B: np.ndarray,
    dt: float,
) -> np.ndarray:
    """Advance the virtual plant's state X_a one RK4 step under the
    gain K_tau; returns the new X_a.

    The measured state X (and hence d_hat(X)) is held over the step.
    """
    forcing = A @ X + B @ U + d_hat + K_tau @ X

    def deriv(t: float, xa: np.ndarray) -> np.ndarray:
        return forcing - K_tau @ xa

    return rk4_step(deriv, 0.0, X_a, dt)


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


class TestRbfEval:
    def test_zero_weights_zero_costate(self):
        net = make_rbf_network("grid", 5.0, OMEGA)
        np.testing.assert_array_equal(rbf_eval(net, np.ones(6)), np.zeros(6))

    def test_single_center_unit_weight(self):
        # Gaussian equals 1 at its own center, so the output is the
        # weight row itself.
        X = np.array([1.0, 0.1, -2.0, 0.0, 0.5, -0.1])
        W = np.arange(6.0)[None, :]
        net = RbfNetwork(centers=X[None, :], width=3.0, vel_scale=2.0, W_c=W.copy())
        np.testing.assert_allclose(rbf_eval(net, X), W[0], rtol=1e-14)

    def test_two_center_hand_computation(self):
        # Centers at +/- c on the radial axis, probe at the origin:
        # both Gaussians evaluate to exp(-c^2 / (2 w^2)).
        c, w = 2.0, 1.5
        centers = np.zeros((2, 6))
        centers[0, 0], centers[1, 0] = c, -c
        W = np.array([[1.0, 0, 0, 0, 0, 0], [0, 1.0, 0, 0, 0, 0]])
        net = RbfNetwork(centers=centers, width=w, vel_scale=1.0, W_c=W)
        g = math.exp(-(c**2) / (2.0 * w**2))
        expected = np.array([g, g, 0, 0, 0, 0])
        np.testing.assert_allclose(rbf_eval(net, np.zeros(6)), expected, rtol=1e-14)

    def test_invalid_network_rejected(self):
        with pytest.raises(ValueError):
            RbfNetwork(centers=np.zeros((1, 6)), width=0.0, vel_scale=1.0, W_c=np.zeros((1, 6)))


class TestMakeRbfNetwork:
    def test_global_layout_is_one_wide_centre(self):
        net = make_rbf_network("global", 5.0, OMEGA)
        np.testing.assert_array_equal(net.centers, np.zeros((1, 6)))
        assert (net.width, net.vel_scale) == (1e6, 1.0)
        np.testing.assert_array_equal(net.W_c, np.zeros((1, 6)))

    def test_grid_layout_keeps_the_triple_loop_order(self):
        rho = 5.0
        expected = []
        for cx in (-rho, 0.0, rho):
            for cy in (-rho, 0.0, rho):
                for cz in (-rho, 0.0, rho):
                    expected.append([cx, 0.0, cy, 0.0, cz, 0.0])
        net = make_rbf_network("grid", rho, OMEGA)
        np.testing.assert_array_equal(net.centers, expected)
        assert (net.width, net.vel_scale) == (rho, 1.0 / OMEGA)
        np.testing.assert_array_equal(net.W_c, np.zeros((27, 6)))

    @pytest.mark.parametrize("basis", ["grd", "local"])
    def test_unknown_basis_rejected(self, basis):
        with pytest.raises(ValueError, match="'grid' or 'global'"):
            make_rbf_network(basis, 5.0, OMEGA)


class TestNn1Update:
    def test_huge_regularizer_freezes_weights(self):
        X = np.array([1.0, 0.0, -1.0, 0.0, 0.5, 0.0])
        target = np.ones(6)
        drifts = []
        for r1 in (1e12, 1e13):
            net = make_rbf_network("grid", 2.0, OMEGA)
            net.W_c[:] = 0.5
            before = net.W_c.copy()
            nn1_update(net, target, rbf_features(net, X), r1)
            drifts.append(np.linalg.norm(net.W_c - before))
        assert drifts[0] < 1e-6 and drifts[1] < drifts[0]

    def test_representable_target_reproduced(self):
        # Single basis, target generated by a known weight row: the
        # rank-one update recovers it on the sampled direction when the
        # regularizer is negligible.
        X = np.zeros(6)
        w_star = np.array([1.0, -2.0, 0.5, 0.0, 3.0, -1.0])
        net = RbfNetwork(centers=X[None, :], width=1.0, vel_scale=1.0, W_c=np.zeros((1, 6)))
        nn1_update(net, w_star.copy(), rbf_features(net, X), 1e-12)
        np.testing.assert_allclose(rbf_eval(net, X), w_star, rtol=1e-10)

    def test_repeated_updates_converge_geometrically(self):
        # Single basis at the sample, R1 = 1: the residual shrinks by
        # exactly 1/2 per update.
        rng = np.random.default_rng(3)
        X = rng.normal(size=6)
        net = RbfNetwork(centers=X[None, :], width=1.0, vel_scale=1.0, W_c=np.zeros((1, 6)))
        target = rng.normal(size=6)
        steps = []
        for _ in range(12):
            before = net.W_c.copy()
            nn1_update(net, target, rbf_features(net, X), 1.0)
            steps.append(np.linalg.norm(net.W_c - before))
        ratios = [b / a for a, b in zip(steps, steps[1:])]
        np.testing.assert_allclose(ratios, 0.5, rtol=1e-9)
        assert steps[-1] < 1e-3 * steps[0]

    def test_update_minimizes_quadratic_cost(self):
        # The returned weights are the exact minimizer of
        # ||W^T phi - target||^2 + R1 ||W - W_prev||_F^2; random
        # perturbations can only increase the cost.
        rng = np.random.default_rng(11)
        centers = rng.normal(size=(3, 6))
        net = RbfNetwork(centers=centers, width=2.0, vel_scale=1.0, W_c=rng.normal(size=(3, 6)))
        W_prev = net.W_c.copy()
        X = rng.normal(size=6)
        target = rng.normal(size=6)
        R1 = 0.7
        phi = rbf_features(net, X)
        nn1_update(net, target, phi, R1)

        def cost(W):
            return (
                np.sum((W.T @ phi - target) ** 2)
                + R1 * np.sum((W - W_prev) ** 2)
            )

        base = cost(net.W_c)
        for _ in range(50):
            assert cost(net.W_c + 1e-4 * rng.normal(size=(3, 6))) >= base

    def test_nonpositive_regularizer_rejected(self):
        net = make_rbf_network("grid", 1.0, OMEGA)
        for R1 in (0.0, math.nan):
            with pytest.raises(ValueError, match="R1 must be positive"):
                nn1_update(net, np.zeros(6), rbf_features(net, np.zeros(6)), R1)


class TestDisturbanceBasis:
    def test_origin_zeros_power_series(self):
        basis = DisturbanceBasis(10000.0)
        phi = basis_eval(basis, np.zeros(6), 0.3)
        np.testing.assert_array_equal(phi[:3], np.zeros(3))
        # The trig/constant tail is independent of the state.
        np.testing.assert_allclose(
            phi[3:],
            [math.sin(0.3), math.cos(0.3), math.sin(0.3) * math.cos(0.3), 1.0],
            rtol=1e-14,
        )

    def test_jacobian_matches_finite_differences(self):
        basis = DisturbanceBasis(10000.0)
        rng = np.random.default_rng(5)
        for _ in range(20):
            X = rng.uniform(-50.0, 50.0, size=6)
            theta = rng.uniform(0.0, 2.0 * math.pi)
            J = basis_jacobian(basis, X, theta)
            J_fd = fd_jacobian(lambda s: basis_eval(basis, s, theta), X)
            np.testing.assert_allclose(J, J_fd, atol=1e-6)

    def test_offline_least_squares_reconstruction(self):
        """Ideal weights fit offline reconstruct the unmodeled residual
        (nonlinearity plus differential oblateness) to better than 5%
        along a formation trajectory on an equatorial chief."""
        orbit = ChiefOrbit(a=10000.0)
        g = GravityModel(j2_enabled=True)
        A = hill_linear_matrices(OMEGA)[0]
        basis = DisturbanceBasis(orbit.a)
        params = FormationParams(rho=5.0, theta=0.3, m_slope=1.0)
        rows, targets = [], []
        for t in np.linspace(0.0, 6000.0, 240):
            nu_t = orbit.nu0 + OMEGA * t
            kin = chief_kinematics(orbit, nu_t)
            theta = nu_t + orbit.arg_perigee
            X = formation_to_hill(params, OMEGA, t)
            d = (cw_nonlinear_deriv(X, kin) - A @ X)[ACCEL_ROWS]
            d = d + j2_differential_accel(g, orbit, kin, X)
            rows.append(basis_eval(basis, X, theta))
            targets.append(d)
        Phi = np.array(rows)
        D = np.array(targets)
        for i in range(3):
            w, *_ = np.linalg.lstsq(Phi, D[:, i], rcond=None)
            rel = np.linalg.norm(Phi @ w - D[:, i]) / np.linalg.norm(D[:, i])
            assert rel < 0.05

    def test_invalid_radius_rejected(self):
        for r_c in (-1.0, 0.0):
            with pytest.raises(ValueError, match="r_c must be positive"):
                DisturbanceBasis(r_c=r_c)


class TestVirtualPlant:
    def test_matched_dynamics_error_stays_small(self):
        # X_a = X with the exact disturbance: the residual over one step
        # is only the measurement-hold discretization error.
        A = hill_linear_matrices(OMEGA)[0]
        X = formation_to_hill(FormationParams(rho=5.0, theta=0.4, m_slope=1.0), OMEGA, 0.0)
        d = np.zeros(6)
        d[1] = 1e-7
        defects = {}
        for dt in (0.1, 0.05):
            X_next = rk4_step(lambda t, x: A @ x + d, 0.0, X, dt)
            Xa_next = virtual_plant_step(X.copy(), 0.5 * np.eye(6), X, np.zeros(3), d, A, B, dt)
            defects[dt] = np.linalg.norm(X_next - Xa_next)
        assert defects[0.1] < 1e-4
        # Second order in the hold interval.
        assert defects[0.05] < defects[0.1] / 3.0

    def test_constant_disturbance_steady_state_error(self):
        # Constant measured state x* with the implied forcing delta: the
        # first-order lag settles at e = delta / k_tau channel-wise.
        A = hill_linear_matrices(OMEGA)[0]
        x_star = np.array([1.0, 0.0, -2.0, 0.0, 0.5, 0.0])
        for k_tau in (0.5, 1.0):
            X_a = np.zeros(6)
            for _ in range(200):
                X_a = virtual_plant_step(
                    X_a, k_tau * np.eye(6), x_star, np.zeros(3), np.zeros(6), A, B, 0.5
                )
            e = x_star - X_a
            delta = -A @ x_star
            np.testing.assert_allclose(e, delta / k_tau, atol=1e-10)

    def test_doubling_gain_halves_steady_state(self):
        A = hill_linear_matrices(OMEGA)[0]
        x_star = np.array([1.0, 0.0, -2.0, 0.0, 0.5, 0.0])
        errs = {}
        for k_tau in (0.5, 1.0):
            X_a = np.zeros(6)
            for _ in range(200):
                X_a = virtual_plant_step(
                    X_a, k_tau * np.eye(6), x_star, np.zeros(3), np.zeros(6), A, B, 0.5
                )
            errs[k_tau] = np.linalg.norm(x_star - X_a)
        np.testing.assert_allclose(errs[1.0], errs[0.5] / 2.0, rtol=1e-8)

    def test_error_decay_rate_matches_gain(self):
        # With matched forcing, E decays as exp(-k_tau t); the fitted
        # exponent agrees with the gain to better than 10%.
        A = np.zeros((6, 6))
        k_tau = 0.3
        X_a = np.ones(6)
        dt, n = 0.2, 40
        norms = [np.linalg.norm(X_a)]
        for _ in range(n):
            X_a = virtual_plant_step(
                X_a, k_tau * np.eye(6), np.zeros(6), np.zeros(3), np.zeros(6), A, B, dt
            )
            norms.append(np.linalg.norm(X_a))
        fitted = -np.polyfit(dt * np.arange(n + 1), np.log(norms), 1)[0]
        assert abs(fitted - k_tau) < 0.1 * k_tau

    def test_nonpositive_gain_rejected(self):
        with pytest.raises(ValueError, match="K_tau diagonal entries must be positive"):
            _controller(K_tau=np.zeros((6, 6)))


class TestNn2Update:
    def test_zero_error_leaves_weights(self):
        W = np.full((3, 7), 0.25)
        basis = DisturbanceBasis(10000.0)
        X = np.ones(6)
        phi, G = basis_eval(basis, X, 0.3), basis_jacobian(basis, X, 0.3)
        nn2_update(W, np.zeros(6), phi, G, 0.1, 10.0, np.eye(6), 1.0)
        np.testing.assert_array_equal(W, np.full((3, 7), 0.25))

    def test_zero_theta_reduces_to_gradient_rule(self):
        # With Theta = 0 the solve collapses to gamma * phi, i.e. the
        # pure gradient law dW = dt beta gamma e phi.
        basis = DisturbanceBasis(10000.0)
        W = np.zeros((3, 7))
        X = np.array([1.0, 0.0, 0.5, 0.0, -0.3, 0.0])
        e = np.zeros(6)
        e[3] = 2.0
        phi = basis_eval(basis, X, 0.7)
        nn2_update(W, e, phi, basis_jacobian(basis, X, 0.7), 0.2, 5.0, np.zeros((6, 6)), 0.5)
        expected = np.zeros((3, 7))
        expected[1] = 0.5 * 0.2 * 5.0 * 2.0 * phi
        np.testing.assert_allclose(W, expected, rtol=1e-12)

    def test_constant_disturbance_identification(self):
        """Closed identification loop against a constant acceleration:
        the channel error falls into the dead zone and the estimate lands
        near the truth."""
        A = hill_linear_matrices(OMEGA)[0]
        basis = DisturbanceBasis(ORBIT.a)
        W = np.zeros((3, 7))
        K_tau = 0.5 * np.eye(6)
        X_a = np.zeros(6)
        delta = np.zeros(6)
        delta[1] = 1e-6
        X, dt = np.zeros(6), 1.0
        for k in range(6000):
            theta = OMEGA * k * dt
            e = X - X_a
            phi = basis_eval(basis, X, theta)
            nn2_update(W, e, phi, basis_jacobian(basis, X, theta), 0.01, 100.0, np.eye(6), dt)
            estimate = d_hat(W, phi)
            X_a = virtual_plant_step(X_a, K_tau, X, np.zeros(3), estimate, A, B, dt)
            X = rk4_step(lambda t, x: A @ x + delta, 0.0, X, dt)
        assert abs(e[1]) < 1e-8
        assert 0.5 * delta[1] < estimate[1] < 1.5 * delta[1]

    def test_invalid_gains_rejected(self):
        with pytest.raises(ValueError, match="adaptation gains must be positive"):
            _controller(beta=0.0, gamma=1.0)


class TestCostateBackprop:
    def test_zero_costate_zero_weighting(self):
        out = costate_backprop(
            np.ones(6), np.zeros(6), np.zeros(6),
            hill_linear_matrices(OMEGA)[0], np.zeros((6, 6)), np.zeros((6, 6)), 1.0,
        )
        np.testing.assert_array_equal(out, np.zeros(6))

    def test_scalar_hand_case(self):
        a, q, dprime, dt = -0.4, 2.0, 0.1, 0.25
        x, xd, lam = 1.5, 0.5, 0.8
        out = costate_backprop(
            np.array([x]), np.array([xd]), np.array([lam]),
            np.array([[a]]), np.array([[q]]), np.array([[dprime]]), dt,
        )
        expected = lam + dt * (q * (x - xd) + (a + dprime) * lam)
        np.testing.assert_allclose(out, [expected], rtol=1e-14)

    def test_consistent_with_riccati_costate(self):
        # Along the frozen-linear LQR closed loop the costate is P x(t);
        # one backward Euler step from P x(t+dt) recovers P x(t) with an
        # O(dt^2) defect.
        design = design_lqr(OMEGA, Q=np.eye(6), R=1e6 * np.eye(3))
        A_cl = design.A - design.B @ design.K
        x0 = np.array([1.0, 0.0, -0.5, 0.0, 0.2, 0.0])
        scale = np.linalg.norm(design.P @ x0)
        defects = {}
        for dt in (0.5, 0.25):
            x_next = rk4_step(lambda t, x: A_cl @ x, 0.0, x0, dt)
            lam = costate_backprop(
                x_next, np.zeros(6), design.P @ x_next,
                design.A, design.Q, np.zeros((6, 6)), dt,
            )
            defects[dt] = np.linalg.norm(lam - design.P @ x0) / scale
        assert defects[0.5] < 5e-4
        # Halving dt shrinks the defect ~4x (second order).
        assert defects[0.25] < defects[0.5] / 3.0


def _reference_step(ctrl, X, Xd, Xd_dot, Xd_next, theta):
    """The NN-LQR step composed from the reference pieces above: the
    oracle of ``nnlqr_control_step``, which computes the same up to
    round-off."""
    design, dt = ctrl.design, ctrl.dt
    P, A, B, Q, R = design.P, design.A, design.B, design.Q, design.R
    phi_c = rbf_features(ctrl.rbf, X)
    phi_d = basis_eval(ctrl.basis, X, theta)
    J_d = basis_jacobian(ctrl.basis, X, theta)
    # (1) costates at the measured state, then the control.
    lam1 = P @ (X - Xd)
    lam2 = ctrl.rbf.W_c.T @ phi_c
    U = -np.linalg.solve(R, B.T @ (lam1 + lam2)) + lqr_feedforward(A, Xd, Xd_dot)
    # (2) NN2 training from the virtual-plant error.
    nn2_update(ctrl.W_dist, X - ctrl.X_a, phi_d, J_d, ctrl.beta, ctrl.gamma, ctrl.Theta, dt)
    # (3) virtual-plant propagation under the applied control.
    Xa_next = ctrl.X_a = virtual_plant_step(
        ctrl.X_a, ctrl.K_tau, X, U, d_hat(ctrl.W_dist, phi_d), A, B, dt
    )
    # (4) costates at the predicted state.
    lam1_next = P @ (Xa_next - Xd_next)
    lam2_next = rbf_eval(ctrl.rbf, Xa_next)
    # (5) costate back-propagation to the current step.
    lam_target = costate_backprop(
        Xa_next, Xd_next, lam1_next + lam2_next, A, Q,
        d_hat_jacobian(ctrl.W_dist, J_d), dt,
    )
    # (6) NN1 training toward the network share of the target.
    nn1_update(ctrl.rbf, lam_target - lam1_next, phi_c, ctrl.R1)
    return U


def _controller(layout="grid", **fields):
    """An NN-LQR controller on ORBIT with the ``layout`` costate network;
    ``fields`` override its other settings."""
    settings = dict(
        design=design_lqr(OMEGA, Q=200.0 * np.eye(6), R=NnlqrOptions().R),
        rbf=make_rbf_network(layout, 5.0, OMEGA),
        basis=DisturbanceBasis(ORBIT.a),
        X_a=np.zeros(6),
        K_tau=0.1 * np.eye(6),
        beta=0.01,
        gamma=100.0,
        Theta=np.eye(6),
        R1=0.09,
        dt=1.0,
    )
    return NnLqrController(**{**settings, **fields})


class TestControlStep:
    @pytest.mark.parametrize("basis", ["global", "grid"])
    def test_matches_reference_composition(self, basis):
        """50 seeded steps, each from a random state, weights, virtual
        plant, K_tau and SPD Theta: the lean step agrees with the
        composition of the reference pieces within 1e-13 of each quantity's
        largest magnitude."""
        rng = np.random.default_rng(23)
        scale = np.array([5.0, 5e-3, 5.0, 5e-3, 5.0, 5e-3])
        form = FormationParams(rho=5.0, theta=0.2, m_slope=1.0)
        for _ in range(50):
            L = rng.normal(size=(6, 6))
            settings = dict(
                layout=basis,
                K_tau=np.diag(rng.uniform(0.05, 0.5, 6)),
                Theta=np.eye(6) + 0.1 * L @ L.T,
            )
            lean, ref = _controller(**settings), _controller(**settings)
            W_c = 1e3 * rng.normal(size=lean.rbf.W_c.shape)
            weights = 1e-6 * rng.normal(size=(3, 7))
            X_a = scale * rng.normal(size=6)
            for ctrl in (lean, ref):
                ctrl.rbf.W_c[:] = W_c
                ctrl.W_dist[:] = weights
                ctrl.X_a = X_a.copy()
            t = float(rng.integers(0, 10000))
            args = (
                scale * rng.normal(size=6),
                formation_to_hill(form, OMEGA, t),
                formation_to_hill_deriv(form, OMEGA, t),
                formation_to_hill(form, OMEGA, t + 1.0),
                rng.uniform(0.0, 2.0 * math.pi),
            )
            pairs = {
                "U": (nnlqr_control_step(lean, *args), _reference_step(ref, *args)),
                "W_c": (lean.rbf.W_c, ref.rbf.W_c),
                "weights": (lean.W_dist, ref.W_dist),
                "X_a": (lean.X_a, ref.X_a),
            }
            for name, (got, want) in pairs.items():
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), name

    def test_basis_jacobian_zero_outside_position_block(self):
        # The lean step solves only the 3x3 position block of NN2's
        # matrix, which relies on these zeros.
        basis = DisturbanceBasis(ORBIT.a)
        rng = np.random.default_rng(4)
        for _ in range(20):
            X = rng.uniform(-50.0, 50.0, size=6)
            J = basis_jacobian(basis, X, rng.uniform(0.0, 2.0 * math.pi))
            np.testing.assert_array_equal(J[3:], 0.0)
            np.testing.assert_array_equal(J[:, 1::2], 0.0)

    def test_non_finite_virtual_plant_raises(self):
        ctrl = _controller()
        ctrl.X_a = np.full(6, np.nan)
        Xd = formation_to_hill(FormationParams(rho=5.0, theta=0.2, m_slope=1.0), OMEGA, 0.0)
        with pytest.raises(NumericsError, match="non-finite state after RK4 step") as exc:
            nnlqr_control_step(ctrl, np.ones(6), Xd, np.zeros(6), Xd, 0.0)
        assert "t=" not in str(exc.value)

    def test_nonpositive_regularizer_rejected_at_construction(self):
        with pytest.raises(ValueError, match="R1 must be positive"):
            _controller(R1=0.0)

    def test_zero_nets_match_plain_tracking_control(self):
        design = design_lqr(OMEGA, NnlqrOptions().Q, NnlqrOptions().R)
        ctrl = _controller(design=design, R1=1.0)
        rng = np.random.default_rng(9)
        X = rng.normal(size=6)
        Xd = formation_to_hill(FormationParams(rho=5.0, theta=0.2, m_slope=1.0), OMEGA, 0.0)
        Xd_dot = np.zeros(6)
        U = nnlqr_control_step(ctrl, X, Xd, Xd_dot, Xd, 0.0)
        expected = lqr_tracking_control(design, X, Xd, Xd_dot)
        np.testing.assert_allclose(U, expected, rtol=1e-12)

    def test_features_evaluated_once_per_state(self, monkeypatch):
        """One step evaluates the RBF features at the measured and the
        predicted state only, and the disturbance basis's power series
        once, at the measured state: no weight update changes them."""
        from formation_guidance import nnlqr

        counts = {"rbf_features": 0, "power_series": 0}

        def counted(name, fn):
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(nnlqr, "rbf_features", counted("rbf_features", rbf_features))
        monkeypatch.setattr(
            DisturbanceBasis, "power_series",
            counted("power_series", DisturbanceBasis.power_series),
        )
        X = np.random.default_rng(9).normal(size=6)
        Xd = formation_to_hill(FormationParams(rho=5.0, theta=0.2, m_slope=1.0), OMEGA, 0.0)
        nnlqr_control_step(_controller(), X, Xd, np.zeros(6), Xd, 0.0)
        assert counts == {"rbf_features": 2, "power_series": 1}
