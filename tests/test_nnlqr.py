import math

import numpy as np
import pytest

from formation_guidance.dynamics import (
    ACCEL_ROWS,
    ChiefOrbit,
    FormationParams,
    GravityModel,
    chief_kinematics,
    cw_nonlinear_deriv,
    formation_to_hill,
    hill_linear_matrices,
    j2_differential_accel,
)
from formation_guidance.lqr import design_lqr, lqr_tracking_control
from formation_guidance.nnlqr import (
    AdaptationGains,
    DisturbanceNet,
    NnLqrController,
    RbfNetwork,
    VirtualPlant,
    build_disturbance_basis,
    costate_backprop,
    make_rbf_network,
    nn1_update,
    nn2_update,
    nnlqr_control_step,
    rbf_eval,
    rbf_features,
    virtual_plant_step,
)
from formation_guidance.numerics import fd_jacobian, rk4_step

ORBIT = ChiefOrbit(a=10000.0)
OMEGA = ORBIT.mean_motion()
B = np.zeros((6, 3))
B[1, 0] = B[3, 1] = B[5, 2] = 1.0


class TestRbfEval:
    def test_zero_weights_zero_costate(self):
        net = make_rbf_network(5.0, OMEGA)
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


class TestNn1Update:
    def test_huge_regularizer_freezes_weights(self):
        X = np.array([1.0, 0.0, -1.0, 0.0, 0.5, 0.0])
        target = np.ones(6)
        drifts = []
        for r1 in (1e12, 1e13):
            net = make_rbf_network(2.0, OMEGA)
            net.W_c[:] = 0.5
            before = net.W_c.copy()
            nn1_update(net, target, X, r1)
            drifts.append(np.linalg.norm(net.W_c - before))
        assert drifts[0] < 1e-6 and drifts[1] < drifts[0]

    def test_representable_target_reproduced(self):
        # Single basis, target generated by a known weight row: the
        # rank-one update recovers it on the sampled direction when the
        # regularizer is negligible.
        X = np.zeros(6)
        w_star = np.array([1.0, -2.0, 0.5, 0.0, 3.0, -1.0])
        net = RbfNetwork(centers=X[None, :], width=1.0, vel_scale=1.0, W_c=np.zeros((1, 6)))
        nn1_update(net, w_star.copy(), X, 1e-12)
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
            nn1_update(net, target, X, 1.0)
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
        nn1_update(net, target, X, R1)
        phi = rbf_features(net, X)

        def cost(W):
            return (
                np.sum((W.T @ phi - target) ** 2)
                + R1 * np.sum((W - W_prev) ** 2)
            )

        base = cost(net.W_c)
        for _ in range(50):
            assert cost(net.W_c + 1e-4 * rng.normal(size=(3, 6))) >= base

    def test_nonpositive_regularizer_rejected(self):
        net = make_rbf_network(1.0, OMEGA)
        with pytest.raises(ValueError):
            nn1_update(net, np.zeros(6), np.zeros(6), 0.0)


class TestDisturbanceBasis:
    def test_origin_zeros_power_series(self):
        basis = build_disturbance_basis(10000.0)
        phi = basis.eval(np.zeros(6), 0.3)
        np.testing.assert_array_equal(phi[:3], np.zeros(3))
        # The trig/constant tail is independent of the state.
        np.testing.assert_allclose(
            phi[3:],
            [math.sin(0.3), math.cos(0.3), math.sin(0.3) * math.cos(0.3), 1.0],
            rtol=1e-14,
        )

    def test_jacobian_matches_finite_differences(self):
        basis = build_disturbance_basis(10000.0)
        rng = np.random.default_rng(5)
        for _ in range(20):
            X = rng.uniform(-50.0, 50.0, size=6)
            theta = rng.uniform(0.0, 2.0 * math.pi)
            J = basis.jacobian(X, theta)
            J_fd = fd_jacobian(lambda s: basis.eval(s, theta), X)
            np.testing.assert_allclose(J, J_fd, atol=1e-6)

    def test_offline_least_squares_reconstruction(self):
        """Ideal weights fit offline reconstruct the unmodeled residual
        (nonlinearity plus differential oblateness) to better than 5%
        along a formation trajectory on an equatorial chief."""
        orbit = ChiefOrbit(a=10000.0)
        g = GravityModel(j2_enabled=True)
        A = hill_linear_matrices(OMEGA)[0]
        basis = build_disturbance_basis(orbit.a)
        params = FormationParams(rho=5.0, theta=0.3, m_slope=1.0)
        rows, targets = [], []
        for t in np.linspace(0.0, 6000.0, 240):
            nu_t = orbit.nu0 + OMEGA * t
            kin = chief_kinematics(orbit, nu_t)
            theta = nu_t + orbit.arg_perigee
            X = formation_to_hill(params, OMEGA, t)
            d = (cw_nonlinear_deriv(X, kin) - A @ X)[ACCEL_ROWS]
            d = d + j2_differential_accel(g, orbit, kin, X)
            rows.append(basis.eval(X, theta))
            targets.append(d)
        Phi = np.array(rows)
        D = np.array(targets)
        for i in range(3):
            w, *_ = np.linalg.lstsq(Phi, D[:, i], rcond=None)
            rel = np.linalg.norm(Phi @ w - D[:, i]) / np.linalg.norm(D[:, i])
            assert rel < 0.05

    def test_invalid_radius_rejected(self):
        with pytest.raises(ValueError):
            build_disturbance_basis(-1.0)


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
            vp = VirtualPlant(X_a=X.copy(), K_tau=0.5 * np.eye(6))
            X_next = rk4_step(lambda t, x: A @ x + d, 0.0, X, dt)
            Xa_next = virtual_plant_step(vp, X, np.zeros(3), d, A, B, dt)
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
            vp = VirtualPlant(X_a=np.zeros(6), K_tau=k_tau * np.eye(6))
            for _ in range(200):
                virtual_plant_step(vp, x_star, np.zeros(3), np.zeros(6), A, B, 0.5)
            e = x_star - vp.X_a
            delta = -A @ x_star
            np.testing.assert_allclose(e, delta / k_tau, atol=1e-10)

    def test_doubling_gain_halves_steady_state(self):
        A = hill_linear_matrices(OMEGA)[0]
        x_star = np.array([1.0, 0.0, -2.0, 0.0, 0.5, 0.0])
        errs = {}
        for k_tau in (0.5, 1.0):
            vp = VirtualPlant(X_a=np.zeros(6), K_tau=k_tau * np.eye(6))
            for _ in range(200):
                virtual_plant_step(vp, x_star, np.zeros(3), np.zeros(6), A, B, 0.5)
            errs[k_tau] = np.linalg.norm(x_star - vp.X_a)
        np.testing.assert_allclose(errs[1.0], errs[0.5] / 2.0, rtol=1e-8)

    def test_error_decay_rate_matches_gain(self):
        # With matched forcing, E decays as exp(-k_tau t); the fitted
        # exponent agrees with the gain to better than 10%.
        A = np.zeros((6, 6))
        k_tau = 0.3
        vp = VirtualPlant(X_a=np.ones(6), K_tau=k_tau * np.eye(6))
        dt, n = 0.2, 40
        norms = [np.linalg.norm(vp.X_a)]
        for _ in range(n):
            virtual_plant_step(vp, np.zeros(6), np.zeros(3), np.zeros(6), A, B, dt)
            norms.append(np.linalg.norm(vp.X_a))
        fitted = -np.polyfit(dt * np.arange(n + 1), np.log(norms), 1)[0]
        assert abs(fitted - k_tau) < 0.1 * k_tau

    def test_nonpositive_gain_rejected(self):
        with pytest.raises(ValueError):
            VirtualPlant(X_a=np.zeros(6), K_tau=np.zeros((6, 6)))


class TestNn2Update:
    def test_zero_error_leaves_weights(self):
        net = DisturbanceNet(build_disturbance_basis(10000.0))
        net.weights[:] = 0.25
        before = net.weights.copy()
        gains = AdaptationGains(beta=0.1, gamma=10.0, Theta=np.eye(6))
        nn2_update(net, np.zeros(6), np.ones(6), 0.3, gains, 1.0)
        np.testing.assert_array_equal(net.weights, before)

    def test_zero_theta_reduces_to_gradient_rule(self):
        # With Theta = 0 the solve collapses to gamma * phi, i.e. the
        # pure gradient law dW = dt beta gamma e phi.
        basis = build_disturbance_basis(10000.0)
        net = DisturbanceNet(basis)
        gains = AdaptationGains(beta=0.2, gamma=5.0, Theta=np.zeros((6, 6)))
        X = np.array([1.0, 0.0, 0.5, 0.0, -0.3, 0.0])
        e = np.zeros(6)
        e[3] = 2.0
        nn2_update(net, e, X, 0.7, gains, 0.5)
        phi = basis.eval(X, 0.7)
        expected = np.zeros((3, basis.size))
        expected[1] = 0.5 * 0.2 * 5.0 * 2.0 * phi
        np.testing.assert_allclose(net.weights, expected, rtol=1e-12)

    def test_constant_disturbance_identification(self):
        """Closed identification loop against a constant acceleration:
        the channel error falls into the dead zone and the estimate lands
        near the truth."""
        A = hill_linear_matrices(OMEGA)[0]
        net = DisturbanceNet(build_disturbance_basis(ORBIT.a))
        k_tau = 0.5
        vp = VirtualPlant(X_a=np.zeros(6), K_tau=k_tau * np.eye(6))
        gains = AdaptationGains(beta=0.01, gamma=100.0, Theta=np.eye(6))
        delta = np.zeros(6)
        delta[1] = 1e-6
        X, dt = np.zeros(6), 1.0
        for k in range(6000):
            theta = OMEGA * k * dt
            e = X - vp.X_a
            nn2_update(net, e, X, theta, gains, dt)
            d_hat = net.d_hat(X, theta)
            virtual_plant_step(vp, X, np.zeros(3), d_hat, A, B, dt)
            X = rk4_step(lambda t, x: A @ x + delta, 0.0, X, dt)
        assert abs(e[1]) < 1e-8
        assert 0.5 * delta[1] < d_hat[1] < 1.5 * delta[1]

    def test_invalid_gains_rejected(self):
        with pytest.raises(ValueError):
            AdaptationGains(beta=0.0, gamma=1.0, Theta=np.eye(6))


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


class TestControlStep:
    def test_zero_nets_match_plain_tracking_control(self):
        design = design_lqr(OMEGA)
        rbf = make_rbf_network(5.0, OMEGA)
        dist = DisturbanceNet(build_disturbance_basis(ORBIT.a))
        vp = VirtualPlant(X_a=np.zeros(6), K_tau=0.1 * np.eye(6))
        gains = AdaptationGains(beta=0.01, gamma=100.0, Theta=np.eye(6))
        ctrl = NnLqrController(
            design=design, rbf=rbf, dist=dist, vp=vp, gains=gains, R1=1.0, dt=1.0
        )
        rng = np.random.default_rng(9)
        X = rng.normal(size=6)
        Xd = formation_to_hill(FormationParams(rho=5.0, theta=0.2, m_slope=1.0), OMEGA, 0.0)
        Xd_dot = np.zeros(6)
        U = nnlqr_control_step(ctrl, X, Xd, Xd_dot, Xd, 0.0)
        expected = lqr_tracking_control(design, X, Xd, Xd_dot)
        np.testing.assert_allclose(U, expected, rtol=1e-12)
