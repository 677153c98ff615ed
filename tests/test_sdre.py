import math

import numpy as np
import pytest

from formation_guidance.dynamics import (
    ChiefOrbit,
    FormationParams,
    RelativePlant,
    chief_kinematics,
    cw_nonlinear_deriv,
    formation_to_hill,
    hill_linear_matrices,
    propagate_nu,
)
from formation_guidance.lqr import design_lqr
from formation_guidance.numerics import rk4_step, solve_are
from formation_guidance.sdre import (
    FiniteHorizonSpec,
    SdcModel,
    SdreError,
    finite_time_sdre_control,
    sdc1_matrix,
    sdc2_matrix,
    sdre_infinite_control,
)

CIRC = ChiefOrbit(a=10000.0)
OMEGA = CIRC.mean_motion()
B = np.zeros((6, 3))
B[1, 0] = B[3, 1] = B[5, 2] = 1.0


def _sample_state(rho=25.0):
    return formation_to_hill(
        FormationParams(rho=rho, theta=math.radians(30.0), m_slope=1.0), OMEGA, 0.0
    )


class TestSdc1:
    def test_origin_recovers_linear_model(self):
        kin = chief_kinematics(CIRC, nu=0.0)
        A = sdc1_matrix(np.zeros(6), kin)
        A_hill, _ = hill_linear_matrices(OMEGA)
        np.testing.assert_allclose(A, A_hill, atol=1e-18)

    def test_factorization_identity(self):
        kin = chief_kinematics(CIRC, nu=0.0)
        X = _sample_state(rho=25.0)
        A = sdc1_matrix(X, kin, order=4)
        f = cw_nonlinear_deriv(X, kin)
        assert np.linalg.norm(A @ X - f) / np.linalg.norm(f) < 1e-6

    def test_factorization_identity_eccentric(self):
        orbit = ChiefOrbit(a=10000.0, e=0.15)
        kin = chief_kinematics(orbit, nu=0.7)
        X = _sample_state(rho=25.0)
        A = sdc1_matrix(X, kin, order=4)
        f = cw_nonlinear_deriv(X, kin)
        assert np.linalg.norm(A @ X - f) / np.linalg.norm(f) < 1e-6

    def test_series_divergence_rejected(self):
        kin = chief_kinematics(CIRC, nu=0.0)
        X = np.zeros(6)
        X[0] = 9000.0  # xi close to -2: far outside the convergence disk
        with pytest.raises(SdreError):
            sdc1_matrix(X, kin)


class TestSdc2:
    def test_origin_recovers_linear_model(self):
        A = sdc2_matrix(np.zeros(6), OMEGA)
        A_hill, _ = hill_linear_matrices(OMEGA)
        np.testing.assert_allclose(A, A_hill, rtol=1e-9, atol=1e-18)

    def test_factorization_identity_circular(self):
        """The sigma form is an exact algebraic factorization at e = 0."""
        kin = chief_kinematics(CIRC, nu=0.4)
        X = _sample_state(rho=25.0)
        A = sdc2_matrix(X, kin.nu_dot)
        f = cw_nonlinear_deriv(X, kin)
        assert np.linalg.norm(A @ X - f) / np.linalg.norm(f) < 1e-8

    def test_near_origin_radial_limit(self):
        X = np.zeros(6)
        X[0] = 1e-12
        A = sdc2_matrix(X, OMEGA)
        assert A[1, 0] == pytest.approx(3.0 * OMEGA**2, rel=1e-6)


class TestInfiniteHorizonControl:
    MODEL = SdcModel()
    Q = np.eye(6)
    R = 1e9 * np.eye(3)

    def test_zero_error_zero_control(self):
        kin = chief_kinematics(CIRC, nu=0.0)
        X = _sample_state(rho=5.0)
        u, _ = sdre_infinite_control(X, X, self.MODEL, kin, self.Q, self.R)
        np.testing.assert_allclose(u, np.zeros(3), atol=1e-20)

    def test_origin_matches_lqr_gain(self):
        kin = chief_kinematics(CIRC, nu=0.0)
        design = design_lqr(OMEGA, self.Q, self.R)
        Xd = np.array([0.1, 0.0, -0.2, 0.0, 0.05, 0.0])
        u, _ = sdre_infinite_control(np.zeros(6), Xd, self.MODEL, kin, self.Q, self.R)
        np.testing.assert_allclose(u, -design.K @ (np.zeros(6) - Xd), rtol=1e-6)

    def test_warm_start_matches_cold_along_a_trajectory(self, care_calls):
        """Fly a 300 s reconfiguration on an eccentric chief, each step
        warm-started from the last; every step's P equals a cold solve of
        the same SDC matrix to 1e-10 relative."""
        orbit = ChiefOrbit(a=10000.0, e=0.15)
        omega = orbit.mean_motion()
        plant = RelativePlant(orbit)
        n, dt = 300, 1.0
        nus = propagate_nu(orbit, 0.0, n * dt, dt)
        Xd = formation_to_hill(FormationParams(rho=25.0, theta=0.5, m_slope=1.5), omega, 0.0)
        x0 = formation_to_hill(FormationParams(rho=5.0, theta=0.2, m_slope=1.0), omega, 0.0)
        P = None
        warm = []

        def policy(k, t, X):
            nonlocal P
            kin = chief_kinematics(orbit, nus[k])
            u, P = sdre_infinite_control(X, Xd, self.MODEL, kin, self.Q, self.R, guess=P)
            warm.append((sdc1_matrix(X, kin), P))
            return u

        plant.simulate(x0, n, dt, policy)
        assert len(care_calls) == 1
        for A, P in warm:
            cold = solve_are(A, B, self.Q, self.R)
            assert np.linalg.norm(P - cold) <= 1e-10 * np.linalg.norm(cold)


class TestFiniteTimeControl:
    def test_natural_trajectory_needs_no_control(self):
        """If the free drift already reaches Xf with Q = 0, lambda = 0."""
        kin = chief_kinematics(CIRC, nu=0.0)
        horizon = FiniteHorizonSpec(
            tf=600.0, Xf=np.zeros(6), Q=np.zeros((6, 6)), R=1e9 * np.eye(3)
        )
        u = finite_time_sdre_control(np.zeros(6), 0.0, horizon, SdcModel(), kin)
        np.testing.assert_allclose(u, np.zeros(3), atol=1e-18)

    def test_double_integrator_minimum_energy_law(self):
        """1-D rest-to-rest transfer reproduces the classic minimum-energy
        polynomial: u(t) = (6/tf^2)(1 - 2t/tf) * dx for unit displacement."""
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        Bc = np.array([[0.0], [1.0]])
        tf = 10.0
        Xf = np.array([1.0, 0.0])
        from formation_guidance.numerics import matrix_exponential

        def control(x, t):
            tau = tf - t
            H = np.block([[A, -Bc @ Bc.T], [np.zeros((2, 2)), -A.T]])
            phi = matrix_exponential(H, tau)
            lam = np.linalg.solve(phi[:2, 2:], Xf - phi[:2, :2] @ x)
            return float(-(Bc.T @ lam)[0])

        # Evaluate along the analytic minimum-energy trajectory
        # x(t) = 3s^2 - 2s^3, v(t) = (6/tf) s (1 - s) with s = t/tf.
        for t in np.linspace(0.0, 0.99 * tf, 100):
            s = t / tf
            x = np.array([3.0 * s**2 - 2.0 * s**3, 6.0 / tf * s * (1.0 - s)])
            expected = 6.0 / tf**2 - 12.0 * t / tf**3
            assert control(x, t) == pytest.approx(expected, abs=1e-9)

    def test_hard_constraint_on_frozen_linear_plant(self):
        """Q = 0, gains recomputed every step, plant exactly the frozen
        linear model: terminal miss below 1e-6 km."""
        A_hill, _ = hill_linear_matrices(OMEGA)
        kin = chief_kinematics(CIRC, nu=0.0)
        tf, dt = 2000.0, 1.0
        Xf = formation_to_hill(FormationParams(rho=10.0, theta=0.5, m_slope=1.0), OMEGA, tf)
        horizon = FiniteHorizonSpec(tf=tf, Xf=Xf, Q=np.zeros((6, 6)), R=1e9 * np.eye(3))
        model = SdcModel()
        X = formation_to_hill(FormationParams(rho=1.0, theta=0.1, m_slope=1.0), OMEGA, 0.0)
        n = int(tf / dt)
        for k in range(n):
            t = k * dt
            u = finite_time_sdre_control(X, t, horizon, model, kin)
            X = rk4_step(lambda tt, v: A_hill @ v + B @ u, t, X, dt)
        assert np.linalg.norm(X[[0, 2, 4]] - Xf[[0, 2, 4]]) < 1e-6

    def test_past_horizon_rejected(self):
        kin = chief_kinematics(CIRC, nu=0.0)
        horizon = FiniteHorizonSpec(tf=10.0, Xf=np.zeros(6), Q=np.zeros((6, 6)), R=np.eye(3))
        with pytest.raises(SdreError):
            finite_time_sdre_control(np.zeros(6), 10.0, horizon, SdcModel(), kin)

    @pytest.mark.parametrize("tf", [1e-6, 1e6])
    def test_degenerate_horizon_conditioning_guard(self, tf):
        kin = chief_kinematics(CIRC, nu=0.0)
        horizon = FiniteHorizonSpec(
            tf=tf, Xf=np.zeros(6), Q=np.zeros((6, 6)), R=1e9 * np.eye(3)
        )
        with pytest.raises(SdreError):
            finite_time_sdre_control(np.ones(6) * 1e-3, 0.0, horizon, SdcModel(), kin)


class TestModelValidation:
    def test_unknown_variant_rejected(self):
        with pytest.raises(SdreError):
            SdcModel(variant="SDC3")

    def test_bad_series_order_rejected(self):
        with pytest.raises(SdreError):
            SdcModel(series_order=0)
