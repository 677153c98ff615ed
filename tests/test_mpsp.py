import math

import numpy as np
import pytest

from formation_guidance.dynamics import (
    ChiefOrbit,
    FormationParams,
    RelativePlant,
    formation_to_hill,
    hill_linear_matrices,
)
from formation_guidance.mpsp import (
    RENDEZVOUS_LENGTH_KM,
    MpspError,
    SensitivitySet,
    analytic_state_jacobians,
    compute_sensitivities,
    mpsp_solve,
    mpsp_update,
    predict_trajectory,
    rho_error_pct,
)
from formation_guidance.numerics import fd_jacobian, rk4_step
from formation_guidance.options import MpspOptions

CIRC = ChiefOrbit(a=10000.0)
OMEGA = CIRC.mean_motion()
B = np.zeros((6, 3))
B[1, 0] = B[3, 1] = B[5, 2] = 1.0


def _eccentric_plant():
    return RelativePlant(ChiefOrbit(a=10000.0, e=0.15, nu0=math.radians(10.0)))


class TestPredictTrajectory:
    def test_single_step_matches_rk4(self):
        plant = RelativePlant(CIRC)
        x0 = formation_to_hill(FormationParams(rho=0.5, theta=0.3, m_slope=1.0), OMEGA, 0.0)
        u = np.array([[1e-6, 2e-6, -1e-6], [0.0, 0.0, 0.0]])
        states, _, Y_N = predict_trajectory(plant, x0, u, 1.0)
        aug = np.append(x0, CIRC.nu0)
        step1 = rk4_step(lambda t, a: plant.deriv(t, a, u[0]), 0.0, aug, 1.0)
        np.testing.assert_allclose(states[1], step1[:6], atol=1e-15)
        np.testing.assert_array_equal(Y_N, states[-1])

    def test_zero_control_periodicity(self):
        plant = RelativePlant(CIRC)
        x0 = formation_to_hill(FormationParams(rho=0.1, theta=0.2, m_slope=1.0), OMEGA, 0.0)
        T = CIRC.period()
        n = 5000
        _, _, Y_N = predict_trajectory(plant, x0, np.zeros((n, 3)), T / n)
        assert np.linalg.norm(Y_N - x0) < 5e-4 * np.linalg.norm(x0)


class TestStateJacobians:
    def test_origin_matches_linear_model(self):
        plant = RelativePlant(CIRC)
        states = np.zeros((2, 6))
        nus = np.zeros(2)
        dF_dX, dF_dU = analytic_state_jacobians(plant, states, nus, dt=1.0)
        A_hill, _ = hill_linear_matrices(OMEGA)
        np.testing.assert_allclose(dF_dX[0], np.eye(6) + A_hill, atol=1e-18)

    def test_control_jacobian_constant(self):
        plant = RelativePlant(CIRC)
        states = np.random.default_rng(0).normal(size=(4, 6))
        nus = np.linspace(0.0, 0.01, 4)
        dt = 2.0
        _, dF_dU = analytic_state_jacobians(plant, states, nus, dt)
        np.testing.assert_array_equal(dF_dU, dt * B)

    def test_analytic_jacobian_against_finite_differences(self):
        plant = _eccentric_plant()
        rng = np.random.default_rng(5)
        for _ in range(20):
            X = rng.normal(scale=10.0, size=6)
            nu = rng.uniform(0.0, 2.0 * math.pi)
            J = plant.f_jacobian(X, nu)
            J_fd = fd_jacobian(lambda v: plant.deriv(0.0, np.append(v, nu))[:6], X)
            assert np.linalg.norm(J - J_fd) / np.linalg.norm(J_fd) < 1e-5


class TestSensitivities:
    def test_two_step_chain(self):
        # With N = 2 the last-step sensitivity is exactly dt * B.
        dt = 1.5
        dF_dX = np.array([np.eye(6) * 0.9, np.eye(6) * 1.1])
        sens = compute_sensitivities(dF_dX, dt * B, np.eye(3), np.zeros((2, 3)))
        np.testing.assert_allclose(sens.B_k[1], dt * B, atol=1e-15)
        np.testing.assert_allclose(sens.B_k[0], 1.1 * dt * B, atol=1e-15)

    def test_identity_dynamics_gives_equal_blocks(self):
        dF_dX = np.repeat(np.eye(6)[None], 5, axis=0)
        sens = compute_sensitivities(dF_dX, B, np.eye(3), np.zeros((5, 3)))
        for k in range(5):
            np.testing.assert_array_equal(sens.B_k[k], B)

    def test_first_order_prediction_fidelity(self):
        """Sum_k B_k dU_k predicts the terminal perturbation to <= 2%."""
        plant = _eccentric_plant()
        x0 = formation_to_hill(
            FormationParams(rho=0.5, theta=math.radians(45.0), m_slope=1.0), OMEGA, 0.0
        )
        n, dt = 200, 1.0
        rng = np.random.default_rng(9)
        U0 = rng.normal(scale=1e-6, size=(n, 3))
        states, nus, Y0 = predict_trajectory(plant, x0, U0, dt)
        dF_dX, dF_dU = analytic_state_jacobians(plant, states, nus, dt)
        sens = compute_sensitivities(dF_dX, dF_dU, dt * 1e9 * np.eye(3), U0)
        for _ in range(5):
            dU = rng.normal(scale=1e-6, size=(n, 3))
            _, _, Y1 = predict_trajectory(plant, x0, U0 + dU, dt)
            predicted = np.einsum("kij,kj->i", sens.B_k, dU)
            actual = Y1 - Y0
            assert np.linalg.norm(predicted - actual) / np.linalg.norm(actual) < 0.02


class TestMpspUpdate:
    def test_zero_error_zero_guess_fixed_point(self):
        sens = SensitivitySet(
            B_k=np.repeat(B[None], 3, axis=0),
            A_lambda=-3.0 * B @ B.T - 1e-9 * np.eye(6),
            b_lambda=np.zeros(6),
        )
        U = mpsp_update(sens, np.zeros(6), np.eye(3))
        np.testing.assert_allclose(U, np.zeros((3, 3)), atol=1e-18)

    def test_scalar_one_step_hand_solution(self):
        b, r, u0, dY = 2.0, 3.0, 0.7, 0.4
        B_k = np.zeros((1, 6, 3))
        B_k[0, 0, 0] = b
        A_lam = np.zeros((6, 6))
        A_lam[0, 0] = -(b**2) / r
        # Pad the remaining diagonal so the 6x6 solve is well posed; the
        # off-channel components stay zero throughout.
        for j in range(1, 6):
            A_lam[j, j] = -1.0
        U0 = np.zeros((1, 3))
        U0[0, 0] = u0
        b_lam = np.einsum("kij,kj->i", B_k, U0)
        sens = SensitivitySet(B_k=B_k, A_lambda=A_lam, b_lambda=b_lam)
        dY_N = np.zeros(6)
        dY_N[0] = dY
        U = mpsp_update(sens, dY_N, r * np.eye(3))
        expected = (b / r) * (-r / b**2) * (dY - b * u0)
        assert U[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_singular_program_raises(self):
        sens = SensitivitySet(
            B_k=np.zeros((2, 6, 3)), A_lambda=np.zeros((6, 6)), b_lambda=np.zeros(6)
        )
        with pytest.raises(MpspError):
            mpsp_update(sens, np.ones(6), np.eye(3))


class TestRhoErrorPct:
    def test_exact_match_is_zero(self):
        Y = np.array([3.0, 0.0, 4.0, 0.0, 0.0, 0.0])
        assert rho_error_pct(Y, Y) == 0.0

    def test_percent_definition(self):
        Y_star = np.array([3.0, 0.0, 4.0, 0.0, 0.0, 0.0])  # rho_d = 5
        Y = np.array([3.0, 0.0, 4.0, 0.0, 0.3, 0.0])
        expected = abs(math.sqrt(9 + 16 + 0.09) - 5.0) / 5.0 * 100.0
        assert rho_error_pct(Y, Y_star) == pytest.approx(expected, rel=1e-12)

    def test_rendezvous_target_measured_against_reference_length(self):
        # A commanded rho of 0 is measured against 1 km: 0.01 km off is 1 %.
        Y = np.array([0.006, 0.0, 0.008, 0.0, 0.0, 0.0])
        assert RENDEZVOUS_LENGTH_KM == 1.0
        assert rho_error_pct(Y, np.zeros(6)) == pytest.approx(1.0, rel=1e-12)
        assert rho_error_pct(np.zeros(6), np.zeros(6)) == 0.0


class TestMpspSolve:
    def test_already_converged_does_zero_iterations(self):
        plant = RelativePlant(CIRC)
        params = FormationParams(rho=5.0, theta=0.3, m_slope=1.0)
        x0 = formation_to_hill(params, OMEGA, 0.0)
        n, dt = 100, 1.0
        Y_star = formation_to_hill(params, OMEGA, n * dt)
        guess = np.zeros((n, 3))
        U, log, _ = mpsp_solve(plant, x0, Y_star, guess, dt, MpspOptions(),
                               plant.propagate(x0, guess, dt))
        assert len(log) == 1
        assert log[0]["iteration"] == 0
        assert log[0]["converged"]
        np.testing.assert_array_equal(U, np.zeros((n, 3)))

    def test_eccentric_reconfiguration_converges(self):
        """0.5 km -> 5 km reshaping on an eccentric chief reaches the
        sub-half-percent band within ten iterations and drives terminal
        position errors far below the baseline scale."""
        from formation_guidance.harness import Scenario, run_scenario
        from formation_guidance.dynamics import GravityModel

        scn = Scenario(
            chief=ChiefOrbit(a=10000.0, e=0.15, nu0=math.radians(10.0)),
            gravity=GravityModel(),
            initial=FormationParams(rho=0.5, theta=math.radians(45.0), m_slope=1.0),
            desired=FormationParams(rho=5.0, theta=math.radians(60.0), m_slope=1.5),
            tf=2000.0,
            dt=1.0,
            # The stock 0.5% stopping rule halts with ~0.03 km of terminal
            # error; iterate to the numerical floor instead.
            controller=MpspOptions(tol_rho_pct=1e-9),
        )
        result = run_scenario(scn)
        assert result.log[-1]["converged"]
        assert len(result.log) - 1 <= 10
        assert np.all(np.abs(result.terminal_errors[[0, 2, 4]]) <= 1e-2)
