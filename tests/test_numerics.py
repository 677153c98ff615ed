import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from formation_guidance.numerics import (
    NumericsError,
    fd_jacobian,
    matrix_exponential,
    rk4_step,
    solve_are,
)


class TestRk4Step:
    def test_zero_derivative_is_identity(self):
        out = rk4_step(lambda t, x: np.zeros_like(x), 0.0, np.array([1.0, 2.0]), 1.0)
        np.testing.assert_array_equal(out, [1.0, 2.0])

    def test_linear_scalar_matches_fourth_order_taylor(self):
        # For xdot = x one step reproduces the Taylor series of e^dt
        # truncated after the dt^4/24 term.
        out = rk4_step(lambda t, x: x, 0.0, np.array([1.0]), 0.1)
        expected = 1 + 0.1 + 0.1**2 / 2 + 0.1**3 / 6 + 0.1**4 / 24
        assert out[0] == pytest.approx(expected, abs=1e-15)

    def test_observed_convergence_order(self):
        def integrate(n):
            x = np.array([1.0])
            dt = 1.0 / n
            for k in range(n):
                x = rk4_step(lambda t, y: y, k * dt, x, dt)
            return abs(x[0] - np.e)

        errors = [integrate(n) for n in (16, 32, 64, 128)]
        orders = [np.log2(a / b) for a, b in zip(errors, errors[1:])]
        assert min(orders) >= 3.9

    def test_nonfinite_result_raises(self):
        with pytest.raises(NumericsError):
            rk4_step(lambda t, x: x * np.inf, 0.0, np.array([1.0]), 1.0)


class TestSolveAre:
    def test_scalar_unit_system(self):
        P = solve_are(np.zeros((1, 1)), np.eye(1), np.eye(1), np.eye(1))
        assert P[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_scalar_unstable_plant_stabilizing_root(self):
        # 2P - P^2 = 0 has roots {0, 2}; only P = 2 closes the loop stably.
        P = solve_are(np.eye(1), np.eye(1), np.zeros((1, 1)), np.eye(1))
        assert P[0, 0] == pytest.approx(2.0, abs=1e-10)

    def test_double_integrator_residual(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        B = np.array([[0.0], [1.0]])
        P = solve_are(A, B, np.eye(2), np.eye(1))
        residual = P @ A + A.T @ P + np.eye(2) - P @ B @ B.T @ P
        assert np.linalg.norm(residual) < 1e-10

    def test_random_stabilizable_systems(self):
        """Residual bound and Hurwitz closed loop on 100 random systems."""
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = rng.integers(2, 6)
            m = rng.integers(1, 3)
            A = rng.normal(size=(n, n))
            B = rng.normal(size=(n, m))
            Q = np.eye(n)
            R = np.eye(m) * 10.0 ** rng.uniform(-2, 2)
            P = solve_are(A, B, Q, R)
            res = P @ A + A.T @ P + Q - P @ B @ np.linalg.solve(R, B.T) @ P
            assert np.linalg.norm(res) <= 1e-8 * (1 + np.linalg.norm(P))
            closed = A - B @ np.linalg.solve(R, B.T @ P)
            assert np.max(np.linalg.eigvals(closed).real) < 0.0

    def test_unstabilizable_pair_rejected(self):
        A = np.eye(2)
        B = np.array([[0.0], [0.0]])
        with pytest.raises(NumericsError):
            solve_are(A, B, np.eye(2), np.eye(1))


def _contract_holds(A, B, Q, R, P):
    res = P @ A + A.T @ P + Q - P @ B @ np.linalg.solve(R, B.T) @ P
    closed = A - B @ np.linalg.solve(R, B.T @ P)
    return (np.linalg.norm(res) <= 1e-8 * (1 + np.linalg.norm(P))
            and np.max(np.linalg.eigvals(closed).real) < 0.0)


class TestSolveAreWarmStart:
    def test_non_stabilizing_guess_falls_back_to_cold(self, care_calls, monkeypatch):
        # A = 1 is open-loop unstable, so P = 0 leaves A - G P unstable
        # and the solve goes straight to the cold path.
        lyapunov_calls = []
        monkeypatch.setattr(
            scipy.linalg, "solve_continuous_lyapunov", lambda a, q: lyapunov_calls.append(1)
        )
        A, B, Q, R = np.eye(1), np.eye(1), np.eye(1), np.eye(1)
        P = solve_are(A, B, Q, R, guess=np.zeros((1, 1)))
        assert (len(care_calls), len(lyapunov_calls)) == (1, 0)
        assert P[0, 0] == pytest.approx(1.0 + np.sqrt(2.0), rel=1e-12)
        assert _contract_holds(A, B, Q, R, P)

    def test_non_stabilizing_newton_result_retried_cold(self, care_calls, monkeypatch):
        # 2P - P^2 = 0 has roots {0, 2}.  A Lyapunov solver that lands on
        # the root 0 gives a zero residual but an unstable closed loop;
        # the solve must retry cold instead of raising.
        monkeypatch.setattr(
            scipy.linalg, "solve_continuous_lyapunov", lambda a, q: np.zeros_like(q)
        )
        P = solve_are(np.eye(1), np.eye(1), np.zeros((1, 1)), np.eye(1), guess=3.0 * np.eye(1))
        assert len(care_calls) == 1
        assert P[0, 0] == pytest.approx(2.0, abs=1e-10)

    def test_slow_newton_falls_back_to_cold(self, care_calls):
        # From P = 1e6 toward P = 1, Newton halves P per step and has not
        # converged when it runs out of steps.
        A, B, Q, R = np.zeros((1, 1)), np.eye(1), np.eye(1), np.eye(1)
        P = solve_are(A, B, Q, R, guess=1e6 * np.eye(1))
        assert len(care_calls) == 1
        assert P[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_random_systems_with_perturbed_guess(self, care_calls):
        """Acceptance criterion 11's 100 random systems, each solved from
        its cold solution perturbed by 1e-6 relative: every result meets
        the residual and Hurwitz contract and matches the cold solve."""
        rng = np.random.default_rng(7)
        noise = np.random.default_rng(11)
        count = fallbacks = 0
        while count < 100:
            n = int(rng.integers(2, 6))
            m = int(rng.integers(1, 3))
            A = rng.normal(size=(n, n))
            B = rng.normal(size=(n, m))
            Q = np.eye(n)
            R = 10.0 ** rng.uniform(-2, 2) * np.eye(m)
            try:
                cold = solve_are(A, B, Q, R)
            except NumericsError:
                continue
            E = noise.normal(size=(n, n))
            before = len(care_calls)
            P = solve_are(A, B, Q, R, guess=cold + 1e-6 * np.linalg.norm(cold) * (E + E.T))
            fallbacks += len(care_calls) - before
            assert _contract_holds(A, B, Q, R, P)
            assert np.linalg.norm(P - cold) <= 1e-10 * np.linalg.norm(cold)
            count += 1
        # Most of them are solved warm; a fallback shows up as a cold call.
        assert fallbacks < 50


class TestMatrixExponential:
    def test_zero_matrix(self):
        np.testing.assert_array_equal(matrix_exponential(np.zeros((3, 3))), np.eye(3))

    def test_diagonal(self):
        out = matrix_exponential(np.diag([1.0, 2.0]))
        np.testing.assert_allclose(out, np.diag([np.e, np.e**2]), rtol=1e-12)

    def test_rotation_generator(self):
        theta = 0.3
        M = np.array([[0.0, 1.0], [-1.0, 0.0]])
        expected = np.array(
            [[np.cos(theta), np.sin(theta)], [-np.sin(theta), np.cos(theta)]]
        )
        np.testing.assert_allclose(matrix_exponential(M, theta), expected, atol=1e-12)

    def test_inverse_identity(self):
        rng = np.random.default_rng(3)
        M = rng.normal(size=(5, 5))
        prod = matrix_exponential(M) @ matrix_exponential(-M)
        np.testing.assert_allclose(prod, np.eye(5), atol=1e-9)


class TestFdJacobian:
    def test_identity_map(self):
        J = fd_jacobian(lambda x: x, np.array([1.0, -2.0, 3.0]))
        np.testing.assert_allclose(J, np.eye(3), atol=1e-9)

    def test_scalar_square(self):
        J = fd_jacobian(lambda x: np.array([x[0] ** 2]), np.array([3.0]))
        assert J[0, 0] == pytest.approx(6.0, abs=1e-6)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3))
    def test_quadratic_form_gradient(self, values):
        x = np.array(values)
        H = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.3], [0.0, 0.3, 4.0]])
        J = fd_jacobian(lambda v: np.array([0.5 * v @ H @ v]), x)
        np.testing.assert_allclose(J[0], H @ x, atol=1e-5)
