import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from formation_guidance import numerics
from formation_guidance.dynamics import B as B_HILL
from formation_guidance.dynamics import (
    ChiefOrbit,
    FormationParams,
    GravityModel,
    chief_kinematics,
    formation_to_hill,
    hill_linear_matrices,
)
from formation_guidance.numerics import (
    NumericsError,
    RiccatiState,
    fd_jacobian,
    matrix_exponential,
    riccati_weights,
    rk4_step,
    solve_are,
)
from formation_guidance.options import SdreOptions
from formation_guidance.sdre import FiniteHorizonSpec, sdc1_matrix, sdc_matrix


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
        """Residual bound and Hurwitz closed loop on 100 random systems:
        the first 100 draws of acceptance criterion 11's seed-7 loop.
        The criterion skips a system whose solve raises, so a change to
        the contract could swap other systems in unseen; here each of
        those draws must solve."""
        for A, B, Q, R in _criterion_11_draws():
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


class TestSolveAreWarmStart:
    def test_non_stabilizing_guess_falls_back_to_cold(
        self, care_calls, lyapunov_calls, contract_holds
    ):
        # A = 1 is open-loop unstable, so P = 0 leaves A - G P unstable
        # and the solve goes straight to the cold path.
        A, B, Q, R = np.eye(1), np.eye(1), np.eye(1), np.eye(1)
        P = solve_are(A, B, Q, R, RiccatiState(np.zeros((1, 1)))).P
        assert (len(care_calls), len(lyapunov_calls)) == (1, 0)
        assert P[0, 0] == pytest.approx(1.0 + np.sqrt(2.0), rel=1e-12)
        assert contract_holds(A, B, Q, R, P)

    def test_non_stabilizing_newton_result_retried_cold(self, care_calls, monkeypatch):
        # 2P - P^2 = 0 has roots {0, 2}.  A Lyapunov solver whose
        # correction takes the guess 3 to the root 0 gives a zero
        # residual but an unstable closed loop; the solve must retry cold
        # instead of raising.
        monkeypatch.setattr(numerics, "_lyapunov", lambda closed, C: np.full_like(C, 3.0))
        P = solve_are(np.eye(1), np.eye(1), np.zeros((1, 1)), np.eye(1),
                      RiccatiState(3.0 * np.eye(1))).P
        assert len(care_calls) == 1
        assert P[0, 0] == pytest.approx(2.0, abs=1e-10)

    def test_newton_stop_short_of_the_contract_retried_cold(self, care_calls, monkeypatch):
        # P^2 = Q with Q = 1e14: the Newton stop scales with ||Q|| = 1e14,
        # the contract with 1 + ||P|| = 1e7.  A step landing 5e-8 off the
        # root leaves a residual of about 1: inside the stop (2) but not
        # the contract (0.1), so the solve must retry cold.  The solver's
        # correction takes the guess 2e7 there, exactly.
        A, B, Q, R = np.zeros((1, 1)), np.eye(1), 1e14 * np.eye(1), np.eye(1)
        monkeypatch.setattr(numerics, "_lyapunov",
                            lambda closed, C: np.array([[2e7 - (1e7 + 5e-8)]]))
        P = solve_are(A, B, Q, R, RiccatiState(2e7 * np.eye(1))).P
        assert len(care_calls) == 1
        assert P[0, 0] == pytest.approx(1e7, rel=1e-12)

    def test_slow_newton_falls_back_to_cold(self, care_calls):
        # From P = 1e6 toward P = 1, Newton halves P per step and has not
        # converged when it runs out of steps.
        A, B, Q, R = np.zeros((1, 1)), np.eye(1), np.eye(1), np.eye(1)
        P = solve_are(A, B, Q, R, RiccatiState(1e6 * np.eye(1))).P
        assert len(care_calls) == 1
        assert P[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_random_systems_with_perturbed_guess(
        self, care_calls, lyapunov_calls, contract_holds
    ):
        """Acceptance criterion 11's 100 random systems, each solved from
        its cold solution perturbed by 1e-6 relative: every result meets
        the residual and Hurwitz contract and matches the cold solve, and
        Newton stops at the round-off floor of the residual's terms: no
        system takes more than three Lyapunov solves or falls back."""
        rng = np.random.default_rng(7)
        noise = np.random.default_rng(11)
        count = fallbacks = 0
        steps = []
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
            before, solves_before = len(care_calls), len(lyapunov_calls)
            P = solve_are(A, B, Q, R,
                          RiccatiState(cold + 1e-6 * np.linalg.norm(cold) * (E + E.T))).P
            fallbacks += len(care_calls) - before
            steps.append(len(lyapunov_calls) - solves_before)
            assert contract_holds(A, B, Q, R, P)
            assert np.linalg.norm(P - cold) <= 1e-10 * np.linalg.norm(cold)
            count += 1
        # A fallback shows up as a cold call.
        assert fallbacks == 0
        assert max(steps) <= 3

    def test_undamped_closed_loop_falls_back_to_cold(self, care_calls):
        """A guess whose closed loop keeps an undamped pair +-i w: the
        Lyapunov operator is singular there (lambda_i + lambda_j = 0), so
        the warm step gives up and the cold solve answers."""
        w = 2.0
        A = np.array([[0.0, 1.0], [-(w**2), 0.0]])
        B = np.array([[0.0], [1.0]])
        Q, R = np.eye(2), np.eye(1)
        # G P = [[0, 0], [0, 0]] for P = 0: the closed loop is A itself.
        P = solve_are(A, B, Q, R, RiccatiState(np.zeros((2, 2)))).P
        assert len(care_calls) == 1
        assert np.linalg.norm(P - solve_are(A, B, Q, R)) == 0.0


@pytest.fixture
def scipy_care_calls(monkeypatch):
    """List that grows by one at each call of scipy's Riccati solver, the
    cold solve's fallback."""
    calls = []
    solve = scipy.linalg.solve_continuous_are

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "solve_continuous_are", counted)
    return calls


def _scipy_path(A, B, Q, R):
    """The cold solve's scipy fallback alone: its contract-checked ``P``,
    or None where it raises."""
    weights = riccati_weights(B, Q, R)
    try:
        P = scipy.linalg.solve_continuous_are(A, weights.B_tilde, Q, np.eye(B.shape[1]))
    except (np.linalg.LinAlgError, ValueError):
        return None
    P = 0.5 * (P + P.T)
    failure = numerics._contract_failure(A, Q, weights.G, P)
    return P if failure is None else None


class TestColdSolve:
    """The sign-function cold solve and its scipy fallback."""

    def test_sign_and_scipy_fail_on_the_same_draws(self, scipy_care_calls):
        """The first 200 draws of acceptance criterion 11's seed-7 loop,
        those it would skip included: the sign function answers exactly
        where the scipy solve answers, without calling it, and agrees
        with it.  So the criterion checks the same systems whichever path
        solves them."""
        sign_failed, scipy_failed = [], []
        for k, (A, B, Q, R) in enumerate(_criterion_11_draws(200)):
            P = numerics._sign_solve(A, Q, riccati_weights(B, Q, R))
            expected = _scipy_path(A, B, Q, R)
            if P is None:
                sign_failed.append(k)
            if expected is None:
                scipy_failed.append(k)
            if P is not None and expected is not None:
                assert np.linalg.norm(P - expected) <= 1e-9 * np.linalg.norm(expected)
        assert sign_failed == scipy_failed
        scipy_care_calls.clear()
        for A, B, Q, R in _criterion_11_draws(100):
            solve_are(A, B, Q, R)
        assert scipy_care_calls == []

    @pytest.mark.parametrize("Q_weight, R_weight", [
        (1.0, 1e2), (1.0, 1e8), (1.0, 1e11), (200.0, 1e2), (200.0, 1e8), (200.0, 1e11),
        (200.0, 0.09),
    ])
    def test_hill_pair_matches_scipy(self, Q_weight, R_weight, scipy_care_calls):
        """The LQR design pairs of the presets: the sign function's ``P``
        agrees with scipy's to 1e-12 relative."""
        A, B = hill_linear_matrices(0.0006313)
        Q, R = Q_weight * np.eye(6), R_weight * np.eye(3)
        P = solve_are(A, B, Q, R)
        assert scipy_care_calls == []
        expected = _scipy_path(A, B, Q, R)
        assert np.linalg.norm(P - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_zero_state_weight_goes_to_scipy(self, scipy_care_calls, contract_holds):
        """With Q = 0 the Hamiltonian may have eigenvalues on the
        imaginary axis, where the sign iteration cannot converge: the
        gate sends the solve to scipy at once, which finds the
        stabilizing root of 2P − P² = 0."""
        A, B, Q, R = np.eye(1), np.eye(1), np.zeros((1, 1)), np.eye(1)
        P = solve_are(A, B, Q, R)
        assert len(scipy_care_calls) == 1
        assert P[0, 0] == pytest.approx(2.0, abs=1e-10)
        assert contract_holds(A, B, Q, R, P)

    def test_asymmetric_state_weight_goes_to_scipy(self, scipy_care_calls):
        """scipy rejects a Q that is not symmetric to round-off; the sign
        function, which would answer a nearby problem, leaves it to scipy."""
        A, B = np.eye(2), np.eye(2)
        Q = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(NumericsError, match="symmetric"):
            solve_are(A, B, Q, np.eye(2))
        assert len(scipy_care_calls) == 1

    def test_step_cap_falls_back_to_scipy(self, scipy_care_calls, monkeypatch):
        """A sign iteration that runs out of steps hands the solve to
        scipy, whose answer is returned with its bits."""
        monkeypatch.setattr(numerics, "SIGN_MAX_STEPS", 1)
        for A, B, Q, R in _criterion_11_draws(10):
            P = solve_are(A, B, Q, R)
            assert P.tobytes() == _scipy_path(A, B, Q, R).tobytes()
        assert len(scipy_care_calls) == 2 * 10

    def test_contract_failure_falls_back_to_scipy(
        self, scipy_care_calls, monkeypatch, contract_holds
    ):
        """With ``-sign(H)`` the subspace formula gives the anti-stabilizing
        solution of the same equation: its residual is small but its
        closed loop unstable, so the contract rejects it and scipy
        answers."""
        matrix_sign = numerics._matrix_sign
        monkeypatch.setattr(numerics, "_matrix_sign", lambda Z: -matrix_sign(Z))
        for A, B, Q, R in _criterion_11_draws(10):
            weights = riccati_weights(B, Q, R)
            H = np.block([[A, -weights.G], [-Q, -A.T]])
            W = -matrix_sign(H)
            n = A.shape[0]
            anti = np.linalg.lstsq(np.vstack([W[:n, n:], W[n:, n:] + np.eye(n)]),
                                   -np.vstack([W[:n, :n] + np.eye(n), W[n:, :n]]),
                                   rcond=None)[0]
            anti = 0.5 * (anti + anti.T)
            closed, _, res_norm, norm_P = numerics._riccati_terms(A, Q, weights.G, anti)
            assert res_norm <= 1e-8 * (1.0 + norm_P)
            assert np.max(np.linalg.eigvals(closed).real) > 0.0
            P = solve_are(A, B, Q, R)
            assert contract_holds(A, B, Q, R, P)
            assert P.tobytes() == _scipy_path(A, B, Q, R).tobytes()
        assert len(scipy_care_calls) == 2 * 10

    @pytest.mark.parametrize("A", [np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]])])
    def test_unstabilizable_pair_raises_after_scipy(self, A, scipy_care_calls):
        """An uncontrolled unstable or undamped pair: the sign function's
        answer is not stabilizing (or does not converge), and the solve
        raises only after the scipy fallback has failed too."""
        with pytest.raises(NumericsError):
            solve_are(A, np.zeros((2, 1)), np.eye(2), np.eye(1))
        assert len(scipy_care_calls) == 1


def _criterion_11_draws(count=100):
    """The first ``count`` systems (A, B, Q, R) that acceptance criterion
    11's seed-7 loop draws, drawn as it draws them."""
    rng = np.random.default_rng(7)
    for _ in range(count):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, 3))
        A = rng.normal(size=(n, n))
        B = rng.normal(size=(n, m))
        Q = np.eye(n)
        R = 10.0 ** rng.uniform(-2, 2) * np.eye(m)
        yield A, B, Q, R


def _criterion_11_systems():
    """Acceptance criterion 11's random stabilizable systems with their
    cold Riccati solutions: (A, B, Q, R, P).  Every one of its first 100
    draws solves (``TestSolveAre.test_random_stabilizable_systems``), so
    these are exactly the systems the criterion checks."""
    return [(A, B, Q, R, solve_are(A, B, Q, R)) for A, B, Q, R in _criterion_11_draws()]


class TestWarmHurwitzDecision:
    """A warm ``P``'s Hurwitz test is read off a ``dgees`` Schur form of
    its closed loop, the test every Newton iterate passes too, and never
    runs ``eigvals``."""

    @staticmethod
    def _run(q_weight):
        from formation_guidance.harness import Scenario, run_scenario

        orbit = ChiefOrbit(a=10000.0, nu0=0.17)
        spec = SdreOptions(Q=q_weight * np.eye(6), R=1e8 * np.eye(3))
        return run_scenario(Scenario(
            chief=orbit, gravity=GravityModel(), tf=300.0, dt=1.0, controller=spec,
            initial=FormationParams(rho=5.0, theta=0.8, m_slope=1.0),
            desired=FormationParams(rho=25.0, theta=1.0, m_slope=1.5),
        ))

    @pytest.mark.parametrize("q_weight, warm, cold", [
        # Q = 0: dtrsyl reports the near-zero eigenvalue sums of the
        # lightly controlled modes, so every step is cold.
        (0.0, 0, 300),
        # Q + P G P is definite by less than its rounding: the Schur
        # form still shows the closed loop Hurwitz.
        (1e-10, 299, 1),
        (1.0, 299, 1),
    ])
    def test_warm_solves_decided_by_the_schur_form(
        self, q_weight, warm, cold, care_calls, monkeypatch
    ):
        """Over a 300-step pointwise SDRE run, the first step is cold and
        every later one warm unless Newton gives up; ``eigvals`` runs only
        inside cold solves, once per solve."""
        in_cold = [False]
        eigvals_calls = {False: 0, True: 0}
        results = []
        eigvals, newton, cold_solve = (np.linalg.eigvals, numerics._newton_kleinman,
                                       numerics._cold_solve)

        def counted(a):
            eigvals_calls[in_cold[0]] += 1
            return eigvals(a)

        def newton_spied(*args):
            results.append(newton(*args))
            return results[-1]

        def cold_spied(*args):
            in_cold[0] = True
            try:
                return cold_solve(*args)
            finally:
                in_cold[0] = False

        monkeypatch.setattr(np.linalg, "eigvals", counted)
        monkeypatch.setattr(numerics, "_newton_kleinman", newton_spied)
        monkeypatch.setattr(numerics, "_cold_solve", cold_spied)
        self._run(q_weight)
        assert len(results) == 299
        assert (sum(P is not None for P in results), len(care_calls)) == (warm, cold)
        assert eigvals_calls == {False: 0, True: cold}

    def test_random_guesses_return_only_contract_solutions(
        self, care_calls, contract_holds
    ):
        """Criterion 11's systems with stabilizing guesses (the cold P
        perturbed by 1e-3 relative) and with random symmetric ones: every
        returned P meets the contract, and the seeds give both a warm
        answer and a fall back to the cold solve."""
        noise = np.random.default_rng(11)
        outcomes = set()
        for A, B, Q, R, P in _criterion_11_systems():
            for scale, center in ((1e-3, P), (1.0, 0.0 * P)):
                E = noise.normal(size=P.shape)
                before = len(care_calls)
                guess = RiccatiState(center + scale * np.linalg.norm(P) * (E + E.T))
                warm = solve_are(A, B, Q, R, guess).P
                assert contract_holds(A, B, Q, R, warm)
                outcomes.add("cold" if len(care_calls) > before else "warm")
        assert outcomes == {"warm", "cold"}

    def test_stale_and_unstable_forms_return_only_contract_solutions(
        self, care_calls, monkeypatch, contract_holds
    ):
        """Criterion 11's systems with guesses near the cold P (1e-3 and
        1e-6 relative) handed in with a Schur form that is stale (of the
        closed loop of a system with A changed by 1e-4 or 1e-1 relative)
        or not Hurwitz (of the open loop shifted right), and with a guess
        that overflows: every result is a RiccatiState whose P meets the
        contract and whose form is the Hurwitz Schur form of P's closed
        loop.  The seeds reach all three ends: chords that converge,
        chords that hand over to Newton-Kleinman, and the cold solve."""
        newton = []
        lyapunov = numerics._lyapunov

        def newton_counted(closed, C):
            newton.append(1)
            return lyapunov(closed, C)

        monkeypatch.setattr(numerics, "_lyapunov", newton_counted)
        noise = np.random.default_rng(13)
        outcomes = set()
        for A, B, Q, R, P in _criterion_11_systems():
            weights = riccati_weights(B, Q, R)
            n = A.shape[0]
            forms = []
            for change in (1e-4, 1e-1):
                A_near = A + change * np.linalg.norm(A) * noise.normal(size=A.shape) / n
                try:
                    closed_near = A_near - weights.G @ solve_are(A_near, B, Q, R)
                except NumericsError:
                    continue
                forms.append(numerics._hurwitz_schur(closed_near))
            shifted = A + (1.0 + np.max(np.linalg.eigvals(A).real.clip(0.0))) * np.eye(n)
            T, _, _, _, Z, _, _ = scipy.linalg.lapack.dgees(numerics._no_sort, shifted.T)
            forms.append((T, Z))
            for (T, Z), scale in zip(forms, (1e-6, 1e-3, 1e-3)):
                E = noise.normal(size=P.shape)
                guess = numerics.RiccatiState(P + scale * np.linalg.norm(P) * (E + E.T), T, Z)
                cold, steps = len(care_calls), len(newton)
                state = solve_are(A, B, Q, R, guess, weights=weights)
                self._assert_contract_state(A, B, Q, R, state, weights, contract_holds)
                if len(care_calls) > cold:
                    outcomes.add("cold")
                else:
                    outcomes.add("newton" if len(newton) > steps else "chord")
            huge = numerics.RiccatiState(1e150 * np.eye(n), *forms[-1])
            cold = len(care_calls)
            state = solve_are(A, B, Q, R, huge, weights=weights)
            assert len(care_calls) == cold + 1
            self._assert_contract_state(A, B, Q, R, state, weights, contract_holds)
        assert outcomes == {"chord", "newton", "cold"}

    @staticmethod
    def _assert_contract_state(A, B, Q, R, state, weights, contract_holds):
        assert isinstance(state, numerics.RiccatiState)
        assert contract_holds(A, B, Q, R, state.P)
        if state.T is not None:
            closed = A - weights.G @ state.P
            assert np.linalg.norm(state.Z @ state.T @ state.Z.T - closed.T) <= (
                1e-12 * np.linalg.norm(closed))
            assert np.max(np.linalg.eigvals(state.T).real) < 0.0


class TestRiccatiWeights:
    def test_passed_weights_keep_the_bits(self):
        """solve_are with riccati_weights(B, Q, R) passed in returns the
        bits it returns when it builds them, cold and warm."""
        noise = np.random.default_rng(11)
        for A, B, Q, R, P in _criterion_11_systems()[:30]:
            weights = riccati_weights(B, Q, R)
            assert solve_are(A, B, Q, R, weights=weights).tobytes() == P.tobytes()
            E = noise.normal(size=P.shape)
            guess = P + 1e-6 * np.linalg.norm(P) * (E + E.T)
            assert (solve_are(A, B, Q, R, RiccatiState(guess), weights=weights).P.tobytes()
                    == solve_are(A, B, Q, R, RiccatiState(guess)).P.tobytes())

    def test_invariants(self):
        B = np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 0.5]])
        Q, R = 3.0 * np.eye(3), np.array([[4.0, 1.0], [1.0, 2.0]])
        w = riccati_weights(B, Q, R)
        np.testing.assert_allclose(w.G, B @ np.linalg.solve(R, B.T), rtol=1e-14)
        np.testing.assert_allclose(w.B_tilde @ np.linalg.cholesky(R).T, B, rtol=0, atol=1e-15)
        assert w.norm_G == np.linalg.norm(w.G) and w.norm_Q == np.linalg.norm(Q)

    @pytest.mark.parametrize("r", [0.09, 3.7, 1e2, 1e8, 1e9, 1e10, 1e11])
    def test_input_map_has_the_triangular_solve_bits_on_diagonal_r(self, r):
        """For a diagonal R, ``B_tilde = B L⁻ᵀ`` from numpy's LU solve has
        the bits of LAPACK's triangular solve ``dtrtrs``, on Hill's B and
        on random ones, with equal and with unequal diagonals."""
        rng = np.random.default_rng(3)
        for m in (1, 2, 3):
            inputs = [rng.normal(size=(6, m)) for _ in range(10)] + [B_HILL[:, :m]]
            for B in inputs:
                for R in (r * np.eye(m), np.diag(r * 10.0 ** rng.uniform(-1.0, 1.0, m))):
                    L = np.linalg.cholesky(R)
                    X, info = scipy.linalg.lapack.dtrtrs(L.T, B.T, lower=0, trans=1)
                    assert info == 0
                    assert riccati_weights(B, np.eye(6), R).B_tilde.tobytes() == X.T.tobytes()

    def test_input_map_matches_the_triangular_solve_on_full_r(self):
        """For a full R, LU pivots and the bits may differ, by no more
        than a backward-stable solve allows: 1e-15 cond(L) relative."""
        rng = np.random.default_rng(4)
        for _ in range(300):
            m = int(rng.integers(2, 4))
            B, M = rng.normal(size=(6, m)), rng.normal(size=(m, m))
            R = (M @ M.T + 10.0 ** rng.uniform(-3.0, 1.0) * np.eye(m)) * 10.0 ** rng.uniform(-2, 11)
            L = np.linalg.cholesky(R)
            X, _ = scipy.linalg.lapack.dtrtrs(L.T, B.T, lower=0, trans=1)
            B_tilde = riccati_weights(B, np.eye(6), R).B_tilde
            assert (np.linalg.norm(B_tilde - X.T)
                    <= 1e-15 * np.linalg.cond(L) * np.linalg.norm(X))

    def test_frobenius_norm_matches_numpy_bits(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            X = rng.normal(size=(6, 6)) * 10.0 ** rng.uniform(-30, 30)
            for Y in (X, X.T, X[:, ::2]):
                assert numerics._norm(Y) == np.linalg.norm(Y)

    @pytest.mark.parametrize("R", [-np.eye(2), np.zeros((2, 2))])
    def test_bad_control_weight_rejected(self, R):
        with pytest.raises(NumericsError, match="Riccati solve failed"):
            riccati_weights(np.eye(2), np.eye(2), R)


def _random_hurwitz(rng, n):
    """A random n x n matrix shifted so its spectrum lies in Re < -0.1."""
    M = rng.normal(size=(n, n))
    return M - (np.max(np.linalg.eigvals(M).real) + 0.1 + rng.uniform()) * np.eye(n)


def _assert_matches_scipy(closed, C):
    """Agreement with scipy to 1e-12 relative, and a backward residual at
    round-off, which holds whatever the conditioning of the equation."""
    X = numerics._lyapunov(closed, C)
    expected = scipy.linalg.solve_continuous_lyapunov(closed.T, C)
    assert np.linalg.norm(X - expected) <= 1e-12 * np.linalg.norm(expected)
    residual = closed.T @ X + X @ closed - C
    scale = 2.0 * np.linalg.norm(closed) * np.linalg.norm(X) + np.linalg.norm(C)
    assert np.linalg.norm(residual) <= 1e-14 * scale


class TestLyapunov:
    """``numerics._lyapunov`` against scipy's Bartels-Stewart solver."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_random_hurwitz_matches_scipy(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(20):
            closed = _random_hurwitz(rng, n)
            C = rng.normal(size=(n, n))
            _assert_matches_scipy(closed, -(C @ C.T))
            _assert_matches_scipy(closed, C)

    def test_complex_pairs(self):
        # Two lightly damped oscillators and a real pole, mixed by a
        # random similarity: the Schur form has two 2x2 blocks.
        rng = np.random.default_rng(5)
        D = np.zeros((5, 5))
        D[:2, :2] = [[-0.05, 3.0], [-3.0, -0.05]]
        D[2:4, 2:4] = [[-1.0, 0.5], [-0.5, -1.0]]
        D[4, 4] = -2.0
        S = rng.normal(size=(5, 5))
        closed = S @ D @ np.linalg.inv(S)
        assert np.sum(np.linalg.eigvals(closed).imag != 0.0) == 4
        _assert_matches_scipy(closed, rng.normal(size=(5, 5)))

    def test_repeated_eigenvalue(self):
        # A Jordan block: the eigenvalue -1 with multiplicity three.
        rng = np.random.default_rng(6)
        J = -np.eye(3) + np.diag([1.0, 1.0], 1)
        S = rng.normal(size=(3, 3))
        _assert_matches_scipy(S @ J @ np.linalg.inv(S), rng.normal(size=(3, 3)))

    def test_sdc1_closed_loop_at_large_control_weight(self):
        """The 6x6 closed loop of the pointwise SDRE at R = 1e11 I: poles
        near the orbit rate, with a residual term as large as the Newton
        step's right-hand side."""
        orbit = ChiefOrbit(a=10000.0)
        kin = chief_kinematics(orbit, nu=0.0)
        X = formation_to_hill(FormationParams(rho=5.0, theta=0.2, m_slope=1.0),
                              orbit.mean_motion(), 0.0)
        A = sdc1_matrix(X, kin, SdreOptions.series_order)
        Q, R = np.eye(6), 1e11 * np.eye(3)
        P = solve_are(A, B_HILL, Q, R)
        G = B_HILL @ np.linalg.solve(R, B_HILL.T)
        closed = A - G @ P
        assert np.max(np.linalg.eigvals(closed).real) < 0.0
        _assert_matches_scipy(closed, -(Q + P @ G @ P))

    def test_undamped_pair_returns_none(self):
        # lambda = +-2i: lambda_1 + lambda_2 = 0 makes the operator singular.
        closed = np.array([[0.0, 1.0], [-4.0, 0.0]])
        assert numerics._lyapunov(closed, np.eye(2)) is None

    @pytest.mark.parametrize("eigenvalue", [-1.0, -1e-2, 0.0, 1e-2])
    def test_jordan_block_hurwitz_test(self, eigenvalue):
        """A 3x3 Jordan block mixed by a random similarity: the Schur
        form's Hurwitz test decides as ``eigvals`` does.  At the
        eigenvalue 0 round-off splits the triple eigenvalue into three
        cube roots 120° apart, so one always lies in Re > 0."""
        rng = np.random.default_rng(6)
        J = eigenvalue * np.eye(3) + np.diag([1.0, 1.0], 1)
        S = rng.normal(size=(3, 3))
        closed = S @ J @ np.linalg.inv(S)
        hurwitz = numerics._hurwitz_schur(closed) is not None
        assert hurwitz == (eigenvalue < 0.0)
        assert hurwitz == (np.max(np.linalg.eigvals(closed).real) < 0.0)

    def test_near_singular_sum_reported_by_dtrsyl(self):
        # A Hurwitz pair -1e-17 +- i in Schur form passes the real-part
        # test, and dtrsyl reports the eigenvalue sum -2e-17 ~ 0.
        closed = np.array([[-1e-17, 1.0], [-1.0, -1e-17]])
        assert numerics._lyapunov(closed, np.eye(2)) is None


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

    # 1-norms of the oracle draws: below and just above each θ_m, so each
    # Padé degree answers, and up to 1e3, where r13 takes 8 squarings.
    ORACLE_NORMS = sorted({*(f * theta for theta in numerics.PADE_THETA.values()
                             for f in (0.9, 1.1)), 1e-4, 30.0, 1e3})

    @staticmethod
    def _relative_error(M, scale=1.0):
        """Frobenius distance from scipy's expm, relative to its norm."""
        expected = scipy.linalg.expm(M * scale)
        return np.linalg.norm(matrix_exponential(M, scale) - expected) / np.linalg.norm(expected)

    @pytest.mark.parametrize("norm", ORACLE_NORMS, ids="{:.3g}".format)
    def test_random_matches_scipy(self, norm):
        """Ten seeded 12 x 12 draws per 1-norm agree with scipy's expm to
        1e-12 relative.  Each draw is shifted so that its rightmost
        eigenvalue has real part 0, which keeps ``exp`` of a 1-norm of 1e3
        finite, then scaled to the 1-norm.  Measured over 3000 such draws
        of 1-norm 1e-4 ... 1e3: at most 3.6e-13, and 4e-15 below 10."""
        rng = np.random.default_rng(round(norm * 1e6))
        for _ in range(10):
            M = rng.normal(size=(12, 12))
            M -= np.linalg.eigvals(M).real.max() * np.eye(12)
            M *= norm / np.linalg.norm(M, 1)
            assert self._relative_error(M) <= 1e-12

    def test_oracle_norms_reach_every_degree_and_squaring(self):
        thetas = list(numerics.PADE_THETA.values())
        degrees = {sum(norm > theta for theta in thetas[:-1]) for norm in self.ORACLE_NORMS}
        assert degrees == set(range(5))
        assert max(self.ORACLE_NORMS) > 2**7 * thetas[-1]

    def test_fsdre_hamiltonians_match_scipy(self):
        """The 12 x 12 Hamiltonians of the fsdre preset (circular and
        e = 0.15 chiefs, SDC1 and SDC2, Q = 0, R = 1e9 I) along the
        straight line from the initial to the desired formation, over
        remaining horizons of 1 s to the full 2000 s, agree with scipy's
        expm to 2e-11 relative.  Measured: at most 8.4e-12, at 2000 s,
        where ``‖H τ‖₁ = 2000`` takes 9 squarings although the spectral
        radius of ``H τ`` is about 2; 1.6e-13 at 300 s and 2e-15 at 30 s."""
        tf = 2000.0
        spec = FiniteHorizonSpec(tf=tf, Xf=np.zeros(6), Q=np.zeros((6, 6)), R=1e9 * np.eye(3))
        initial = FormationParams(rho=10.0, theta=np.radians(5.0), m_slope=1.0)
        desired = FormationParams(rho=100.0, theta=np.radians(35.0), m_slope=1.5)
        for e in (0.0, 0.15):
            chief = ChiefOrbit(a=10000.0, e=e, nu0=np.radians(10.0))
            omega = chief.mean_motion()
            x0 = formation_to_hill(initial, omega, 0.0)
            xf = formation_to_hill(desired, omega, tf)
            for variant in ("SDC1", "SDC2"):
                for frac, tau in ((0.0, tf), (0.5, 1000.0), (0.85, 300.0), (0.99, 30.0), (1.0, 1.0)):
                    kin = chief_kinematics(chief, chief.nu0 + frac * omega * tf)
                    A = sdc_matrix(x0 + frac * (xf - x0), kin, SdreOptions(variant=variant))
                    H = spec.hamiltonian.copy()
                    H[:6, :6] = A
                    H[6:, 6:] = -A.T
                    assert self._relative_error(H, tau) <= 2e-11

    @pytest.mark.parametrize("M, scale", [
        (np.full((3, 3), np.nan), 1.0),
        (np.diag([1.0, np.inf]), 1.0),
        (np.diag([1.0, -np.inf]), 0.5),
        (np.ones((2, 2)), np.nan),
        (np.ones((2, 2)), np.inf),
        (np.zeros((3, 3)), np.inf),
    ])
    def test_non_finite_argument_rejected(self, M, scale):
        with pytest.raises(NumericsError, match="non-finite argument"):
            matrix_exponential(M, scale)

    def test_finite_overflow_keeps_its_message(self):
        """Overflow in the squarings, and in the 1-norm's powers, surfaces
        as the library's error, with no numpy warning first."""
        for M in (np.array([[1e3, 1.0], [0.0, 1e3]]), np.full((3, 3), 1e200)):
            with pytest.raises(NumericsError, match="overflow in matrix exponential"):
                matrix_exponential(M)


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
