import dataclasses
import importlib.machinery
import importlib.util
import math
import sys
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg

from formation_guidance import numerics
from formation_guidance.dynamics import (
    MU_EARTH,
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
from formation_guidance.numerics import RiccatiState, riccati_weights, rk4_step, solve_are
from formation_guidance.options import FsdreOptions, SdreOptions
from formation_guidance.sdre import (
    FiniteHorizonSpec,
    SdreError,
    _psi_series,
    finite_time_sdre_control,
    sdc1_matrix,
    sdc2_matrix,
    sdc_matrix,
    sdre_infinite_control,
)

CIRC = ChiefOrbit(a=10000.0)
OMEGA = CIRC.mean_motion()
ORDER = SdreOptions.series_order
FSDRE_OPTIONS = FsdreOptions()
B = np.zeros((6, 3))
B[1, 0] = B[3, 1] = B[5, 2] = 1.0


def _sample_state(rho=25.0):
    return formation_to_hill(
        FormationParams(rho=rho, theta=math.radians(30.0), m_slope=1.0), OMEGA, 0.0
    )


def _sdc1_reference(state, kin, order=4, mu=MU_EARTH):
    """The SDC1 matrix as numpy scalars assigned into np.zeros: the form
    ``sdc1_matrix`` had before it was built from floats, kept as its
    bit-for-bit oracle."""
    x, _, y, _, z, _ = state
    r_c, nd, ndd = kin.r_c, kin.nu_dot, kin.nu_ddot
    xi = -2.0 * x / r_c - (x**2 + y**2 + z**2) / r_c**2
    psi = _psi_series(xi, order)
    s = (r_c + x) ** 2 + y**2 + z**2
    gamma = s**1.5
    c = 1.5 * mu / r_c**2 * psi
    A = np.zeros((6, 6))
    A[0, 1] = 1.0
    A[2, 3] = 1.0
    A[4, 5] = 1.0
    A[1, 0] = nd**2 - mu / gamma + c * (2.0 / r_c + x / r_c**2)
    A[1, 2] = ndd + c * y / r_c**2
    A[1, 4] = c * z / r_c**2
    A[1, 3] = 2.0 * nd
    A[3, 0] = -ndd
    A[3, 1] = -2.0 * nd
    A[3, 2] = nd**2 - mu / gamma
    A[5, 4] = -mu / gamma
    return A


class TestSdc1:
    def test_matches_reference_bit_for_bit(self):
        """Seeded states from 1 m to 1000 km on prograde, retrograde and
        eccentric chiefs, every series order from 1 to 6, compared as raw
        bits."""
        rng = np.random.default_rng(2024)
        checked = 0
        for _ in range(3000):
            orbit = ChiefOrbit(a=rng.uniform(7000.0, 42000.0), e=rng.uniform(0.0, 0.7))
            kin = chief_kinematics(orbit, rng.uniform(-4.0, 10.0))
            X = rng.normal(size=6) * 10.0 ** rng.uniform(-3.0, 3.0)
            if rng.uniform() < 0.1:
                X[[0, 2, 4]] = 0.0
            order = int(rng.integers(1, 7))
            xi = -2.0 * X[0] / kin.r_c - (X[0]**2 + X[2]**2 + X[4]**2) / kin.r_c**2
            if abs(xi) >= 1.0:
                continue
            assert sdc1_matrix(X, kin, order).tobytes() == _sdc1_reference(X, kin, order).tobytes()
            checked += 1
        assert checked > 2500

    def test_origin_recovers_linear_model(self):
        kin = chief_kinematics(CIRC, nu=0.0)
        A = sdc1_matrix(np.zeros(6), kin, ORDER)
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
            sdc1_matrix(X, kin, ORDER)


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


@pytest.mark.parametrize("variant, order", [("SDC1", 1), ("SDC1", 7), ("SDC2", 1)])
def test_sdc_matrix_is_the_factorization_the_options_name(variant, order):
    kin = chief_kinematics(ChiefOrbit(a=10000.0, e=0.15), nu=0.7)
    X = _sample_state()
    expected = sdc1_matrix(X, kin, order) if variant == "SDC1" else sdc2_matrix(X, kin.nu_dot)
    A = sdc_matrix(X, kin, SdreOptions(variant=variant, series_order=order))
    assert A.tobytes() == expected.tobytes()


def _run_weights(options):
    """The Riccati weights a run hands every step of the options' law."""
    return riccati_weights(B, options.Q, options.R)


class TestInfiniteHorizonControl:
    Q = np.eye(6)
    R = 1e9 * np.eye(3)

    def test_zero_error_zero_control(self):
        kin = chief_kinematics(CIRC, nu=0.0)
        X = _sample_state(rho=5.0)
        options = SdreOptions()
        u, _ = sdre_infinite_control(X, X, options, kin, RiccatiState(None),
                                     _run_weights(options))
        np.testing.assert_allclose(u, np.zeros(3), atol=1e-20)

    def test_run_weights_keep_the_bits(self):
        """Control and Riccati state with the run's Riccati weights passed
        in equal, bit for bit, a solve that builds them itself: cold,
        warm from a P alone, and warm from the state of a nearby step,
        which hands in its Schur form.  The control is the product of
        R^-1 B^T from np.linalg.solve with P (X - Xd)."""
        orbit = ChiefOrbit(a=10000.0, e=0.15)
        kin = chief_kinematics(orbit, nu=0.7)
        near = chief_kinematics(orbit, nu=0.7 + 1e-4)
        X, Xd = _sample_state(rho=5.0), _sample_state(rho=25.0)
        for r_weight in (1e8, 7e10):
            options = SdreOptions(r_weight=r_weight)
            Q, R = options.Q, options.R
            weights = _run_weights(options)
            gain = np.linalg.solve(R, B.T)
            u, riccati = sdre_infinite_control(X, Xd, options, kin, RiccatiState(None), weights)
            steps = [(kin, RiccatiState(None), u, riccati)]
            for guess in (RiccatiState(riccati.P * (1.0 + 1e-9)), riccati):
                steps.append((near, guess,
                              *sdre_infinite_control(X, Xd, options, near, guess, weights)))
            for k, guess, u, state in steps:
                own = solve_are(sdc_matrix(X, k, options), B, Q, R, guess)
                assert state.P.tobytes() == own.P.tobytes()
                assert u.tobytes() == (-gain.dot(state.P.dot(X - Xd))).tobytes()

    def test_origin_matches_lqr_gain(self):
        kin = chief_kinematics(CIRC, nu=0.0)
        design = design_lqr(OMEGA, self.Q, self.R)
        Xd = np.array([0.1, 0.0, -0.2, 0.0, 0.05, 0.0])
        options = SdreOptions()
        u, _ = sdre_infinite_control(np.zeros(6), Xd, options, kin, RiccatiState(None),
                                     _run_weights(options))
        np.testing.assert_allclose(u, -design.K @ (np.zeros(6) - Xd), rtol=1e-6)

    def test_warm_start_matches_cold_along_a_trajectory(self, care_calls, contract_holds):
        """Fly a 300 s reconfiguration on an eccentric chief, each step
        warm-started from the last step's Riccati state and handed the
        run's Riccati weights as the harness hands them, at a light and a
        heavy control weight: every step's P meets the residual/Hurwitz
        contract, checked independently of the solver, and equals a cold
        solve of the same SDC matrix to 1e-10 relative."""
        orbit = ChiefOrbit(a=10000.0, e=0.15)
        for r_weight in (1e8, 1e11):
            R = r_weight * np.eye(3)
            cold_before = len(care_calls)
            warm = _fly_warm_chain(orbit, 1.0, r_weight)
            assert len(care_calls) - cold_before == 1
            for A, riccati, _, _ in warm:
                assert contract_holds(A, B, self.Q, R, riccati.P)
                cold = solve_are(A, B, self.Q, R)
                assert np.linalg.norm(riccati.P - cold) <= 1e-10 * np.linalg.norm(cold)

    @pytest.mark.parametrize("e, dt", [
        (0.0, 1.0), (0.15, 1.0), (0.5, 1.0), (0.0, 30.0), (0.15, 30.0), (0.5, 30.0),
    ])
    def test_warm_chain_reuses_the_chord_schur_form(self, e, dt, care_calls, monkeypatch):
        """300-step pointwise runs over chief geometries, at a light and a
        heavy control weight: only the first step is cold, every warm P
        equals a cold solve to 1e-10 relative, and a ``dtrsyl`` runs per
        correction.  A warm step that hands on the Schur form it was
        handed reached its P by chords alone, whose closed loop the
        Lyapunov certificate showed Hurwitz: it takes no ``dgees`` and no
        Newton step, and its P is positive definite with a closed loop
        that ``eigvals`` finds Hurwitz.  Any other warm step takes one
        ``dgees`` per Newton step plus one, the Hurwitz test of its
        result, and hands on that Schur form of its own closed loop.  The
        first warm step starts from a cold P, which has no Schur form, so
        it takes a Newton step.  On the circular chief at dt = 1 s one
        chord correction converges at every later step.  At the light
        weight every later step hands on the first warm step's form, so
        ``dgees`` runs at the first warm step only; at the heavy weight the
        form ages until a chord shrinks the residual by a little less than
        ``CHORD_CONTRACTION``, and that step refreshes it."""
        calls = {"dgees": [], "dtrsyl": [], "newton": []}
        lapack, lyapunov = numerics.lapack(), numerics._lyapunov

        def counted(name, solve):
            def call(*args, **kwargs):
                calls[name].append(1)
                return solve(*args, **kwargs)
            return call

        monkeypatch.setattr(lapack, "dgees", counted("dgees", lapack.dgees))
        monkeypatch.setattr(lapack, "dtrsyl", counted("dtrsyl", lapack.dtrsyl))
        monkeypatch.setattr(numerics, "_lyapunov", counted("newton", lyapunov))
        orbit = ChiefOrbit(a=10000.0, e=e, nu0=0.17)
        for r_weight in (1e8, 1e11):
            R = r_weight * np.eye(3)
            care_calls.clear()
            chain = _fly_warm_chain(orbit, dt, r_weight, list(calls.values()))
            G = _run_weights(SdreOptions(r_weight=r_weight)).G
            assert len(care_calls) == 1
            for k, (A, riccati, before, after) in enumerate(chain[1:], start=1):
                schur, solves, newton = (b - a for a, b in zip(before, after))
                handed_on = riccati.T is chain[k - 1][1].T
                closed = A - G @ riccati.P
                if handed_on:
                    assert (schur, newton) == (0, 0) and solves >= 1
                    assert np.min(np.linalg.eigvalsh(riccati.P)) > 0.0
                    assert np.max(np.linalg.eigvals(closed).real) < 0.0
                else:
                    assert schur == 1 + newton
                    assert np.linalg.norm(riccati.Z @ riccati.T @ riccati.Z.T - closed.T) <= (
                        1e-12 * np.linalg.norm(closed))
                assert solves >= newton
                if (e, dt) == (0.0, 1.0) and k > 1:
                    assert (solves, newton) == (1, 0)
                    if r_weight == 1e8:
                        assert handed_on and schur == 0
                cold = solve_are(A, B, self.Q, R)
                assert np.linalg.norm(riccati.P - cold) <= 1e-10 * np.linalg.norm(cold)

    @pytest.mark.parametrize("unusable", ["missing", "not an extension"])
    def test_warm_chain_falls_back_to_scipy_linalg_lapack(self, unusable, tmp_path, monkeypatch):
        """Where scipy's LAPACK extension file is not found, or is found
        but does not load, ``numerics.lapack`` answers with
        ``scipy.linalg.lapack``, and a 300-step warm chain gives the bits
        it gives through the loaded extension."""
        orbit = ChiefOrbit(a=10000.0, e=0.15, nu0=0.17)
        loaded = _fly_warm_chain(orbit, 1.0, 1e8)
        try:
            with monkeypatch.context() as patch:
                patch.delitem(sys.modules, "scipy.linalg._flapack")
                if unusable == "missing":
                    patch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [])
                else:
                    (tmp_path / "linalg").mkdir()
                    (tmp_path / "linalg" / "_flapack.so").write_bytes(b"not a shared object")
                    patch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".so"])
                    patch.setattr(importlib.util, "find_spec", lambda name: SimpleNamespace(
                        submodule_search_locations=[str(tmp_path)]))
                numerics.lapack.cache_clear()
                fallback = numerics.lapack()
            assert fallback is scipy.linalg.lapack
            chain = _fly_warm_chain(orbit, 1.0, 1e8)
        finally:
            numerics.lapack.cache_clear()
        assert [step[1].P.tobytes() for step in chain] == [step[1].P.tobytes() for step in loaded]


def _fly_warm_chain(orbit, dt, r_weight, counters=()):
    """Fly a 300-step pointwise SDRE reconfiguration (5 -> 25 km) from
    the orbit's nu0, each step warm-started from the last step's Riccati
    state and handed the run's weights, as the harness does.  Returns,
    for each step, its SDC matrix, its Riccati state and the lengths of
    the ``counters`` lists before and after its control call."""
    omega = orbit.mean_motion()
    n = 300
    nus = propagate_nu(orbit, n, dt)
    Xd = formation_to_hill(FormationParams(rho=25.0, theta=0.5, m_slope=1.5), omega, 0.0)
    x0 = formation_to_hill(FormationParams(rho=5.0, theta=0.2, m_slope=1.0), omega, 0.0)
    options = SdreOptions(r_weight=r_weight)
    weights = _run_weights(options)
    riccati = RiccatiState(None)
    chain = []

    def policy(k, t, X):
        nonlocal riccati
        kin = chief_kinematics(orbit, nus[k])
        before = tuple(map(len, counters))
        u, riccati = sdre_infinite_control(X, Xd, options, kin, riccati, weights)
        chain.append((sdc1_matrix(X, kin, ORDER), riccati, before, tuple(map(len, counters))))
        return u

    RelativePlant(orbit).simulate(x0, n, dt, policy)
    return chain


class TestFiniteTimeControl:
    def test_natural_trajectory_needs_no_control(self):
        """If the free drift already reaches Xf with Q = 0, lambda = 0."""
        kin = chief_kinematics(CIRC, nu=0.0)
        horizon = FiniteHorizonSpec(tf=600.0, Xf=np.zeros(6), options=FSDRE_OPTIONS)
        u = finite_time_sdre_control(np.zeros(6), 0.0, horizon, kin)
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
        horizon = FiniteHorizonSpec(tf=tf, Xf=Xf, options=FSDRE_OPTIONS)
        X = formation_to_hill(FormationParams(rho=1.0, theta=0.1, m_slope=1.0), OMEGA, 0.0)
        n = int(tf / dt)
        for k in range(n):
            t = k * dt
            u = finite_time_sdre_control(X, t, horizon, kin)
            X = rk4_step(lambda tt, v: A_hill @ v + B @ u, t, X, dt)
        assert np.linalg.norm(X[[0, 2, 4]] - Xf[[0, 2, 4]]) < 1e-6

    def test_past_horizon_rejected(self):
        kin = chief_kinematics(CIRC, nu=0.0)
        horizon = FiniteHorizonSpec(tf=10.0, Xf=np.zeros(6), options=FSDRE_OPTIONS)
        with pytest.raises(SdreError):
            finite_time_sdre_control(np.zeros(6), 10.0, horizon, kin)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_time_rejected(self, t):
        kin = chief_kinematics(CIRC, nu=0.0)
        horizon = FiniteHorizonSpec(tf=10.0, Xf=np.zeros(6), options=FSDRE_OPTIONS)
        with pytest.raises(SdreError, match="not before tf"):
            finite_time_sdre_control(np.zeros(6), t, horizon, kin)

    @pytest.mark.parametrize("variant", ["SDC1", "SDC2"])
    @pytest.mark.parametrize("e", [0.0, 0.15])
    def test_lean_step_matches_the_reference(self, e, variant):
        """The step with its weights built once per spec and numpy's
        exponential agrees with the per-step formula (two fresh solves
        with R, scipy's expm, ``np.linalg.cond``) to 1e-10 relative on the
        fsdre preset's geometry; measured at most 3.2e-12, at 2000 s to go."""
        import scipy.linalg

        tf = 2000.0
        chief = ChiefOrbit(a=10000.0, e=e, nu0=math.radians(10.0))
        omega = chief.mean_motion()
        x0 = formation_to_hill(FormationParams(rho=10.0, theta=math.radians(5.0), m_slope=1.0),
                               omega, 0.0)
        Xf = formation_to_hill(FormationParams(rho=100.0, theta=math.radians(35.0), m_slope=1.5),
                               omega, tf)
        options = FsdreOptions(variant=variant)
        Q, R = options.Q, options.R
        horizon = FiniteHorizonSpec(tf=tf, Xf=Xf, options=options)
        for frac in (0.0, 0.3, 0.6, 0.9, 0.999):
            t = frac * tf
            kin = chief_kinematics(chief, chief.nu0 + omega * t)
            X = x0 + frac * (Xf - x0)
            A = sdc1_matrix(X, kin, ORDER) if variant == "SDC1" else sdc2_matrix(X, kin.nu_dot)
            H = np.block([[A, -B @ np.linalg.solve(R, B.T)], [-Q, -A.T]])
            phi = scipy.linalg.expm(H * (tf - t))
            assert np.linalg.cond(phi[:6, 6:]) < 1e12
            lam = np.linalg.solve(phi[:6, 6:], Xf - phi[:6, :6] @ X)
            expected = -np.linalg.solve(R, B.T @ lam)
            u = finite_time_sdre_control(X, t, horizon, kin)
            assert np.linalg.norm(u - expected) <= 1e-10 * np.linalg.norm(expected)

    @pytest.mark.parametrize("tf", [1e-6, 1e6])
    def test_degenerate_horizon_conditioning_guard(self, tf):
        kin = chief_kinematics(CIRC, nu=0.0)
        horizon = FiniteHorizonSpec(tf=tf, Xf=np.zeros(6), options=FSDRE_OPTIONS)
        with pytest.raises(SdreError):
            finite_time_sdre_control(np.ones(6) * 1e-3, 0.0, horizon, kin)


class TestModelValidation:
    """The SDC choice is checked where it is made, on the options: the
    finite-horizon options inherit the checks, and ``replace`` runs them."""

    MAKERS = {
        "sdre": SdreOptions,
        "fsdre": FsdreOptions,
        "replace-sdre": lambda **kw: dataclasses.replace(SdreOptions(), **kw),
        "replace-fsdre": lambda **kw: dataclasses.replace(FsdreOptions(), **kw),
    }

    @pytest.mark.parametrize("make", MAKERS.values(), ids=list(MAKERS))
    def test_unknown_variant_rejected(self, make):
        with pytest.raises(ValueError, match="^variant must be one of SDC1, SDC2, got 'SDC3'$"):
            make(variant="SDC3")

    @pytest.mark.parametrize("make", MAKERS.values(), ids=list(MAKERS))
    def test_bad_series_order_rejected(self, make):
        with pytest.raises(ValueError, match="^series_order must be >= 1, got 0$"):
            make(series_order=0)
