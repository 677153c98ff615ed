"""End-to-end acceptance gate: one test per shipped guarantee.

Each test states its tolerance inline and runs the packaged reference
scenarios through the public harness, so a green run here means the
installed package reproduces the documented behavior.
"""

import math
import time

import numpy as np
import pytest

from formation_guidance.cli import (
    _MPSP_TIGHT_TOL,
    PRESETS,
    SWEEP_R_THRESHOLD_PCT,
    _chief,
    _form,
    _scenario,
)
from formation_guidance.dynamics import (
    ChiefOrbit,
    FormationParams,
    GravityModel,
    RelativePlant,
    chief_kinematics,
    cw_nonlinear_deriv,
    cw_nonlinear_jacobian,
    eci_hill_transforms,
    formation_to_hill,
    hill_to_eci,
    j2_differential_accel,
)
from formation_guidance.harness import Scenario, run_scenario
from formation_guidance.mpsp import (
    analytic_state_jacobians,
    compute_sensitivities,
    predict_trajectory,
)
from formation_guidance.numerics import (
    fd_jacobian,
    matrix_exponential,
    rk4_step,
    solve_are,
)
from formation_guidance.options import CONTROLLER_OPTIONS, FsdreOptions, MpspOptions

POS = [0, 2, 4]

_cache: dict = {}


def _preset_results(name, settle_pct=1.0):
    """Run a packaged preset once per session and cache the results."""
    if name not in _cache:
        scenarios, check = PRESETS[name][1]()
        results = {k: run_scenario(s, settle_pct) for k, s in scenarios.items()}
        _cache[name] = (results, check(results))
    return _cache[name]


def _assert_checks(checks):
    for label, passed, detail in checks:
        assert passed, f"{label}: {detail}"


def test_criterion_01_lqr_circular_reconfiguration():
    # Terminal position errors within 5x the reference magnitudes
    # (0.0081 / 0.0153 / 0.033 km), in under 10 s of wall time.
    start = time.monotonic()
    _, checks = _preset_results("lqr-circular")
    assert time.monotonic() - start < 10.0
    _assert_checks(checks)


def test_criterion_02_lqr_eccentric_degradation():
    # e = 0.15 chief degrades the terminal error norm by at least 10x.
    _, checks = _preset_results("lqr-eccentric")
    _assert_checks(checks)


def test_criterion_03_mpsp_convergence():
    # Relative baseline error < 0.5% within 10 iterations and terminal
    # position errors each <= 1e-2 km on the eccentric scenario.
    results, checks = _preset_results("mpsp-eccentric")
    _assert_checks(checks)
    assert len(results["run"].log) <= 11


def test_criterion_04_mpsp_effort_below_sdre():
    # effort(MPSP) / effort(finite-horizon pointwise-Riccati) on the same
    # scenario lies in [0.7, 1.0).
    chief = _chief(e=0.15)
    ini, des = _form(0.5, 45.0, m=1.0), _form(5.0, 60.0, m=1.5)
    mpsp = run_scenario(
        _scenario(chief, ini, des, 2000.0,
                  MpspOptions(tol_rho_pct=_MPSP_TIGHT_TOL))
    )
    fsdre = run_scenario(_scenario(chief, ini, des, 2000.0, FsdreOptions()))
    ratio = mpsp.control_effort / fsdre.control_effort
    assert 0.7 <= ratio < 1.0


def test_criterion_05_mpsp_under_oblateness():
    # MPSP holds 1e-2 km terminal accuracy with J2 on while the
    # plan-and-replay comparator is at least 10x worse.
    _, checks = _preset_results("mpsp-j2")
    _assert_checks(checks)


def test_criterion_06_gmpsp_convergence():
    # %rho error < 1% within 10 iterations, terminal position errors
    # each <= 2e-2 km, J2 on.
    _, checks = _preset_results("gmpsp")
    _assert_checks(checks)


def test_criterion_07_mpsp_gmpsp_cross_consistency():
    # Same scenario, same dt, documented stopping rules: terminal state
    # difference norm <= 5% of either method's terminal-error norm.
    base = PRESETS["gmpsp"][1]()[0]["run"]
    res = {}
    for kind in ("mpsp", "gmpsp"):
        scn = Scenario(
            chief=base.chief, gravity=base.gravity, initial=base.initial,
            desired=base.desired, tf=base.tf, dt=base.dt,
            controller=CONTROLLER_OPTIONS[kind](),
        )
        res[kind] = run_scenario(scn)
    diff = np.linalg.norm(res["mpsp"].states[-1] - res["gmpsp"].states[-1])
    for kind in ("mpsp", "gmpsp"):
        assert diff <= 0.05 * np.linalg.norm(res[kind].terminal_errors)


def test_criterion_08_sdc_factorization_comparison():
    # Eccentric chief: sigma-form error >= 10x power-series; circular
    # chief: the two factorizations agree within 2x.
    _, checks = _preset_results("fsdre")
    _assert_checks(checks)


def test_criterion_09_r_sweep_trends():
    # Settle strictly increasing, effort strictly decreasing over
    # R in {1e8,...,1e11}; settle times inside [0.5x, 2x] of the
    # reference {1500, 2000, 5000, 7500} s.
    _, checks = _preset_results("sweep-r", settle_pct=SWEEP_R_THRESHOLD_PCT)
    _assert_checks(checks)


def test_criterion_10_network_augmentation_benefit():
    # Chief-uncertainty scenario (truth a = 11114.51658 km, e = 0.5, J2
    # on): augmented error norm <= 1/20 of plain LQR; each augmented
    # position error <= 0.5 km.
    _, checks = _preset_results("nnlqr")
    _assert_checks(checks)


def test_criterion_11_numerics_property_suite():
    rng = np.random.default_rng(7)
    # Riccati solves: residual and closed-loop stability on 100 random
    # stabilizable systems.
    count = 0
    while count < 100:
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, 3))
        A = rng.normal(size=(n, n))
        Bm = rng.normal(size=(n, m))
        Q = np.eye(n)
        R = 10.0 ** rng.uniform(-2, 2) * np.eye(m)
        try:
            P = solve_are(A, Bm, Q, R)
        except Exception:
            continue
        resid = A.T @ P + P @ A - P @ Bm @ np.linalg.solve(R, Bm.T @ P) + Q
        assert np.linalg.norm(resid) <= 1e-8 * (1.0 + np.linalg.norm(P))
        K = np.linalg.solve(R, Bm.T @ P)
        assert np.max(np.linalg.eigvals(A - Bm @ K).real) < 0.0
        count += 1

    # RK4 observed order >= 3.9 on the scalar exponential.
    errs = []
    for dt in (0.1, 0.05):
        x = 1.0
        for _ in range(int(round(1.0 / dt))):
            x = rk4_step(lambda t, y: y, 0.0, x, dt)
        errs.append(abs(x - math.e))
    assert math.log2(errs[0] / errs[1]) >= 3.9

    # Matrix-exponential inverse identity.
    M = rng.normal(size=(6, 6))
    prod = matrix_exponential(M) @ matrix_exponential(-M)
    assert np.linalg.norm(prod - np.eye(6)) <= 1e-9

    # Analytic relative-motion Jacobians vs finite differences on 1000
    # random states, <= 1e-5 relative.
    orbit = ChiefOrbit(a=10000.0, e=0.15)
    kin = chief_kinematics(orbit, nu=0.4)
    for _ in range(1000):
        X = rng.uniform(-100.0, 100.0, size=6)
        J = cw_nonlinear_jacobian(X, kin)
        J_fd = fd_jacobian(lambda s: cw_nonlinear_deriv(s, kin), X)
        assert np.linalg.norm(J - J_fd) / np.linalg.norm(J_fd) <= 1e-5

    # First-order sensitivity fidelity <= 2% on directional probes.
    plant = RelativePlant(orbit)
    omega = orbit.mean_motion()
    x0 = formation_to_hill(
        FormationParams(rho=0.5, theta=math.radians(45.0), m_slope=1.0), omega, 0.0
    )
    n, dt = 200, 1.0
    U0 = rng.normal(scale=1e-6, size=(n, 3))
    states, nus, Y0 = predict_trajectory(plant, x0, U0, dt)
    dF_dX, dF_dU = analytic_state_jacobians(plant, states, nus, dt)
    sens = compute_sensitivities(dF_dX, dF_dU, dt * 1e9 * np.eye(3), U0)
    for _ in range(5):
        dU = rng.normal(scale=1e-6, size=(n, 3))
        _, _, Y1 = predict_trajectory(plant, x0, U0 + dU, dt)
        predicted = np.einsum("kij,kj->i", sens.B_k, dU)
        assert np.linalg.norm(predicted - (Y1 - Y0)) / np.linalg.norm(Y1 - Y0) <= 0.02


def test_criterion_12_dynamics_property_suite():
    # Chief-coincident equilibrium is exact.
    circ = ChiefOrbit(a=10000.0)
    kin = chief_kinematics(circ, nu=0.3)
    np.testing.assert_array_equal(cw_nonlinear_deriv(np.zeros(6), kin), np.zeros(6))

    # A periodic relative orbit closes after one chief period to
    # integrator tolerance.
    omega = circ.mean_motion()
    plant = RelativePlant(circ)
    x0 = formation_to_hill(FormationParams(rho=0.05, theta=0.3, m_slope=1.0), omega, 0.0)
    n = 10000
    states, _ = plant.propagate(x0, np.zeros((n, 3)), dt=circ.period() / n)
    assert np.linalg.norm(states[-1] - x0) < 2e-4 * np.linalg.norm(x0)

    # Hill -> inertial -> Hill round trip <= 1e-10 km.
    incl = ChiefOrbit(a=10000.0, e=0.1, i=0.9, arg_perigee=0.3, raan=1.1)
    kin_i = chief_kinematics(incl, nu=0.7)
    X = np.array([2.0, 1e-3, -3.0, -2e-3, 1.5, 5e-4])
    from formation_guidance.dynamics import eci_to_hill

    r_eci, v_eci = hill_to_eci(incl, kin_i, X)
    back = eci_to_hill(incl, kin_i, r_eci, v_eci)
    assert np.linalg.norm(back - X) <= 1e-10

    # Differential oblateness acceleration vs the inertial-frame
    # gravity-gradient oracle, <= 1% relative.
    g = GravityModel(j2_enabled=True)
    j2_orbit = ChiefOrbit(a=10000.0, e=0.15, i=math.radians(60.0))
    j2_kin = chief_kinematics(j2_orbit, nu=math.radians(10.0))
    Xf = formation_to_hill(
        FormationParams(rho=5.0, theta=math.radians(45.0), m_slope=1.0),
        j2_orbit.mean_motion(), 0.0,
    )

    def accel(r):
        x, y, z = r
        rn = np.linalg.norm(r)
        k = 1.5 * g.j2 * g.mu * g.re**2 / rn**5
        zz = 5.0 * z**2 / rn**2
        return k * np.array([x * (zz - 1.0), y * (zz - 1.0), z * (zz - 3.0)])

    C, _ = eci_hill_transforms(j2_orbit, j2_kin)
    r_d, _ = hill_to_eci(j2_orbit, j2_kin, Xf)
    r_c = C @ np.array([j2_kin.r_c, 0.0, 0.0])
    oracle = C.T @ (accel(r_d) - accel(r_c))
    d = j2_differential_accel(g, j2_orbit, j2_kin, Xf)
    assert np.linalg.norm(d - oracle) / np.linalg.norm(oracle) <= 0.01
