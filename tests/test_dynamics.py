import dataclasses
import math

import numpy as np
import pytest

from formation_guidance.dynamics import (
    ACCEL_ROWS,
    J2_EARTH,
    MU_EARTH,
    POSITION_ROWS,
    R_EARTH,
    ChiefOrbit,
    DynamicsError,
    FormationParams,
    GravityModel,
    RelativePlant,
    _chief_rates,
    _j2_gradient_hill,
    chief_kinematics,
    chief_kinematics_table,
    cw_nonlinear_deriv,
    cw_nonlinear_jacobian,
    eci_hill_transforms,
    eci_to_hill,
    formation_to_hill,
    formation_to_hill_deriv,
    hill_linear_matrices,
    hill_to_eci,
    j2_differential_accel,
    propagate_nu,
)
from formation_guidance.harness import ControllerSpec, HarnessError, Scenario
from formation_guidance.numerics import NumericsError, fd_jacobian, rk4_step


CIRC = ChiefOrbit(a=10000.0)


# Independent reference for the differential J2 acceleration: each
# satellite's J2 acceleration from its osculating inclination, argument of
# latitude and radius, in its own radial/transverse/normal axes.


def deputy_elements_from_state(chief, kin, state):
    """Osculating deputy inclination, argument of latitude, and radius."""
    r_eci, v_eci = hill_to_eci(chief, kin, state)
    r_d = float(np.linalg.norm(r_eci))
    if r_d <= 0.0:
        raise DynamicsError("deputy radius is zero")
    h = np.cross(r_eci, v_eci)
    h_norm = np.linalg.norm(h)
    if h_norm <= 1e-12 * r_d:
        raise DynamicsError("degenerate (rectilinear) deputy motion")
    i_d = float(np.arccos(np.clip(h[2] / h_norm, -1.0, 1.0)))
    # Node vector; for (near-)equatorial orbits the node is taken along +X.
    n_vec = np.array([-h[1], h[0], 0.0])
    n_norm = np.linalg.norm(n_vec)
    n_hat = np.array([1.0, 0.0, 0.0]) if n_norm <= 1e-12 * h_norm else n_vec / n_norm
    m_hat = np.cross(h / h_norm, n_hat)
    theta_d = float(np.arctan2(r_eci @ m_hat, r_eci @ n_hat)) % (2.0 * np.pi)
    return i_d, theta_d, r_d


def _j2_accel_plane(g, inc, theta, r):
    """J2 acceleration in the satellite's own radial/transverse/normal axes."""
    k = 1.5 * g.mu * g.j2 * g.re**2 / r**4
    si, ci = np.sin(inc), np.cos(inc)
    st, ct = np.sin(theta), np.cos(theta)
    return -k * np.array([1.0 - 3.0 * si**2 * st**2, 2.0 * si**2 * st * ct, 2.0 * si * ci * st])


def _j2_osculating_reference(g, chief, kin, state):
    """Differential J2 (deputy minus chief) in the Hill frame, via elements."""
    C, _ = eci_hill_transforms(chief, kin)
    a_c = C @ _j2_accel_plane(g, chief.i, chief.arg_perigee + kin.nu, kin.r_c)
    r_eci, v_eci = hill_to_eci(chief, kin, state)
    i_d, theta_d, r_d = deputy_elements_from_state(chief, kin, state)
    r_hat = r_eci / np.linalg.norm(r_eci)
    h = np.cross(r_eci, v_eci)
    h_hat = h / np.linalg.norm(h)
    D = np.column_stack([r_hat, np.cross(h_hat, r_hat), h_hat])
    return C.T @ (D @ _j2_accel_plane(g, i_d, theta_d, r_d) - a_c)


def _random_geometry(rng):
    """Chief orbit, true anomaly and Hill state with a 0.1-50 km baseline.

    Perigee radius 6600-12000 km, e < 0.6, any inclination (prograde
    and retrograde), node and perigee.
    """
    e = rng.uniform(0.0, 0.6)
    orbit = ChiefOrbit(
        a=rng.uniform(6600.0, 12000.0) / (1.0 - e),
        e=e,
        i=rng.uniform(0.05, math.pi - 0.05),
        arg_perigee=rng.uniform(0.0, 2.0 * math.pi),
        raan=rng.uniform(0.0, 2.0 * math.pi),
    )
    direction = rng.normal(size=3)
    X = np.zeros(6)
    X[[0, 2, 4]] = 10.0 ** rng.uniform(-1.0, math.log10(50.0)) * direction / np.linalg.norm(direction)
    X[[1, 3, 5]] = rng.uniform(-0.05, 0.05, size=3)
    return orbit, rng.uniform(0.0, 2.0 * math.pi), X


class TestChiefKinematics:
    def test_circular_closed_forms(self):
        kin = chief_kinematics(CIRC, nu=1.234)
        assert kin.r_c == pytest.approx(10000.0, abs=1e-9)
        assert kin.nu_ddot == 0.0
        assert kin.nu_dot == pytest.approx(math.sqrt(398601.0 / 10000.0**3), rel=1e-12)
        assert kin.nu_dot == pytest.approx(6.31349e-4, rel=1e-5)

    def test_perigee_radius_and_zero_angular_accel(self):
        kin = chief_kinematics(ChiefOrbit(a=10000.0, e=0.1), nu=0.0)
        assert kin.r_c == pytest.approx(9000.0, abs=1e-9)
        assert kin.nu_ddot == 0.0

    def test_rates_against_two_body_propagation(self):
        """Compare nu_dot/nu_ddot with a fine-step Keplerian integration."""
        orbit = ChiefOrbit(a=10000.0, e=0.15)
        nu = math.radians(10.0)

        def deriv(t, y):
            return np.array([chief_kinematics(orbit, y[0]).nu_dot])

        dt = 1e-3
        y = np.array([nu])
        rates = [chief_kinematics(orbit, y[0]).nu_dot]
        for k in range(2):
            y = rk4_step(deriv, k * dt, y, dt)
            rates.append(chief_kinematics(orbit, y[0]).nu_dot)
        kin = chief_kinematics(orbit, nu)
        assert rates[0] == pytest.approx(kin.nu_dot, rel=1e-12)
        numeric_ddot = (rates[2] - rates[0]) / (2.0 * dt)
        assert numeric_ddot == pytest.approx(kin.nu_ddot, rel=1e-6)

    @pytest.mark.parametrize("e", [0.0, 0.05, 0.15, 0.5, 0.7])
    def test_table_matches_per_anomaly_calls_bit_for_bit(self, e):
        """The per-run table against the per-step ``chief_kinematics(orbit,
        nus[k])`` calls it replaces, on a propagated grid and on seeded
        anomalies, compared as raw bits (so -0.0 differs from 0.0).  A
        plain array pass of ``_chief_rates`` rounds differently here:
        numpy's array power is not the scalar pow."""
        rng = np.random.default_rng(round(100 * e))
        orbit = ChiefOrbit(a=rng.uniform(7000.0, 42000.0), e=e, nu0=rng.uniform(0.0, 6.3))
        nus = np.concatenate([propagate_nu(orbit, 3000, 1.0),
                              rng.uniform(-10.0, 20.0, 5000)])
        table = chief_kinematics_table(orbit, nus)
        assert len(table) == len(nus)

        def bits(kins):
            return np.array([dataclasses.astuple(kin) for kin in kins]).tobytes()

        assert bits(table) == bits([chief_kinematics(orbit, nus[k]) for k in range(len(nus))])
        assert all(type(v) is float for v in dataclasses.astuple(table[0]))

    def test_float_rates_have_the_bits_of_the_batched_form_at_one_anomaly(self):
        """``chief_kinematics`` reads the float formulas of the run's
        table and chief stages; at a single anomaly they give the bits of
        ``_chief_rates``, the numpy form that ``f_jacobian`` batches, on
        seeded circular and eccentric orbits."""
        rng = np.random.default_rng(2026)
        for _ in range(40):
            e = float(rng.choice([0.0, rng.uniform(0.0, 0.9)]))
            orbit = ChiefOrbit(a=rng.uniform(6600.0, 45000.0), e=e)
            for nu in rng.uniform(-20.0, 20.0, 250):
                kin = chief_kinematics(orbit, nu)
                expected = [nu, *(float(v) for v in _chief_rates(orbit, nu))]
                got = [kin.nu, kin.r_c, kin.nu_dot, kin.nu_ddot]
                assert np.array(got).tobytes() == np.array(expected).tobytes()

    def test_invalid_elements_rejected(self):
        with pytest.raises(DynamicsError):
            ChiefOrbit(a=-1.0)
        with pytest.raises(DynamicsError):
            ChiefOrbit(a=10000.0, e=1.2)


class TestPropagateNu:
    def test_circular_constant_rate(self):
        orbit = ChiefOrbit(a=10000.0, nu0=0.3)
        T = orbit.period()
        nus = propagate_nu(orbit, 1000, T / 1000.0)
        expected = 0.3 + orbit.mean_motion() * np.linspace(0.0, T, 1001)
        np.testing.assert_allclose(nus, expected, atol=1e-10)

    def test_one_period_advances_two_pi(self):
        orbit = ChiefOrbit(a=10000.0, e=0.1, nu0=0.0)
        T = orbit.period()
        nus = propagate_nu(orbit, 20000, T / 20000.0)
        assert nus[-1] - nus[0] == pytest.approx(2.0 * math.pi, abs=1e-6)

    def test_step_refinement_converges(self):
        orbit = ChiefOrbit(a=10000.0, e=0.15)
        coarse = propagate_nu(orbit, 1000, 1.0)[-1]
        fine = propagate_nu(orbit, 2000, 0.5)[-1]
        assert abs(coarse - fine) < 1e-9

    @pytest.mark.parametrize("tf, dt", [(10.0, 3.0), (10.0, 0.0), (0.0, 1.0), (math.nan, 1.0),
                                        (10.0, math.inf)])
    def test_span_not_a_whole_number_of_steps_rejected(self, tf, dt):
        """propagate_nu takes a step count, which a run reads off its
        Scenario: the one place that rejects a span that is not a whole
        number of steps, before anything is propagated."""
        ring = FormationParams(rho=1.0)
        with pytest.raises(HarnessError):
            Scenario(chief=CIRC, gravity=GravityModel(), initial=ring, desired=ring,
                     tf=tf, dt=dt, controller=ControllerSpec("zero"))


class TestNonlinearDeriv:
    def test_chief_coincident_equilibrium(self):
        kin = chief_kinematics(CIRC, nu=0.7)
        out = cw_nonlinear_deriv(np.zeros(6), kin)
        np.testing.assert_array_equal(out, np.zeros(6))

    def test_small_state_matches_linear_model(self):
        omega = CIRC.mean_motion()
        A, _ = hill_linear_matrices(omega)
        kin = chief_kinematics(CIRC, nu=0.0)
        X = formation_to_hill(FormationParams(rho=1.0, theta=0.4), omega, 0.0)
        nonlinear = cw_nonlinear_deriv(X, kin)
        linear = A @ X
        assert np.linalg.norm(nonlinear - linear) / np.linalg.norm(linear) < 1e-4

    def test_control_affinity(self):
        kin = chief_kinematics(CIRC, nu=0.2)
        X = np.array([1.0, 0.01, -2.0, 0.0, 0.5, -0.01])
        diff = cw_nonlinear_deriv(X, kin, u=np.array([1e-6, 0.0, 0.0])) - cw_nonlinear_deriv(X, kin)
        np.testing.assert_allclose(diff, [0.0, 1e-6, 0.0, 0.0, 0.0, 0.0], atol=1e-20)

    def test_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        kin = chief_kinematics(ChiefOrbit(a=10000.0, e=0.15), nu=0.9)
        for _ in range(1000):
            X = rng.normal(scale=20.0, size=6)
            J = cw_nonlinear_jacobian(X, kin)
            J_fd = fd_jacobian(lambda v: cw_nonlinear_deriv(v, kin), X)
            assert np.linalg.norm(J - J_fd) / np.linalg.norm(J_fd) < 1e-5


class TestHillLinearMatrices:
    def test_radial_stiffness_entry(self):
        omega = 6.31349e-4
        A, _ = hill_linear_matrices(omega)
        assert A[1, 0] == pytest.approx(3.0 * omega**2, rel=1e-12)
        assert A[1, 0] == pytest.approx(1.19580e-6, rel=1e-4)

    def test_zero_trace(self):
        A, _ = hill_linear_matrices(1e-3)
        assert np.trace(A) == 0.0

    def test_eigenvalues(self):
        omega = 7e-4
        A, _ = hill_linear_matrices(omega)
        eig = np.sort_complex(np.linalg.eigvals(A))
        expected = np.sort_complex(
            [0.0, 0.0, 1j * omega, -1j * omega, 1j * omega, -1j * omega]
        )
        np.testing.assert_allclose(eig, expected, atol=1e-10)


class TestFormationMap:
    def test_reference_geometry_at_t0(self):
        params = FormationParams(rho=1.0, theta=math.radians(45.0), m_slope=1.0)
        X = formation_to_hill(params, omega=6.31349e-4, t=0.0)
        assert X[0] == pytest.approx(0.70711, abs=1e-5)
        assert X[2] == pytest.approx(1.41421, abs=1e-5)
        assert X[4] == pytest.approx(0.70711, abs=1e-5)

    def test_zero_baseline(self):
        X = formation_to_hill(FormationParams(rho=0.0), omega=1e-3, t=17.0)
        np.testing.assert_array_equal(X, np.zeros(6))

    def test_deriv_consistency(self):
        params = FormationParams(rho=3.0, theta=0.3, a_off=0.5, m_slope=1.2, n_slope=0.4)
        omega, t, h = 6.31349e-4, 321.0, 1e-3
        numeric = (
            formation_to_hill(params, omega, t + h) - formation_to_hill(params, omega, t - h)
        ) / (2.0 * h)
        np.testing.assert_allclose(
            formation_to_hill_deriv(params, omega, t), numeric, atol=1e-9
        )

    def test_closed_relative_orbit_is_periodic(self):
        """Formation states with no offsets are natural periodic solutions."""
        omega = CIRC.mean_motion()
        A, _ = hill_linear_matrices(omega)
        X = formation_to_hill(FormationParams(rho=1.0, theta=0.8, m_slope=1.0), omega, 0.0)
        T = 2.0 * math.pi / omega
        n = 2000
        dt = T / n
        state = X.copy()
        for k in range(n):
            state = rk4_step(lambda t, v: A @ v, k * dt, state, dt)
        np.testing.assert_allclose(state, X, atol=1e-8)


class TestEciHillTransforms:
    def test_orthonormal_basis(self):
        orbit = ChiefOrbit(a=10000.0, e=0.1, i=0.9, arg_perigee=0.4, raan=1.1)
        kin = chief_kinematics(orbit, nu=0.6)
        C, _ = eci_hill_transforms(orbit, kin)
        np.testing.assert_allclose(C.T @ C, np.eye(3), atol=1e-12)

    def test_equatorial_perigee_radial_axis(self):
        kin = chief_kinematics(CIRC, nu=0.0)
        C, _ = eci_hill_transforms(CIRC, kin)
        np.testing.assert_allclose(C[:, 0], [1.0, 0.0, 0.0], atol=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(4)
        orbit = ChiefOrbit(a=10000.0, e=0.15, i=1.0, arg_perigee=0.2, raan=0.7)
        kin = chief_kinematics(orbit, nu=2.1)
        for _ in range(50):
            X = rng.normal(scale=10.0, size=6)
            r, v = hill_to_eci(orbit, kin, X)
            back = eci_to_hill(orbit, kin, r, v)
            np.testing.assert_allclose(back, X, atol=1e-10)


class TestDeputyElements:
    def test_coincident_satellites(self):
        orbit = ChiefOrbit(a=10000.0, i=0.5, arg_perigee=0.1)
        kin = chief_kinematics(orbit, nu=0.4)
        i_d, theta_d, r_d = deputy_elements_from_state(orbit, kin, np.zeros(6))
        assert i_d == pytest.approx(orbit.i, abs=1e-12)
        assert theta_d == pytest.approx(orbit.arg_perigee + 0.4, abs=1e-12)
        assert r_d == pytest.approx(kin.r_c, abs=1e-9)

    def test_pure_radial_offset(self):
        orbit = ChiefOrbit(a=10000.0, i=0.5)
        kin = chief_kinematics(orbit, nu=0.4)
        X = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        i_d, theta_d, r_d = deputy_elements_from_state(orbit, kin, X)
        assert i_d == pytest.approx(orbit.i, abs=1e-9)
        assert theta_d == pytest.approx(0.4, abs=1e-9)
        assert r_d == pytest.approx(kin.r_c + 1.0, abs=1e-9)

    def test_small_cross_track_offset_inclination(self):
        # At the maximum-latitude point a normal-direction position offset
        # tilts the orbit plane by z/r_c to first order.
        orbit = ChiefOrbit(a=10000.0, i=math.radians(60.0))
        kin = chief_kinematics(orbit, nu=math.pi / 2.0)
        X = np.zeros(6)
        X[4] = 1.0
        i_d, _, _ = deputy_elements_from_state(orbit, kin, X)
        assert abs(i_d - orbit.i) == pytest.approx(1.0 / kin.r_c, rel=0.01)


def _j2_inertial_oracle(g, chief, kin, state):
    """Differential J2 acceleration from the inertial oblate-gravity gradient."""

    def accel(r):
        x, y, z = r
        rn = np.linalg.norm(r)
        k = 1.5 * g.j2 * g.mu * g.re**2 / rn**5
        zz = 5.0 * z**2 / rn**2
        return k * np.array([x * (zz - 1.0), y * (zz - 1.0), z * (zz - 3.0)])

    C, _ = eci_hill_transforms(chief, kin)
    r_d, _ = hill_to_eci(chief, kin, state)
    r_c = C @ np.array([kin.r_c, 0.0, 0.0])
    return C.T @ (accel(r_d) - accel(r_c))


class TestJ2Differential:
    G_ON = GravityModel(j2_enabled=True)

    def test_coincident_satellites_zero(self):
        orbit = ChiefOrbit(a=10000.0, i=0.8)
        kin = chief_kinematics(orbit, nu=0.5)
        np.testing.assert_array_equal(
            j2_differential_accel(self.G_ON, orbit, kin, np.zeros(6)), np.zeros(3)
        )

    def test_equatorial_in_plane_structure(self):
        orbit = ChiefOrbit(a=10000.0, i=0.0)
        kin = chief_kinematics(orbit, nu=0.3)
        X = np.array([2.0, 0.001, -3.0, 0.0, 0.0, 0.0])
        d = j2_differential_accel(self.G_ON, orbit, kin, X)
        assert d[2] == pytest.approx(0.0, abs=1e-18)

    def test_against_inertial_gradient_oracle(self):
        orbit = ChiefOrbit(a=10000.0, e=0.15, i=math.radians(60.0))
        kin = chief_kinematics(orbit, nu=math.radians(10.0))
        omega = orbit.mean_motion()
        X = formation_to_hill(
            FormationParams(rho=5.0, theta=math.radians(45.0), m_slope=1.0), omega, 0.0
        )
        d = j2_differential_accel(self.G_ON, orbit, kin, X)
        oracle = _j2_inertial_oracle(self.G_ON, orbit, kin, X)
        assert 1e-8 <= np.linalg.norm(d) <= 1e-6
        assert np.linalg.norm(d - oracle) / np.linalg.norm(oracle) < 0.01

    def test_disabled_model_returns_zero(self):
        orbit = ChiefOrbit(a=10000.0, i=0.8)
        kin = chief_kinematics(orbit, nu=0.5)
        out = j2_differential_accel(GravityModel(), orbit, kin, np.ones(6))
        np.testing.assert_array_equal(out, np.zeros(3))

    def test_matches_osculating_element_reference(self):
        rng = np.random.default_rng(2024)
        for _ in range(250):
            orbit, nu, X = _random_geometry(rng)
            kin = chief_kinematics(orbit, nu)
            d = j2_differential_accel(self.G_ON, orbit, kin, X)
            ref = _j2_osculating_reference(self.G_ON, orbit, kin, X)
            assert np.linalg.norm(d - ref) <= 1e-9 * np.linalg.norm(ref)

    def test_matches_inertial_oracle_over_random_geometry(self):
        rng = np.random.default_rng(2024)
        for _ in range(250):
            orbit, nu, X = _random_geometry(rng)
            kin = chief_kinematics(orbit, nu)
            d = j2_differential_accel(self.G_ON, orbit, kin, X)
            oracle = _j2_inertial_oracle(self.G_ON, orbit, kin, X)
            assert np.linalg.norm(d - oracle) <= 1e-9 * np.linalg.norm(oracle)

    def test_constants_are_the_earths(self):
        assert (GravityModel.mu, GravityModel.re, GravityModel.j2) == (MU_EARTH, R_EARTH, J2_EARTH)
        assert GravityModel(j2_enabled=True).mu == MU_EARTH
        with pytest.raises(TypeError):
            GravityModel(mu=1.0)


class TestRelativePlant:
    def test_propagate_matches_single_rk4_step(self):
        plant = RelativePlant(CIRC)
        x0 = np.array([1.0, 0.0, 2.0, -0.001, 0.5, 0.0])
        u = np.array([1e-6, -1e-6, 0.0])
        states, _ = plant.propagate(x0, u[None, :], dt=1.0)
        aug = np.append(x0, CIRC.nu0)
        direct = rk4_step(lambda t, a: plant.deriv(t, a, u), 0.0, aug, 1.0)
        np.testing.assert_allclose(states[1], direct[:6], atol=1e-15)

    def test_cw_periodic_orbit_closes(self):
        plant = RelativePlant(CIRC)
        omega = CIRC.mean_motion()
        x0 = formation_to_hill(FormationParams(rho=0.05, theta=0.3, m_slope=1.0), omega, 0.0)
        T = CIRC.period()
        n = 10000
        states, _ = plant.propagate(x0, np.zeros((n, 3)), dt=T / n)
        assert np.linalg.norm(states[-1] - x0) < 2e-4 * np.linalg.norm(x0)

    def test_f_jacobian_matches_finite_differences_with_j2(self):
        orbit = ChiefOrbit(a=10000.0, e=0.15, i=1.0)
        plant = RelativePlant(orbit, GravityModel(j2_enabled=True))
        X = np.array([2.0, 0.001, -4.0, 0.002, 3.0, -0.001])
        nu = 0.8

        def f(v):
            return plant.deriv(0.0, np.append(v, nu))[:6]

        J_fd = fd_jacobian(f, X)
        J = plant.f_jacobian(X, nu)
        assert np.linalg.norm(J - J_fd) / np.linalg.norm(J_fd) < 1e-5

    def test_j2_jacobian_block_is_the_analytic_gradient(self):
        rng = np.random.default_rng(7)
        g = GravityModel(j2_enabled=True)
        for _ in range(50):
            orbit, nu, X = _random_geometry(rng)
            kin = chief_kinematics(orbit, nu)
            J_j2 = RelativePlant(orbit, g).f_jacobian(X, nu) - RelativePlant(orbit).f_jacobian(X, nu)
            J_fd = fd_jacobian(lambda v: j2_differential_accel(g, orbit, kin, v), X, h=1e-3)
            block = J_j2[np.ix_(ACCEL_ROWS, POSITION_ROWS)]
            fd_block = J_fd[:, POSITION_ROWS]
            assert np.linalg.norm(block - fd_block) <= 1e-6 * np.linalg.norm(fd_block)
            # Velocities do not enter the J2 term; only its acceleration rows
            # are touched.
            np.testing.assert_array_equal(J_j2[:, [1, 3, 5]], 0.0)
            np.testing.assert_array_equal(J_j2[POSITION_ROWS], 0.0)

    def test_j2_gradient_symmetric_and_traceless(self):
        rng = np.random.default_rng(8)
        r = rng.normal(size=(200, 3))
        r *= rng.uniform(6600.0, 42000.0, size=(200, 1)) / np.linalg.norm(r, axis=1, keepdims=True)
        pole = rng.normal(size=(200, 3))
        pole /= np.linalg.norm(pole, axis=1, keepdims=True)
        for G in _j2_gradient_hill(pole, r):
            scale = np.linalg.norm(G)
            assert np.linalg.norm(G - G.T) <= 1e-12 * scale
            assert abs(np.trace(G)) <= 1e-12 * scale

    def test_deputy_at_geocenter_with_j2_raises(self):
        orbit = ChiefOrbit(a=10000.0, e=0.1, i=1.0)
        plant = RelativePlant(orbit, GravityModel(j2_enabled=True))
        r_c = chief_kinematics(orbit, 0.4).r_c
        with pytest.raises(DynamicsError):
            plant.deriv(0.0, np.array([-r_c, 0.0, 0.0, 0.0, 0.0, 0.0, 0.4]))


def _j2_gradient(g, r):
    """Gravity-gradient tensor d a / d r of the inertial J2 field at the
    inertial position ``r`` (3x3).

    With u = r/|r| and s = u_z:
        G = k/|r| [(5 s^2 - 1) I + 5 (1 - 7 s^2) u u^T
                   + 10 s (u e_z^T + e_z u^T) - 2 e_z e_z^T].
    """
    rn = np.sqrt(r @ r)
    u = r / rn
    s = u[2]
    G = 5.0 * (1.0 - 7.0 * s**2) * np.outer(u, u) + (5.0 * s**2 - 1.0) * np.eye(3)
    G[2] += 10.0 * s * u
    G[:, 2] += 10.0 * s * u
    G[2, 2] -= 2.0
    return 1.5 * g.mu * g.j2 * g.re**2 / rn**5 * G


def _point_jacobian(plant, X, nu):
    """Per-point reference for ``RelativePlant.f_jacobian``: the Hill
    block written entry by entry at the chief kinematics of ``nu`` and,
    with J2, the inertial gradient rotated by the chief triad C^T G C."""
    kin = chief_kinematics(plant.orbit, nu)
    mu, r_c, nd, ndd = plant.gravity.mu, kin.r_c, kin.nu_dot, kin.nu_ddot
    x, _, y, _, z, _ = X
    rx = r_c + x
    s = rx**2 + y**2 + z**2
    s32, s52 = s**1.5, s**2.5
    J = np.zeros((6, 6))
    J[0, 1] = J[2, 3] = J[4, 5] = 1.0
    J[1, 0] = nd**2 - mu / s32 + 3.0 * mu * rx**2 / s52
    J[1, 2] = ndd + 3.0 * mu * rx * y / s52
    J[1, 4] = 3.0 * mu * rx * z / s52
    J[1, 3] = 2.0 * nd
    J[3, 0] = -ndd + 3.0 * mu * y * rx / s52
    J[3, 1] = -2.0 * nd
    J[3, 2] = nd**2 - mu / s32 + 3.0 * mu * y**2 / s52
    J[3, 4] = 3.0 * mu * y * z / s52
    J[5, 0] = 3.0 * mu * z * rx / s52
    J[5, 2] = 3.0 * mu * z * y / s52
    J[5, 4] = -mu / s32 + 3.0 * mu * z**2 / s52
    if plant.gravity.j2_enabled:
        C, _ = eci_hill_transforms(plant.orbit, kin)
        r_d = C @ (X[POSITION_ROWS] + np.array([r_c, 0.0, 0.0]))
        J[np.ix_(ACCEL_ROWS, POSITION_ROWS)] += C.T @ _j2_gradient(plant.gravity, r_d) @ C
    return J


def _random_batch(rng, retrograde, n=31):
    """Chief orbit (e < 0.6, prograde or retrograde) and n points of a
    0.1-50 km formation at random anomalies."""
    orbit, _, _ = _random_geometry(rng)
    i = rng.uniform(0.05, 0.5 * math.pi - 0.05)
    orbit = dataclasses.replace(orbit, i=math.pi - i if retrograde else i)
    points = [_random_geometry(rng)[2] for _ in range(n)]
    return orbit, np.array(points), rng.uniform(0.0, 2.0 * math.pi, size=n)


class TestBatchedJacobian:
    """``f_jacobian`` over a stacked trajectory against the per-point
    reference."""

    @pytest.mark.parametrize("j2", [False, True])
    @pytest.mark.parametrize("retrograde", [False, True])
    def test_matches_per_point_reference(self, j2, retrograde):
        rng = np.random.default_rng(31 + 2 * j2 + retrograde)
        for _ in range(20):
            orbit, X, nus = _random_batch(rng, retrograde)
            plant = RelativePlant(orbit, GravityModel(j2_enabled=j2))
            J = plant.f_jacobian(X, nus)
            for k in range(len(X)):
                ref = _point_jacobian(plant, X[k], nus[k])
                # Each acceleration block (position and velocity columns)
                # to 1e-13 of its own largest entry.
                for cols in (POSITION_ROWS, ACCEL_ROWS):
                    block = np.ix_(ACCEL_ROWS, cols)
                    scale = np.abs(ref[block]).max()
                    assert np.abs(J[k][block] - ref[block]).max() <= 1e-13 * scale

    @pytest.mark.parametrize("j2", [False, True])
    def test_kinematic_rows_exact(self, j2):
        orbit, X, nus = _random_batch(np.random.default_rng(35), retrograde=False)
        J = RelativePlant(orbit, GravityModel(j2_enabled=j2)).f_jacobian(X, nus)
        kinematic = np.zeros((3, 6))
        kinematic[range(3), ACCEL_ROWS] = 1.0
        np.testing.assert_array_equal(J[:, POSITION_ROWS], np.broadcast_to(kinematic, (len(X), 3, 6)))

    @pytest.mark.parametrize("j2", [False, True])
    def test_output_shapes(self, j2):
        orbit, X, nus = _random_batch(np.random.default_rng(36), retrograde=True, n=7)
        plant = RelativePlant(orbit, GravityModel(j2_enabled=j2))
        assert plant.f_jacobian(X[0], nus[0]).shape == (6, 6)
        assert plant.f_jacobian(X[:1], nus[:1]).shape == (1, 6, 6)
        assert plant.f_jacobian(X, nus).shape == (7, 6, 6)

    @pytest.mark.parametrize("j2", [False, True])
    def test_geocentric_point_mid_batch_raises(self, j2):
        # A circular chief: r_c = a exactly at every anomaly.
        plant = RelativePlant(ChiefOrbit(a=10000.0, i=1.0), GravityModel(j2_enabled=j2))
        nus = np.linspace(0.0, 0.8, 5)
        X = np.ones((5, 6))
        X[2] = [-10000.0, 0.0, 0.0, 0.0, 0.0, 0.0]
        with pytest.raises(DynamicsError, match="geocenter"):
            plant.f_jacobian(X, nus)
        plant.f_jacobian(np.delete(X, 2, axis=0), np.delete(nus, 2))


def _reference_flight(plant, x0, controls, dt):
    """Flight of ``[X, nu]`` by ``rk4_step(plant.deriv)``, the reference
    for ``RelativePlant.simulate``'s fused step."""
    aug = np.append(x0, plant.orbit.nu0)
    out = [aug]
    for k, u in enumerate(controls):
        aug = rk4_step(lambda t, a: plant.deriv(t, a, u), k * dt, aug, dt)
        out.append(aug)
    out = np.array(out)
    return out[:, :6], out[:, 6]


def _random_flight(rng):
    """Random chief (any e < 0.6, i, omega, Omega, nu0), 0.1-50 km Hill
    state, step and zero-order-hold control history."""
    orbit, nu0, x0 = _random_geometry(rng)
    orbit = ChiefOrbit(orbit.a, orbit.e, orbit.i, orbit.arg_perigee, orbit.raan, nu0)
    n = int(rng.integers(50, 200))
    controls = rng.uniform(-1e-5, 1e-5, size=(n, 3))
    return orbit, x0, controls, rng.uniform(1.0, 30.0)


class TestFusedPlantStep:
    """``simulate`` steps the 6-state in floats from the chief's streamed
    RK4 stages; ``rk4_step(deriv)`` is the reference."""

    def test_matches_reference_bit_for_bit_without_j2(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            orbit, x0, controls, dt = _random_flight(rng)
            plant = RelativePlant(orbit)
            states, nus = plant.propagate(x0, controls, dt)
            ref_states, ref_nus = _reference_flight(plant, x0, controls, dt)
            np.testing.assert_array_equal(states, ref_states)
            np.testing.assert_array_equal(nus, ref_nus)

    def test_matches_reference_with_j2(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            orbit, x0, controls, dt = _random_flight(rng)
            plant = RelativePlant(orbit, GravityModel(j2_enabled=True))
            states, nus = plant.propagate(x0, controls, dt)
            ref_states, ref_nus = _reference_flight(plant, x0, controls, dt)
            np.testing.assert_array_equal(states, ref_states)
            np.testing.assert_array_equal(nus, ref_nus)

    def test_propagate_nu_matches_simulate(self):
        rng = np.random.default_rng(23)
        for e in (0.0, 0.15, 0.5, rng.uniform(0.0, 0.6)):
            orbit = ChiefOrbit(a=9000.0 / (1.0 - e), e=e, nu0=rng.uniform(0.0, 2.0 * math.pi))
            n, dt = 500, 7.0
            _, nus = RelativePlant(orbit).propagate(np.ones(6), np.zeros((n, 3)), dt)
            np.testing.assert_array_equal(propagate_nu(orbit, n, dt), nus)

    @pytest.mark.parametrize("j2", [False, True])
    def test_non_finite_control_raises_the_rk4_step_error(self, j2):
        plant = RelativePlant(ChiefOrbit(a=10000.0, e=0.2, i=1.0), GravityModel(j2_enabled=j2))
        x0 = np.array([1.0, 0.0, 2.0, 0.0, 0.5, 0.0])
        controls = np.zeros((6, 3))
        controls[3, 1] = np.nan
        with pytest.raises(NumericsError) as ref:
            _reference_flight(plant, x0, controls, 2.0)
        for bad in (np.nan, np.inf):
            controls[3, 1] = bad
            with pytest.raises(NumericsError) as fused:
                plant.propagate(x0, controls, 2.0)
            assert str(fused.value) == str(ref.value) == "non-finite state after RK4 step at t=6.0"

    def test_overflowing_state_raises_numerics_error(self):
        # Python float powers raise OverflowError where numpy gives inf.
        plant = RelativePlant(CIRC)
        with pytest.raises(NumericsError, match="non-finite state after RK4 step at t=0.0"):
            plant.propagate(np.array([1e200, 0.0, 0.0, 0.0, 0.0, 0.0]), np.zeros((1, 3)), 1.0)

    @pytest.mark.parametrize("j2", [False, True])
    def test_deputy_at_geocenter_raises(self, j2):
        plant = RelativePlant(CIRC, GravityModel(j2_enabled=j2))
        x0 = np.array([-CIRC.a, 0.0, 0.0, 0.0, 0.0, 0.0])
        message = "J2 field undefined" if j2 else "gamma = 0"
        with pytest.raises(DynamicsError, match=message):
            plant.propagate(x0, np.zeros((3, 3)), 1.0)
        with pytest.raises(DynamicsError, match=message):
            _reference_flight(plant, x0, np.zeros((3, 3)), 1.0)


class TestTwoBodyInvariants:
    """Unforced J2-free flight conserves the deputy's inertial invariants.

    The states are mapped to inertial coordinates with ``hill_to_eci``, so
    the check covers the Hill-frame equations, the chief anomaly and RK4
    together.  (With J2 on there is no such invariant: the chief flies a
    Keplerian orbit, so the deputy also feels -a_J2(r_c).)
    """

    ORBIT = ChiefOrbit(a=10000.0, e=0.1, i=math.radians(60.0), arg_perigee=0.3, raan=0.7)

    def _drifts(self, dt):
        plant = RelativePlant(self.ORBIT)
        x0 = np.array([1.0, 1e-3, -2.0, 5e-4, 0.5, -2e-4])
        n = int(round(self.ORBIT.period() / dt))
        states, nus = plant.propagate(x0, np.zeros((n, 3)), dt)
        energy, h_z = [], []
        for X, nu in zip(states, nus):
            r, v = hill_to_eci(self.ORBIT, chief_kinematics(self.ORBIT, nu), X)
            energy.append(0.5 * v @ v - MU_EARTH / np.linalg.norm(r))
            h_z.append(r[0] * v[1] - r[1] * v[0])
        energy, h_z = np.array(energy), np.array(h_z)
        return (
            np.max(np.abs(energy - energy[0])) / abs(energy[0]),
            np.max(np.abs(h_z - h_z[0])) / abs(h_z[0]),
        )

    def test_energy_and_angular_momentum_conserved_to_rk4_order(self):
        energy_20, h_z_20 = self._drifts(20.0)
        energy_10, h_z_10 = self._drifts(10.0)
        assert energy_20 <= 1e-12 and h_z_20 <= 1e-12
        assert energy_10 <= energy_20 / 10.0
        assert h_z_10 <= h_z_20 / 10.0
