"""Relative orbital dynamics in the Hill frame.

Chief-orbit kinematics, the full nonlinear relative equations of motion
and their circular-orbit linearization, the differential J2 perturbation
(closed-form inertial field and its analytic gravity gradient, rotated
with the chief triad), formation-parameter/state conversions, and
Hill/ECI transforms.

State ordering throughout is ``X = [x, xdot, y, ydot, z, zdot]`` with
x radial, y along-track, z cross-track; units are km, km/s, rad.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .numerics import rk4_step

# Gravitational parameter of the Earth [km^3/s^2].
MU_EARTH = 398601.0
# Equatorial radius of the Earth [km].
R_EARTH = 6378.137
# Second zonal harmonic coefficient (dimensionless).
J2_EARTH = 0.0010826

# Indices of the position and the acceleration rows of the state vector.
POSITION_ROWS = np.array([0, 2, 4])
ACCEL_ROWS = np.array([1, 3, 5])

# Control input matrix B: the three controls enter the acceleration rows.
B = np.zeros((6, 3))
B[ACCEL_ROWS, range(3)] = 1.0
B.flags.writeable = False


class DynamicsError(ValueError):
    """Raised for degenerate geometry (e.g. deputy at the geocenter)."""


@dataclass(frozen=True)
class ChiefOrbit:
    """Keplerian elements of the (passive) chief satellite.

    Attributes
    ----------
    a : float
        Semi-major axis [km].
    e : float
        Eccentricity, 0 <= e < 1.
    i : float
        Inclination [rad].
    arg_perigee : float
        Argument of perigee [rad].
    raan : float
        Right ascension of the ascending node [rad].
    nu0 : float
        True anomaly at t = 0 [rad].
    """

    a: float
    e: float = 0.0
    i: float = 0.0
    arg_perigee: float = 0.0
    raan: float = 0.0
    nu0: float = 0.0

    def __post_init__(self) -> None:
        if not self.a > 0.0:
            raise DynamicsError(f"semi-major axis must be positive, got {self.a}")
        if not 0.0 <= self.e < 1.0:
            raise DynamicsError(f"eccentricity must be in [0, 1), got {self.e}")

    def mean_motion(self, mu: float = MU_EARTH) -> float:
        """Mean motion sqrt(mu / a^3) [rad/s]."""
        return np.sqrt(mu / self.a**3)

    def period(self, mu: float = MU_EARTH) -> float:
        """Orbital period [s]."""
        return 2.0 * np.pi / self.mean_motion(mu)


@dataclass(frozen=True)
class ChiefKinematics:
    """Instantaneous rotating-frame kinematics of the chief.

    nu, nu_dot, nu_ddot are the true anomaly and its time derivatives;
    r_c is the instantaneous chief radius [km].
    """

    nu: float
    nu_dot: float
    nu_ddot: float
    r_c: float


@dataclass(frozen=True)
class FormationParams:
    """Geometry of the projected relative orbit.

    rho is the baseline length [km], theta the phase [rad], a_off/b_off
    radial/along-track offsets [km], m_slope/n_slope the cross-track
    in-phase and quadrature slopes.
    """

    rho: float
    theta: float = 0.0
    a_off: float = 0.0
    b_off: float = 0.0
    m_slope: float = 1.0
    n_slope: float = 0.0

    def __post_init__(self) -> None:
        if self.rho < 0.0:
            raise DynamicsError(f"baseline rho must be >= 0, got {self.rho}")


@dataclass(frozen=True)
class GravityModel:
    """Gravity-field constants and the J2 toggle."""

    mu: float = MU_EARTH
    re: float = R_EARTH
    j2: float = J2_EARTH
    j2_enabled: bool = False


def chief_kinematics(orbit: ChiefOrbit, nu: float, mu: float = MU_EARTH) -> ChiefKinematics:
    """Evaluate chief radius and true-anomaly rates at true anomaly ``nu``.

    r_c = a(1-e^2)/(1 + e cos nu),
    nu_dot = sqrt(mu a (1-e^2)) / r_c^2,
    nu_ddot = -2 mu e (1 + e cos nu)^3 sin nu / (a^3 (1-e^2)^3).
    """
    a, e = orbit.a, orbit.e
    p = a * (1.0 - e**2)
    r_c = p / (1.0 + e * np.cos(nu))
    nu_dot = np.sqrt(mu * p) / r_c**2
    nu_ddot = -2.0 * mu * e * (1.0 + e * np.cos(nu)) ** 3 * np.sin(nu) / (a**3 * (1.0 - e**2) ** 3)
    return ChiefKinematics(nu=float(nu), nu_dot=float(nu_dot), nu_ddot=float(nu_ddot), r_c=float(r_c))


def propagate_nu(
    orbit: ChiefOrbit, t0: float, t1: float, dt: float, mu: float = MU_EARTH
) -> np.ndarray:
    """True anomaly on the uniform grid t0, t0+dt, ..., t1 by RK4.

    Integrates d(nu)/dt = sqrt(mu a (1-e^2)) / r_c(nu)^2 from nu0.
    """
    if dt <= 0.0 or t1 <= t0:
        raise DynamicsError("propagate_nu requires t1 > t0 and dt > 0")
    n_steps = int(round((t1 - t0) / dt))
    nus = np.empty(n_steps + 1)
    nus[0] = orbit.nu0

    def deriv(t: float, y: np.ndarray) -> np.ndarray:
        return np.array([chief_kinematics(orbit, y[0], mu).nu_dot])

    y = np.array([orbit.nu0])
    for k in range(n_steps):
        y = rk4_step(deriv, t0 + k * dt, y, dt)
        nus[k + 1] = y[0]
    return nus


def cw_nonlinear_deriv(
    state: np.ndarray,
    kin: ChiefKinematics,
    u: np.ndarray | None = None,
    d: np.ndarray | None = None,
    mu: float = MU_EARTH,
) -> np.ndarray:
    """Full nonlinear relative equations of motion in the Hill frame.

    With gamma = ((r_c+x)^2 + y^2 + z^2)^(3/2):

        xddot = 2 nu_dot ydot + nu_ddot y + nu_dot^2 x - mu (x + r_c)/gamma + mu/r_c^2
        yddot = -2 nu_dot xdot - nu_ddot x + nu_dot^2 y - mu y / gamma
        zddot = -mu z / gamma

    Control ``u`` and disturbance ``d`` (3-vectors, km/s^2) enter only
    the acceleration rows.
    """
    x, xd, y, yd, z, zd = state
    r_c, nd, ndd = kin.r_c, kin.nu_dot, kin.nu_ddot
    s = (r_c + x) ** 2 + y**2 + z**2
    if s <= 0.0:
        raise DynamicsError("deputy at the geocenter: gamma = 0")
    gamma = s**1.5
    ax = 2.0 * nd * yd + ndd * y + nd**2 * x - mu * (x + r_c) / gamma + mu / r_c**2
    ay = -2.0 * nd * xd - ndd * x + nd**2 * y - mu * y / gamma
    az = -mu * z / gamma
    out = np.array([xd, ax, yd, ay, zd, az])
    if u is not None:
        out[1] += u[0]
        out[3] += u[1]
        out[5] += u[2]
    if d is not None:
        out[1] += d[0]
        out[3] += d[1]
        out[5] += d[2]
    return out


def cw_nonlinear_jacobian(
    state: np.ndarray, kin: ChiefKinematics, mu: float = MU_EARTH
) -> np.ndarray:
    """Analytic Jacobian d f / d X of ``cw_nonlinear_deriv`` (no J2)."""
    x, _, y, _, z, _ = state
    r_c, nd, ndd = kin.r_c, kin.nu_dot, kin.nu_ddot
    rx = r_c + x
    s = rx**2 + y**2 + z**2
    if s <= 0.0:
        raise DynamicsError("deputy at the geocenter: gamma = 0")
    s32 = s**1.5
    s52 = s**2.5
    J = np.zeros((6, 6))
    J[0, 1] = 1.0
    J[2, 3] = 1.0
    J[4, 5] = 1.0
    # radial acceleration row
    J[1, 0] = nd**2 - mu / s32 + 3.0 * mu * rx**2 / s52
    J[1, 2] = ndd + 3.0 * mu * rx * y / s52
    J[1, 4] = 3.0 * mu * rx * z / s52
    J[1, 3] = 2.0 * nd
    # along-track acceleration row
    J[3, 0] = -ndd + 3.0 * mu * y * rx / s52
    J[3, 1] = -2.0 * nd
    J[3, 2] = nd**2 - mu / s32 + 3.0 * mu * y**2 / s52
    J[3, 4] = 3.0 * mu * y * z / s52
    # cross-track acceleration row
    J[5, 0] = 3.0 * mu * z * rx / s52
    J[5, 2] = 3.0 * mu * z * y / s52
    J[5, 4] = -mu / s32 + 3.0 * mu * z**2 / s52
    return J


def hill_linear_matrices(omega: float) -> tuple[np.ndarray, np.ndarray]:
    """Linearized (circular-chief) relative dynamics ``(A, B)``.

    A is the classic 6x6 linear model with mean motion ``omega``;
    B selects the three acceleration rows.
    """
    if omega <= 0.0:
        raise DynamicsError("omega must be positive")
    A = np.zeros((6, 6))
    A[0, 1] = 1.0
    A[2, 3] = 1.0
    A[4, 5] = 1.0
    A[1, 0] = 3.0 * omega**2
    A[1, 3] = 2.0 * omega
    A[3, 1] = -2.0 * omega
    A[5, 4] = -(omega**2)
    return A, B


def formation_to_hill(params: FormationParams, omega: float, t: float) -> np.ndarray:
    """Hill state realizing the commanded formation geometry at time ``t``.

    Positions:
        x = rho sin(w t + theta) + a_off
        y = 2 rho cos(w t + theta) - (3 w / 2) a_off t + b_off
        z = m rho sin(w t + theta) + 2 n rho cos(w t + theta)
    Velocities are the analytic time derivatives.
    """
    rho, th = params.rho, params.theta
    aof, bof = params.a_off, params.b_off
    m, n = params.m_slope, params.n_slope
    ph = omega * t + th
    s, c = np.sin(ph), np.cos(ph)
    x = rho * s + aof
    y = 2.0 * rho * c - 1.5 * omega * aof * t + bof
    z = m * rho * s + 2.0 * n * rho * c
    xd = rho * omega * c
    yd = -2.0 * rho * omega * s - 1.5 * omega * aof
    zd = m * rho * omega * c - 2.0 * n * rho * omega * s
    return np.array([x, xd, y, yd, z, zd])


def formation_to_hill_deriv(params: FormationParams, omega: float, t: float) -> np.ndarray:
    """Analytic time derivative of ``formation_to_hill`` (for feedforward)."""
    rho, th = params.rho, params.theta
    aof = params.a_off
    m, n = params.m_slope, params.n_slope
    ph = omega * t + th
    s, c = np.sin(ph), np.cos(ph)
    xd = rho * omega * c
    xdd = -rho * omega**2 * s
    yd = -2.0 * rho * omega * s - 1.5 * omega * aof
    ydd = -2.0 * rho * omega**2 * c
    zd = m * rho * omega * c - 2.0 * n * rho * omega * s
    zdd = -m * rho * omega**2 * s - 2.0 * n * rho * omega**2 * c
    return np.array([xd, xdd, yd, ydd, zd, zdd])


def _chief_radial_rate(orbit: ChiefOrbit, nu: float, mu: float = MU_EARTH) -> float:
    """d(r_c)/dt = sqrt(mu / p) * e * sin(nu)."""
    p = orbit.a * (1.0 - orbit.e**2)
    return np.sqrt(mu / p) * orbit.e * np.sin(nu)


def eci_hill_transforms(
    chief: ChiefOrbit, kin: ChiefKinematics
) -> tuple[np.ndarray, np.ndarray]:
    """Rotation and rate data for the chief-centered rotating frame.

    Returns
    -------
    C : (3, 3) ndarray
        Columns are the frame unit vectors expressed in inertial axes:
        radial, along-track (completing the triad), orbit normal.
    omega_frame : (3,) ndarray
        Frame angular velocity in frame axes, [0, 0, nu_dot].
    """
    th = chief.arg_perigee + kin.nu
    cO, sO = np.cos(chief.raan), np.sin(chief.raan)
    ci, si = np.cos(chief.i), np.sin(chief.i)
    ct, st = np.cos(th), np.sin(th)
    e_x = np.array([cO * ct - sO * st * ci, sO * ct + cO * st * ci, st * si])
    e_z = np.array([sO * si, -cO * si, ci])
    e_y = np.array([-cO * st - sO * ct * ci, -sO * st + cO * ct * ci, ct * si])
    C = np.column_stack([e_x, e_y, e_z])
    return C, np.array([0.0, 0.0, kin.nu_dot])


def hill_to_eci(
    chief: ChiefOrbit,
    kin: ChiefKinematics,
    state: np.ndarray,
    mu: float = MU_EARTH,
) -> tuple[np.ndarray, np.ndarray]:
    """Absolute inertial position/velocity of the deputy from a Hill state."""
    C, w = eci_hill_transforms(chief, kin)
    r_rel = np.array([state[0], state[2], state[4]])
    v_rel = np.array([state[1], state[3], state[5]])
    r_full = r_rel + np.array([kin.r_c, 0.0, 0.0])
    rc_dot = _chief_radial_rate(chief, kin.nu, mu)
    v_full = v_rel + np.array([rc_dot, 0.0, 0.0]) + np.cross(w, r_full)
    return C @ r_full, C @ v_full


def eci_to_hill(
    chief: ChiefOrbit,
    kin: ChiefKinematics,
    r_eci: np.ndarray,
    v_eci: np.ndarray,
    mu: float = MU_EARTH,
) -> np.ndarray:
    """Inverse of :func:`hill_to_eci`."""
    C, w = eci_hill_transforms(chief, kin)
    r_full = C.T @ r_eci
    rc_dot = _chief_radial_rate(chief, kin.nu, mu)
    v_full = C.T @ v_eci - np.cross(w, r_full)
    r_rel = r_full - np.array([kin.r_c, 0.0, 0.0])
    v_rel = v_full - np.array([rc_dot, 0.0, 0.0])
    return np.array([r_rel[0], v_rel[0], r_rel[1], v_rel[1], r_rel[2], v_rel[2]])


@dataclass(frozen=True)
class RelativePlant:
    """Truth plant: nonlinear relative dynamics plus optional J2.

    Carries the chief orbit alongside the relative state by augmenting
    the state vector with the chief true anomaly, so RK4 stages see the
    chief kinematics at the correct intermediate times.
    """

    orbit: ChiefOrbit
    gravity: GravityModel = field(default_factory=GravityModel)

    def deriv(self, t: float, aug: np.ndarray, u: np.ndarray | None = None) -> np.ndarray:
        """Derivative of the augmented state [X(6), nu]."""
        state, nu = aug[:6], aug[6]
        kin = chief_kinematics(self.orbit, nu, self.gravity.mu)
        d = None
        if self.gravity.j2_enabled:
            d = j2_differential_accel(self.gravity, self.orbit, kin, state)
        dX = cw_nonlinear_deriv(state, kin, u, d, self.gravity.mu)
        return np.append(dX, kin.nu_dot)

    def f_jacobian(self, state: np.ndarray, nu: float) -> np.ndarray:
        """Jacobian of the unforced relative dynamics at (state, nu).

        Fully analytic.  With J2 enabled, the rotated inertial gravity
        gradient C^T G(r_d) C is added to the acceleration-row x
        position-column block; the J2 term has no velocity dependence.
        """
        kin = chief_kinematics(self.orbit, nu, self.gravity.mu)
        J = cw_nonlinear_jacobian(state, kin, self.gravity.mu)
        if self.gravity.j2_enabled:
            C, r_d = _deputy_inertial(self.orbit, kin, state)
            J[np.ix_(ACCEL_ROWS, POSITION_ROWS)] += C.T @ _j2_gradient(self.gravity, r_d) @ C
        return J

    def simulate(
        self,
        x0: np.ndarray,
        n: int,
        dt: float,
        policy: Callable[[int, float, np.ndarray], np.ndarray],
        t0: float = 0.0,
        nu0: float | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """RK4 flight over n steps under a zero-order-hold control policy.

        The control u_k = policy(k, t_k, X_k), with t_k = t0 + k dt, is
        held over step k.  Returns the (n+1, 6) states, the (n+1,) chief
        true anomalies and the (n, 3) applied controls.
        """
        states = np.empty((n + 1, 6))
        nus = np.empty(n + 1)
        controls = np.empty((n, 3))
        aug = np.append(np.asarray(x0, dtype=float), self.orbit.nu0 if nu0 is None else nu0)
        states[0], nus[0] = aug[:6], aug[6]
        for k in range(n):
            t = t0 + k * dt
            u = controls[k] = policy(k, t, states[k])
            aug = rk4_step(lambda tt, a: self.deriv(tt, a, u), t, aug, dt)
            states[k + 1], nus[k + 1] = aug[:6], aug[6]
        return states, nus, controls

    def propagate(
        self,
        x0: np.ndarray,
        controls: np.ndarray,
        dt: float,
        t0: float = 0.0,
        nu0: float | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """RK4 propagation under a zero-order-hold control history.

        Returns the (N, 6) state trajectory and the (N,) chief true
        anomaly samples, where N = len(controls) + 1.
        """
        return self.simulate(x0, len(controls), dt, lambda k, t, X: controls[k], t0, nu0)[:2]


def _j2_accel(g: GravityModel, r: np.ndarray) -> np.ndarray:
    """Inertial J2 acceleration at inertial position ``r`` (nonzero).

    a = k [x (5 z^2/r^2 - 1), y (5 z^2/r^2 - 1), z (5 z^2/r^2 - 3)]
    with k = 3/2 mu J2 Re^2 / r^5 (Montenbruck & Gill, Satellite Orbits,
    sec. 3.2).
    """
    rn = np.sqrt(r @ r)
    u = r / rn
    k = 1.5 * g.mu * g.j2 * g.re**2 / rn**4
    a = k * (5.0 * u[2] ** 2 - 1.0) * u
    a[2] -= 2.0 * k * u[2]
    return a


def _j2_gradient(g: GravityModel, r: np.ndarray) -> np.ndarray:
    """Gravity-gradient tensor d a / d r of :func:`_j2_accel` (3x3).

    With u = r/|r| and s = u_z:
        G = k/|r| [(5 s^2 - 1) I + 5 (1 - 7 s^2) u u^T
                   + 10 s (u e_z^T + e_z u^T) - 2 e_z e_z^T].
    G is symmetric and, by Laplace's equation, traceless.
    """
    rn = np.sqrt(r @ r)
    u = r / rn
    s = u[2]
    G = 5.0 * (1.0 - 7.0 * s**2) * np.outer(u, u) + (5.0 * s**2 - 1.0) * np.eye(3)
    G[2] += 10.0 * s * u
    G[:, 2] += 10.0 * s * u
    G[2, 2] -= 2.0
    return 1.5 * g.mu * g.j2 * g.re**2 / rn**5 * G


def _deputy_inertial(
    chief: ChiefOrbit, kin: ChiefKinematics, state: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Chief triad C and the deputy's inertial position C (rho + r_c e_x)."""
    C, _ = eci_hill_transforms(chief, kin)
    r_d = C @ (state[POSITION_ROWS] + np.array([kin.r_c, 0.0, 0.0]))
    if r_d @ r_d <= 0.0:
        raise DynamicsError("deputy at the geocenter: J2 field undefined")
    return C, r_d


def j2_differential_accel(
    g: GravityModel, chief: ChiefOrbit, kin: ChiefKinematics, state: np.ndarray
) -> np.ndarray:
    """Differential J2 acceleration (deputy minus chief) in the Hill frame.

    Both positions are mapped to the inertial frame with the chief triad
    C, the closed-form inertial J2 field is differenced, and the result
    is rotated back: C^T (a_J2(r_d) - a_J2(r_c)).  Velocities do not
    enter.  Returns a 3-vector [km/s^2]; raises DynamicsError for a
    deputy at the geocenter.
    """
    if not g.j2_enabled:
        return np.zeros(3)
    C, r_d = _deputy_inertial(chief, kin, state)
    return C.T @ (_j2_accel(g, r_d) - _j2_accel(g, kin.r_c * C[:, 0]))
