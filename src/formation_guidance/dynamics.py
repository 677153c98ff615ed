"""Relative orbital dynamics in the Hill frame.

Chief-orbit kinematics, the full nonlinear relative equations of motion
and their circular-orbit linearization, the differential J2 perturbation
(the closed-form J2 field and its analytic gravity gradient, evaluated in
Hill axes from the Earth's polar axis), formation-parameter/state
conversions, and Hill/ECI transforms.  The gravity field is the Earth's:
mu, Re and J2 are module constants, and only J2 itself can be switched
off.

The truth plant flies the deputy with a fused RK4 step on the 6-state in
Python floats (``_plant_step``).  The chief is passive, so its RK4 stages
(radius and anomaly rates; with J2 also the polar axis in Hill axes and
the chief's own J2 acceleration) are streamed step by step from one
chief integrator (``_chief_stages``), which ``propagate_nu`` also reads.
``RelativePlant.deriv`` integrated by ``numerics.rk4_step`` is the
readable reference for both, and matches the fused step bit for bit.

State ordering throughout is ``X = [x, xdot, y, ydot, z, zdot]`` with
x radial, y along-track, z cross-track; units are km, km/s, rad.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Callable, ClassVar, Iterator

import numpy as np

from .numerics import NumericsError

# Gravitational parameter of the Earth [km^3/s^2].
MU_EARTH = 398601.0
# Equatorial radius of the Earth [km].
R_EARTH = 6378.137
# Second zonal harmonic coefficient (dimensionless).
J2_EARTH = 0.0010826
# k = 3/2 mu J2 Re^2 of the J2 field a = k / r^5 [...] (see _j2_hill).
_K_J2 = 1.5 * MU_EARTH * J2_EARTH * R_EARTH**2

# Indices of the position and the acceleration rows of the state vector.
POSITION_ROWS = np.array([0, 2, 4])
ACCEL_ROWS = np.array([1, 3, 5])

# Control input matrix B: the three controls enter the acceleration rows.
B = np.zeros((6, 3))
B[ACCEL_ROWS, range(3)] = 1.0
B.flags.writeable = False

_EYE3 = np.eye(3)
_EYE3.flags.writeable = False


class DynamicsError(ValueError):
    """Raised for degenerate geometry (e.g. deputy at the geocenter)."""


def _require_finite(params) -> None:
    """Raise DynamicsError naming the first non-finite field of a
    dataclass of floats."""
    for f in fields(params):
        value = getattr(params, f.name)
        if not math.isfinite(value):
            raise DynamicsError(f"{type(params).__name__}.{f.name} must be finite, got {value}")


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
        _require_finite(self)
        if not self.a > 0.0:
            raise DynamicsError(f"semi-major axis must be positive, got {self.a}")
        if not 0.0 <= self.e < 1.0:
            raise DynamicsError(f"eccentricity must be in [0, 1), got {self.e}")

    def mean_motion(self) -> float:
        """Mean motion sqrt(mu / a^3) [rad/s]."""
        return np.sqrt(MU_EARTH / self.a**3)

    def period(self) -> float:
        """Orbital period [s]."""
        return 2.0 * np.pi / self.mean_motion()


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
    m_slope: float = 0.0
    n_slope: float = 0.0

    def __post_init__(self) -> None:
        _require_finite(self)
        if not self.rho >= 0.0:
            raise DynamicsError(f"baseline rho must be >= 0, got {self.rho}")


@dataclass(frozen=True)
class GravityModel:
    """The Earth's gravity field: point mass, plus J2 when ``j2_enabled``.

    ``mu``, ``re`` and ``j2`` are the fixed constants ``MU_EARTH``,
    ``R_EARTH`` and ``J2_EARTH``, readable on the class and on every
    instance; ``j2_enabled`` is the model's only setting.
    """

    mu: ClassVar[float] = MU_EARTH
    re: ClassVar[float] = R_EARTH
    j2: ClassVar[float] = J2_EARTH
    j2_enabled: bool = False


def chief_kinematics(orbit: ChiefOrbit, nu: float) -> ChiefKinematics:
    """Evaluate chief radius and true-anomaly rates at true anomaly ``nu``.

    r_c = a(1-e^2)/(1 + e cos nu),
    nu_dot = sqrt(mu a (1-e^2)) / r_c^2,
    nu_ddot = -2 mu e (1 + e cos nu)^3 sin nu / (a^3 (1-e^2)^3).
    """
    r_c, nu_dot, nu_ddot = _float_rates(orbit)(float(np.cos(nu)), float(np.sin(nu)))
    return ChiefKinematics(nu=float(nu), nu_dot=nu_dot, nu_ddot=nu_ddot, r_c=r_c)


def chief_kinematics_table(orbit: ChiefOrbit, nus: np.ndarray) -> list[ChiefKinematics]:
    """:func:`chief_kinematics` at each true anomaly of ``nus``, bit for bit.

    The sines and cosines are taken over the whole array in one call
    each and the rest in float arithmetic (:func:`_float_rates`, as in
    :func:`chief_kinematics`): a plain array pass of :func:`_chief_rates`
    can round differently, since numpy's array power (a squaring loop
    and a vectorized ``pow``) is not the scalar ``pow``.
    """
    rates = _float_rates(orbit)
    table = []
    for nu, cos_nu, sin_nu in zip(nus.tolist(), np.cos(nus).tolist(), np.sin(nus).tolist()):
        r_c, nu_dot, nu_ddot = rates(cos_nu, sin_nu)
        table.append(ChiefKinematics(nu=nu, nu_dot=nu_dot, nu_ddot=nu_ddot, r_c=r_c))
    return table


def _float_rates(orbit: ChiefOrbit) -> Callable[[float, float], tuple]:
    """``rates(cos(nu), sin(nu)) -> (r_c, nu_dot, nu_ddot)`` in Python
    floats: the formulas of :func:`chief_kinematics`, which reads them
    here, as do its per-run table and the chief's RK4 stages."""
    a, e = orbit.a, orbit.e
    p = a * (1.0 - e**2)
    sqrt_mu_p = float(np.sqrt(MU_EARTH * p))
    ndd_num = -2.0 * MU_EARTH * e
    ndd_den = a**3 * (1.0 - e**2) ** 3

    def rates(cos_nu: float, sin_nu: float) -> tuple[float, float, float]:
        q = 1.0 + e * cos_nu
        r_c = p / q
        return r_c, sqrt_mu_p / r_c**2, ndd_num * q**3 * sin_nu / ndd_den

    return rates


def _chief_rates(orbit: ChiefOrbit, nu):
    """(r_c, nu_dot, nu_ddot) of :func:`chief_kinematics` elementwise
    over an array of true anomalies: the batched form that
    :meth:`RelativePlant.f_jacobian` uses."""
    a, e = orbit.a, orbit.e
    p = a * (1.0 - e**2)
    q = 1.0 + e * np.cos(nu)
    r_c = p / q
    nu_dot = np.sqrt(MU_EARTH * p) / r_c**2
    nu_ddot = -2.0 * MU_EARTH * e * q**3 * np.sin(nu) / (a**3 * (1.0 - e**2) ** 3)
    return r_c, nu_dot, nu_ddot


def propagate_nu(orbit: ChiefOrbit, n: int, dt: float) -> np.ndarray:
    """True anomaly on the uniform grid 0, dt, ..., n dt by RK4.

    Integrates d(nu)/dt = sqrt(mu a (1-e^2)) / r_c(nu)^2 from nu0 over n
    steps of length dt, as :meth:`RelativePlant.simulate` takes them, by
    reading the chief's streamed RK4 stages (:func:`_chief_stages`), the
    one chief integrator, which also feeds the fused plant step of
    ``simulate``; the two agree bit for bit, and both match the
    reference ``rk4_step(RelativePlant.deriv)``.  Returns the (n+1,)
    anomalies.
    """
    nus = np.empty(n + 1)
    nus[0] = orbit.nu0
    nus[1:] = [nu for _, nu in _chief_stages(orbit, GravityModel(), nus[0].item(), n, dt)]
    return nus


def _polar_axis(orbit: ChiefOrbit, lib=math) -> Callable:
    """``pole(nu)``: the Earth's polar axis in Hill axes at true anomaly nu.

    That is ``C^T e_Z``, the third row of the chief triad ``C`` of
    :func:`eci_hill_transforms`, at argument of latitude
    ``arg_perigee + nu``, as its three components.  ``lib`` supplies
    ``sin`` and ``cos`` of that argument: ``math`` for one anomaly in
    Python floats, ``np`` for an array of them, whose first two
    components are then arrays (the third is the float cos i).
    """
    si, ci, w = math.sin(orbit.i), math.cos(orbit.i), orbit.arg_perigee
    sin, cos = lib.sin, lib.cos

    def pole(nu):
        th = w + nu
        return sin(th) * si, cos(th) * si, ci

    return pole


def _chief_stages(
    orbit: ChiefOrbit, gravity: GravityModel, nu: float, n: int, dt: float
) -> Iterator[tuple[tuple[tuple, ...], float]]:
    """Stream the chief's RK4 stages over n steps of length dt from ``nu``.

    Yields, for each step, the four stage records and the true anomaly
    at the end of the step.  A record is ``(r_c, nu_dot, nu_ddot)``.
    With J2 on it also holds what the J2 term needs: the Earth's polar
    axis in Hill axes (:func:`_polar_axis`) and the chief's own J2
    acceleration in Hill axes.  The chief is passive, so nothing here
    depends on the deputy.  The anomaly and the rates use the float
    operations of :func:`chief_kinematics` and of
    :func:`numerics.rk4_step` on nu, so they are bit-identical to the
    reference ``rk4_step(deriv)``.
    """
    rates, polar_axis = _float_rates(orbit), _polar_axis(orbit)

    def record(nu: float) -> tuple:
        r_c, nu_dot, nu_ddot = rates(float(np.cos(nu)), float(np.sin(nu)))
        if not gravity.j2_enabled:
            return r_c, nu_dot, nu_ddot
        pole = polar_axis(nu)
        return r_c, nu_dot, nu_ddot, pole, _j2_hill(pole, r_c, 0.0, 0.0, r_c * r_c)

    h, c = 0.5 * dt, dt / 6.0
    for _ in range(n):
        s1 = record(nu)
        s2 = record(nu + h * s1[1])
        s3 = record(nu + h * s2[1])
        s4 = record(nu + dt * s3[1])
        nu = nu + c * (((s1[1] + 2.0 * s2[1]) + 2.0 * s3[1]) + s4[1])
        yield (s1, s2, s3, s4), nu


def cw_nonlinear_deriv(
    state: np.ndarray,
    kin: ChiefKinematics,
    u: np.ndarray | None = None,
    d: np.ndarray | None = None,
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
    mu = MU_EARTH
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


def cw_nonlinear_jacobian(state: np.ndarray, kin: ChiefKinematics) -> np.ndarray:
    """Analytic Jacobian d f / d X of ``cw_nonlinear_deriv`` (no J2).

    The one-point case of :func:`_hill_jacobian`, which
    :meth:`RelativePlant.f_jacobian` evaluates over whole trajectories.
    """
    return _hill_jacobian(np.asarray(state, dtype=float), kin.r_c, kin.nu_dot, kin.nu_ddot)


def _hill_jacobian(X: np.ndarray, r_c, nd, ndd) -> np.ndarray:
    """Jacobians of ``cw_nonlinear_deriv`` at the (..., 6) states ``X``.

    The chief's r_c, nu_dot and nu_ddot are given per point (arrays of
    X's leading shape) or shared (floats); the result is (..., 6, 6).
    The acceleration-row x position-column block is the frame terms
    plus the point-mass gravity gradient -mu/r^3 (I - 3 u u^T) of the
    deputy at r = rho + r_c e_x, u = r/|r|.  Raises DynamicsError if any
    point puts the deputy at the geocenter.
    """
    r = _geocentric(X, r_c)
    s = np.einsum("...i,...i->...", r, r)
    if np.any(s <= 0.0):
        raise DynamicsError("deputy at the geocenter: gamma = 0")
    u = r / np.sqrt(s)[..., None]
    grad = (MU_EARTH / s**1.5)[..., None, None] * (3.0 * u[..., :, None] * u[..., None, :] - _EYE3)
    grad[..., 0, 0] += nd**2
    grad[..., 1, 1] += nd**2
    grad[..., 0, 1] += ndd
    grad[..., 1, 0] -= ndd
    J = np.zeros(X.shape[:-1] + (6, 6))
    J[..., 1::2, ::2] = grad  # acceleration rows x position columns
    J[..., ::2, 1::2] = _EYE3  # kinematic rows
    J[..., 1, 3] = 2.0 * nd
    J[..., 3, 1] = -2.0 * nd
    return J


def _geocentric(X: np.ndarray, r_c) -> np.ndarray:
    """Deputy positions rho + r_c e_x from the geocenter, in Hill axes."""
    r = X[..., POSITION_ROWS]
    r[..., 0] += r_c
    return r


def hill_linear_matrices(omega: float) -> tuple[np.ndarray, np.ndarray]:
    """Linearized (circular-chief) relative dynamics ``(A, B)``.

    A is the classic 6x6 linear model with mean motion ``omega``;
    B selects the three acceleration rows.
    """
    if not omega > 0.0:
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


def formation_to_hill(params: FormationParams, omega: float, t) -> np.ndarray:
    """Hill state realizing the commanded formation geometry at time ``t``.

    ``t`` is a time or an array of times; an array gives one row per time,
    equal bit for bit to the scalar calls where numpy's vector and scalar
    ``sin``/``cos`` agree.

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
    return np.stack([x, xd, y, yd, z, zd], axis=-1)


def formation_to_hill_deriv(params: FormationParams, omega: float, t) -> np.ndarray:
    """Analytic time derivative of ``formation_to_hill`` (for feedforward),
    at a time or, row by row, at an array of times."""
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
    return np.stack([xd, xdd, yd, ydd, zd, zdd], axis=-1)


def _chief_radial_rate(orbit: ChiefOrbit, nu: float) -> float:
    """d(r_c)/dt = sqrt(mu / p) * e * sin(nu)."""
    p = orbit.a * (1.0 - orbit.e**2)
    return np.sqrt(MU_EARTH / p) * orbit.e * np.sin(nu)


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
    chief: ChiefOrbit, kin: ChiefKinematics, state: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Absolute inertial position/velocity of the deputy from a Hill state."""
    C, w = eci_hill_transforms(chief, kin)
    r_rel = np.array([state[0], state[2], state[4]])
    v_rel = np.array([state[1], state[3], state[5]])
    r_full = r_rel + np.array([kin.r_c, 0.0, 0.0])
    rc_dot = _chief_radial_rate(chief, kin.nu)
    v_full = v_rel + np.array([rc_dot, 0.0, 0.0]) + np.cross(w, r_full)
    return C @ r_full, C @ v_full


def eci_to_hill(
    chief: ChiefOrbit,
    kin: ChiefKinematics,
    r_eci: np.ndarray,
    v_eci: np.ndarray,
) -> np.ndarray:
    """Inverse of :func:`hill_to_eci`."""
    C, w = eci_hill_transforms(chief, kin)
    r_full = C.T @ r_eci
    rc_dot = _chief_radial_rate(chief, kin.nu)
    v_full = C.T @ v_eci - np.cross(w, r_full)
    r_rel = r_full - np.array([kin.r_c, 0.0, 0.0])
    v_rel = v_full - np.array([rc_dot, 0.0, 0.0])
    return np.array([r_rel[0], v_rel[0], r_rel[1], v_rel[1], r_rel[2], v_rel[2]])


@dataclass(frozen=True)
class RelativePlant:
    """Truth plant: nonlinear relative dynamics plus optional J2.

    ``simulate`` steps the 6-state with a fused RK4 step in Python
    floats, fed by the chief's streamed RK4 stages, so every stage sees
    the chief kinematics at its own intermediate time.  ``deriv``, the
    derivative of ``[X, nu]`` integrated by ``numerics.rk4_step``, is
    the readable reference that the fused step is tested against.
    """

    orbit: ChiefOrbit
    gravity: GravityModel = field(default_factory=GravityModel)

    def deriv(self, t: float, aug: np.ndarray, u: np.ndarray | None = None) -> np.ndarray:
        """Derivative of [X(6), nu]; the reference for ``simulate``'s step."""
        state, nu = aug[:6], aug[6]
        kin = chief_kinematics(self.orbit, nu)
        d = None
        if self.gravity.j2_enabled:
            d = j2_differential_accel(self.gravity, self.orbit, kin, state)
        dX = cw_nonlinear_deriv(state, kin, u, d)
        return np.append(dX, kin.nu_dot)

    def f_jacobian(self, state: np.ndarray, nu) -> np.ndarray:
        """Jacobian of the unforced relative dynamics, batched over points.

        ``state`` is one (6,) state or a trajectory of (N, 6) states and
        ``nu`` the matching chief true anomaly or (N,) anomalies; the
        result is (6, 6) or (N, 6, 6), one Jacobian per point, from a
        handful of array operations over the whole batch.  Fully
        analytic: the chief kinematics at each nu, the nonlinear Hill
        block (:func:`_hill_jacobian`) and, with J2 enabled, the J2
        gravity gradient added to the acceleration-row x position-column
        block.  That term is evaluated in Hill axes
        (:func:`_j2_gradient_hill`) from the Earth's polar axis
        (:func:`_polar_axis`, over the whole batch); it has no velocity
        dependence.  Raises DynamicsError if any point puts the
        deputy at the geocenter.
        """
        orbit = self.orbit
        X, nu = np.asarray(state, dtype=float), np.asarray(nu, dtype=float)
        r_c, nd, ndd = _chief_rates(orbit, nu)
        J = _hill_jacobian(X, r_c, nd, ndd)
        if self.gravity.j2_enabled:
            pole = np.empty(nu.shape + (3,))
            pole[..., 0], pole[..., 1], pole[..., 2] = _polar_axis(orbit, np)(nu)
            J[..., 1::2, ::2] += _j2_gradient_hill(pole, _geocentric(X, r_c))
        return J

    def simulate(
        self,
        x0: np.ndarray,
        n: int,
        dt: float,
        policy: Callable[[int, float, np.ndarray], np.ndarray],
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """RK4 flight over n steps under a zero-order-hold control policy.

        The flight starts at t = 0 with the chief at its ``nu0``.  The
        control u_k = policy(k, t_k, X_k), with t_k = k dt, is held over
        step k.  Returns the (n+1, 6) states, the (n+1,) chief true
        anomalies and the (n, 3) applied controls.  Raises NumericsError
        for a non-finite state and DynamicsError for a deputy at the
        geocenter, like ``rk4_step(deriv)``, to whose trajectory it is
        bit-identical with J2 on and off.
        """
        states = np.empty((n + 1, 6))
        nus = np.empty(n + 1)
        controls = np.empty((n, 3))
        states[0] = x0
        nus[0] = self.orbit.nu0
        X = tuple(states[0].tolist())
        chief = _chief_stages(self.orbit, self.gravity, nus[0].item(), n, dt)
        for k, (stages, nu) in enumerate(chief):
            t = k * dt
            controls[k] = policy(k, t, states[k])
            try:
                X = _plant_step(self.gravity, stages, X, controls[k].tolist(), dt)
                finite = math.isfinite(nu) and all(map(math.isfinite, X))
            except (OverflowError, ZeroDivisionError):  # where numpy gives inf
                finite = False
            if not finite:
                raise NumericsError(f"non-finite state after RK4 step at t={t}")
            states[k + 1], nus[k + 1] = X, nu
        return states, nus, controls

    def propagate(
        self,
        x0: np.ndarray,
        controls: np.ndarray,
        dt: float,
    ) -> tuple[np.ndarray, np.ndarray]:
        """RK4 propagation under a zero-order-hold control history.

        Returns the (N, 6) state trajectory and the (N,) chief true
        anomaly samples, where N = len(controls) + 1.
        """
        return self.simulate(x0, len(controls), dt, lambda k, t, X: controls[k])[:2]


def j2_differential_accel(
    g: GravityModel, chief: ChiefOrbit, kin: ChiefKinematics, state: np.ndarray
) -> np.ndarray:
    """Differential J2 acceleration (deputy minus chief) in the Hill frame.

    The J2 field is evaluated in Hill axes (:func:`_j2_hill`) at the
    deputy, rho + r_c e_x, and at the chief, r_c e_x, from the Earth's
    polar axis in Hill axes (:func:`_polar_axis`), and differenced; this
    is C^T (a_J2(r_d) - a_J2(r_c)) for the inertial field a_J2 and the
    chief triad C, without the inertial round trip.  Velocities do not
    enter.  Returns a 3-vector [km/s^2], zeros when J2 is off; raises
    DynamicsError for a deputy at the geocenter.
    """
    if not g.j2_enabled:
        return np.zeros(3)
    x, y, z = state[POSITION_ROWS].tolist()
    r_c = kin.r_c
    s = (r_c + x) ** 2 + y**2 + z**2
    if s <= 0.0:
        raise DynamicsError("deputy at the geocenter: J2 field undefined")
    pole = _polar_axis(chief)(kin.nu)
    a_d, a_c = _j2_hill(pole, x + r_c, y, z, s), _j2_hill(pole, r_c, 0.0, 0.0, r_c * r_c)
    return np.array([a_d[0] - a_c[0], a_d[1] - a_c[1], a_d[2] - a_c[2]])


def _j2_hill(pole: tuple, x: float, y: float, z: float, r2: float) -> tuple[float, float, float]:
    """The J2 field at a position in rotated axes, in floats.

    ``(x, y, z)`` is the position and ``pole`` the Earth's polar axis in
    the same axes, and ``r2 = x^2 + y^2 + z^2``.  With k = 3/2 mu J2 Re^2
    (Montenbruck & Gill, Satellite Orbits, sec. 3.2):
    a = k / r^5 [(5 z_I^2 / r^2 - 1) r - 2 z_I pole], z_I = r . pole.
    """
    z_i = x * pole[0] + y * pole[1] + z * pole[2]
    f = _K_J2 / (r2 * r2 * math.sqrt(r2))
    radial, polar = f * (5.0 * z_i * z_i / r2 - 1.0), 2.0 * f * z_i
    return radial * x - polar * pole[0], radial * y - polar * pole[1], radial * z - polar * pole[2]


def _j2_gradient_hill(pole: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Gravity gradient d a / d r of the J2 field in rotated axes.

    ``r`` holds (..., 3) positions and ``pole`` the Earth's polar axis
    in the same axes (one (3,) axis or one per point).  With
    k = 3/2 mu J2 Re^2, u = r/|r| and s = u . pole:
        G = k/|r|^5 [(5 s^2 - 1) I + 5 (1 - 7 s^2) u u^T
                     + 10 s (u pole^T + pole u^T) - 2 pole pole^T],
    which is C^T G_I(C r) C for the inertial gradient G_I and the triad
    C whose third row is ``pole``.  G is symmetric and, by Laplace's
    equation, traceless.
    """
    r2 = np.einsum("...i,...i->...", r, r)
    u = r / np.sqrt(r2)[..., None]
    s = np.einsum("...i,...i->...", u, pole)[..., None, None]
    up = u[..., :, None] * pole[..., None, :]
    G = (
        (5.0 * s**2 - 1.0) * _EYE3
        + 5.0 * (1.0 - 7.0 * s**2) * u[..., :, None] * u[..., None, :]
        + 10.0 * s * (up + np.swapaxes(up, -1, -2))
        - 2.0 * pole[..., :, None] * pole[..., None, :]
    )
    return (_K_J2 / r2**2.5)[..., None, None] * G


def _plant_step(
    g: GravityModel, stages: tuple[tuple, ...], X: tuple, u: list, dt: float
) -> tuple[float, ...]:
    """One fused RK4 step of the 6-state in floats, under held control u.

    ``stages`` holds the chief's four stage records from
    :func:`_chief_stages`.  Each stage evaluates ``RelativePlant.deriv``
    with the float operations of :func:`cw_nonlinear_deriv`, in its
    order, and the differential J2 term with those of
    :func:`j2_differential_accel`, so the step is bit-identical to
    ``rk4_step(deriv)``.
    """
    mu, u0, u1, u2 = MU_EARTH, u[0], u[1], u[2]
    j2 = g.j2_enabled

    def accel(rec, x, xd, y, yd, z):
        r_c, nd, ndd = rec[0], rec[1], rec[2]
        s = (r_c + x) ** 2 + y**2 + z**2
        if s <= 0.0:
            raise DynamicsError(
                "deputy at the geocenter: " + ("J2 field undefined" if j2 else "gamma = 0")
            )
        gamma = s**1.5
        ax = 2.0 * nd * yd + ndd * y + nd**2 * x - mu * (x + r_c) / gamma + mu / r_c**2 + u0
        ay = -2.0 * nd * xd - ndd * x + nd**2 * y - mu * y / gamma + u1
        az = -mu * z / gamma + u2
        if j2:
            a_d, a_c = _j2_hill(rec[3], x + r_c, y, z, s), rec[4]
            ax += a_d[0] - a_c[0]
            ay += a_d[1] - a_c[1]
            az += a_d[2] - a_c[2]
        return ax, ay, az

    x, xd, y, yd, z, zd = X
    h = 0.5 * dt
    a1 = accel(stages[0], x, xd, y, yd, z)
    xd2, yd2, zd2 = xd + h * a1[0], yd + h * a1[1], zd + h * a1[2]
    a2 = accel(stages[1], x + h * xd, xd2, y + h * yd, yd2, z + h * zd)
    xd3, yd3, zd3 = xd + h * a2[0], yd + h * a2[1], zd + h * a2[2]
    a3 = accel(stages[2], x + h * xd2, xd3, y + h * yd2, yd3, z + h * zd2)
    xd4, yd4, zd4 = xd + dt * a3[0], yd + dt * a3[1], zd + dt * a3[2]
    a4 = accel(stages[3], x + dt * xd3, xd4, y + dt * yd3, yd4, z + dt * zd3)
    c = dt / 6.0
    return (
        x + c * (((xd + 2.0 * xd2) + 2.0 * xd3) + xd4),
        xd + c * (((a1[0] + 2.0 * a2[0]) + 2.0 * a3[0]) + a4[0]),
        y + c * (((yd + 2.0 * yd2) + 2.0 * yd3) + yd4),
        yd + c * (((a1[1] + 2.0 * a2[1]) + 2.0 * a3[1]) + a4[1]),
        z + c * (((zd + 2.0 * zd2) + 2.0 * zd3) + zd4),
        zd + c * (((a1[2] + 2.0 * a2[2]) + 2.0 * a3[2]) + a4[2]),
    )
