"""Seeded workload generation.

Each workload is a list of scenario configs, written as config text in
the grammar of ``formation_guidance.cli`` and drawn from a seed.  The
program under test only ever sees the generated text.  The bounds the
checks in ``checks.py`` apply are defined here with the workloads.

Why each workload exists:

* ``sdre-sweep`` -- pointwise SDRE (SDC1) on a circular chief, J2 off,
  over four control weights.  Every step makes one Riccati solve and
  nothing else is expensive: it exercises ``numerics.solve_are`` and
  bypasses the J2 layer and the Jacobians.
* ``predictive-j2`` -- MPSP and G-MPSP with J2 on an inclined eccentric
  chief, plus a finite-horizon SDRE comparator planned on the J2-free
  model and replayed open-loop on the J2 plant.  Nearly all the time is
  the differential-J2 acceleration reached through ``f_jacobian``'s
  finite differences; Riccati runs once per scenario.
* ``uncertain-j2`` -- closed-loop LQR and NN-LQR on a truth plant with
  the wrong semi-major axis and eccentricity and J2 on.  The time is the
  J2 plant derivative inside RK4, with no Jacobian and no per-step
  Riccati, and it is the only workload that runs NN-LQR.
"""

from __future__ import annotations

import random

WORKLOADS = ("sdre-sweep", "predictive-j2", "uncertain-j2")

# Horizons are shortened from the packaged presets so that one pass of a
# workload takes one to two seconds and a run repeats it many times: on a
# noisy machine the median of many short passes is steadier than that of
# a few long ones.
SWEEP_R_VALUES = (1e8, 1e9, 1e10, 1e11)
SWEEP_TF = 100.0
PREDICTIVE_TF = 30.0
UNCERTAIN_TF = 200.0

# Reconfiguration offsets of the sweep-r (5 -> 25 km) and the J2 presets
# (0.5 -> 5 km), both advancing the phase from 45 to 60 deg.
SWEEP_GROWTH_KM = 20.0
J2_GROWTH_KM = 4.5
RECONFIG_PHASE_DEG = 15.0
# predictive-j2 fixes the chief's perigee radius (a = r_p / (1 - e)), so the
# J2 gradient near perigee, which scales as r^-5, does not swing with the
# seeded eccentricity.
J2_PERIGEE_KM = 8500.0

# A tolerance the LQR guess never meets (its baseline error is about 80%,
# and still 0.04% for MPSP and 8% for G-MPSP after one correction) while
# the second correction lands below 3e-4%: both solvers make exactly two
# corrections, so every seed does the same amount of work.
PREDICTIVE_TOL_PCT = 2e-3
MPSP_POS_BOUND_KM = 1e-2
GMPSP_POS_BOUND_KM = 2e-2

POSITION_ROWS = (0, 2, 4)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _num(value: float) -> str:
    return format(value, ".17g")


def _chief(section: str, a: float, e: float, i_deg: float, nu0_deg: float) -> str:
    return (
        f"[{section}]\na = {_num(a)}\ne = {_num(e)}\n"
        f"i = {_num(i_deg)} deg\nnu0 = {_num(nu0_deg)} deg\n"
    )


def _formation(section: str, rho: float, theta_deg: float, m_slope: float) -> str:
    return (
        f"[{section}]\nrho = {_num(rho)}\ntheta = {_num(theta_deg)} deg\n"
        f"m_slope = {_num(m_slope)}\n"
    )


def _reconfiguration(
    rng: random.Random, rho_lo: float, rho_hi: float, growth_km: float
) -> str:
    """Initial and desired formations: a seeded size and phase, then the
    presets' reconfiguration (baseline grown by growth_km, phase advanced
    by 15 deg, slope 1 -> 1.5).  Tying the desired formation to the
    initial one keeps the distance to travel, and so the terminal error a
    given controller leaves, comparable from seed to seed."""
    rho = rng.uniform(rho_lo, rho_hi)
    theta = rng.uniform(0.0, 90.0)
    return _formation("initial", rho, theta, 1.0) + _formation(
        "desired", rho + growth_km, theta + RECONFIG_PHASE_DEG, 1.5
    )


def _run(tf: float) -> str:
    return f"[run]\ntf = {_num(tf)}\ndt = 1\n"


def _sdre_sweep(rng: random.Random) -> list[tuple[str, str]]:
    geometry = (
        _chief("chief", 10000.0, 0.0, 0.0, 10.0)
        + _reconfiguration(rng, 3.0, 7.0, SWEEP_GROWTH_KM)
        + _run(SWEEP_TF)
    )
    return [
        (
            f"R{r:.0e}",
            geometry
            + f"[controller]\nkind = sdre\n[sdre]\nr_weight = {r:.0e}\nvariant = SDC1\n",
        )
        for r in SWEEP_R_VALUES
    ]


def _predictive_j2(rng: random.Random) -> list[tuple[str, str]]:
    e = rng.uniform(0.05, 0.15)
    base = (
        _chief("chief", J2_PERIGEE_KM / (1.0 - e), e, rng.uniform(45.0, 75.0), 10.0)
        + "[gravity]\nj2 = on\n"
        + _reconfiguration(rng, 0.5, 1.5, J2_GROWTH_KM)
        + _run(PREDICTIVE_TF)
    )
    solver = "[controller]\nkind = {0}\n[{0}]\ntol_pct = {1}\nmax_iter = 10\n"
    return [
        ("mpsp", base + solver.format("mpsp", _num(PREDICTIVE_TOL_PCT))),
        ("gmpsp", base + solver.format("gmpsp", _num(PREDICTIVE_TOL_PCT))),
        (
            "fsdre-open",
            base + "[controller]\nkind = sdre\nhorizon = finite\napply = open\n",
        ),
    ]


def _uncertain_j2(rng: random.Random) -> list[tuple[str, str]]:
    base = (
        _chief("chief", 10000.0, 0.0, 60.0, 10.0)
        + _chief(
            "truth",
            11114.51658 * rng.uniform(0.99, 1.01),
            rng.uniform(0.45, 0.55),
            60.0,
            10.0,
        )
        + "[gravity]\nj2 = on\n"
        + _reconfiguration(rng, 0.3, 0.7, J2_GROWTH_KM)
        + _run(UNCERTAIN_TF)
    )
    return [
        ("lqr", base + "[controller]\nkind = lqr\n[lqr]\nq_weight = 200\n"),
        (
            "nnlqr",
            base
            + "[controller]\nkind = nnlqr\n[nnlqr]\nq_weight = 200\nr1 = 0.09\n"
            "basis = global\n",
        ),
    ]


_GENERATORS = {
    "sdre-sweep": _sdre_sweep,
    "predictive-j2": _predictive_j2,
    "uncertain-j2": _uncertain_j2,
}


def generate(workload: str, seed: int) -> list[tuple[str, str]]:
    """Return the workload's (scenario name, config text) pairs for a seed."""
    return _GENERATORS[workload](_rng(workload, seed))
