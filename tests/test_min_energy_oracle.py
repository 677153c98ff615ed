"""MPSP and G-MPSP against the minimum-energy control of the linear model.

For a circular chief and a separation small against the chief's radius
the truth plant is nearly Hill-Clohessy-Wiltshire.  Its exact
zero-order-hold discretization ``(Phi, Gamma)`` is read off the blocks
of ``expm([[A, B], [0, 0]] dt)`` (Van Loan, IEEE TAC 1978), with ``A``
from ``hill_linear_matrices``.  Among all held control histories that
move x_0 to x_f in N steps, the one of least energy is

    U_k = Gamma^T (Phi^T)^(N-1-k) W^-1 (x_f - Phi^N x_0),
    W = sum_j Phi^j Gamma Gamma^T (Phi^T)^j,

W being the reachability Gramian.  Both solvers, run to a 1e-9 %
tolerance from a zero guess with a uniform control weight, minimize the
same energy on the nonlinear plant, so their histories approach this one
as the plant approaches the linear model.  scipy serves only as the
oracle's matrix exponential; the library does not use it here.

The bound on the relative distance ``|U - U_oracle| / |U_oracle|`` is
the sum of two first-order terms, derived rather than fitted:

* **Nonlinearity, both solvers.**  Expanding the differential gravity
  about the chief, the quadratic term is 3/2 (delta / r) times the
  linear one, delta being the separation.  The term is
  3/2 * delta_max / r, with delta_max the largest separation along the
  oracle's flight and r the chief's radius.
* **Euler sensitivities, MPSP only.**  MPSP's transition Jacobians are
  I + dt A, and (I + dt A)^m = exp(m dt A) exp(-m dt^2 A^2 / 2 + ...).
  A factor common to every step (such as Gamma = exp(A dt/2) B dt to
  leading order) is absorbed into the multiplier lambda; the part that
  grows with m is not.  With |A| ~ omega in orbit units and m dt <= T,
  the term is omega^2 T dt / 2.  G-MPSP's RK4 weights and trapezoid
  rule leave only (omega dt)^2 terms, which are dropped.

Each bound holds the measured distance with a margin of 2.7 to 4.6.

What the oracle resolves and what it does not.  The solvers meet the
terminal state on the true plant whatever their sensitivities are, so
terminal accuracy and the effort ratio to the oracle (1.0001 at 1 km,
1.0019 at 25 km) barely move when the model is wrong; the control
distance does.  That is why the test gates on distance.  With the
radial gravity-gradient entry of the analytic Jacobian made 10 % low,
the effort ratios moved in the sixth digit, while both solvers' controls
moved to 1.6e-3 from the oracle in the 1 km cases: over the bound at
dt 1 s for both solvers and at dt 5 s for G-MPSP, but inside MPSP's
wider Euler term at dt 5 s and inside the nonlinearity term at 25 km.
The oracle does *not* catch an off-by-one in MPSP's sensitivity
recursion: shifting every B_k by one step multiplies it by the common
factor I + dt A, which lambda absorbs just as it absorbs Gamma's half
step, so every distance stayed as it was.
"""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from formation_guidance.dynamics import (
    POSITION_ROWS,
    ChiefOrbit,
    FormationParams,
    GravityModel,
    RelativePlant,
    formation_to_hill,
    hill_linear_matrices,
)
from formation_guidance.gmpsp import gmpsp_solve
from formation_guidance.mpsp import mpsp_solve
from formation_guidance.options import GmpspOptions, MpspOptions

CHIEF = ChiefOrbit(a=10000.0)
OMEGA = CHIEF.mean_motion()
TF = 2000.0


def min_energy_controls(x0, xf, n, dt):
    """The oracle: the least-energy held controls of the linear model
    that move x0 to xf in n steps of dt."""
    A, B = hill_linear_matrices(OMEGA)
    M = np.zeros((9, 9))
    M[:6, :6], M[:6, 6:] = A, B
    E = expm(M * dt)
    Phi, Gamma = E[:6, :6], E[:6, 6:]
    G = np.empty((n, 6, 3))  # G_k = Phi^(n-1-k) Gamma
    P = np.eye(6)
    for k in range(n - 1, -1, -1):
        G[k] = P @ Gamma
        P = Phi @ P
    W = np.einsum("kij,klj->il", G, G)
    return np.einsum("kij,i->kj", G, np.linalg.solve(W, xf - P @ x0))


@pytest.mark.parametrize("rho0, rhof, dt", [(0.5, 1.0, 1.0), (0.5, 1.0, 5.0), (5.0, 25.0, 1.0)],
                         ids=["1km-dt1", "1km-dt5", "25km-dt1"])
@pytest.mark.parametrize("solve, options", [
    (mpsp_solve, MpspOptions(tol_pct=1e-9, max_iter=20)),
    (gmpsp_solve, GmpspOptions(tol_pct=1e-9, max_iter=20)),
], ids=["mpsp", "gmpsp"])
def test_converged_controls_approach_the_minimum_energy_controls(solve, options, rho0, rhof, dt):
    n = int(TF / dt)
    x0 = formation_to_hill(FormationParams(rho=rho0, theta=math.radians(30.0), m_slope=1.0),
                           OMEGA, 0.0)
    xf = formation_to_hill(FormationParams(rho=rhof, theta=math.radians(45.0), m_slope=1.5),
                           OMEGA, TF)
    plant = RelativePlant(CHIEF, GravityModel(j2_enabled=False))
    U_oracle = min_energy_controls(x0, xf, n, dt)
    oracle_states, _ = plant.propagate(x0, U_oracle, dt)
    delta_max = np.linalg.norm(oracle_states[:, POSITION_ROWS], axis=1).max()

    guess = np.zeros((n, 3))
    U, log, _ = solve(plant, x0, xf, guess, dt, options, plant.propagate(x0, guess, dt))

    assert log[-1]["converged"]
    bound = 1.5 * delta_max / CHIEF.a
    if options.kind == "mpsp":
        bound += OMEGA**2 * TF * dt / 2.0
    distance = np.linalg.norm(U - U_oracle) / np.linalg.norm(U_oracle)
    assert distance < bound
