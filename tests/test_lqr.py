import math

import numpy as np
import pytest

from formation_guidance.dynamics import (
    B,
    ChiefOrbit,
    FormationParams,
    formation_to_hill,
    formation_to_hill_deriv,
    hill_linear_matrices,
)
from formation_guidance.lqr import (
    design_lqr,
    lqr_feedforward,
    lqr_tracking_control,
)
from formation_guidance.numerics import NumericsError, solve_are
from formation_guidance.options import LqrOptions

OMEGA = ChiefOrbit(a=10000.0).mean_motion()
DEFAULTS = LqrOptions()


class TestDesignLqr:
    def test_default_weights_give_stable_loop(self):
        design = design_lqr(OMEGA, DEFAULTS.Q, DEFAULTS.R)
        closed = design.A - B @ design.K
        assert np.max(np.linalg.eigvals(closed).real) < 0.0

    def test_full_state_weight_is_accepted(self):
        # Q = I makes (A, Q^1/2) trivially observable, so the design exists.
        design = design_lqr(OMEGA, Q=np.eye(6), R=DEFAULTS.R)
        assert design.K.shape == (3, 6)

    def test_scalar_reduction_gain(self):
        P = solve_are(np.zeros((1, 1)), np.eye(1), np.eye(1), np.eye(1))
        K = P[0, 0]  # K = R^-1 B^T P = P for unit B, R
        assert K == pytest.approx(1.0, abs=1e-10)

    def test_unobservable_zero_weight_rejected(self):
        with pytest.raises(NumericsError):
            design_lqr(OMEGA, Q=np.zeros((6, 6)), R=DEFAULTS.R)


class TestTrackingControl:
    def test_consistent_trajectory_zero_control(self):
        """On a natural relative orbit with matching rates, U = 0."""
        design = design_lqr(OMEGA, DEFAULTS.Q, DEFAULTS.R)
        params = FormationParams(rho=5.0, theta=0.7, m_slope=1.0)
        for t in (0.0, 500.0, 2500.0):
            Xd = formation_to_hill(params, OMEGA, t)
            Xd_dot = formation_to_hill_deriv(params, OMEGA, t)
            u = lqr_tracking_control(design, Xd, Xd, Xd_dot)
            np.testing.assert_allclose(u, np.zeros(3), atol=1e-18)

    def test_unit_radial_error_pulls_first_gain_column(self):
        design = design_lqr(OMEGA, DEFAULTS.Q, DEFAULTS.R)
        params = FormationParams(rho=5.0, theta=0.7, m_slope=1.0)
        Xd = formation_to_hill(params, OMEGA, 0.0)
        Xd_dot = formation_to_hill_deriv(params, OMEGA, 0.0)
        e1 = np.zeros(6)
        e1[0] = 1.0
        u = lqr_tracking_control(design, Xd + e1, Xd, Xd_dot)
        np.testing.assert_allclose(u, -design.K[:, 0], atol=1e-18)

    def test_feedforward_cancels_offset_drift(self):
        """A radial offset ring is not a natural solution; the feedforward
        supplies exactly the missing forcing."""
        A, B = hill_linear_matrices(OMEGA)
        params = FormationParams(rho=2.0, theta=0.1, a_off=0.5, m_slope=1.0)
        t = 137.0
        Xd = formation_to_hill(params, OMEGA, t)
        Xd_dot = formation_to_hill_deriv(params, OMEGA, t)
        u_ff = lqr_feedforward(A, Xd, Xd_dot)
        np.testing.assert_allclose(A @ Xd + B @ u_ff, Xd_dot, atol=1e-15)

    def test_natural_ring_needs_no_feedforward(self):
        A, _ = hill_linear_matrices(OMEGA)
        params = FormationParams(rho=10.0, theta=1.0, m_slope=1.5)
        Xd = formation_to_hill(params, OMEGA, 42.0)
        Xd_dot = formation_to_hill_deriv(params, OMEGA, 42.0)
        np.testing.assert_allclose(lqr_feedforward(A, Xd, Xd_dot), np.zeros(3), atol=1e-18)
