import dataclasses
import math

import numpy as np
import pytest

from formation_guidance import nnlqr
from formation_guidance.dynamics import (
    ChiefOrbit,
    DynamicsError,
    FormationParams,
    GravityModel,
    RelativePlant,
    formation_to_hill,
    formation_to_hill_deriv,
    hill_linear_matrices,
)
from formation_guidance.harness import (
    NOT_SETTLED,
    SETTLE_THRESHOLD_PCT,
    CompareCell,
    HarnessError,
    RunResult,
    Scenario,
    compare,
    control_effort,
    desired_trajectory,
    format_compare_table,
    metrics_row,
    run_scenario,
    settle_time,
    write_compare_csv,
    write_iteration_log_csv,
    write_metrics_csv,
    write_trajectory_csv,
)
from formation_guidance.mpsp import rho_error_pct
from formation_guidance.options import (
    CONTROLLER_OPTIONS,
    FsdreOptions,
    GmpspOptions,
    LqrOptions,
    MpspOptions,
    NnlqrOptions,
    SdreOptions,
    ZeroOptions,
)
from test_nnlqr import _controller as _nnlqr_controller, nn1_update

CIRC = ChiefOrbit(a=10000.0)
OMEGA = CIRC.mean_motion()
RING = FormationParams(rho=5.0, theta=math.radians(30.0), m_slope=1.0)


def _natural_scenario(controller="zero", tf=600.0, dt=1.0, **options):
    return Scenario(
        chief=CIRC,
        gravity=GravityModel(),
        initial=RING,
        desired=RING,
        tf=tf,
        dt=dt,
        controller=CONTROLLER_OPTIONS[controller](**options),
    )


class TestScenarioValidation:
    def test_non_integral_grid_rejected(self):
        with pytest.raises(HarnessError):
            _natural_scenario(tf=100.5, dt=1.0)

    def test_nonpositive_times_rejected(self):
        with pytest.raises(HarnessError):
            _natural_scenario(tf=-1.0)

    def test_zero_steps_rejected(self):
        with pytest.raises(HarnessError, match="at least one dt step"):
            _natural_scenario(tf=1e-12)

    @pytest.mark.parametrize("controller", ["pid", "lqr", {"kind": "lqr"}, LqrOptions])
    def test_unknown_controller_rejected(self, controller):
        scn = _natural_scenario()
        with pytest.raises(HarnessError, match="not a controller options object"):
            dataclasses.replace(scn, controller=controller)

    def test_unknown_option_rejected(self):
        assert MpspOptions(tol_rho_pct=1e-6).tol_rho_pct == 1e-6
        with pytest.raises(TypeError, match="tol_pct"):
            MpspOptions(tol_pct=1e-6)

    def test_each_options_class_names_its_kind(self):
        assert CONTROLLER_OPTIONS == {
            "zero": ZeroOptions, "lqr": LqrOptions, "sdre": SdreOptions, "fsdre": FsdreOptions,
            "mpsp": MpspOptions, "gmpsp": GmpspOptions, "nnlqr": NnlqrOptions,
        }
        for kind, options_class in CONTROLLER_OPTIONS.items():
            assert options_class.kind == kind
            assert _natural_scenario(kind).controller.kind == kind


NAN, INF = math.nan, math.inf


_GUARD_IDS = [
    "FormationParams.rho", "FormationParams.theta", "ChiefOrbit.i", "ChiefOrbit.nu0",
    "Scenario.tf", "Scenario.dt", "settle_time", "hill_linear_matrices", "RbfNetwork.width",
    "NnLqrController.beta", "NnLqrController.gamma", "NnLqrController.K_tau",
    "NnLqrController.R1", "nn1_update", "DisturbanceBasis.r_c",
]


@pytest.mark.parametrize("build, error, match", [
    (lambda: FormationParams(rho=NAN), DynamicsError, "rho must be finite"),
    (lambda: FormationParams(rho=1.0, theta=INF), DynamicsError, "theta must be finite"),
    (lambda: ChiefOrbit(a=10000.0, i=NAN), DynamicsError, "i must be finite"),
    (lambda: ChiefOrbit(a=10000.0, nu0=INF), DynamicsError, "nu0 must be finite"),
    (lambda: _natural_scenario(tf=NAN), HarnessError, "must be positive"),
    (lambda: _natural_scenario(dt=NAN), HarnessError, "must be positive"),
    (lambda: settle_time(np.arange(3.0), np.ones((3, 6)), np.zeros((3, 6)), 1.0, NAN),
     HarnessError, "must be positive"),
    (lambda: hill_linear_matrices(NAN), DynamicsError, "must be positive"),
    (lambda: nnlqr.RbfNetwork(centers=np.zeros((1, 6)), width=NAN, vel_scale=1.0,
                              W_c=np.zeros((1, 6))), ValueError, "width > 0"),
    (lambda: _nnlqr_controller(beta=NAN), ValueError, "adaptation gains must be positive"),
    (lambda: _nnlqr_controller(gamma=NAN), ValueError, "adaptation gains must be positive"),
    (lambda: _nnlqr_controller(K_tau=NAN * np.eye(6)), ValueError,
     "K_tau diagonal entries must be positive"),
    (lambda: _nnlqr_controller(R1=NAN), ValueError, "R1 must be positive"),
    (lambda: nn1_update(nnlqr.make_rbf_network("grid", 5.0, OMEGA), np.zeros(6), np.zeros(27),
                        NAN), ValueError, "R1 must be positive"),
    (lambda: nnlqr.DisturbanceBasis(NAN), ValueError, "r_c must be positive"),
], ids=_GUARD_IDS)
def test_non_finite_value_rejected_by_its_guard(build, error, match):
    with pytest.raises(error, match=match):
        build()


def test_unknown_nnlqr_basis_rejected_by_run_scenario():
    # Only "grid" and "global" name a costate network; a misspelling
    # must not fly either of them.
    with pytest.raises(ValueError, match="'grid' or 'global'"):
        run_scenario(_natural_scenario("nnlqr", tf=10.0, basis="grd"))


class TestRunScenario:
    def test_zero_control_on_natural_orbit(self):
        # A periodic ring with desired = initial needs no control: the
        # nonlinear truth plant stays within its own model error.
        result = run_scenario(_natural_scenario())
        assert result.control_effort == 0.0
        assert np.linalg.norm(result.terminal_errors[[0, 2, 4]]) < 5e-3
        assert result.settle_time == 0.0

    def test_determinism_bit_identical(self):
        a = run_scenario(_natural_scenario("lqr", tf=300.0))
        b = run_scenario(_natural_scenario("lqr", tf=300.0))
        np.testing.assert_array_equal(a.states, b.states)
        np.testing.assert_array_equal(a.controls, b.controls)
        assert metrics_row(a) == metrics_row(b)

    def test_rho_error_pct_recomputed_from_terminal_state(self):
        result = run_scenario(_natural_scenario("lqr", tf=300.0))
        rho_f = np.linalg.norm(result.states[-1][[0, 2, 4]])
        times = result.time
        scn = _natural_scenario("lqr", tf=300.0)
        desired, _ = desired_trajectory(scn, times)
        rho_d = np.linalg.norm(desired[-1][[0, 2, 4]])
        assert abs(result.rho_error_pct - abs(rho_f - rho_d) / rho_d * 100.0) < 1e-12

    def test_grids_aligned(self):
        result = run_scenario(_natural_scenario(tf=120.0, dt=2.0))
        assert len(result.time) == len(result.states) == len(result.controls) == 61
        np.testing.assert_allclose(np.diff(result.time), 2.0)

    def test_sdre_run_makes_one_cold_riccati_solve(self, care_calls):
        run_scenario(_natural_scenario("sdre", tf=100.0))
        assert len(care_calls) == 1

    def test_sdre_run_builds_riccati_weights_once(self, monkeypatch):
        """chol(R), B R^-1 B^T and the weight norms are computed once per
        run and handed to every step's solve."""
        from formation_guidance import harness, numerics

        calls = []
        build = numerics.riccati_weights

        def counted(*args):
            calls.append(1)
            return build(*args)

        monkeypatch.setattr(numerics, "riccati_weights", counted)
        monkeypatch.setattr(harness, "riccati_weights", counted)
        run_scenario(_natural_scenario("sdre", tf=100.0))
        assert len(calls) == 1

    @pytest.mark.parametrize("R", [-np.eye(3), np.zeros((3, 3))])
    def test_sdre_unfactorable_weight_fails_at_first_step(self, R):
        with pytest.raises(HarnessError, match=r"(?s)step 0 .*Riccati solve failed: Matrix is not"):
            run_scenario(_natural_scenario("sdre", tf=10.0, R=R))

    def test_sdre_warm_start_does_not_leak_between_runs(self, care_calls):
        """Each run starts cold: R = 1e8 after R = 1e11, or after itself,
        is bit-identical to R = 1e8 alone."""
        def sdre(r):
            return _natural_scenario("sdre", tf=100.0, R=r * np.eye(3))

        alone = run_scenario(sdre(1e8))
        run_scenario(sdre(1e11))
        for after in (run_scenario(sdre(1e8)), run_scenario(sdre(1e8))):
            np.testing.assert_array_equal(after.states, alone.states)
            np.testing.assert_array_equal(after.controls, alone.controls)
            assert metrics_row(after) == metrics_row(alone)
        # A P carried over from the previous run of the same weight would
        # warm-start the last run's first step and save its cold solve.
        assert len(care_calls) == 4


@pytest.mark.parametrize("kind", ["mpsp", "gmpsp"])
class TestGuessFlightIsFirstPrediction:
    """A solver run flies the closed-loop LQR guess once, as iteration
    0's prediction, and then once per correction."""

    @staticmethod
    def _scenario(kind, tol_rho_pct):
        """0.5 km -> 5 km reshaping, eccentric inclined chief, J2 on."""
        return Scenario(
            chief=ChiefOrbit(a=10000.0, e=0.15, i=math.radians(60.0), nu0=math.radians(10.0)),
            gravity=GravityModel(j2_enabled=True),
            initial=FormationParams(rho=0.5, theta=math.radians(45.0), m_slope=1.0),
            desired=FormationParams(rho=5.0, theta=math.radians(60.0), m_slope=1.5),
            tf=200.0,
            dt=1.0,
            controller=CONTROLLER_OPTIONS[kind](tol_rho_pct=tol_rho_pct, max_iter=2),
        )

    @pytest.mark.parametrize("tol_rho_pct, corrections", [(1e-9, 2), (1e3, 0)])
    def test_run_flies_once_plus_once_per_correction(self, monkeypatch, kind, tol_rho_pct,
                                                     corrections):
        flights = []
        simulate = RelativePlant.simulate

        def counted(plant, *args):
            flights.append(plant.gravity.j2_enabled)
            return simulate(plant, *args)

        monkeypatch.setattr(RelativePlant, "simulate", counted)
        result = run_scenario(self._scenario(kind, tol_rho_pct))
        assert len(result.log) - 1 == corrections
        assert flights == [True] * (1 + corrections)

    @pytest.mark.parametrize("tol_rho_pct", [1e-9, 1e3])
    def test_first_log_row_and_final_states_match_fresh_flights_bit_for_bit(self, kind,
                                                                           tol_rho_pct):
        """Iteration 0's row is that of a fresh flight of the LQR guess,
        and the final states are a fresh flight of the final controls
        (the guess itself when iteration 0 converges)."""
        scn = self._scenario(kind, tol_rho_pct)
        result = run_scenario(scn)
        guess = run_scenario(dataclasses.replace(scn, controller=LqrOptions()))
        plant = RelativePlant(scn.chief, scn.gravity)
        omega = scn.chief.mean_motion()
        x0 = formation_to_hill(scn.initial, omega, 0.0)
        Y_star = formation_to_hill(scn.desired, omega, scn.tf)
        states, _ = plant.propagate(x0, guess.controls[:-1], scn.dt)
        row = result.log[0]
        assert row["terminal_errors"].tobytes() == (states[-1] - Y_star).tobytes()
        assert np.float64(row["rho_error_pct"]).tobytes() == np.float64(
            rho_error_pct(states[-1], Y_star)).tobytes()
        final, _ = plant.propagate(x0, result.controls[:-1], scn.dt)
        assert result.states.tobytes() == final.tobytes()
        if len(result.log) == 1:
            assert result.states.tobytes() == states.tobytes()


class TestControlEffort:
    def test_zero_history(self):
        assert control_effort(np.zeros((50, 3)), 1.0) == 0.0

    def test_constant_magnitude(self):
        # ||U||^2 = c held over T seconds integrates to c T.
        U = np.tile([3.0, 0.0, 4.0], (101, 1))  # ||U||^2 = 25
        assert control_effort(U, 0.5) == pytest.approx(25.0 * 50.0, rel=1e-14)

    def test_split_additivity(self):
        rng = np.random.default_rng(2)
        U = rng.normal(size=(201, 3))
        whole = control_effort(U, 0.25)
        for cut in (1, 57, 100, 199):
            parts = control_effort(U[: cut + 1], 0.25) + control_effort(U[cut:], 0.25)
            assert abs(parts - whole) <= 1e-10 * whole


class TestSettleTime:
    def test_already_settled(self):
        times = np.arange(11.0)
        desired = np.zeros((11, 6))
        states = np.full((11, 6), 1e-6)
        assert settle_time(times, states, desired, rho_command=5.0,
                           threshold_pct=SETTLE_THRESHOLD_PCT) == 0.0

    def test_never_settles(self):
        times = np.arange(11.0)
        desired = np.zeros((11, 6))
        states = np.ones((11, 6))
        assert settle_time(times, states, desired, rho_command=5.0,
                           threshold_pct=SETTLE_THRESHOLD_PCT) is NOT_SETTLED

    def test_exponential_decay_crossing(self):
        # Radial error e^{-t/tau}: the band entry time is tau ln(1/thr)
        # with thr the band as a fraction of the initial error.
        tau, rho, thr_pct = 200.0, 1.0, 1.0
        dt = 0.5
        times = np.arange(0.0, 2000.0 + dt, dt)
        desired = np.zeros((len(times), 6))
        states = np.zeros((len(times), 6))
        states[:, 0] = np.exp(-times / tau)
        t_star = tau * math.log(1.0 / (thr_pct / 100.0 * rho))
        measured = settle_time(times, states, desired, rho, thr_pct)
        assert abs(measured - t_star) <= dt

    def test_nonpositive_threshold_rejected(self):
        with pytest.raises(HarnessError):
            settle_time(np.arange(3.0), np.zeros((3, 6)), np.zeros((3, 6)), 1.0, 0.0)

    def test_rendezvous_band_is_reference_length(self):
        # rho_command = 0: the 1 % band is 1 % of 1 km, i.e. 10 m.
        times = np.arange(4.0)
        states = np.zeros((4, 6))
        states[:, 0] = [0.05, 0.02, 0.009, 0.005]
        desired = np.zeros((4, 6))
        assert settle_time(times, states, desired, rho_command=0.0,
                           threshold_pct=SETTLE_THRESHOLD_PCT) == 2.0


class TestCompare:
    def test_single_cell(self):
        cells = compare(
            [("nat", _natural_scenario(tf=120.0))],
            [ZeroOptions()],
        )
        assert len(cells) == 1
        assert cells[0].scenario_name == "nat" and cells[0].controller_name == "zero"
        assert cells[0].result is not None and cells[0].error is None

    def test_failed_cell_recorded_run_continues(self):
        # An SDC factorization failure in one cell must not abort the grid.
        far = Scenario(
            chief=CIRC,
            gravity=GravityModel(),
            initial=FormationParams(rho=9500.0),
            desired=FormationParams(rho=9500.0),
            tf=10.0,
            dt=1.0,
            controller=ZeroOptions(),
        )
        cells = compare([("far", far)], [SdreOptions(), ZeroOptions()])
        assert cells[0].result is None and cells[0].error
        assert cells[1].result is not None

    def test_empty_matrix_rejected(self):
        with pytest.raises(HarnessError):
            compare([], [ZeroOptions()])

    def test_repeat_invocation_identical_bytes(self, tmp_path):
        scenarios = [("nat", _natural_scenario(tf=120.0))]
        controllers = [ZeroOptions(), LqrOptions()]
        paths = []
        for name in ("a.csv", "b.csv"):
            cells = compare(scenarios, controllers)
            path = tmp_path / name
            write_compare_csv(path, cells)
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]

    def test_table_layout(self):
        cells = compare(
            [("nat", _natural_scenario(tf=120.0))],
            [ZeroOptions(), LqrOptions()],
        )
        table = format_compare_table(cells)
        lines = table.splitlines()
        assert len(lines) == 3  # header + one row per controller
        assert lines[0].split()[:2] == ["scenario", "controller"]


class TestDesiredTrajectory:
    @pytest.mark.parametrize("dt", [1.0, 0.1, 7.3])
    def test_tables_equal_the_scalar_calls_bit_for_bit(self, dt):
        desired = FormationParams(
            rho=5.0, theta=0.7, a_off=0.3, b_off=-1.2, m_slope=1.5, n_slope=0.4
        )
        scn = Scenario(
            chief=CIRC, gravity=GravityModel(), initial=RING, desired=desired,
            tf=2000 * dt, dt=dt, controller=ZeroOptions(),
        )
        times = np.arange(scn.n_steps + 1) * dt
        Xd, Xd_dot = desired_trajectory(scn, times)
        assert Xd.shape == Xd_dot.shape == (len(times), 6)
        np.testing.assert_array_equal(
            Xd, [formation_to_hill(desired, OMEGA, t) for t in times]
        )
        np.testing.assert_array_equal(
            Xd_dot, [formation_to_hill_deriv(desired, OMEGA, t) for t in times]
        )


class TestCsvWriters:
    def test_trajectory_schema_and_precision(self, tmp_path):
        result = run_scenario(_natural_scenario(tf=10.0))
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, result)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,x,xdot,y,ydot,z,zdot,ux,uy,uz"
        assert len(lines) == 12
        # 17-significant-digit round trip.
        parsed = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        np.testing.assert_array_equal(parsed[:, 1:7], result.states)

    def test_metrics_rows(self, tmp_path):
        result = run_scenario(_natural_scenario(tf=10.0))
        path = tmp_path / "metrics.csv"
        write_metrics_csv(path, [("nat", result)])
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].split(",")[0] == "nat"
        values = [float(v) for v in lines[1].split(",")[1:]]
        assert values == [float(v) for v in metrics_row(result)]

    def test_rows_match_per_value_format(self, tmp_path):
        # Special values (inf, nan, -0.0, subnormals) and seeded values of
        # every scale are written exactly as format(v, ".17g") writes them.
        rng = np.random.default_rng(17)
        n = 64
        values = rng.normal(size=(n, 10)) * 10.0 ** rng.integers(-300, 300, size=(n, 10))
        special = [math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, -2.5e-310,
                   np.finfo(float).tiny, np.finfo(float).max, 0.1]
        values[0] = special
        values[1] = special[::-1]
        result = RunResult(
            time=values[:, 0], states=values[:, 1:7], controls=values[:, 7:],
            terminal_errors=values[0, :6], rho_error_pct=math.nan,
            control_effort=-0.0, settle_time=NOT_SETTLED,
            log=[{"iteration": 3, "terminal_errors": values[1, :6],
                  "rho_error_pct": -0.0, "converged": np.True_}],
        )

        def per_value(row):
            return ",".join(format(float(v), ".17g") for v in row)

        write_trajectory_csv(tmp_path / "traj.csv", result)
        lines = (tmp_path / "traj.csv").read_text().splitlines()
        assert lines[1:] == [per_value(row) for row in values]
        write_metrics_csv(tmp_path / "metrics.csv", [("m", result)])
        lines = (tmp_path / "metrics.csv").read_text().splitlines()
        assert lines[1] == "m," + per_value(metrics_row(result))
        write_compare_csv(tmp_path / "cmp.csv", [CompareCell("s", "c", result)])
        lines = (tmp_path / "cmp.csv").read_text().splitlines()
        assert lines[1] == "s,c,ok," + per_value(metrics_row(result))
        write_iteration_log_csv(tmp_path / "iters.csv", result)
        lines = (tmp_path / "iters.csv").read_text().splitlines()
        assert lines[1] == "3," + per_value([*values[1, :6], -0.0]) + ",1"

    def test_iteration_log(self, tmp_path):
        scn = Scenario(
            chief=ChiefOrbit(a=10000.0, e=0.15, nu0=math.radians(10.0)),
            gravity=GravityModel(),
            initial=FormationParams(rho=0.5, theta=math.radians(45.0), m_slope=1.0),
            desired=FormationParams(rho=5.0, theta=math.radians(60.0), m_slope=1.5),
            tf=2000.0,
            dt=1.0,
            controller=MpspOptions(),
        )
        result = run_scenario(scn)
        path = tmp_path / "iters.csv"
        write_iteration_log_csv(path, result)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("iteration,")
        assert len(lines) == len(result.log) + 1
        assert lines[-1].split(",")[-1] == "1"  # converged flag
