import csv
import dataclasses
import io
import math
import re

import numpy as np
import pytest

from formation_guidance import dynamics, nnlqr
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
    METRIC_COLUMNS,
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
from formation_guidance.numerics import NumericsError
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
from formation_guidance.sdre import SdreError
from test_nnlqr import nn1_update

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
        assert MpspOptions(tol_pct=1e-6).tol_pct == 1e-6
        with pytest.raises(TypeError, match="tol_rho_pct"):
            MpspOptions(tol_rho_pct=1e-6)

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
    "NnlqrOptions.beta", "NnlqrOptions.gamma", "NnlqrOptions.k_tau",
    "NnlqrOptions.r1", "nn1_update", "DisturbanceBasis.r_c",
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
    (lambda: NnlqrOptions(beta=NAN), ValueError, "beta must be finite"),
    (lambda: NnlqrOptions(gamma=NAN), ValueError, "gamma must be finite"),
    (lambda: NnlqrOptions(k_tau=NAN), ValueError, "k_tau must be finite"),
    (lambda: NnlqrOptions(r1=NAN), ValueError, "r1 must be finite"),
    (lambda: nn1_update(nnlqr.make_rbf_network("grid", 5.0, OMEGA), np.zeros(6), np.zeros(27),
                        NAN), ValueError, "R1 must be positive"),
    (lambda: nnlqr.DisturbanceBasis(NAN), ValueError, "r_c must be positive"),
], ids=_GUARD_IDS)
def test_non_finite_value_rejected_by_its_guard(build, error, match):
    with pytest.raises(error, match=match):
        build()


def test_unknown_nnlqr_basis_rejected():
    # Only "grid" and "global" name a costate network; a misspelling
    # must not fly either of them, and the network factory refuses it
    # as well.
    with pytest.raises(ValueError, match="basis must be one of grid, global, got 'grd'"):
        _natural_scenario("nnlqr", tf=10.0, basis="grd")
    with pytest.raises(ValueError, match="'grid' or 'global'"):
        nnlqr.make_rbf_network("grd", 5.0, OMEGA)


class TestRunScenario:
    def test_diverging_nnlqr_run_fails_on_the_virtual_plant_not_a_warning(self):
        """A legal NN-LQR run whose costate network overflows: numpy's
        floating-point warnings stay silent during the flight, so the
        run fails one step later, on the virtual plant's non-finite
        state, with its step and time."""
        dt = 58.5650039883892
        scn = Scenario(
            chief=ChiefOrbit(a=88173.14962900618, e=0.2711906687070405, i=0.399759874535762,
                             nu0=2.6533460682987173),
            gravity=GravityModel(j2_enabled=False),
            initial=FormationParams(rho=37.562718803855475, theta=4.794337648785248,
                                    m_slope=-1.8508463791397323),
            desired=FormationParams(rho=157.729284240549, theta=5.935696779883368,
                                    m_slope=-0.3300160840219384),
            tf=35 * dt, dt=dt,
            controller=NnlqrOptions(r_weight=91411546107.29128, basis="global"),
        )
        with pytest.raises(HarnessError, match=r"step 12 \(t=702\.78") as exc:
            run_scenario(scn)
        assert isinstance(exc.value.__cause__, NumericsError)
        assert "virtual plant" in str(exc.value)

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

    @pytest.mark.parametrize("r_weight", [-1.0, 0.0])
    def test_sdre_unfactorable_weight_rejected_at_construction(self, r_weight):
        with pytest.raises(ValueError, match=f"r_weight must be > 0, got {r_weight!r}"):
            _natural_scenario("sdre", tf=10.0, r_weight=r_weight)

    def test_sdre_overflowing_weight_fails_at_first_step_without_a_warning(self):
        """A legal but subnormal control weight overflows the run's
        Riccati weights while the law is built: no numpy warning escapes,
        and the first step's solve reports the failure with its state."""
        with pytest.raises(HarnessError, match=r"step 0 .*pointwise Riccati failed") as exc:
            run_scenario(_natural_scenario("sdre", tf=10.0, r_weight=1e-320))
        assert not isinstance(exc.value.__cause__, RuntimeWarning)

    @pytest.mark.parametrize("options, cause", [
        (LqrOptions(r_weight=1e-320), NumericsError),
        (LqrOptions(r_weight=1e-320, open_loop=True), NumericsError),
        (NnlqrOptions(r_weight=1e-320), NumericsError),
        (SdreOptions(r_weight=1e-320), SdreError),
        (FsdreOptions(r_weight=1e-320), NumericsError),
    ], ids=["lqr", "lqr-open-loop", "nnlqr", "sdre", "fsdre"])
    def test_subnormal_weight_fails_at_step_0_of_every_kind(self, options, cause):
        """A legal control weight that no law can be built or flown with
        fails as the controller's step 0, whether the law fails while it
        is built (LQR's and NN-LQR's Riccati design) or at its first
        step, with the library's error as the cause."""
        scn = dataclasses.replace(_natural_scenario(tf=20.0), controller=options)
        with pytest.raises(HarnessError, match=r"^controller failed at step 0 \(t=0\.0\): ") as exc:
            run_scenario(scn)
        assert type(exc.value.__cause__) is cause

    @pytest.mark.parametrize("options", [MpspOptions(r_weight=1e-320),
                                         GmpspOptions(r_weight=1e-320)], ids=["mpsp", "gmpsp"])
    def test_subnormal_weight_fails_in_the_first_correction(self, options):
        """A legal control weight that the static program cannot be
        solved with: the LQR guess flies, the first correction's controls
        are not finite, and the prediction that follows fails.  The
        HarnessError names the kind and the correction, with the plant's
        NumericsError as the cause."""
        scn = dataclasses.replace(_natural_scenario(tf=20.0), controller=options,
                                  desired=dataclasses.replace(RING, rho=2.5))
        expected = rf"^{options.kind} failed in correction 1: non-finite state after RK4 step"
        with pytest.raises(HarnessError, match=expected) as exc:
            run_scenario(scn)
        assert type(exc.value.__cause__) is NumericsError

    @pytest.mark.parametrize("options", [
        ZeroOptions(), LqrOptions(), LqrOptions(open_loop=True), SdreOptions(), FsdreOptions(),
        FsdreOptions(open_loop=True), MpspOptions(), GmpspOptions(), NnlqrOptions(),
    ], ids=["zero", "lqr", "lqr-open-loop", "sdre", "fsdre", "fsdre-open-loop", "mpsp", "gmpsp",
            "nnlqr"])
    @pytest.mark.parametrize("error", [None, DynamicsError("deputy at the geocenter: gamma = 0")],
                             ids=["non-finite", "geocenter"])
    def test_plant_failure_names_the_kind_and_time(self, monkeypatch, options, error):
        """A run whose first flight fails at its fourth plant step, with
        NaNs or a deputy at the geocenter, raises HarnessError naming the
        scenario's controller kind, the step and t, with the plant's
        NumericsError or DynamicsError as the cause.  That first flight
        is the closed-loop law, the open-loop plan or the MPSP/G-MPSP
        LQR guess, which still names the predictive kind."""
        plant_step, steps = dynamics._plant_step, []

        def fails_at_step_3(*args):
            steps.append(args)
            if len(steps) <= 3:
                return plant_step(*args)
            if error is not None:
                raise error
            return (math.nan,) * 6

        monkeypatch.setattr(dynamics, "_plant_step", fails_at_step_3)
        scn = dataclasses.replace(_natural_scenario(tf=20.0), controller=options)
        expected = rf"^plant failed under {options.kind} at step 3 \(t=3\.0\): "
        with pytest.raises(HarnessError, match=expected) as exc:
            run_scenario(scn)
        assert type(exc.value.__cause__) is (NumericsError if error is None else DynamicsError)

    @pytest.mark.parametrize("error", [None, DynamicsError("deputy at the geocenter: gamma = 0")],
                             ids=["non-finite", "geocenter"])
    def test_open_loop_replay_failure_names_the_kind_and_time(self, monkeypatch, error):
        """An open-loop LQR run plans over 20 steps and replays the plan
        on the truth plant; a replay whose plant fails at its fourth step
        raises HarnessError naming the kind, the replay's step and t,
        with the plant's error as the cause."""
        plant_step, steps = dynamics._plant_step, []

        def fails_at_replay_step_3(*args):
            steps.append(args)
            if len(steps) <= 20 + 3:
                return plant_step(*args)
            if error is not None:
                raise error
            return (math.nan,) * 6

        monkeypatch.setattr(dynamics, "_plant_step", fails_at_replay_step_3)
        expected = r"^plant failed under lqr at step 3 \(t=3\.0\): "
        with pytest.raises(HarnessError, match=expected) as exc:
            run_scenario(_natural_scenario("lqr", tf=20.0, open_loop=True))
        assert type(exc.value.__cause__) is (NumericsError if error is None else DynamicsError)

    def test_sdre_warm_start_does_not_leak_between_runs(self, care_calls):
        """Each run starts cold: R = 1e8 after R = 1e11, or after itself,
        is bit-identical to R = 1e8 alone."""
        def sdre(r):
            return _natural_scenario("sdre", tf=100.0, r_weight=r)

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
    def _scenario(kind, tol_pct):
        """0.5 km -> 5 km reshaping, eccentric inclined chief, J2 on."""
        return Scenario(
            chief=ChiefOrbit(a=10000.0, e=0.15, i=math.radians(60.0), nu0=math.radians(10.0)),
            gravity=GravityModel(j2_enabled=True),
            initial=FormationParams(rho=0.5, theta=math.radians(45.0), m_slope=1.0),
            desired=FormationParams(rho=5.0, theta=math.radians(60.0), m_slope=1.5),
            tf=200.0,
            dt=1.0,
            controller=CONTROLLER_OPTIONS[kind](tol_pct=tol_pct, max_iter=2),
        )

    @pytest.mark.parametrize("tol_pct, corrections", [(1e-9, 2), (1e3, 0)])
    def test_run_flies_once_plus_once_per_correction(self, monkeypatch, kind, tol_pct,
                                                     corrections):
        flights = []
        simulate = RelativePlant.simulate

        def counted(plant, *args):
            flights.append(plant.gravity.j2_enabled)
            return simulate(plant, *args)

        monkeypatch.setattr(RelativePlant, "simulate", counted)
        result = run_scenario(self._scenario(kind, tol_pct))
        assert len(result.log) - 1 == corrections
        assert flights == [True] * (1 + corrections)

    @pytest.mark.parametrize("tol_pct", [1e-9, 1e3])
    def test_first_log_row_and_final_states_match_fresh_flights_bit_for_bit(self, kind,
                                                                           tol_pct):
        """Iteration 0's row is that of a fresh flight of the LQR guess,
        and the final states are a fresh flight of the final controls
        (the guess itself when iteration 0 converges)."""
        scn = self._scenario(kind, tol_pct)
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

    def test_failed_cell_message_widens_no_column(self):
        """A failed cell's message ends its row: the columns ex ... effort
        start where the cells that succeeded put them."""
        scenarios = [("nat", _natural_scenario(tf=120.0))]
        ok = format_compare_table(compare(scenarios, [ZeroOptions(), LqrOptions()]))
        cells = compare(scenarios, [ZeroOptions(), LqrOptions(r_weight=1e-320), LqrOptions()])
        assert cells[1].result is None and len(cells[1].error) > 40
        header, zero, failed, lqr = format_compare_table(cells).splitlines()
        assert [header, zero, lqr] == ok.splitlines()
        assert failed.split(None, 2) == ["nat", "lqr", f"error: {cells[1].error}"]
        assert failed.index("error: ") == header.index("ex")

    def test_line_breaks_in_names_and_messages_are_escaped(self):
        """A name or message holding CR or LF keeps its cell on one line of
        the table, and the columns stay where the other rows put them."""
        result = run_scenario(_natural_scenario(tf=10.0))
        cells = [CompareCell("nat", "zero", result),
                 CompareCell("a\nb", "c\rd", result),
                 CompareCell("a\nb", "lqr", None, error="boom\nbang")]
        lines = format_compare_table(cells).splitlines()
        assert len(lines) == len(cells) + 1
        header, plain, escaped, failed = lines
        assert escaped.split()[:2] == ["a\\nb", "c\\rd"]
        assert failed.split(None, 2) == ["a\\nb", "lqr", "error: boom\\nbang"]
        starts = [[m.start() for m in re.finditer(r"\S+", line)] for line in (header, plain, escaped)]
        assert starts[0] == starts[1] == starts[2]
        assert failed.index("error: ") == header.index("ex")


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


def _csv_writer_line(row):
    """row as csv.writer writes it by default, ended by LF for CRLF."""
    buffer = io.StringIO(newline="")
    csv.writer(buffer).writerow(row)
    return buffer.getvalue().removesuffix("\r\n") + "\n"


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

    def test_names_are_quoted_as_the_csv_module_quotes_them(self, tmp_path):
        """Names holding a comma, a quote, CR or LF round-trip through
        csv.reader, every row has the header's field count (an error row
        of compare.csv too, with its metric fields empty), and csv.writer
        writes the rows read back to the same text: plain names are not
        quoted."""
        result = run_scenario(_natural_scenario(tf=10.0))
        names = ["a,b", 'say "hi"', "two\nlines", "cr\rlf", "plain", ""]
        write_metrics_csv(tmp_path / "m.csv", [(name, result) for name in names])
        cells = [CompareCell(name, "lqr", result) for name in names]
        cells += [CompareCell(name, 'c,"d"', None, error="failed") for name in names]
        write_compare_csv(tmp_path / "c.csv", cells)
        for path, expected in [
            (tmp_path / "m.csv", [[name] for name in names]),
            (tmp_path / "c.csv", [[name, "lqr", "ok"] for name in names]
             + [[name, 'c,"d"', "error"] for name in names]),
        ]:
            text = path.read_bytes().decode()
            header, *rows = csv.reader(io.StringIO(text, newline=""))
            assert [row[:len(want)] for row, want in zip(rows, expected)] == expected
            assert [len(row) for row in rows] == [len(header)] * len(expected)
            assert "".join(map(_csv_writer_line, [header, *rows])) == text
        with open(tmp_path / "c.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["status"] for row in rows] == ["ok"] * 6 + ["error"] * 6
        assert all(None not in row and None not in row.values() for row in rows)
        assert all(row[column] == "" for row in rows[6:] for column in METRIC_COLUMNS)

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
