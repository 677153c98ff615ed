import math

import numpy as np
import pytest

from formation_guidance.cli import (
    EXIT_CRITERION,
    EXIT_ERROR,
    EXIT_OK,
    PRESETS,
    ConfigError,
    config_to_scenario,
    main,
    parse_config_text,
    serialize_scenario,
)

MINIMAL = """\
[chief]
a = 10000

[initial]
rho = 5
theta = 30 deg
m_slope = 1

[desired]
rho = 5
theta = 30 deg
m_slope = 1

[run]
tf = 600

[controller]
kind = lqr
"""


RECONFIGURE = MINIMAL.replace(
    "[desired]\nrho = 5\ntheta = 30 deg\nm_slope = 1", "[desired]\nrho = 10\ntheta = 45 deg\nm_slope = 1.5"
).replace("tf = 600", "tf = 300").replace("kind = lqr", "kind = mpsp")


def _scenario_from(text):
    return config_to_scenario(parse_config_text(text))


class TestParseConfig:
    def test_minimal_defaults(self):
        scn = _scenario_from(MINIMAL)
        assert scn.chief.a == 10000.0 and scn.chief.e == 0.0
        assert scn.dt == 1.0
        np.testing.assert_array_equal(scn.controller.options.Q, np.eye(6))
        np.testing.assert_array_equal(scn.controller.options.R, 1e9 * np.eye(3))
        assert scn.gravity.j2_enabled is False

    def test_hyperbolic_eccentricity_rejected(self):
        text = MINIMAL.replace("a = 10000", "a = 10000\ne = 1.2")
        with pytest.raises(ConfigError, match="eccentricity"):
            _scenario_from(text)

    def test_duplicate_key_rejected(self):
        text = MINIMAL.replace("a = 10000", "a = 10000\na = 9000")
        with pytest.raises(ConfigError, match="duplicate key"):
            parse_config_text(text)

    def test_duplicate_section_rejected(self):
        with pytest.raises(ConfigError, match="duplicate section"):
            parse_config_text(MINIMAL + "\n[chief]\na = 9000\n")

    def test_unknown_key_rejected_with_line(self):
        with pytest.raises(ConfigError, match="line 3"):
            parse_config_text("[chief]\na = 10000\nfoo = 1\n")

    def test_angle_requires_unit_suffix(self):
        text = MINIMAL.replace("theta = 30 deg", "theta = 30", 1)
        with pytest.raises(ConfigError, match="deg.*rad|'deg' or 'rad'"):
            parse_config_text(text)

    def test_degrees_converted_to_radians(self):
        scn = _scenario_from(MINIMAL)
        assert scn.initial.theta == pytest.approx(math.radians(30.0), rel=1e-15)

    def test_rad_suffix_taken_verbatim(self):
        text = MINIMAL.replace("theta = 30 deg", "theta = 0.5 rad", 1)
        scn = _scenario_from(text)
        assert scn.initial.theta == 0.5

    def test_mismatched_options_section_rejected(self):
        with pytest.raises(ConfigError, match=r"\[mpsp\]"):
            _scenario_from(MINIMAL + "\n[mpsp]\ntol_pct = 0.1\n")

    def test_open_loop_requires_feedback_kind(self):
        text = MINIMAL.replace("kind = lqr", "kind = mpsp\napply = open")
        with pytest.raises(ConfigError, match="apply"):
            _scenario_from(text)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_number_rejected_with_line(self, value):
        with pytest.raises(ConfigError, match="line 5: key 'rho' must be finite"):
            parse_config_text(MINIMAL.replace("rho = 5", f"rho = {value}", 1))

    @pytest.mark.parametrize("kind, key, value", [
        ("mpsp", "max_iter", "1.9"),
        ("sdre", "series_order", "0.5"),
    ])
    def test_non_integer_count_rejected_with_line(self, kind, key, value):
        text = MINIMAL.replace("kind = lqr", f"kind = {kind}") + f"\n[{kind}]\n{key} = {value}\n"
        line = len(text.splitlines())
        with pytest.raises(ConfigError, match=f"line {line}: key '{key}' must be an integer"):
            parse_config_text(text)

    @pytest.mark.parametrize("kind, key, value, bound", [
        ("sdre", "series_order", "0", ">= 1"),
        ("mpsp", "max_iter", "-1", ">= 0"),
        ("gmpsp", "max_iter", "-3", ">= 0"),
        ("mpsp", "tol_pct", "-5", "> 0"),
        ("gmpsp", "tol_pct", "0", "> 0"),
    ])
    def test_out_of_range_solver_input_rejected_with_line(self, kind, key, value, bound):
        text = MINIMAL.replace("kind = lqr", f"kind = {kind}") + f"\n[{kind}]\n{key} = {value}\n"
        line = len(text.splitlines())
        with pytest.raises(ConfigError, match=f"line {line}: key '{key}' must be {bound}"):
            parse_config_text(text)

    def test_zero_max_iter_accepted(self):
        text = MINIMAL.replace("kind = lqr", "kind = mpsp") + "\n[mpsp]\nmax_iter = 0\n"
        assert parse_config_text(text)["mpsp"]["max_iter"] == 0

    def test_truth_section_inherits_from_chief(self):
        text = MINIMAL + "\n[truth]\ne = 0.5\n"
        scn = _scenario_from(text)
        assert scn.truth_chief.a == 10000.0
        assert scn.truth_chief.e == 0.5


class TestRoundTrip:
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_preset_configs_round_trip(self, preset):
        scenarios, _ = PRESETS[preset][1]()
        for scn in scenarios.values():
            text = serialize_scenario(scn)
            reparsed = _scenario_from(text)
            assert serialize_scenario(reparsed) == text

    def test_round_trip_preserves_fields(self):
        scn = _scenario_from(MINIMAL)
        again = _scenario_from(serialize_scenario(scn))
        assert again.chief == scn.chief
        assert again.initial == scn.initial
        assert again.desired == scn.desired
        assert (again.tf, again.dt) == (scn.tf, scn.dt)
        assert again.controller.kind == scn.controller.kind


class TestSubcommands:
    def test_run_trivial_scenario(self, tmp_path, capsys):
        cfg = tmp_path / "natural.cfg"
        cfg.write_text(MINIMAL.replace("kind = lqr", "kind = zero"))
        code = main(["run", str(cfg), "--out", str(tmp_path / "out")])
        assert code == EXIT_OK
        assert "effort 0" in capsys.readouterr().out
        assert (tmp_path / "out" / "natural_metrics.csv").exists()
        assert (tmp_path / "out" / "natural_trajectory.csv").exists()

    def test_run_bad_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[chief]\na = ten\n")
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_ERROR

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)]) == EXIT_ERROR

    def test_compare_single_config(self, tmp_path, capsys):
        cfg = tmp_path / "nat.cfg"
        cfg.write_text(MINIMAL)
        code = main([
            "compare", str(cfg), "--controllers", "zero,lqr",
            "--out", str(tmp_path / "out"),
        ])
        assert code == EXIT_OK
        table = (tmp_path / "out" / "compare.txt").read_text()
        assert len(table.splitlines()) == 3

    def test_compare_applies_solver_overrides(self, tmp_path, capsys):
        cfg = tmp_path / "m.cfg"
        cfg.write_text(RECONFIGURE)
        flags = ["--tol-pct", "1e-9", "--max-iter", "3"]
        assert main(["run", str(cfg), *flags, "--out", str(tmp_path / "run")]) == EXIT_OK
        assert main([
            "compare", str(cfg), "--controllers", "mpsp", *flags,
            "--out", str(tmp_path / "cmp"),
        ]) == EXIT_OK
        ran = (tmp_path / "run" / "m_metrics.csv").read_text().splitlines()[1].split(",")
        compared = (tmp_path / "cmp" / "compare.csv").read_text().splitlines()[1].split(",")
        assert compared[3:] == ran[1:]

    @pytest.mark.parametrize("argv", [
        ["reproduce", "lqr-circular", "--dt", "2"],
        ["reproduce", "lqr-circular", "--tf", "10"],
        ["reproduce", "lqr-circular", "--max-iter", "1"],
        ["reproduce", "lqr-circular", "--tol-pct", "1"],
        ["reproduce", "lqr-circular", "--j2", "on"],
        ["reproduce", "lqr-circular", "--seed", "1"],
        ["run", "x.cfg", "--seed", "1"],
        ["compare", "x.cfg", "--seed", "1"],
        ["sweep-r", "x.cfg", "--seed", "1"],
    ])
    def test_flags_without_effect_are_not_accepted(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_ERROR

    @pytest.mark.parametrize("flag, value", [
        ("--dt", "0"),
        ("--dt", "inf"),
        ("--tf", "nan"),
        ("--tf", "-600"),
        ("--max-iter", "-2"),
        ("--max-iter", "1.5"),
        ("--tol-pct", "-1"),
        ("--tol-pct", "nan"),
    ])
    def test_out_of_range_override_rejected(self, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "x.cfg", flag, value])
        assert exc.value.code == EXIT_ERROR
        assert flag in capsys.readouterr().err

    def test_sweep_r_monotone_rows(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            MINIMAL.replace("rho = 5\ntheta = 30 deg\nm_slope = 1", "rho = 10\ntheta = 60 deg\nm_slope = 1.5", 1)
            .replace("kind = lqr", "kind = sdre")
            .replace("tf = 600", "tf = 9000")
        )
        code = main([
            "sweep-r", str(cfg), "--values", "1e8,1e9",
            "--out", str(tmp_path / "out"),
        ])
        assert code == EXIT_OK
        lines = (tmp_path / "out" / "sweep_r_metrics.csv").read_text().splitlines()
        assert len(lines) == 3
        efforts = [float(line.split(",")[8]) for line in lines[1:]]
        assert efforts[0] > efforts[1]

    def test_reproduce_unknown_preset_exits_2(self, tmp_path):
        assert main(["reproduce", "no-such-table", "--out", str(tmp_path)]) == EXIT_ERROR

    def test_reproduce_emits_standalone_configs(self, tmp_path, capsys):
        code = main(["reproduce", "lqr-circular", "--out", str(tmp_path / "out")])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out
        cfgs = list((tmp_path / "out").glob("*.cfg"))
        assert cfgs
        for cfg in cfgs:
            _scenario_from(cfg.read_text())  # must parse standalone
        assert (tmp_path / "out" / "lqr-circular_run_metrics.csv").exists()
