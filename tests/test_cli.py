import csv
import math
import re
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formation_guidance import cli
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
from formation_guidance.dynamics import ChiefOrbit, FormationParams, GravityModel
from formation_guidance.harness import Scenario
from formation_guidance.options import CONTROLLER_OPTIONS, FsdreOptions, MpspOptions

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


def _declared_bounds():
    """(section, horizon, key, comparison, bound) of every bound that the
    class of a dataclass-backed section declares; [sdre] under both
    horizons, since horizon = finite makes its class FsdreOptions."""
    cases = []
    for section, cls in cli._DATACLASSES.items():
        classes = {"infinite": cls, **({"finite": FsdreOptions} if section == "sdre" else {})}
        for horizon, c in classes.items():
            cases += [(section, horizon, key, comparison, bound)
                      for key, pairs in c.bounds.items() for comparison, bound in pairs]
    return cases


def _config_setting_last(section, horizon, key, value):
    """A config whose last line sets ``key`` of ``section`` to ``value``;
    the controller kind is that of an option section, else lqr."""
    kind = section if section in cli._OPTION_SECTIONS else "lqr"
    sections = {"chief": {"a": "10000"}, "initial": {"rho": "5"}, "desired": {"rho": "5"},
                "run": {"tf": "600"}, "controller": {"kind": kind, "horizon": horizon}}
    own = {k: v for k, v in sections.pop(section, {}).items() if k != key}
    sections[section] = {**own, key: f"{value} rad" if key in cli.ANGLE_KEYS else str(value)}
    return "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                   for name, keys in sections.items())


# The value just outside, and one inside, each kind of bound.
_OUTSIDE = {">": 0, ">=": -1, "<": 0}
_INSIDE = {">": 1, ">=": 0, "<": -1}


class TestParseConfig:
    def test_minimal_defaults(self):
        scn = _scenario_from(MINIMAL)
        assert scn.chief.a == 10000.0 and scn.chief.e == 0.0
        assert scn.dt == 1.0
        np.testing.assert_array_equal(scn.controller.Q, np.eye(6))
        np.testing.assert_array_equal(scn.controller.R, 1e9 * np.eye(3))
        assert scn.gravity.j2_enabled is False

    def test_hyperbolic_eccentricity_rejected(self):
        text = MINIMAL.replace("a = 10000", "a = 10000\ne = 1.2")
        with pytest.raises(ConfigError, match="^line 3: key 'e' must be < 1, got '1.2'$"):
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
        ("lqr", "r_weight", "-5", "> 0"),
        ("lqr", "r_weight", "0", "> 0"),
        ("lqr", "q_weight", "-1", "> 0"),
        ("lqr", "q_weight", "0", "> 0"),
        ("sdre", "r_weight", "0", "> 0"),
        ("sdre", "q_weight", "-1e-9", "> 0"),
        ("sdre", "q_weight", "0", "> 0"),
        ("fsdre", "q_weight", "-1e-9", ">= 0"),
        ("mpsp", "r_weight", "-1e9", "> 0"),
        ("gmpsp", "r_weight", "0", "> 0"),
        ("nnlqr", "r_weight", "-1", "> 0"),
        ("nnlqr", "q_weight", "-200", "> 0"),
        ("nnlqr", "q_weight", "0", "> 0"),
        ("nnlqr", "r1", "0", "> 0"),
        ("nnlqr", "k_tau", "-1", "> 0"),
        ("nnlqr", "beta", "0", "> 0"),
        ("nnlqr", "gamma", "-100", "> 0"),
    ])
    def test_out_of_range_solver_input_rejected_with_line(self, kind, key, value, bound):
        # fsdre is the sdre section with the finite horizon.
        kind, section = ("sdre\nhorizon = finite", "sdre") if kind == "fsdre" else (kind, kind)
        text = MINIMAL.replace("kind = lqr", f"kind = {kind}") + f"\n[{section}]\n{key} = {value}\n"
        line = len(text.splitlines())
        with pytest.raises(ConfigError, match=f"line {line}: key '{key}' must be {bound}"):
            parse_config_text(text)

    def test_zero_max_iter_accepted(self):
        text = MINIMAL.replace("kind = lqr", "kind = mpsp") + "\n[mpsp]\nmax_iter = 0\n"
        assert parse_config_text(text)["mpsp"]["max_iter"] == 0

    def test_zero_state_weight_accepted(self):
        text = MINIMAL.replace("kind = lqr", "kind = sdre\nhorizon = finite")
        text += "\n[sdre]\nq_weight = 0\n"
        scn = _scenario_from(text)
        assert scn.controller.kind == "fsdre"
        np.testing.assert_array_equal(scn.controller.Q, np.zeros((6, 6)))

    @pytest.mark.parametrize("horizon, accepted", [("finite", True), ("infinite", False)])
    def test_state_weight_bound_follows_a_later_horizon(self, horizon, accepted):
        """The [sdre] bound on q_weight is that of the kind the horizon
        resolves, also when [controller] comes after [sdre]."""
        text = MINIMAL.replace("[controller]\nkind = lqr\n", "")
        text += f"\n[sdre]\nq_weight = 0\n\n[controller]\nkind = sdre\nhorizon = {horizon}\n"
        if accepted:
            assert _scenario_from(text).controller.kind == "fsdre"
        else:
            line = text.splitlines().index("q_weight = 0") + 1
            with pytest.raises(ConfigError, match=f"line {line}: key 'q_weight' must be > 0"):
                parse_config_text(text)

    @pytest.mark.parametrize("key, edit", [
        ("kind", ("kind = lqr", "kind = pid")),
        ("horizon", ("kind = lqr", "kind = sdre\nhorizon = receding")),
        ("apply", ("kind = lqr", "kind = lqr\napply = twice")),
        ("variant", ("kind = lqr", "kind = sdre\n[sdre]\nvariant = SDC3")),
        ("basis", ("kind = lqr", "kind = nnlqr\n[nnlqr]\nbasis = local")),
        ("j2", ("[run]", "[gravity]\nj2 = maybe\n\n[run]")),
    ])
    def test_bad_word_rejected_with_line(self, key, edit):
        text = MINIMAL.replace(*edit)
        line = next(n for n, s in enumerate(text.splitlines(), 1) if s.startswith(f"{key} ="))
        with pytest.raises(ConfigError, match=f"line {line}: key '{key}' must be one of"):
            parse_config_text(text)

    @pytest.mark.parametrize("section, horizon, key, comparison, bound", _declared_bounds())
    def test_every_declared_bound_is_rejected_with_its_line(
        self, section, horizon, key, comparison, bound
    ):
        """A value just outside a declared bound (0 for > 0, -1 for >= 0,
        1 for < 1) fails with its own line number, and one inside parses;
        [truth] checks the keys it sets, and inherits the rest from
        [chief]."""
        rejected = bound + _OUTSIDE[comparison]
        text = _config_setting_last(section, horizon, key, rejected)
        message = (f"line {len(text.splitlines())}: key '{key}' must be {comparison} {bound}, "
                   f"got '{rejected}'")
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config_text(text)
        value = bound + _INSIDE[comparison]
        scn = _scenario_from(_config_setting_last(section, horizon, key, value))
        obj = {"chief": scn.chief, "truth": scn.truth_chief, "initial": scn.initial,
               "desired": scn.desired}.get(section, scn.controller)
        assert getattr(obj, key) == value
        if section == "truth":
            assert scn.truth_chief == replace(scn.chief, **{key: value})

    def test_declared_bounds_cover_truth_and_the_finite_horizon(self):
        cases = _declared_bounds()
        assert ("truth", "infinite", "e", "<", 1) in cases
        assert ("sdre", "finite", "q_weight", ">=", 0) in cases
        assert ("sdre", "infinite", "q_weight", ">", 0) in cases

    @pytest.mark.parametrize("key, value, what", [
        ("tf", "-10", "> 0"), ("tf", "0", "> 0"), ("tf", "nan", "finite"),
        ("dt", "0", "> 0"), ("dt", "-1e-9", "> 0"), ("dt", "inf", "finite"),
    ])
    def test_run_time_not_finite_and_positive_rejected_with_line(self, key, value, what):
        text = re.sub(rf"^{key} = .*$", f"{key} = {value}",
                      MINIMAL.replace("tf = 600", "tf = 600\ndt = 1"), flags=re.M)
        line = text.splitlines().index(f"{key} = {value}") + 1
        message = f"^line {line}: key '{key}' must be {what}, got '{value}'$"
        with pytest.raises(ConfigError, match=message):
            parse_config_text(text)

    @pytest.mark.parametrize("edit, message", [
        (("a = 10000", "a = -5"), "line 2: key 'a' must be > 0, got '-5'"),
        (("rho = 5", "rho = -1"), "rho"),
        (("tf = 600", "tf = 10\ndt = 3"), "integral number of dt steps"),
        (("tf = 600", "tf = 1\ndt = 3"), "integral number of dt steps"),
        (("tf = 600", "tf = 3\ndt = 1e-320"), "integral number of dt steps"),
        (("tf = 600", "dt = 2"), r"\[run\] requires key 'tf'"),
        (("a = 10000", "e = 0.1"), r"\[chief\] requires key 'a'"),
        (("[run]", "[foo]\n\n[run]"), r"line 14: unknown section \[foo\]"),
        (("kind = lqr", "kind = lqr\nhorizon = finite"),
         "horizon = finite applies only to the sdre controller"),
        (("[initial]\nrho = 5\ntheta = 30 deg\nm_slope = 1\n", ""),
         r"missing required section \[initial\]"),
    ])
    def test_invalid_value_raises_config_error(self, edit, message):
        with pytest.raises(ConfigError, match=message):
            _scenario_from(MINIMAL.replace(*edit, 1))

    def test_omitted_keys_take_the_dataclass_defaults(self):
        scn = _scenario_from(MINIMAL.replace("theta = 30 deg\nm_slope = 1\n", ""))
        assert scn.initial == scn.desired == FormationParams(rho=5.0)
        assert scn.initial.m_slope == 0.0
        assert scn.chief == ChiefOrbit(a=10000.0)

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
            assert reparsed == scn

    def test_round_trip_preserves_fields(self):
        scn = _scenario_from(MINIMAL)
        assert _scenario_from(serialize_scenario(scn)) == scn

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_byte_order_mark_is_ignored(self, preset, tmp_path):
        """A preset config saved with a UTF-8 byte-order mark in front
        parses to the same Scenario as the plain file."""
        scenarios, _ = PRESETS[preset][1]()
        for name, scn in scenarios.items():
            text = serialize_scenario(scn).encode()
            plain, marked = tmp_path / f"{name}.cfg", tmp_path / f"{name}-bom.cfg"
            plain.write_bytes(text)
            marked.write_bytes(b"\xef\xbb\xbf" + text)
            assert cli.parse_config(marked) == cli.parse_config(plain) == scn


def _documented_sections():
    """{section: (class name or None, keys, {key: words})} of every
    section that the cli docstring lists as "[section]  Class: key, key =
    w1|w2, ..." or, for a section without a class, "[section]  key, ...";
    a parenthesized note after a key or its words is dropped."""
    documented = {}
    entries = re.findall(r"^  \[(\w+)\] +(?:(\w+): )?(.*(?:\n {13}\S.*)*)", cli.__doc__, re.M)
    for section, class_name, body in entries:
        assert section not in documented, section
        keys, words = [], {}
        for item in " ".join(body.split()).split(", "):
            key, _, listed = re.sub(r" \(.*\)$", "", item).partition(" = ")
            keys.append(key)
            if listed:
                words[key] = tuple(listed.split("|"))
        documented[section] = (class_name or None, keys, words)
    return documented


class TestDocstring:
    def test_documented_keys_and_words_are_the_schema(self):
        """The docstring lists every section of the config schema, with
        the keys of the schema and the dataclass fields in their order,
        and the same words."""
        documented = _documented_sections()
        assert set(documented) == set(cli._SCHEMA)
        for section, (class_name, keys, words) in documented.items():
            cls = cli._DATACLASSES.get(section)
            assert class_name == (cls and cls.__name__), section
            assert keys == list(cli._SCHEMA[section]), section
            assert words == {key: cli._CHOICES[key] for key in keys if key in cli._CHOICES}, section
            assert words == getattr(cls, "choices", words), section


def _finite(lo=-1e6, hi=1e6):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def _positive(hi=1e6):
    return _finite(0.0, hi).filter(lambda v: v > 0.0)


_ANGLE = _finite(-10.0, 10.0)
_CHIEFS = st.builds(
    ChiefOrbit, a=_finite(1.0, 1e6), e=st.floats(0.0, 1.0, exclude_max=True),
    i=_ANGLE, arg_perigee=_ANGLE, raan=_ANGLE, nu0=_ANGLE,
)
_FORMATIONS = st.builds(
    FormationParams, rho=_finite(0.0, 1e6), theta=_ANGLE, a_off=_finite(),
    b_off=_finite(), m_slope=_finite(), n_slope=_finite(),
)
# A strategy for every options field; a field added without one fails here.
_OPTION_VALUES = {
    "q_weight": _finite(0.0, 1e6), "r_weight": _positive(), "open_loop": st.booleans(),
    "variant": st.sampled_from(["SDC1", "SDC2"]), "series_order": st.integers(1, 50),
    "tol_pct": _positive(100.0),
    "max_iter": st.integers(0, 1000), "r1": _positive(), "k_tau": _positive(),
    "beta": _positive(), "gamma": _positive(), "theta_gain": _finite(),
    "basis": st.sampled_from(["grid", "global"]),
}


# LQR, NN-LQR and the pointwise SDRE need a positive state weight; the
# finite-horizon SDRE allows zero.
_POSITIVE_Q_KINDS = ("lqr", "nnlqr", "sdre")


@st.composite
def _controllers(draw):
    kind = draw(st.sampled_from(sorted(CONTROLLER_OPTIONS)))
    names = [f.name for f in fields(CONTROLLER_OPTIONS[kind])]
    values = {name: _OPTION_VALUES[name] for name in names}
    if kind in _POSITIVE_Q_KINDS:
        values["q_weight"] = _positive()
    return CONTROLLER_OPTIONS[kind](**draw(st.fixed_dictionaries(values)))


@st.composite
def _scenarios(draw):
    dt = draw(_finite(1e-3, 100.0))
    return Scenario(
        chief=draw(_CHIEFS),
        gravity=GravityModel(j2_enabled=draw(st.booleans())),
        initial=draw(_FORMATIONS),
        desired=draw(_FORMATIONS),
        tf=draw(st.integers(1, 100_000)) * dt,
        dt=dt,
        controller=draw(_controllers()),
        truth_chief=draw(st.none() | _CHIEFS),
    )


class TestPropertyRoundTrip:
    @settings(max_examples=200)
    @given(_scenarios())
    def test_serialize_parse_is_a_fixed_point(self, scn):
        text = serialize_scenario(scn)
        again = _scenario_from(text)
        assert serialize_scenario(again) == text
        assert again == scn


_VALID_CONFIGS = [MINIMAL, RECONFIGURE] + [
    serialize_scenario(scn)
    for name in ("fsdre", "mpsp-j2", "nnlqr")
    for scn in PRESETS[name][1]()[0].values()
]
_TOKENS = ("-5", "0", "3", "-1", "1e-320", "1e400", "nan", "ten", "", "1 deg", "2 rad",
           "deg", "on", "open", "finite", "SDC3", "global", "mpsp", "zero", "[run]", "x = 1")


class TestMalformedConfigs:
    @settings(max_examples=300)
    @given(st.sampled_from(_VALID_CONFIGS), st.data())
    def test_mutated_config_parses_or_raises_config_error(self, text, data):
        """Replace values or whole lines, or delete or repeat lines, of a
        valid config: the result either parses or raises ConfigError."""
        lines = text.splitlines()
        for _ in range(data.draw(st.integers(1, 3))):
            i = data.draw(st.integers(0, len(lines) - 1))
            op = data.draw(st.sampled_from(["value", "line", "delete", "repeat"]))
            key, sep, _ = lines[i].partition("=")
            if op == "value" and sep:
                lines[i] = f"{key}= {data.draw(st.sampled_from(_TOKENS))}"
            elif op in ("value", "line"):
                lines[i] = data.draw(st.sampled_from(_TOKENS))
            elif op == "delete" and len(lines) > 1:
                del lines[i]
            else:
                lines.insert(i, lines[i])
        try:
            scn = _scenario_from("\n".join(lines) + "\n")
        except ConfigError:
            return
        assert isinstance(scn, Scenario)


class TestSubcommands:
    def test_run_trivial_scenario(self, tmp_path, capsys):
        cfg = tmp_path / "natural.cfg"
        cfg.write_text(MINIMAL.replace("kind = lqr", "kind = zero"))
        code = main(["run", str(cfg), "--out", str(tmp_path / "out")])
        assert code == EXIT_OK
        assert "effort 0" in capsys.readouterr().out
        assert (tmp_path / "out" / "natural_metrics.csv").exists()
        assert (tmp_path / "out" / "natural_trajectory.csv").exists()

    @pytest.mark.parametrize("kind", ["lqr", "mpsp", "nnlqr"])
    def test_run_rendezvous_target(self, kind, tmp_path, capsys):
        # [desired] rho = 0: errors are measured against 1 km, with no
        # divide-by-zero, MPSP's stop can be met, and NN-LQR's default
        # grid basis is sized by the 1 km reference length.
        text = MINIMAL.replace("[desired]\nrho = 5", "[desired]\nrho = 0").replace(
            "kind = lqr", f"kind = {kind}"
        )
        cfg = tmp_path / "rdv.cfg"
        cfg.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["run", str(cfg), "--out", str(tmp_path / "out")])
        assert code == EXIT_OK
        line = capsys.readouterr().out
        pct = float(line.split("baseline error ")[1].split("%")[0])
        assert math.isfinite(pct)
        metrics = (tmp_path / "out" / "rdv_metrics.csv").read_text().splitlines()[1]
        assert all(math.isfinite(float(v)) for v in metrics.split(",")[1:-1])
        if kind == "mpsp":
            log = (tmp_path / "out" / "rdv_iterations.csv").read_text().splitlines()
            assert log[-1].split(",")[-1] == "1"  # converged
            assert pct < MpspOptions().tol_pct

    def test_run_bad_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[chief]\na = ten\n")
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_ERROR

    def test_negative_control_weight_exits_2_with_line(self, tmp_path, capsys):
        text = MINIMAL + "\n[lqr]\nr_weight = -5\n"
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_ERROR
        line = len(text.splitlines())
        assert f"line {line}: key 'r_weight' must be > 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_run_overrides_take_effect(self, tmp_path, capsys):
        """--tf and --dt set the trajectory's grid, and --j2 on changes
        the terminal errors that --j2 off gives."""
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(MINIMAL)
        errors = {}
        for j2 in ("off", "on"):
            out = tmp_path / j2
            argv = ["run", str(cfg), "--tf", "200", "--dt", "2", "--j2", j2, "--out", str(out)]
            assert main(argv) == EXIT_OK
            with open(out / "grid_trajectory.csv", newline="") as fh:
                header, *rows = csv.reader(fh)
            assert len(rows) == 200 / 2 + 1
            assert [float(row[0]) for row in rows[:2]] == [0.0, 2.0]
            assert float(rows[-1][0]) == 200.0
            with open(out / "grid_metrics.csv", newline="") as fh:
                errors[j2] = next(csv.DictReader(fh))
        for column in ("ex", "ey", "ez"):
            assert errors["on"][column] != errors["off"][column]

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

    @pytest.mark.parametrize("kinds", ["pid", "lqr,pid", "lqr,", "LQR"])
    def test_compare_unknown_kind_exits_before_any_run(self, tmp_path, capsys, kinds):
        cfg = tmp_path / "nat.cfg"
        cfg.write_text(MINIMAL)
        with pytest.raises(SystemExit) as exc:
            main(["compare", str(cfg), "--controllers", kinds, "--out", str(tmp_path / "out")])
        assert exc.value.code == EXIT_ERROR
        err = capsys.readouterr().err
        assert "--controllers" in err and ", ".join(CONTROLLER_OPTIONS) in err
        assert not (tmp_path / "out").exists()

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
        ("--values", "1e8,nan"),
        ("--values", "1e8,-1e9"),
        ("--values", "0"),
        ("--values", "1e9,1e9"),
        ("--values", "1e8,1e9,100000000"),
        ("--values", "1e9,1.0000001e9"),
        ("--threshold-pct", "-1"),
        ("--threshold-pct", "nan"),
    ])
    def test_out_of_range_override_rejected(self, flag, value, capsys):
        command = "sweep-r" if flag in ("--values", "--threshold-pct") else "run"
        with pytest.raises(SystemExit) as exc:
            main([command, "x.cfg", flag, value])
        assert exc.value.code == EXIT_ERROR
        assert flag in capsys.readouterr().err

    def test_sweep_r_monotone_rows(self, tmp_path, capsys):
        """The trends hold over 1e8, 1e9, and hold the same with the
        weights given in descending order: the rows keep the order
        given, and the trends are checked by increasing weight."""
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            MINIMAL.replace("rho = 5\ntheta = 30 deg\nm_slope = 1", "rho = 10\ntheta = 60 deg\nm_slope = 1.5", 1)
            .replace("kind = lqr", "kind = sdre")
            .replace("tf = 600", "tf = 9000")
        )
        rows = {}
        for values in ("1e8,1e9", "1e9,1e8"):
            out = tmp_path / values
            assert main(["sweep-r", str(cfg), "--values", values, "--out", str(out)]) == EXIT_OK
            assert "ordering violated" not in capsys.readouterr().out
            rows[values] = (out / "sweep_r_metrics.csv").read_text().splitlines()
        ascending, descending = rows["1e8,1e9"], rows["1e9,1e8"]
        assert len(ascending) == 3
        efforts = [float(line.split(",")[8]) for line in ascending[1:]]
        assert efforts[0] > efforts[1]
        assert [line.split(",")[0] for line in descending[1:]] == ["R=1e+09", "R=1e+08"]
        assert descending == [ascending[0], ascending[2], ascending[1]]

    def test_sweep_r_unsettled_weights_violate_the_ordering(self, tmp_path, capsys):
        """At tf = 20 s no weight settles, so settle time cannot rise with
        the weight: the sweep writes its rows and exits 1."""
        cfg = tmp_path / "short.cfg"
        cfg.write_text(
            MINIMAL.replace("rho = 5\ntheta = 30 deg\nm_slope = 1", "rho = 10\ntheta = 60 deg\nm_slope = 1.5", 1)
            .replace("kind = lqr", "kind = sdre")
            .replace("tf = 600", "tf = 20")
        )
        out = tmp_path / "out"
        assert main(["sweep-r", str(cfg), "--values", "1e8,1e9", "--out", str(out)]) == EXIT_CRITERION
        printed = capsys.readouterr().out
        assert printed.count("settle not-settled") == 2
        assert printed.endswith("sweep-r: settle/effort ordering violated\n")
        assert len((out / "sweep_r_metrics.csv").read_text().splitlines()) == 3

    def test_sweep_r_without_control_weight_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "zero.cfg"
        cfg.write_text(MINIMAL.replace("kind = lqr", "kind = zero"))
        assert main(["sweep-r", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert "kind 'zero'" in err and "control weight" in err
        assert "unexpected keyword" not in err
        assert not (tmp_path / "out").exists()

    def test_names_with_commas_stay_one_csv_field(self, tmp_path, capsys):
        """A config named a,b.cfg writes its name as one quoted field of
        a,b_metrics.csv and compare.csv, so every row has the header's
        field count."""
        cfg = tmp_path / "a,b.cfg"
        cfg.write_text(MINIMAL.replace("tf = 600", "tf = 20"))
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == EXIT_OK
        assert main(["compare", str(cfg), "--controllers", "zero,lqr", "--out", str(out)]) == EXIT_OK
        for report, names in [("a,b_metrics.csv", [["a,b"]]),
                              ("compare.csv", [["a,b", "zero"], ["a,b", "lqr"]])]:
            with open(out / report, newline="") as fh:
                header, *rows = csv.reader(fh)
            assert [row[:len(names[0])] for row in rows] == names
            assert all(len(row) == len(header) for row in rows)

    def test_reproduce_help_describes_every_preset(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["reproduce", "--help"])
        assert exc.value.code == 0
        help_text = capsys.readouterr().out
        for name, (description, _, _) in PRESETS.items():
            assert f"{name} — {description}" in help_text

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
