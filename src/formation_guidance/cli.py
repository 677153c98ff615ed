"""Command-line front end.

Subcommands:
  run <config>         simulate one scenario, write CSV outputs
  compare <config...>  run scenarios against a controller list
  sweep-r <config>     repeat a scenario over a list of control weights
  reproduce <preset>   run a packaged scenario and check its bounds

Config format (full grammar):
  - UTF-8 text, one statement per line.
  - Blank lines and lines starting with "#" are ignored.
  - "[section]" opens a section; "key = value" assigns inside it.
  - Angle-valued keys require an explicit unit suffix ("deg" or "rad");
    all other quantities are plain numbers in km and seconds.
  - Duplicate keys and unknown sections/keys are errors.

Sections and keys (defaults in parentheses; the defaults of the controller
option sections are those of the options dataclasses in
formation_guidance.options):
  [chief]    a, e (0), i (0 rad), arg_perigee (0 rad), raan (0 rad),
             nu0 (0 rad)
  [truth]    optional chief override for uncertainty studies; same keys,
             omitted keys inherit [chief]
  [gravity]  j2 = on|off (off)
  [initial]  rho, theta (0 rad), a_off (0), b_off (0), m_slope (0),
             n_slope (0)
  [desired]  same keys as [initial]
  [run]      tf, dt (1)
  [controller] kind = zero|lqr|sdre|mpsp|gmpsp|nnlqr,
             horizon = infinite|finite (infinite; sdre only),
             apply = closed|open (closed; open plans on the believed
             unperturbed model and replays the control history)
  [lqr]      q_weight, r_weight
  [sdre]     q_weight, r_weight, variant = SDC1|SDC2, series_order
  [mpsp]     r_weight, tol_pct, max_iter
  [gmpsp]    r_weight, tol_pct, max_iter
  [nnlqr]    q_weight, r_weight, r1, k_tau, beta, gamma, theta_gain,
             basis = grid|global
  q_weight and r_weight scale the identity weight matrices Q and R.
  Numbers must be finite; max_iter (>= 0) and series_order (>= 1) must be
  integers, and tol_pct must be > 0.

Exit codes: 0 success (and criteria met), 1 criteria failed, 2 error.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .dynamics import POSITION_ROWS, ChiefOrbit, FormationParams, GravityModel
from .harness import (
    NOT_SETTLED,
    CompareCell,
    ControllerSpec,
    RunResult,
    Scenario,
    compare,
    format_compare_table,
    run_scenario,
    write_compare_csv,
    write_iteration_log_csv,
    write_metrics_csv,
    write_trajectory_csv,
)

EXIT_OK = 0
EXIT_CRITERION = 1
EXIT_ERROR = 2


class ConfigError(ValueError):
    """Raised for malformed or invalid configuration input."""


ANGLE_KEYS = frozenset({"i", "arg_perigee", "raan", "nu0", "theta"})

_SECTION_KEYS = {
    "chief": ("a", "e", "i", "arg_perigee", "raan", "nu0"),
    "truth": ("a", "e", "i", "arg_perigee", "raan", "nu0"),
    "gravity": ("j2",),
    "initial": ("rho", "theta", "a_off", "b_off", "m_slope", "n_slope"),
    "desired": ("rho", "theta", "a_off", "b_off", "m_slope", "n_slope"),
    "run": ("tf", "dt"),
    "controller": ("kind", "horizon", "apply"),
    "lqr": ("q_weight", "r_weight"),
    "sdre": ("q_weight", "r_weight", "variant", "series_order"),
    "mpsp": ("r_weight", "tol_pct", "max_iter"),
    "gmpsp": ("r_weight", "tol_pct", "max_iter"),
    "nnlqr": (
        "q_weight",
        "r_weight",
        "r1",
        "k_tau",
        "beta",
        "gamma",
        "theta_gain",
        "basis",
    ),
}

_CONTROLLER_KINDS = ("zero", "lqr", "sdre", "mpsp", "gmpsp", "nnlqr")

# Options-dataclass field of each controller-section key whose name differs.
_OPTION_FIELDS = {"q_weight": "Q", "r_weight": "R", "tol_pct": "tol_rho_pct",
                  "r1": "R1", "theta_gain": "theta"}


def _parse_number(raw: str, key: str, line_no: int) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"line {line_no}: key {key!r} has non-numeric value {raw!r}")
    if not math.isfinite(value):
        raise ConfigError(f"line {line_no}: key {key!r} must be finite, got {raw!r}")
    return value


def _parse_angle(raw: str, key: str, line_no: int) -> float:
    parts = raw.split()
    if len(parts) != 2 or parts[1] not in ("deg", "rad"):
        raise ConfigError(
            f"line {line_no}: angle key {key!r} needs a 'deg' or 'rad' suffix"
        )
    value = _parse_number(parts[0], key, line_no)
    return math.radians(value) if parts[1] == "deg" else value


def parse_config_text(text: str) -> dict[str, dict[str, object]]:
    """Parse config text into {section: {key: parsed value}} with checks."""
    sections: dict[str, dict[str, object]] = {}
    current: str | None = None
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _SECTION_KEYS:
                raise ConfigError(f"line {line_no}: unknown section [{name}]")
            if name in sections:
                raise ConfigError(f"line {line_no}: duplicate section [{name}]")
            sections[name] = {}
            current = name
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected 'key = value' or '[section]'")
        if current is None:
            raise ConfigError(f"line {line_no}: assignment before any section")
        key, _, raw_value = (part.strip() for part in line.partition("="))
        if key not in _SECTION_KEYS[current]:
            raise ConfigError(f"line {line_no}: unknown key {key!r} in [{current}]")
        if key in sections[current]:
            raise ConfigError(f"line {line_no}: duplicate key {key!r} in [{current}]")
        if key in ANGLE_KEYS:
            sections[current][key] = _parse_angle(raw_value, key, line_no)
        elif key in ("kind", "horizon", "apply", "variant", "j2", "basis"):
            sections[current][key] = raw_value
        elif key in ("max_iter", "series_order"):
            value = _parse_number(raw_value, key, line_no)
            if not value.is_integer():
                raise ConfigError(
                    f"line {line_no}: key {key!r} must be an integer, got {raw_value!r}"
                )
            least = 1 if key == "series_order" else 0
            if value < least:
                raise ConfigError(
                    f"line {line_no}: key {key!r} must be >= {least}, got {raw_value!r}"
                )
            sections[current][key] = int(value)
        else:
            value = _parse_number(raw_value, key, line_no)
            if key == "tol_pct" and value <= 0.0:
                raise ConfigError(f"line {line_no}: key 'tol_pct' must be > 0, got {raw_value!r}")
            sections[current][key] = value
    return sections


def _build_chief(values: dict, fallback: ChiefOrbit | None = None) -> ChiefOrbit:
    def get(key, default):
        if key in values:
            return values[key]
        if fallback is not None:
            return getattr(fallback, {"a": "a", "e": "e", "i": "i",
                                      "arg_perigee": "arg_perigee",
                                      "raan": "raan", "nu0": "nu0"}[key])
        return default

    if "a" not in values and fallback is None:
        raise ConfigError("[chief] requires key 'a'")
    e = get("e", 0.0)
    if not 0.0 <= e < 1.0:
        raise ConfigError(f"eccentricity must satisfy 0 <= e < 1, got {e}")
    return ChiefOrbit(
        a=get("a", None),
        e=e,
        i=get("i", 0.0),
        arg_perigee=get("arg_perigee", 0.0),
        raan=get("raan", 0.0),
        nu0=get("nu0", 0.0),
    )


def _build_formation(values: dict, section: str) -> FormationParams:
    if "rho" not in values:
        raise ConfigError(f"[{section}] requires key 'rho'")
    return FormationParams(
        rho=values["rho"],
        theta=values.get("theta", 0.0),
        a_off=values.get("a_off", 0.0),
        b_off=values.get("b_off", 0.0),
        m_slope=values.get("m_slope", 0.0),
        n_slope=values.get("n_slope", 0.0),
    )


def _build_controller(sections: dict) -> ControllerSpec:
    ctrl = sections.get("controller")
    if not ctrl or "kind" not in ctrl:
        raise ConfigError("[controller] section with key 'kind' is required")
    kind = ctrl["kind"]
    if kind not in _CONTROLLER_KINDS:
        raise ConfigError(f"unknown controller kind {kind!r}")
    horizon = ctrl.get("horizon", "infinite")
    if horizon not in ("infinite", "finite"):
        raise ConfigError(f"horizon must be 'infinite' or 'finite', got {horizon!r}")
    if horizon == "finite" and kind != "sdre":
        raise ConfigError("horizon = finite applies only to the sdre controller")
    apply_mode = ctrl.get("apply", "closed")
    if apply_mode not in ("closed", "open"):
        raise ConfigError(f"apply must be 'closed' or 'open', got {apply_mode!r}")
    if apply_mode == "open" and kind not in ("lqr", "sdre"):
        raise ConfigError("apply = open requires a feedback controller (lqr or sdre)")
    for name in ("lqr", "sdre", "mpsp", "gmpsp", "nnlqr"):
        if name in sections and name != kind:
            raise ConfigError(f"[{name}] section does not match controller kind {kind!r}")
    options: dict = {}
    for key, value in sections.get(kind, {}).items():
        if key in ("q_weight", "r_weight"):
            value = value * np.eye(6 if key == "q_weight" else 3)
        elif key == "variant" and value not in ("SDC1", "SDC2"):
            raise ConfigError(f"variant must be SDC1 or SDC2, got {value!r}")
        elif key == "basis" and value not in ("grid", "global"):
            raise ConfigError(f"basis must be 'grid' or 'global', got {value!r}")
        options[_OPTION_FIELDS.get(key, key)] = value
    if apply_mode == "open":
        options["open_loop"] = True
    resolved = "fsdre" if (kind == "sdre" and horizon == "finite") else kind
    return ControllerSpec(resolved, options)


def config_to_scenario(sections: dict) -> Scenario:
    for required in ("chief", "initial", "desired", "run"):
        if required not in sections:
            raise ConfigError(f"missing required section [{required}]")
    chief = _build_chief(sections["chief"])
    truth = None
    if "truth" in sections:
        truth = _build_chief(sections["truth"], fallback=chief)
    gravity_vals = sections.get("gravity", {})
    j2_flag = gravity_vals.get("j2", "off")
    if j2_flag not in ("on", "off"):
        raise ConfigError(f"j2 must be 'on' or 'off', got {j2_flag!r}")
    run_vals = sections["run"]
    if "tf" not in run_vals:
        raise ConfigError("[run] requires key 'tf'")
    return Scenario(
        chief=chief,
        gravity=GravityModel(j2_enabled=(j2_flag == "on")),
        initial=_build_formation(sections["initial"], "initial"),
        desired=_build_formation(sections["desired"], "desired"),
        tf=run_vals["tf"],
        dt=run_vals.get("dt", 1.0),
        controller=_build_controller(sections),
        truth_chief=truth,
    )


def parse_config(path) -> Scenario:
    """Read, parse and validate a scenario config file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return config_to_scenario(parse_config_text(text))


# ---------------------------------------------------------------------------
# Serialization (normal form; parse -> serialize -> parse is the identity)


def _num(value: float) -> str:
    return format(float(value), ".17g")


def _angle(value: float) -> str:
    return f"{_num(value)} rad"


def _chief_lines(name: str, orbit: ChiefOrbit) -> list[str]:
    return [
        f"[{name}]",
        f"a = {_num(orbit.a)}",
        f"e = {_num(orbit.e)}",
        f"i = {_angle(orbit.i)}",
        f"arg_perigee = {_angle(orbit.arg_perigee)}",
        f"raan = {_angle(orbit.raan)}",
        f"nu0 = {_angle(orbit.nu0)}",
    ]


def _formation_lines(name: str, f: FormationParams) -> list[str]:
    return [
        f"[{name}]",
        f"rho = {_num(f.rho)}",
        f"theta = {_angle(f.theta)}",
        f"a_off = {_num(f.a_off)}",
        f"b_off = {_num(f.b_off)}",
        f"m_slope = {_num(f.m_slope)}",
        f"n_slope = {_num(f.n_slope)}",
    ]


def serialize_scenario(scenario: Scenario) -> str:
    """Emit a scenario as config text in normal form."""
    lines = _chief_lines("chief", scenario.chief)
    if scenario.truth_chief is not None:
        lines += [""] + _chief_lines("truth", scenario.truth_chief)
    lines += [
        "",
        "[gravity]",
        f"j2 = {'on' if scenario.gravity.j2_enabled else 'off'}",
        "",
    ]
    lines += _formation_lines("initial", scenario.initial) + [""]
    lines += _formation_lines("desired", scenario.desired) + [""]
    lines += ["[run]", f"tf = {_num(scenario.tf)}", f"dt = {_num(scenario.dt)}", ""]
    spec = scenario.controller
    kind = "sdre" if spec.kind == "fsdre" else spec.kind
    lines += ["[controller]", f"kind = {kind}"]
    if spec.kind in ("sdre", "fsdre"):
        lines.append(f"horizon = {'finite' if spec.kind == 'fsdre' else 'infinite'}")
    if getattr(spec.options, "open_loop", False):
        lines.append("apply = open")
    if kind != "zero":
        lines += ["", f"[{kind}]"]
        for key in _SECTION_KEYS[kind]:
            value = getattr(spec.options, _OPTION_FIELDS.get(key, key))
            if isinstance(value, np.ndarray):
                value = _num(value[0, 0])
            elif not isinstance(value, (str, int)):
                value = _num(value)
            lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Presets


@dataclass(frozen=True)
class Preset:
    """Packaged scenario plus the bound checks applied by reproduce."""

    name: str
    description: str
    build: callable
    check: callable  # (results dict) -> list[(label, passed, detail)]


def _chief(a=10000.0, e=0.0, i=0.0, nu0=math.radians(10.0)) -> ChiefOrbit:
    return ChiefOrbit(a=a, e=e, i=i, arg_perigee=0.0, raan=0.0, nu0=nu0)


def _form(rho, theta_deg, m=0.0, n=0.0) -> FormationParams:
    return FormationParams(rho=rho, theta=math.radians(theta_deg), a_off=0.0,
                           b_off=0.0, m_slope=m, n_slope=n)


def _scenario(chief, initial, desired, tf, controller, j2=False, truth=None, dt=1.0):
    return Scenario(
        chief=chief,
        gravity=GravityModel(j2_enabled=j2),
        initial=initial,
        desired=desired,
        tf=tf,
        dt=dt,
        controller=controller,
        truth_chief=truth,
    )


def _pos(result: RunResult) -> np.ndarray:
    return result.terminal_errors[POSITION_ROWS]


def _preset_lqr_circular():
    scn = _scenario(
        _chief(), _form(1.0, 45.0, m=1.0), _form(10.0, 60.0, m=1.5),
        6000.0, ControllerSpec("lqr"),
    )
    def check(results):
        e = np.abs(_pos(results["run"]))
        bounds = 5.0 * np.array([0.0081, 0.0153, 0.033])
        return [(
            "terminal position errors within bounds",
            bool(np.all(e <= bounds)),
            f"errors {e} vs bounds {bounds}",
        )]
    return {"run": scn}, check


def _preset_lqr_eccentric():
    circ, _ = _preset_lqr_circular()
    ecc = _scenario(
        _chief(e=0.15), _form(1.0, 45.0, m=1.0), _form(10.0, 60.0, m=1.5),
        6000.0, ControllerSpec("lqr"),
    )
    def check(results):
        n_c = np.linalg.norm(_pos(results["circular"]))
        n_e = np.linalg.norm(_pos(results["eccentric"]))
        return [(
            "eccentric error norm at least 10x circular",
            bool(n_e >= 10.0 * n_c),
            f"eccentric {n_e:.6g} vs circular {n_c:.6g}",
        )]
    return {"circular": circ["run"], "eccentric": ecc}, check


_MPSP_TIGHT_TOL = 1e-9  # drive iterations to the terminal-error floor


def _preset_mpsp_eccentric():
    scn = _scenario(
        _chief(e=0.15), _form(0.5, 45.0, m=1.0), _form(5.0, 60.0, m=1.5),
        2000.0, ControllerSpec("mpsp", {"tol_rho_pct": _MPSP_TIGHT_TOL}),
    )
    def check(results):
        res = results["run"]
        pcts = [row["rho_error_pct"] for row in res.log]
        within = any(p < 0.5 for p in pcts[: 10 + 1])
        e = np.abs(_pos(res))
        return [
            ("relative baseline error under 0.5% within 10 iterations",
             bool(within), f"iteration errors {['%.3g' % p for p in pcts]}"),
            ("terminal position errors each at most 1e-2 km",
             bool(np.all(e <= 1e-2)), f"errors {e}"),
        ]
    return {"run": scn}, check


def _preset_mpsp_j2():
    chief = _chief(e=0.15, i=math.radians(60.0))
    base = dict(initial=_form(0.5, 45.0, m=1.0), desired=_form(5.0, 60.0, m=1.5))
    scn = _scenario(chief, base["initial"], base["desired"], 2000.0,
                    ControllerSpec("mpsp", {"tol_rho_pct": _MPSP_TIGHT_TOL}), j2=True)
    comparator = _scenario(chief, base["initial"], base["desired"], 2000.0,
                           ControllerSpec("fsdre", {"open_loop": True}), j2=True)
    def check(results):
        e = np.abs(_pos(results["mpsp"]))
        n_m = np.linalg.norm(_pos(results["mpsp"]))
        n_s = np.linalg.norm(_pos(results["fsdre"]))
        return [
            ("terminal position errors each at most 1e-2 km",
             bool(np.all(e <= 1e-2)), f"errors {e}"),
            ("comparator error norm at least 10x larger",
             bool(n_s >= 10.0 * n_m), f"comparator {n_s:.6g} vs {n_m:.6g}"),
        ]
    return {"mpsp": scn, "fsdre": comparator}, check


def _preset_gmpsp():
    scn = _scenario(
        _chief(e=0.1, i=math.radians(60.0)),
        _form(10.0, 45.0, m=1.0), _form(2.5, 60.0, m=1.5),
        2000.0, ControllerSpec("gmpsp"), j2=True,
    )
    def check(results):
        res = results["run"]
        pcts = [row["rho_error_pct"] for row in res.log]
        e = np.abs(_pos(res))
        return [
            ("relative baseline error under 1% within 10 iterations",
             bool(any(p < 1.0 for p in pcts[: 10 + 1])),
             f"iteration errors {['%.3g' % p for p in pcts]}"),
            ("terminal position errors each at most 2e-2 km",
             bool(np.all(e <= 2e-2)), f"errors {e}"),
        ]
    return {"run": scn}, check


def _preset_fsdre():
    runs = {}
    for e_label, ecc in (("e0", 0.0), ("e15", 0.15)):
        for variant in ("SDC1", "SDC2"):
            runs[f"{variant}-{e_label}"] = _scenario(
                _chief(e=ecc), _form(10.0, 5.0, m=1.0), _form(100.0, 35.0, m=1.5),
                2000.0, ControllerSpec("fsdre", {"variant": variant}),
            )
    def check(results):
        n = {k: np.linalg.norm(_pos(r)) for k, r in results.items()}
        ecc_ok = n["SDC2-e15"] >= 10.0 * n["SDC1-e15"]
        ratio0 = n["SDC2-e0"] / n["SDC1-e0"]
        circ_ok = 0.5 <= ratio0 <= 2.0
        return [
            ("eccentric chief: sigma-form error at least 10x power-series",
             bool(ecc_ok), f"{n['SDC2-e15']:.6g} vs {n['SDC1-e15']:.6g}"),
            ("circular chief: factorizations agree within 2x",
             bool(circ_ok), f"ratio {ratio0:.3g}"),
        ]
    return runs, check


SWEEP_R_VALUES = (1e8, 1e9, 1e10, 1e11)
SWEEP_R_SETTLE_BANDS = tuple((0.5 * s, 2.0 * s) for s in (1500.0, 2000.0, 5000.0, 7500.0))
SWEEP_R_THRESHOLD_PCT = 0.25


def _preset_sweep_r():
    runs = {}
    for value in SWEEP_R_VALUES:
        runs[f"R{value:.0e}"] = _scenario(
            _chief(), _form(5.0, 45.0, m=1.0), _form(25.0, 60.0, m=1.5),
            18000.0, ControllerSpec("sdre", {"R": value * np.eye(3)}),
        )
    def check(results):
        settles = [results[f"R{v:.0e}"].settle_time for v in SWEEP_R_VALUES]
        efforts = [results[f"R{v:.0e}"].control_effort for v in SWEEP_R_VALUES]
        mono_settle = all(a < b for a, b in zip(settles, settles[1:]))
        mono_effort = all(a > b for a, b in zip(efforts, efforts[1:]))
        in_band = all(
            lo <= s <= hi for s, (lo, hi) in zip(settles, SWEEP_R_SETTLE_BANDS)
        )
        return [
            ("settle time strictly increasing with control weight",
             bool(mono_settle), f"settle {settles}"),
            ("control effort strictly decreasing with control weight",
             bool(mono_effort), f"effort {efforts}"),
            ("settle times inside the expected bands",
             bool(in_band), f"settle {settles} vs bands {SWEEP_R_SETTLE_BANDS}"),
        ]
    return runs, check


# State weight shared by the plain baseline and the augmented run so the two
# close the loop with the same tracking aggressiveness; only the network
# differs between them.
NNLQR_Q_SCALE = 200.0
NNLQR_OPTIONS = {"R1": 0.09, "basis": "global"}


def _preset_nnlqr():
    believed = _chief(i=math.radians(60.0))
    truth = _chief(a=11114.51658, e=0.5, i=math.radians(60.0))
    initial, desired = _form(0.5, 45.0, m=1.0), _form(5.0, 60.0, m=1.5)
    opts = dict(NNLQR_OPTIONS, Q=NNLQR_Q_SCALE * np.eye(6))
    runs = {
        "lqr": _scenario(believed, initial, desired, 12000.0,
                         ControllerSpec("lqr", {"Q": NNLQR_Q_SCALE * np.eye(6)}),
                         j2=True, truth=truth),
        "nnlqr": _scenario(believed, initial, desired, 12000.0,
                           ControllerSpec("nnlqr", opts), j2=True, truth=truth),
    }
    def check(results):
        n_l = np.linalg.norm(_pos(results["lqr"]))
        n_n = np.linalg.norm(_pos(results["nnlqr"]))
        e = np.abs(_pos(results["nnlqr"]))
        return [
            ("augmented error norm at most 1/20 of baseline",
             bool(n_n <= n_l / 20.0), f"augmented {n_n:.6g} vs baseline {n_l:.6g}"),
            ("augmented position errors each at most 0.5 km",
             bool(np.all(e <= 0.5)), f"errors {e}"),
        ]
    return runs, check


PRESETS = {
    "lqr-circular": ("baseline reconfiguration on a circular chief", _preset_lqr_circular),
    "lqr-eccentric": ("baseline degradation on an eccentric chief", _preset_lqr_eccentric),
    "mpsp-eccentric": ("discrete predictive guidance, eccentric chief", _preset_mpsp_eccentric),
    "mpsp-j2": ("discrete predictive guidance under oblateness", _preset_mpsp_j2),
    "gmpsp": ("continuous predictive guidance under oblateness", _preset_gmpsp),
    "fsdre": ("finite-horizon factorization comparison", _preset_fsdre),
    "sweep-r": ("control-weight sweep of the pointwise Riccati law", _preset_sweep_r),
    "nnlqr": ("network-augmented baseline under chief uncertainty", _preset_nnlqr),
}


# ---------------------------------------------------------------------------
# Subcommand implementations


def _override_controller(spec: ControllerSpec, args) -> ControllerSpec:
    """Apply --max-iter and --tol-pct to the controller kinds that have them."""
    given = {"max_iter": args.max_iter, "tol_rho_pct": args.tol_pct}
    names = {f.name for f in fields(spec.options)}
    changes = {k: v for k, v in given.items() if v is not None and k in names}
    return replace(spec, options=replace(spec.options, **changes))


def _apply_overrides(scenario: Scenario, args) -> Scenario:
    changes = {"controller": _override_controller(scenario.controller, args)}
    if args.j2 is not None:
        changes["gravity"] = GravityModel(j2_enabled=(args.j2 == "on"))
    if args.tf is not None:
        changes["tf"] = args.tf
    if args.dt is not None:
        changes["dt"] = args.dt
    return replace(scenario, **changes)


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _emit_run(out: Path, name: str, result: RunResult) -> None:
    write_trajectory_csv(out / f"{name}_trajectory.csv", result)
    write_metrics_csv(out / f"{name}_metrics.csv", [(name, result)])
    if result.log:
        write_iteration_log_csv(out / f"{name}_iterations.csv", result)


def _print_metrics(name: str, result: RunResult) -> None:
    e = result.terminal_errors
    settle = "not-settled" if result.settle_time == NOT_SETTLED else f"{result.settle_time:g} s"
    print(
        f"{name}: terminal position errors ({e[0]:.6g}, {e[2]:.6g}, {e[4]:.6g}) km, "
        f"baseline error {result.rho_error_pct:.6g}%, "
        f"effort {result.control_effort:.6g}, settle {settle}"
    )


def cmd_run(args) -> int:
    scenario = _apply_overrides(parse_config(args.config), args)
    result = run_scenario(scenario)
    out = _outdir(args)
    name = Path(args.config).stem
    _emit_run(out, name, result)
    _print_metrics(name, result)
    return EXIT_OK


def cmd_compare(args) -> int:
    scenarios = []
    for path in args.configs:
        scenarios.append((Path(path).stem, _apply_overrides(parse_config(path), args)))
    controllers = [
        (kind, _override_controller(ControllerSpec(kind), args))
        for kind in args.controllers.split(",")
    ]
    cells = compare(scenarios, controllers)
    out = _outdir(args)
    write_compare_csv(out / "compare.csv", cells)
    table = format_compare_table(cells)
    (out / "compare.txt").write_text(table, encoding="utf-8")
    print(table, end="")
    failed = [c for c in cells if c.result is None]
    return EXIT_CRITERION if failed else EXIT_OK


def cmd_sweep_r(args) -> int:
    base = _apply_overrides(parse_config(args.config), args)
    values = [float(v) for v in args.values.split(",")]
    results = []
    for value in values:
        options = replace(base.controller.options, R=value * np.eye(3))
        scn = replace(base, controller=replace(base.controller, options=options))
        results.append((f"R={value:g}", run_scenario(scn, args.threshold_pct)))
    out = _outdir(args)
    write_metrics_csv(out / "sweep_r_metrics.csv", results)
    for name, result in results:
        _print_metrics(name, result)
    settles = [r.settle_time for _, r in results]
    efforts = [r.control_effort for _, r in results]
    monotone = all(a < b for a, b in zip(settles, settles[1:])) and all(
        a > b for a, b in zip(efforts, efforts[1:])
    )
    if not monotone:
        print("sweep-r: settle/effort ordering violated")
        return EXIT_CRITERION
    return EXIT_OK


def cmd_reproduce(args) -> int:
    if args.preset not in PRESETS:
        raise ConfigError(
            f"unknown preset {args.preset!r}; available: {', '.join(sorted(PRESETS))}"
        )
    _, factory = PRESETS[args.preset]
    scenarios, check = factory()
    out = _outdir(args)
    results = {}
    settle_pct = SWEEP_R_THRESHOLD_PCT if args.preset == "sweep-r" else 1.0
    for name, scn in scenarios.items():
        (out / f"{args.preset}_{name}.cfg").write_text(
            serialize_scenario(scn), encoding="utf-8"
        )
        results[name] = run_scenario(scn, settle_pct)
        _emit_run(out, f"{args.preset}_{name}", results[name])
        _print_metrics(f"{args.preset}/{name}", results[name])
    all_ok = True
    for label, passed, detail in check(results):
        print(f"[{'PASS' if passed else 'FAIL'}] {label}: {detail}")
        all_ok = all_ok and passed
    return EXIT_OK if all_ok else EXIT_CRITERION


def _checked(convert, ok, what: str):
    """argparse type: ``convert`` the text, then require ``ok(value)``."""

    def parse(raw: str):
        value = convert(raw)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {raw!r}")
        return value

    parse.__name__ = convert.__name__  # argparse names it in "invalid float value"
    return parse


_positive_float = _checked(float, lambda v: math.isfinite(v) and v > 0.0, "finite and > 0")
_count = _checked(int, lambda v: v >= 0, ">= 0")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="formation-guidance",
        description="Relative-orbit formation guidance simulations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, overrides=True):
        p.add_argument("--out", default="results", help="output directory")
        if overrides:
            p.add_argument("--dt", type=_positive_float, default=None)
            p.add_argument("--tf", type=_positive_float, default=None)
            p.add_argument("--max-iter", type=_count, default=None)
            p.add_argument("--tol-pct", type=_positive_float, default=None)
            p.add_argument("--j2", choices=("on", "off"), default=None)

    p_run = sub.add_parser("run", help="simulate one scenario config")
    p_run.add_argument("config")
    common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="run scenarios against controllers")
    p_cmp.add_argument("configs", nargs="+")
    p_cmp.add_argument("--controllers", default="lqr", help="comma-separated kinds")
    common(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_swp = sub.add_parser("sweep-r", help="sweep the control weight")
    p_swp.add_argument("config")
    p_swp.add_argument("--values", default="1e8,1e9,1e10,1e11")
    p_swp.add_argument("--threshold-pct", type=float, default=1.0)
    common(p_swp)
    p_swp.set_defaults(func=cmd_sweep_r)

    p_rep = sub.add_parser("reproduce", help="run a packaged scenario preset")
    p_rep.add_argument("preset")
    common(p_rep, overrides=False)
    p_rep.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:  # simulation/controller failures
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
