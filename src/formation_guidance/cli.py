"""Command-line front end.

Subcommands:
  run <config>         simulate one scenario, write CSV outputs
  compare <config...>  run scenarios against a controller list
  sweep-r <config>     repeat a scenario over a list of control weights
  reproduce <preset>   run a packaged scenario and check its bounds

Config format (full grammar):
  - UTF-8 text, one statement per line; a leading byte-order mark is
    ignored.
  - Blank lines and lines starting with "#" are ignored.
  - "[section]" opens a section; "key = value" assigns inside it.
  - Angle-valued keys require an explicit unit suffix ("deg" or "rad");
    all other quantities are plain numbers in km and seconds.
  - Duplicate keys and unknown sections/keys are errors.

Sections and keys.  A dataclass-backed section takes its keys, their
order, types, defaults and bounds from the fields of the named class
(formation_guidance.dynamics, formation_guidance.options):
  [chief]    ChiefOrbit: a (required), e, i, arg_perigee, raan, nu0
  [truth]    ChiefOrbit: a, e, i, arg_perigee, raan, nu0 (optional: the
             truth chief of uncertainty studies; omitted keys inherit [chief])
  [initial]  FormationParams: rho (required), theta, a_off, b_off,
             m_slope, n_slope
  [desired]  FormationParams: rho (required), theta, a_off, b_off,
             m_slope, n_slope
  [lqr]      LqrOptions: q_weight, r_weight
  [sdre]     SdreOptions: q_weight, r_weight, variant = SDC1|SDC2,
             series_order
  [mpsp]     MpspOptions: r_weight, tol_pct, max_iter
  [gmpsp]    GmpspOptions: r_weight, tol_pct, max_iter
  [nnlqr]    NnlqrOptions: q_weight, r_weight, r1, k_tau, beta, gamma,
             theta_gain, basis = grid|global
  In the option sections q_weight and r_weight scale the identity weight
  matrices Q and R, and the open_loop field is set by [controller] apply.
  The other sections (defaults in parentheses):
  [gravity]  j2 = on|off (off)
  [run]      tf (required), dt (1)
  [controller] kind = zero|lqr|sdre|mpsp|gmpsp|nnlqr (required),
             horizon = infinite|finite (infinite; sdre only),
             apply = closed|open (closed; open plans on the believed
             unperturbed model and replays the control history)
  Numbers must be finite, max_iter and series_order integers, and tf and
  dt > 0.  The classes declare a > 0, 0 <= e < 1, rho >= 0, max_iter >=
  0, series_order >= 1, tol_pct, r_weight, r1, k_tau, beta and gamma > 0,
  and q_weight > 0, but >= 0 in [sdre] with horizon = finite.  Each bad
  number, out-of-bounds value or word outside its list is rejected with
  its line number; a tf not a whole number of dt steps raises ConfigError.

Exit codes: 0 success (and criteria met), 1 criteria failed, 2 error.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import MISSING, fields, replace
from functools import partial
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .dynamics import POSITION_ROWS, ChiefOrbit, FormationParams, GravityModel
from .harness import (
    NOT_SETTLED,
    SETTLE_THRESHOLD_PCT,
    HarnessError,
    RunResult,
    Scenario,
    _rewrite,
    compare,
    format_compare_table,
    run_scenario,
    write_compare_csv,
    write_iteration_log_csv,
    write_metrics_csv,
    write_trajectory_csv,
)
from .options import (
    COMPARISONS,
    CONTROLLER_OPTIONS,
    FsdreOptions,
    GmpspOptions,
    LqrOptions,
    MpspOptions,
    NnlqrOptions,
    SdreOptions,
    class_fields,
)

EXIT_OK = 0
EXIT_CRITERION = 1
EXIT_ERROR = 2


class ConfigError(ValueError):
    """Raised for malformed or invalid configuration input."""


ANGLE_KEYS = frozenset({"i", "arg_perigee", "raan", "nu0", "theta"})

#: Controller kinds that have an options section of their own.
_OPTION_SECTIONS = ("lqr", "sdre", "mpsp", "gmpsp", "nnlqr")

# Allowed words of each word-valued key; the options classes give theirs.
_CHOICES = {
    "j2": ("on", "off"),
    "kind": ("zero", *_OPTION_SECTIONS),
    "horizon": ("infinite", "finite"),
    "apply": ("closed", "open"),
    **{key: words for cls in CONTROLLER_OPTIONS.values() for key, words in cls.choices.items()},
}

# Dataclass of each dataclass-backed section.
_DATACLASSES = {
    "chief": ChiefOrbit,
    "truth": ChiefOrbit,
    "initial": FormationParams,
    "desired": FormationParams,
    **{kind: CONTROLLER_OPTIONS[kind] for kind in _OPTION_SECTIONS},
}

# Sections without a library dataclass: key -> default, MISSING if required.
_PLAIN_SECTIONS = {
    "gravity": {"j2": "off"},
    "run": {"tf": MISSING, "dt": 1.0},
    "controller": {"kind": MISSING, "horizon": "infinite", "apply": "closed"},
}


def _parse_number(raw: str, key: str, line_no: int) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"line {line_no}: key {key!r} has non-numeric value {raw!r}")
    if not math.isfinite(value):
        raise ConfigError(f"line {line_no}: key {key!r} must be finite, got {raw!r}")
    return value


def _finite_positive(value: float) -> bool:
    return math.isfinite(value) and value > 0.0


def _parse_positive(raw: str, key: str, line_no: int) -> float:
    value = _parse_number(raw, key, line_no)
    if not _finite_positive(value):
        raise ConfigError(f"line {line_no}: key {key!r} must be > 0, got {raw!r}")
    return value


def _parse_integer(raw: str, key: str, line_no: int) -> int:
    value = _parse_number(raw, key, line_no)
    if not value.is_integer():
        raise ConfigError(f"line {line_no}: key {key!r} must be an integer, got {raw!r}")
    return int(value)


def _parse_angle(raw: str, key: str, line_no: int) -> float:
    parts = raw.split()
    if len(parts) != 2 or parts[1] not in ("deg", "rad"):
        raise ConfigError(
            f"line {line_no}: angle key {key!r} needs a 'deg' or 'rad' suffix"
        )
    value = _parse_number(parts[0], key, line_no)
    return math.radians(value) if parts[1] == "deg" else value


def _parse_word(raw: str, key: str, line_no: int) -> str:
    if raw not in _CHOICES[key]:
        raise ConfigError(
            f"line {line_no}: key {key!r} must be one of {', '.join(_CHOICES[key])}, got {raw!r}"
        )
    return raw


def _section_schema(section: str) -> dict:
    """{config key: parser} of a section, in field order; a
    dataclass-backed section's keys are its class's field names."""
    if section in _PLAIN_SECTIONS:
        return {key: _parse_word if key in _CHOICES else _parse_positive
                for key in _PLAIN_SECTIONS[section]}
    cls = _DATACLASSES[section]
    hints = get_type_hints(cls)
    parsers = {float: _parse_number, int: _parse_integer, str: _parse_word}
    return {f.name: _parse_angle if f.name in ANGLE_KEYS else parsers[hints[f.name]]
            for f in fields(cls) if f.name != "open_loop"}  # written as [controller] apply


_SCHEMA = {section: _section_schema(section) for section in (*_DATACLASSES, *_PLAIN_SECTIONS)}


def parse_config_text(text: str) -> dict[str, dict[str, object]]:
    """Parse config text into {section: {key: parsed value}} with checks.

    The numbers of a dataclass-backed section are checked against its
    class's bounds once every line is read, since the class of [sdre]
    depends on the horizon set in [controller].
    """
    sections: dict[str, dict[str, object]] = {}
    bounded: list[tuple[str, str, str, int]] = []
    current: str | None = None
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _SCHEMA:
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
        if key not in _SCHEMA[current]:
            raise ConfigError(f"line {line_no}: unknown key {key!r} in [{current}]")
        if key in sections[current]:
            raise ConfigError(f"line {line_no}: duplicate key {key!r} in [{current}]")
        sections[current][key] = _SCHEMA[current][key](raw_value, key, line_no)
        if current in _DATACLASSES:
            bounded.append((current, key, raw_value, line_no))
    finite = sections.get("controller", {}).get("horizon") == "finite"
    for section, key, raw_value, line_no in bounded:
        cls = FsdreOptions if section == "sdre" and finite else _DATACLASSES[section]
        for comparison, bound in cls.bounds.get(key, ()):
            if not COMPARISONS[comparison](sections[section][key], bound):
                raise ConfigError(f"line {line_no}: key {key!r} must be {comparison} {bound}, "
                                  f"got {raw_value!r}")
    return sections


def _build(cls, section: str, values: dict, base=None):
    """Construct ``cls`` from a section's parsed values.  Omitted keys take
    their value from ``base`` when given, else the dataclass default."""
    if base is None:
        for f in class_fields(cls):
            if f.default is MISSING and f.default_factory is MISSING and f.name not in values:
                raise ConfigError(f"[{section}] requires key {f.name!r}")
    try:
        return cls(**values) if base is None else replace(base, **values)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {exc}") from exc


def _settings(section: str, values: dict) -> dict:
    """A plain section's values with its defaults filled in."""
    settings = {**_PLAIN_SECTIONS[section], **values}
    for key, value in settings.items():
        if value is MISSING:
            raise ConfigError(f"[{section}] requires key {key!r}")
    return settings


def _build_controller(sections: dict):
    """The controller options object that the config sections describe."""
    ctrl = _settings("controller", sections.get("controller", {}))
    kind, finite, open_loop = ctrl["kind"], ctrl["horizon"] == "finite", ctrl["apply"] == "open"
    if finite and kind != "sdre":
        raise ConfigError("horizon = finite applies only to the sdre controller")
    if open_loop and kind not in ("lqr", "sdre"):
        raise ConfigError("apply = open requires a feedback controller (lqr or sdre)")
    for name in _OPTION_SECTIONS:
        if name in sections and name != kind:
            raise ConfigError(f"[{name}] section does not match controller kind {kind!r}")
    resolved = "fsdre" if finite else kind
    options = _build(CONTROLLER_OPTIONS[resolved], kind, sections.get(kind, {}))
    return replace(options, open_loop=True) if open_loop else options


def config_to_scenario(sections: dict) -> Scenario:
    for required in ("chief", "initial", "desired", "run"):
        if required not in sections:
            raise ConfigError(f"missing required section [{required}]")
    chief = _build(ChiefOrbit, "chief", sections["chief"])
    truth = None
    if "truth" in sections:
        truth = _build(ChiefOrbit, "truth", sections["truth"], base=chief)
    gravity = _settings("gravity", sections.get("gravity", {}))
    run = _settings("run", sections["run"])
    initial = _build(FormationParams, "initial", sections["initial"])
    desired = _build(FormationParams, "desired", sections["desired"])
    controller = _build_controller(sections)
    try:
        return Scenario(
            chief=chief,
            gravity=GravityModel(j2_enabled=(gravity["j2"] == "on")),
            initial=initial,
            desired=desired,
            tf=run["tf"],
            dt=run["dt"],
            controller=controller,
            truth_chief=truth,
        )
    except HarnessError as exc:
        raise ConfigError(f"[run] {exc}") from exc


def parse_config(path) -> Scenario:
    """Read, parse and validate a scenario config file."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return config_to_scenario(parse_config_text(text))


# ---------------------------------------------------------------------------
# Serialization (normal form; parse -> serialize -> parse is the identity)


def _num(value: float) -> str:
    return format(float(value), ".17g")


def _section_lines(section: str, obj) -> list[str]:
    """The section's header and one line per key, read from ``obj``."""
    lines = [f"[{section}]"]
    for key in _SCHEMA[section]:
        value = getattr(obj, key)
        if key in ANGLE_KEYS:
            value = f"{_num(value)} rad"
        elif not isinstance(value, str):
            value = _num(value)
        lines.append(f"{key} = {value}")
    return lines


def serialize_scenario(scenario: Scenario) -> str:
    """Emit a scenario as config text in normal form."""
    lines = _section_lines("chief", scenario.chief)
    if scenario.truth_chief is not None:
        lines += [""] + _section_lines("truth", scenario.truth_chief)
    lines += [
        "",
        "[gravity]",
        f"j2 = {'on' if scenario.gravity.j2_enabled else 'off'}",
        "",
    ]
    lines += _section_lines("initial", scenario.initial) + [""]
    lines += _section_lines("desired", scenario.desired) + [""]
    lines += _section_lines("run", scenario) + [""]
    options = scenario.controller
    kind = "sdre" if options.kind == "fsdre" else options.kind
    lines += ["[controller]", f"kind = {kind}"]
    if kind == "sdre":
        lines.append(f"horizon = {'finite' if options.kind == 'fsdre' else 'infinite'}")
    if getattr(options, "open_loop", False):
        lines.append("apply = open")
    if kind != "zero":
        lines += [""] + _section_lines(kind, options)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Presets


def _chief(a=10000.0, e=0.0, i=0.0) -> ChiefOrbit:
    return ChiefOrbit(a=a, e=e, i=i, arg_perigee=0.0, raan=0.0, nu0=math.radians(10.0))


def _form(rho, theta_deg, m) -> FormationParams:
    return FormationParams(rho=rho, theta=math.radians(theta_deg), a_off=0.0,
                           b_off=0.0, m_slope=m, n_slope=0.0)


def _scenario(chief, initial, desired, tf, controller, j2=False, truth=None):
    return Scenario(
        chief=chief,
        gravity=GravityModel(j2_enabled=j2),
        initial=initial,
        desired=desired,
        tf=tf,
        dt=1.0,
        controller=controller,
        truth_chief=truth,
    )


def _pos(result: RunResult) -> np.ndarray:
    return result.terminal_errors[POSITION_ROWS]


def _preset_lqr_circular():
    scn = _scenario(
        _chief(), _form(1.0, 45.0, m=1.0), _form(10.0, 60.0, m=1.5),
        6000.0, LqrOptions(),
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
        6000.0, LqrOptions(),
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
        2000.0, MpspOptions(tol_pct=_MPSP_TIGHT_TOL),
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
                    MpspOptions(tol_pct=_MPSP_TIGHT_TOL), j2=True)
    comparator = _scenario(chief, base["initial"], base["desired"], 2000.0,
                           FsdreOptions(open_loop=True), j2=True)
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
        2000.0, GmpspOptions(), j2=True,
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
                2000.0, FsdreOptions(variant=variant),
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
            18000.0, SdreOptions(r_weight=value),
        )
    def check(results):
        settles = [results[f"R{v:.0e}"].settle_time for v in SWEEP_R_VALUES]
        efforts = [results[f"R{v:.0e}"].control_effort for v in SWEEP_R_VALUES]
        mono_settle, mono_effort = _weight_trends(settles, efforts)
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


def _weight_trends(settles, efforts) -> tuple[bool, bool]:
    """Whether settle time strictly rises and control effort strictly
    falls, both listed by increasing control weight."""
    return (all(a < b for a, b in zip(settles, settles[1:])),
            all(a > b for a, b in zip(efforts, efforts[1:])))


# State weight shared by the plain baseline and the augmented run so the two
# close the loop with the same tracking aggressiveness; only the network
# differs between them.
NNLQR_Q_SCALE = 200.0


def _preset_nnlqr():
    believed = _chief(i=math.radians(60.0))
    truth = _chief(a=11114.51658, e=0.5, i=math.radians(60.0))
    initial, desired = _form(0.5, 45.0, m=1.0), _form(5.0, 60.0, m=1.5)
    runs = {
        "lqr": _scenario(believed, initial, desired, 12000.0,
                         LqrOptions(q_weight=NNLQR_Q_SCALE), j2=True, truth=truth),
        "nnlqr": _scenario(believed, initial, desired, 12000.0,
                           NnlqrOptions(q_weight=NNLQR_Q_SCALE, r1=0.09, basis="global"),
                           j2=True, truth=truth),
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


#: name -> (description, factory, settle band [% of the commanded baseline]).
PRESETS = {
    "lqr-circular": ("baseline reconfiguration on a circular chief", _preset_lqr_circular,
                     SETTLE_THRESHOLD_PCT),
    "lqr-eccentric": ("baseline degradation on an eccentric chief", _preset_lqr_eccentric,
                      SETTLE_THRESHOLD_PCT),
    "mpsp-eccentric": ("discrete predictive guidance, eccentric chief", _preset_mpsp_eccentric,
                       SETTLE_THRESHOLD_PCT),
    "mpsp-j2": ("discrete predictive guidance under oblateness", _preset_mpsp_j2,
                SETTLE_THRESHOLD_PCT),
    "gmpsp": ("continuous predictive guidance under oblateness", _preset_gmpsp,
              SETTLE_THRESHOLD_PCT),
    "fsdre": ("finite-horizon factorization comparison", _preset_fsdre, SETTLE_THRESHOLD_PCT),
    "sweep-r": ("control-weight sweep of the pointwise Riccati law", _preset_sweep_r,
                SWEEP_R_THRESHOLD_PCT),
    "nnlqr": ("network-augmented baseline under chief uncertainty", _preset_nnlqr,
              SETTLE_THRESHOLD_PCT),
}


# ---------------------------------------------------------------------------
# Subcommand implementations


def _override_controller(options, args):
    """Apply --max-iter and --tol-pct to the controller kinds that have them."""
    given = {"max_iter": args.max_iter, "tol_pct": args.tol_pct}
    names = {f.name for f in fields(options)}
    changes = {k: v for k, v in given.items() if v is not None and k in names}
    return replace(options, **changes)


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


def _reproduce_scenario(out: Path, preset: str, name: str, scenario: Scenario, run) -> RunResult:
    """Write the config of ``{preset}_{name}``, fly it by ``run`` and write its reports."""
    stem = f"{preset}_{name}"
    with _rewrite(out / f"{stem}.cfg") as fh:
        fh.write(serialize_scenario(scenario))
    result = run(scenario)
    _emit_run(out, stem, result)
    return result


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
    controllers = [_override_controller(CONTROLLER_OPTIONS[kind](), args)
                   for kind in args.controllers]
    cells = compare(scenarios, controllers)
    out = _outdir(args)
    write_compare_csv(out / "compare.csv", cells)
    table = format_compare_table(cells)
    with _rewrite(out / "compare.txt") as fh:
        fh.write(table)
    print(table, end="")
    failed = [c for c in cells if c.result is None]
    return EXIT_CRITERION if failed else EXIT_OK


def cmd_sweep_r(args) -> int:
    base = _apply_overrides(parse_config(args.config), args)
    if "r_weight" not in {f.name for f in fields(base.controller)}:
        raise ConfigError(
            f"sweep-r needs a controller with a control weight; kind {base.controller.kind!r} has none"
        )
    results = []
    for value in args.values:
        scn = replace(base, controller=replace(base.controller, r_weight=value))
        results.append((_weight_label(value), run_scenario(scn, args.threshold_pct)))
    out = _outdir(args)
    write_metrics_csv(out / "sweep_r_metrics.csv", results)
    for name, result in results:
        _print_metrics(name, result)
    # The trends are checked in order of increasing weight; the rows stay
    # in the order given.
    ascending = [r for _, (_, r) in sorted(zip(args.values, results), key=lambda p: p[0])]
    if not all(_weight_trends([r.settle_time for r in ascending],
                              [r.control_effort for r in ascending])):
        print("sweep-r: settle/effort ordering violated")
        return EXIT_CRITERION
    return EXIT_OK


def cmd_reproduce(args) -> int:
    if args.preset not in PRESETS:
        raise ConfigError(
            f"unknown preset {args.preset!r}; available: {', '.join(sorted(PRESETS))}"
        )
    _, factory, settle_pct = PRESETS[args.preset]
    scenarios, check = factory()
    out = _outdir(args)
    run = partial(run_scenario, settle_threshold_pct=settle_pct)
    results = {}
    for name, scn in scenarios.items():
        results[name] = _reproduce_scenario(out, args.preset, name, scn, run)
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

    parse.__name__ = convert.__name__.lstrip("_")  # argparse: "invalid float value"
    return parse


def _float_list(raw: str) -> list[float]:
    return [float(v) for v in raw.split(",")]


def _word_list(raw: str) -> list[str]:
    return raw.split(",")


def _weight_label(value: float) -> str:
    """The name of a sweep-r row: ``R=`` and the weight as ``:g`` writes it."""
    return f"R={value:g}"


_positive_float = _checked(float, _finite_positive, "finite and > 0")
_positive_floats = _checked(
    _float_list, lambda values: all(map(_finite_positive, values)), "finite numbers > 0"
)
_weights = _checked(
    _positive_floats, lambda values: len(set(map(_weight_label, values))) == len(values),
    "weights that differ in 6 significant digits",
)
_count = _checked(int, lambda v: v >= 0, ">= 0")
_kinds = _checked(
    _word_list, lambda kinds: all(k in CONTROLLER_OPTIONS for k in kinds),
    f"comma-separated kinds among {', '.join(CONTROLLER_OPTIONS)}",
)


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
    p_cmp.add_argument("--controllers", type=_kinds, default="lqr", help="comma-separated kinds")
    common(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_swp = sub.add_parser("sweep-r", help="sweep the control weight")
    p_swp.add_argument("config")
    p_swp.add_argument("--values", type=_weights, default=SWEEP_R_VALUES)
    p_swp.add_argument("--threshold-pct", type=_positive_float, default=SETTLE_THRESHOLD_PCT)
    common(p_swp)
    p_swp.set_defaults(func=cmd_sweep_r)

    p_rep = sub.add_parser("reproduce", help="run a packaged scenario preset",
                           formatter_class=argparse.RawTextHelpFormatter)
    p_rep.add_argument("preset", help="one of:\n" + "\n".join(
        f"{name} — {description}" for name, (description, _, _) in PRESETS.items()))
    common(p_rep, overrides=False)
    p_rep.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # config errors and simulation/controller failures
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
