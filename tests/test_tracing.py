"""The benchmark's tracer (perfbench/tracing.py) must find every library
function and plant method it traces, attribute the solver phases, and put
the originals back."""

import importlib.util
import math
import sys
from pathlib import Path

from formation_guidance import cli  # noqa: F401  (imports every traced module)
from formation_guidance.dynamics import ChiefOrbit, FormationParams, GravityModel, RelativePlant
from formation_guidance.harness import Scenario, run_scenario
from formation_guidance.options import CONTROLLER_OPTIONS

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _scenario(kind):
    return Scenario(
        chief=ChiefOrbit(a=10000.0, e=0.1, nu0=math.radians(10.0)),
        gravity=GravityModel(),
        initial=FormationParams(rho=0.5, theta=math.radians(45.0), m_slope=1.0),
        desired=FormationParams(rho=5.0, theta=math.radians(60.0), m_slope=1.5),
        tf=60.0,
        dt=1.0,
        controller=CONTROLLER_OPTIONS[kind](),
    )


def test_tracer_installs_attributes_solver_phases_and_uninstalls():
    tracing = _load_tracing()
    package = tracing.PACKAGE
    functions = {
        (module, attr): getattr(sys.modules[f"{package}.{module}"], attr)
        for _, module, attr in tracing.FUNCTIONS
    }
    methods = {attr: vars(RelativePlant)[attr] for _, attr in tracing.PLANT_METHODS}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run = sys.modules[f"{package}.harness"].run_scenario
        for kind in ("mpsp", "gmpsp"):
            run(_scenario(kind))
    finally:
        tracer.uninstall()
    layers, _ = tracing.layer_metrics(tracer, passes=1)
    assert layers["harness.run_scenario.calls"] == 2
    assert layers["mpsp.predict_s"] > 0.0 and layers["gmpsp.propagate_s"] > 0.0
    assert layers["mpsp.iterations"] >= 1 and layers["gmpsp.iterations"] >= 1
    for (module, attr), original in functions.items():
        assert getattr(sys.modules[f"{package}.{module}"], attr) is original
    for attr, original in methods.items():
        assert vars(RelativePlant)[attr] is original
    assert sys.modules[f"{package}.harness"].run_scenario is run_scenario
