"""Which runs import ``scipy.linalg``.

LQR, NN-LQR and uncontrolled runs solve their Riccati equations with
numpy alone; MPSP and G-MPSP add only numpy algebra; the finite-horizon
SDRE law, closed-loop or planned and replayed open-loop, takes its
matrix exponential from numpy.  So a process that only flies these never
pays the import of ``scipy.linalg``.  The pointwise SDRE law reaches it
for its warm LAPACK step, and a cold Riccati solve for its fallback.
Each case runs in a fresh interpreter, since any earlier import in the
test process would hide the answer.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# The geometry of the benchmark's uncertain-j2 workload: a circular
# believed chief, an eccentric truth chief with J2, a 0.5 -> 5 km
# reconfiguration, shortened to 20 steps.
GEOMETRY = """\
[chief]
a = 10000
i = 60 deg
nu0 = 10 deg

[truth]
a = 11114.51658
e = 0.5
i = 60 deg
nu0 = 10 deg

[gravity]
j2 = on

[initial]
rho = 0.5
theta = 30 deg
m_slope = 1

[desired]
rho = 5
theta = 45 deg
m_slope = 1.5

[run]
tf = 20
dt = 1
"""

CONTROLLERS = {
    "lqr": "[controller]\nkind = lqr\n[lqr]\nq_weight = 200\n",
    "nnlqr": "[controller]\nkind = nnlqr\n[nnlqr]\nq_weight = 200\nr1 = 0.09\nbasis = global\n",
    "zero": "[controller]\nkind = zero\n",
    "sdre": "[controller]\nkind = sdre\n",
    "fsdre": "[controller]\nkind = sdre\nhorizon = finite\n",
    "fsdre-open": "[controller]\nkind = sdre\nhorizon = finite\napply = open\n",
    "mpsp": "[controller]\nkind = mpsp\n[mpsp]\nmax_iter = 2\n",
    "gmpsp": "[controller]\nkind = gmpsp\n[gmpsp]\nmax_iter = 2\n",
}

PROBE = """\
import sys
from pathlib import Path
from formation_guidance import cli, harness

out = Path(sys.argv[1])
for kind, text in zip(sys.argv[2::2], sys.argv[3::2]):
    result = harness.run_scenario(cli.config_to_scenario(cli.parse_config_text(text)))
    harness.write_trajectory_csv(out / f"{kind}_trajectory.csv", result)
    harness.write_metrics_csv(out / f"{kind}_metrics.csv", [(kind, result)])
print("scipy.linalg" in sys.modules)
"""


def _loads_scipy_linalg(tmp_path, kinds):
    """Whether a fresh interpreter that imports ``formation_guidance.cli``
    and runs ``kinds`` on the geometry ends with ``scipy.linalg`` loaded."""
    args = [arg for kind in kinds for arg in (kind, GEOMETRY + CONTROLLERS[kind])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", PROBE, str(tmp_path), *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert all((tmp_path / f"{kind}_metrics.csv").exists() for kind in kinds)
    return {"True\n": True, "False\n": False}[done.stdout]


def test_lqr_nnlqr_and_zero_runs_never_import_scipy_linalg(tmp_path):
    assert not _loads_scipy_linalg(tmp_path, ["lqr", "nnlqr", "zero"])


@pytest.mark.parametrize("kind", ["fsdre", "fsdre-open", "mpsp", "gmpsp"])
def test_finite_horizon_and_predictive_runs_never_import_scipy_linalg(tmp_path, kind):
    assert not _loads_scipy_linalg(tmp_path, [kind])


@pytest.mark.parametrize("kinds", [[], ["sdre"]])
def test_the_probe_sees_the_sdre_import(tmp_path, kinds):
    """The SDRE law's warm step loads it through ``numerics.scipy_linalg``;
    importing the library alone does not."""
    assert _loads_scipy_linalg(tmp_path, kinds) == bool(kinds)
