"""Which runs import ``scipy.linalg``.

LQR, NN-LQR and uncontrolled runs solve their Riccati equations with
numpy alone; MPSP and G-MPSP add only numpy algebra; the finite-horizon
SDRE law, closed-loop or planned and replayed open-loop, takes its
matrix exponential from numpy.  The pointwise SDRE law's warm LAPACK
step loads scipy's LAPACK extension alone, through ``numerics.lapack``.
So a process that only flies these never pays the import of
``scipy.linalg``; only a cold Riccati solve that falls back to scipy
does.  Each case runs in a fresh interpreter, since any earlier import
in the test process would hide the answer.
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
print("scipy.linalg" in sys.modules, "scipy.linalg._flapack" in sys.modules)
"""

# A cold solve that falls back to scipy (Q = 0 fails the sign function's
# gate), run after each of the ways the LAPACK extension can be loaded.
FALLBACK = """\
import sys
import numpy as np
from formation_guidance import numerics

{before}
numerics.solve_are(-np.eye(2), np.eye(2), np.zeros((2, 2)), np.eye(2))
loaded = "scipy.linalg" in sys.modules
import scipy.linalg
print(loaded and scipy.linalg.lapack.dgees is numerics.lapack().dgees
      and sys.modules["scipy.linalg._flapack"] is numerics.lapack())
"""


def _run(tmp_path, code, *args):
    """Standard output of a fresh interpreter that runs ``code`` with the
    library's source on its path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path), *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def _loads(tmp_path, kinds):
    """Whether a fresh interpreter that imports ``formation_guidance.cli``
    and runs ``kinds`` on the geometry ends with ``scipy.linalg``, and
    with its LAPACK extension ``scipy.linalg._flapack``, loaded."""
    args = [arg for kind in kinds for arg in (kind, GEOMETRY + CONTROLLERS[kind])]
    out = _run(tmp_path, PROBE, *args)
    assert all((tmp_path / f"{kind}_metrics.csv").exists() for kind in kinds)
    return tuple({"True": True, "False": False}[word] for word in out.split())


def test_lqr_nnlqr_and_zero_runs_never_import_scipy_linalg(tmp_path):
    assert _loads(tmp_path, ["lqr", "nnlqr", "zero"]) == (False, False)


@pytest.mark.parametrize("kind", ["fsdre", "fsdre-open", "mpsp", "gmpsp"])
def test_finite_horizon_and_predictive_runs_never_import_scipy_linalg(tmp_path, kind):
    assert _loads(tmp_path, [kind]) == (False, False)


@pytest.mark.parametrize("kinds", [[], ["sdre"]])
def test_sdre_runs_load_the_lapack_extension_alone(tmp_path, kinds):
    """The SDRE law's warm step loads ``scipy.linalg._flapack`` through
    ``numerics.lapack`` and never ``scipy.linalg``; importing the library
    alone loads neither."""
    assert _loads(tmp_path, kinds) == (False, bool(kinds))


@pytest.mark.parametrize("before", [
    "",
    "numerics.lapack()",
    "import scipy.linalg\nassert numerics.lapack() is scipy.linalg.lapack._flapack",
], ids=["fallback-only", "extension-first", "scipy-linalg-first"])
def test_the_cold_fallback_imports_scipy_linalg_and_shares_its_lapack(tmp_path, before):
    """The probe's positive control: a cold solve that falls back to
    scipy imports ``scipy.linalg``.  Whichever of ``numerics.lapack`` and
    ``import scipy.linalg`` comes first, both then hold one extension
    module and the same ``dgees``."""
    assert _run(tmp_path, FALLBACK.format(before=before)) == "True\n"
