"""Self-test of the benchmark's workload checks and failure accounting.

Each test feeds a corrupted result to the checks, without simulating,
and requires the benchmark to report a failure.  Run from the
repository root with ``python3 -m pytest perfbench/tests -q``.
"""

import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import workloads
import worker
from formation_guidance import cli, harness

SEED = 7
BENCH = Path(__file__).resolve().parent.parent


def _scenarios(workload):
    return {
        name: cli.config_to_scenario(cli.parse_config_text(text))
        for name, text in workloads.generate(workload, SEED)
    }


def _result(scenario, offset_km=0.0, corrections=2, effort=1.0):
    """A run that starts 1 km off the command and ends offset_km off it, in x."""
    times = np.arange(scenario.n_steps + 1) * scenario.dt
    desired, _ = harness.desired_trajectory(scenario, times)
    states = desired.copy()
    states[0, 0] += 1.0
    states[-1, 0] += offset_km
    log = [
        {"iteration": k, "terminal_errors": np.zeros(6), "rho_error_pct": 0.0,
         "converged": k == corrections}
        for k in range(corrections + 1)
    ]
    return harness.RunResult(
        time=times,
        states=states,
        controls=np.zeros((len(times), 3)),
        terminal_errors=states[-1] - desired[-1],
        rho_error_pct=0.0,
        control_effort=effort,
        settle_time=0.0,
        log=log,
    )


def _summaries(workload, **per_scenario):
    scenarios = _scenarios(workload)
    return {
        name: checks.summarize(scn, _result(scn, **per_scenario.get(name, {})))
        for name, scn in scenarios.items()
    }


def _sweep_efforts(efforts):
    return {
        name: {"effort": effort, "corrections": 0}
        for name, effort in zip(_scenarios("sdre-sweep"), efforts)
    }


def test_clean_results_pass_every_check():
    assert checks.check("sdre-sweep", _summaries("sdre-sweep", **_sweep_efforts([4, 3, 2, 1]))) == {}
    assert checks.check("predictive-j2", _summaries("predictive-j2")) == {}
    assert checks.check("uncertain-j2", _summaries("uncertain-j2")) == {}


def test_terminal_state_off_by_one_km_fails_the_solver_bound():
    runs = _summaries("predictive-j2", mpsp={"offset_km": 1.0})
    failed = checks.check("predictive-j2", runs)
    assert list(failed) == ["mpsp"]
    assert "terminal position error" in failed["mpsp"]
    assert runs["mpsp"].pos_err_km == pytest.approx(1.0)


def test_gmpsp_log_without_corrections_fails():
    failed = checks.check("predictive-j2", _summaries("predictive-j2", gmpsp={"corrections": 0}))
    assert list(failed) == ["gmpsp"]
    assert "no correction" in failed["gmpsp"]


def test_effort_out_of_order_fails():
    failed = checks.check("sdre-sweep", _summaries("sdre-sweep", **_sweep_efforts([4, 2, 3, 1])))
    assert list(failed) == ["R1e+10"]


def test_nnlqr_ending_farther_than_it_started_fails():
    runs = _summaries("uncertain-j2")
    runs["nnlqr"] = dataclasses.replace(runs["nnlqr"], pos_err_km=runs["nnlqr"].initial_err_km)
    assert list(checks.check("uncertain-j2", runs)) == ["nnlqr"]


def test_non_finite_state_fails():
    scenario = _scenarios("uncertain-j2")["lqr"]
    result = _result(scenario)
    result.states[3, 2] = np.nan
    runs = _summaries("uncertain-j2")
    runs["lqr"] = checks.summarize(scenario, result)
    assert "non-finite" in checks.check("uncertain-j2", runs)["lqr"]


def test_workload_pass_counts_corrupted_and_raising_scenarios(tmp_path, monkeypatch):
    workload = worker.Workload("predictive-j2", SEED, tmp_path)

    def corrupted(scenario):
        if scenario.controller.kind == "fsdre":
            raise RuntimeError("solver blew up")
        return _result(scenario, offset_km=1.0 if scenario.controller.kind == "gmpsp" else 0.0)

    monkeypatch.setattr(harness, "run_scenario", corrupted)
    workload.run_pass()
    assert workload.attempted == 3
    assert workload.failed == 2
    assert "terminal position error" in workload.failures["gmpsp"]
    assert "RuntimeError" in workload.failures["fsdre-open"]
    assert workload.pos_err_km == pytest.approx(1.0)
    assert (tmp_path / "mpsp_iterations.csv").is_file()


def test_pass_that_differs_from_the_first_fails(tmp_path, monkeypatch):
    workload = worker.Workload("uncertain-j2", SEED, tmp_path)
    offset = iter([0.0, 0.0, 0.0, 1e-12])
    monkeypatch.setattr(harness, "run_scenario", lambda s: _result(s, offset_km=next(offset)))
    workload.run_pass()
    assert workload.failed == 0
    workload.run_pass()
    assert workload.failures == {"nnlqr": "result differs from the first pass"}


def test_same_seed_same_configs_and_seeds_differ():
    for name in workloads.WORKLOADS:
        assert workloads.generate(name, SEED) == workloads.generate(name, SEED)
        assert workloads.generate(name, SEED) != workloads.generate(name, SEED + 1)


def test_without_the_library_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "sdre-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
