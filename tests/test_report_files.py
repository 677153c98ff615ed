"""Report files written over existing ones.

``reproduce --out DIR`` and the ``run``/``compare`` commands rewrite the
same files when they are run again.  A rewrite over a longer existing
file must hold exactly the bytes that a write to a fresh path holds, for
every file the library writes: the four CSV reports, ``compare.txt`` and
the scenario configs of ``reproduce``.

The rewrite happens in place: no open truncates the file, because on
ext4 a file truncated to zero and written again is flushed when it is
closed.  The file is cut to its new length when the writer returns or
fails, unless it is not a regular file (a link to ``/dev/null``).
"""

import builtins
import dataclasses
import io
import math
import os

import numpy as np
import pytest

from formation_guidance import cli
from formation_guidance.cli import EXIT_CRITERION, _reproduce_scenario, main
from formation_guidance.dynamics import ChiefOrbit, FormationParams, GravityModel
from formation_guidance.harness import (
    NOT_SETTLED,
    RunResult,
    Scenario,
    compare,
    write_compare_csv,
    write_iteration_log_csv,
    write_metrics_csv,
    write_trajectory_csv,
)
from formation_guidance.options import LqrOptions, ZeroOptions

JUNK = b"\xff\xfe old report,1e+300,-0\r\n"

RING = FormationParams(rho=5.0, theta=math.radians(30.0), m_slope=1.0)
SCENARIO = Scenario(chief=ChiefOrbit(a=10000.0), gravity=GravityModel(), initial=RING,
                    desired=RING, tf=120.0, dt=1.0, controller=ZeroOptions())

CONFIG = """\
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
tf = 120
dt = 1

[controller]
kind = zero
"""


def _result() -> RunResult:
    """A run with special values in every table and a three-row log."""
    rng = np.random.default_rng(28)
    values = rng.normal(size=(41, 10)) * 10.0 ** rng.integers(-300, 300, size=(41, 10))
    values[0] = [math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, -2.5e-310, 1.0, 0.1, 1e300]
    log = [{"iteration": k, "terminal_errors": values[k, :6], "rho_error_pct": values[k, 6],
            "converged": np.bool_(k == 2)} for k in range(3)]
    return RunResult(time=values[:, 0], states=values[:, 1:7], controls=values[:, 7:],
                     terminal_errors=values[1, :6], rho_error_pct=math.nan,
                     control_effort=-0.0, settle_time=NOT_SETTLED, log=log)


@pytest.fixture(scope="module")
def cells():
    """A compare grid whose middle cell failed (a weight that cannot be
    factored)."""
    grid = compare([("nat", SCENARIO)], [ZeroOptions(), LqrOptions(r_weight=1e-320), LqrOptions()])
    assert grid[1].result is None and grid[0].result is not None
    return grid


def _written(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def assert_rewrite_equals_fresh(tmp_path, write_into):
    """``write_into(directory)`` writes its files into a fresh directory,
    and again into one where each of those files already holds junk
    longer than its new text; both must hold the same bytes."""
    fresh, old = tmp_path / "fresh", tmp_path / "old"
    fresh.mkdir(parents=True)
    old.mkdir()
    write_into(fresh)
    expected = _written(fresh)
    assert expected and all(expected.values())
    for name, data in expected.items():
        (old / name).write_bytes(JUNK * (2 * len(data) // len(JUNK) + 100))
    write_into(old)
    assert _written(old) == expected


@pytest.fixture
def writers(tmp_path, monkeypatch, cells):
    """Each way the library writes files, as ``write_into(directory)``:
    the four CSV writers, the ``compare`` command and ``reproduce``'s
    per-scenario writer."""
    result = _result()
    cfg = tmp_path / "nat.cfg"
    cfg.write_text(CONFIG, encoding="utf-8")
    monkeypatch.setattr(cli, "compare", lambda scenarios, controllers: cells)

    def compare_command(directory):
        argv = ["compare", str(cfg), "--controllers", "zero,lqr", "--out", str(directory)]
        assert main(argv) == EXIT_CRITERION

    return {
        "trajectory": lambda d: write_trajectory_csv(d / "t.csv", result),
        "metrics": lambda d: write_metrics_csv(d / "m.csv", [("a", result), ("b", result)]),
        "iterations": lambda d: write_iteration_log_csv(d / "i.csv", result),
        "compare-csv": lambda d: write_compare_csv(d / "c.csv", cells),
        "compare-command": compare_command,
        "reproduce": lambda d: _reproduce_scenario(d, "p", "run", SCENARIO, lambda _: result),
    }


WRITERS = ["trajectory", "metrics", "iterations", "compare-csv", "compare-command", "reproduce"]


@pytest.mark.parametrize("writer", WRITERS)
def test_each_writer_rewrites_to_the_fresh_bytes(tmp_path, writers, writer):
    assert_rewrite_equals_fresh(tmp_path / "out", writers[writer])


def test_the_commands_write_every_file_they_name(tmp_path, writers, cells):
    out = tmp_path / "out"
    out.mkdir()
    for name in ("compare-command", "reproduce"):
        writers[name](out)
    assert sorted(p.name for p in out.iterdir()) == [
        "compare.csv", "compare.txt",
        "p_run.cfg", "p_run_iterations.csv", "p_run_metrics.csv", "p_run_trajectory.csv"]
    table = (out / "compare.txt").read_text(encoding="utf-8")
    assert f"error: {cells[1].error}" in table


@pytest.fixture
def opens(monkeypatch):
    """``(os_opens, path_opens)``: the ``(path, flags)`` of every
    ``os.open``, and the ``(path, mode)`` of every ``open``/``io.open`` of
    a path (not a descriptor) in a writing mode, from here on."""
    os_opens, path_opens = [], []
    real_os_open, real_open = os.open, builtins.open

    def spy_os_open(path, flags, *args, **kwargs):
        os_opens.append((os.fspath(path), flags))
        return real_os_open(path, flags, *args, **kwargs)

    def spy_open(file, mode="r", *args, **kwargs):
        if not isinstance(file, int) and set(mode) & set("wax+"):
            path_opens.append((os.fspath(file), mode))
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(os, "open", spy_os_open)
    monkeypatch.setattr(builtins, "open", spy_open)
    monkeypatch.setattr(io, "open", spy_open)
    return os_opens, path_opens


@pytest.mark.parametrize("writer", WRITERS)
def test_each_file_is_opened_without_truncation(tmp_path, writers, opens, writer):
    out = tmp_path / "out"
    out.mkdir()
    writers[writer](out)
    os_opens, path_opens = opens
    del os_opens[:], path_opens[:]
    writers[writer](out)
    written = {str(p) for p in out.iterdir()}
    assert not [(path, mode) for path, mode in path_opens if path in written]
    flags = {path: f for path, f in os_opens if path in written}
    assert flags.keys() == written
    assert all(f & os.O_TRUNC == 0 for f in flags.values())


@pytest.mark.parametrize("writer", WRITERS)
def test_a_link_to_the_null_device_is_written_through(tmp_path, writers, writer):
    fresh, null = tmp_path / "fresh", tmp_path / "null"
    fresh.mkdir()
    null.mkdir()
    writers[writer](fresh)
    for path in fresh.iterdir():
        (null / path.name).symlink_to(os.devnull)
    writers[writer](null)
    assert all((null / path.name).is_symlink() for path in fresh.iterdir())


def test_a_failed_write_leaves_the_file_cut_where_it_failed(tmp_path):
    """A row that cannot be formatted, after more rows than one write
    buffer holds: the file keeps the rows before it and nothing of the
    longer file it replaced."""
    n, bad = 2000, 1500
    result = dataclasses.replace(_result(), time=np.arange(n + 1.0),
                                 states=np.ones((n + 1, 6)).astype(object),
                                 controls=np.zeros((n + 1, 3)))
    result.states[bad, 2] = "not a number"
    path = tmp_path / "t.csv"
    path.write_bytes(JUNK * 100_000)
    with pytest.raises(TypeError):
        write_trajectory_csv(path, result)
    cut = dataclasses.replace(result, time=result.time[:bad], states=result.states[:bad],
                              controls=result.controls[:bad])
    write_trajectory_csv(tmp_path / "fresh.csv", cut)
    expected = (tmp_path / "fresh.csv").read_bytes()
    assert len(expected) > 8192
    assert path.read_bytes() == expected
