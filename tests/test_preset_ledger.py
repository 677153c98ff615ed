"""Every packaged preset writes the bytes recorded in
``data/preset_ledger.json``: its scenario configs and its trajectory,
metrics and iteration CSVs, named and written by the function that
``reproduce`` writes them with.  The digests are defined only on the
stack the ledger records; ``data/make_preset_ledger.py`` regenerates
it."""

import importlib.util
import json
from pathlib import Path

import pytest

from formation_guidance.cli import PRESETS, _reproduce_scenario

DATA = Path(__file__).parent / "data"
_spec = importlib.util.spec_from_file_location("make_preset_ledger", DATA / "make_preset_ledger.py")
ledger_tool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ledger_tool)


def _changed_files(preset_results, tmp_path, over_longer_files):
    """Preset files whose digest differs from the ledger.  With
    over_longer_files each preset is written twice, and between the two
    writes every file it wrote is replaced by longer junk: a rerun into
    the same directory rewrites the files in place."""
    ledger = json.loads(ledger_tool.LEDGER.read_text(encoding="utf-8"))
    stack = ledger_tool.stack()
    if ledger["stack"] != stack:
        pytest.skip(f"ledger recorded on {ledger['stack']}, this stack is {stack}")
    assert sorted(ledger["presets"]) == sorted(PRESETS)
    changed = []
    for preset, recorded in ledger["presets"].items():
        out = tmp_path / preset
        out.mkdir()
        scenarios, results, _ = preset_results(preset)
        for _ in range(1 + over_longer_files):
            for path in out.iterdir():
                path.write_bytes(b"\xff junk\n" * (path.stat().st_size // 4 + 100))
            for name, scn in scenarios.items():
                _reproduce_scenario(out, preset, name, scn, lambda _: results[name])
        written = ledger_tool.digests(out)
        changed += [f"{preset}/{f}" for f in sorted(recorded.keys() | written.keys())
                    if recorded.get(f) != written.get(f)]
    return changed


def test_preset_outputs_match_the_ledger(preset_results, tmp_path):
    changed = _changed_files(preset_results, tmp_path, over_longer_files=False)
    assert not changed, f"preset outputs differ from the ledger: {', '.join(changed)}"


def test_preset_outputs_rewritten_over_longer_files_match_the_ledger(preset_results, tmp_path):
    changed = _changed_files(preset_results, tmp_path, over_longer_files=True)
    assert not changed, f"rewritten preset outputs differ from the ledger: {', '.join(changed)}"


def test_drift_states_each_changed_column_and_names_other_files(tmp_path, capsys):
    old, new = tmp_path / "old", tmp_path / "new"
    old.mkdir()
    new.mkdir()
    for tree, x, name, settle in ((old, "4", "a", "inf"), (new, "4.000002", "b", "120")):
        (tree / "p_run_metrics.csv").write_text(
            f"name,ex,ey,effort,settle_time\n{name},{x},-2,inf,{settle}\n{name},-8,0,0,0\n",
            encoding="utf-8")
        (tree / "p_run_trajectory.csv").write_text("t,x\n0,1\n", encoding="utf-8")
    (old / "p_run.cfg").write_text("tf = 10\n", encoding="utf-8")
    (new / "p_run.cfg").write_text("tf = 20\n", encoding="utf-8")
    (new / "p_run_iterations.csv").write_text("iteration\n0\n", encoding="utf-8")
    (old / "p_short_trajectory.csv").write_text("t,x\n0,1\n", encoding="utf-8")
    (new / "p_short_trajectory.csv").write_text("t,x\n0,1\n1,2\n", encoding="utf-8")
    assert ledger_tool.main(["--drift", str(old), str(new)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "p_run.cfg: differs",
        "p_run_iterations.csv: differs",
        "p_run_metrics.csv: name text, ex 2.5e-07, ey 0, effort 0, settle_time inf",
        "p_short_trajectory.csv: differs",
    ]
    assert ledger_tool.main(["--drift", str(old), str(old)]) == 0
    assert capsys.readouterr().out == "no file differs\n"
