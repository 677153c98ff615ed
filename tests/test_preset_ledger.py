"""Every packaged preset writes the bytes recorded in
``data/preset_ledger.json``: its scenario configs and its trajectory,
metrics and iteration CSVs.  The digests are defined only on the stack
the ledger records; ``data/make_preset_ledger.py`` regenerates it."""

import importlib.util
import json
from pathlib import Path

import pytest

from formation_guidance.cli import PRESETS, _emit_run, serialize_scenario

DATA = Path(__file__).parent / "data"
_spec = importlib.util.spec_from_file_location("make_preset_ledger", DATA / "make_preset_ledger.py")
ledger_tool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ledger_tool)


def test_preset_outputs_match_the_ledger(preset_results, tmp_path):
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
        for name, scn in scenarios.items():
            (out / f"{preset}_{name}.cfg").write_text(serialize_scenario(scn), encoding="utf-8")
            _emit_run(out, f"{preset}_{name}", results[name])
        written = ledger_tool.digests(out)
        changed += [f"{preset}/{f}" for f in sorted(recorded.keys() | written.keys())
                    if recorded.get(f) != written.get(f)]
    assert not changed, f"preset outputs differ from the ledger: {', '.join(changed)}"
