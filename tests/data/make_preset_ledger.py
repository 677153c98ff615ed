"""Regenerate ``preset_ledger.json``, the SHA-256 of every file that
``formation-guidance reproduce`` writes for each packaged preset, with
the stack the digests were taken on.  Run from the repository root:

    PYTHONPATH=src python tests/data/make_preset_ledger.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy
import scipy

from formation_guidance import cli

LEDGER = Path(__file__).with_name("preset_ledger.json")


def stack() -> dict[str, str]:
    """The interpreter, libraries and machine the digests hold on."""
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def digests(out: Path) -> dict[str, str]:
    """SHA-256 of each file in the directory ``out``, by file name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


def main() -> int:
    presets = {}
    for name in cli.PRESETS:
        with tempfile.TemporaryDirectory() as tmp:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["reproduce", name, "--out", tmp])
            if code != cli.EXIT_OK:
                print(f"preset {name} exited with {code}", file=sys.stderr)
                return 1
            presets[name] = digests(Path(tmp))
    ledger = {"stack": stack(), "presets": presets}
    LEDGER.write_text(json.dumps(ledger, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
