"""Regenerate ``preset_ledger.json``, the SHA-256 of every file that
``formation-guidance reproduce`` writes for each packaged preset, with
the stack the digests were taken on; or state the drift between two
``reproduce --out`` trees.  Run from the repository root:

    PYTHONPATH=src python tests/data/make_preset_ledger.py
    PYTHONPATH=src python tests/data/make_preset_ledger.py --drift OLD NEW

``--drift`` prints one line per file that differs: for a CSV, each
column's largest absolute change over that column's largest finite
magnitude in either tree (0 for an unchanged column, "inf" where a
non-finite value changed, "text" for a changed text column); for any
other file, or a CSV whose header or row count changed, its name.  It
exits 1 if a file differs and 0 if none does.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
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


def _column_drift(old: tuple[str, ...], new: tuple[str, ...]) -> str:
    """Largest |new - old| over the largest finite magnitude in either
    column, as text: "inf" if a changed value is not finite, "text" if a
    column that is not all numbers changed."""
    if old == new:
        return "0"
    try:
        changes = [abs(float(x) - float(y)) for x, y in zip(old, new) if x != y]
        scale = max((abs(v) for v in map(float, old + new) if math.isfinite(v)), default=0.0)
    except ValueError:
        return "text"
    if not all(map(math.isfinite, changes)):
        return "inf"
    change = max(changes, default=0.0)
    return f"{change / scale:.3g}" if change else "0"


def drift(old: Path, new: Path) -> list[str]:
    """One line per file that differs between the trees old and new."""
    lines = []
    before, after = digests(old), digests(new)
    for name in sorted(before.keys() | after.keys()):
        if before.get(name) == after.get(name):
            continue
        if name.endswith(".csv") and name in before and name in after:
            a, b = (list(csv.reader((tree / name).read_text(encoding="utf-8").splitlines()))
                    for tree in (old, new))
            if a and len(a) == len(b) and a[0] == b[0]:
                columns = zip(a[0], zip(*a[1:]), zip(*b[1:]))
                lines.append(f"{name}: " + ", ".join(
                    f"{column} {_column_drift(x, y)}" for column, x, y in columns))
                continue
        lines.append(f"{name}: differs")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--drift", nargs=2, metavar=("OLD", "NEW"), type=Path,
                        help="compare two reproduce output trees instead")
    args = parser.parse_args(argv)
    if args.drift:
        lines = drift(*args.drift)
        print("\n".join(lines) if lines else "no file differs")
        return 1 if lines else 0
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
