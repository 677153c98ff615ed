"""Benchmark of the formation-guidance library.  Run from the repository root:

    python3 perfbench/run.py --workload sdre-sweep --seed 1 --seconds 30 --trace 0

``--workload`` is one of the workloads in ``workloads.py``, or ``all``.
With ``--trace 0`` it prints the end-to-end metrics of each workload
(``wall_s``, ``setup_s``, ``peak_rss_mb``, ``fail_frac``,
``pos_err_km``); with ``--trace 1`` it prints the per-layer metrics of a
traced run instead.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit code is 0 when every workload check passed, 1 when one failed and 2
when the benchmark could not run at all.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import unit_of
from worker import THREAD_VARS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
DEFAULT_SEED = 1
# Fresh interpreters timed for setup_s; the first only warms the file
# and bytecode caches and is not counted.
SETUP_PROBES = 9
# Each workload must finish within 180 s.
DEADLINE_S = 170.0


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    env.update({var: "1" for var in THREAD_VARS})
    return env


def _run_worker(args: list[str], timeout: float) -> dict:
    if timeout <= 0:
        raise BenchmarkError("out of time")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            env=_child_env(),
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(
            f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    try:
        return json.loads(lines[-1])
    except ValueError as exc:
        raise BenchmarkError(f"worker printed no result: {lines[-1][:200]}") from exc


def _setup_seconds(workload: str, seed: int, out: Path, deadline: float) -> list[float]:
    """Fresh interpreter to the first simulated step, once per probe."""
    samples = []
    for probe in range(SETUP_PROBES + 1):
        started = time.time()
        ready = _run_worker(
            ["--workload", workload, "--seed", str(seed), "--out", str(out), "--setup-only"],
            deadline - time.monotonic(),
        )["ready_at"]
        if probe:
            samples.append(ready - started)
    return samples


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def run_workload(workload: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    out = OUT / workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    setup = [] if trace else _setup_seconds(workload, seed, out, deadline)
    report = _run_worker(
        ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(int(trace)), "--out", str(out)],
        deadline - time.monotonic(),
    )
    report["setup"] = setup
    (out / "result.json").write_text(json.dumps(report, indent=1), encoding="utf-8")
    return report


def _print_end_to_end(workload: str, report: dict) -> dict:
    walls, setup = report["walls"], report["setup"]
    wall_lo, wall_hi = _quartiles(walls)
    setup_lo, setup_hi = _quartiles(setup)
    fail_frac = report["failed"] / report["attempted"]
    metrics = {
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
    }
    rows = [
        ("wall_s", f"{metrics['wall_s']['value']:.4f}", "s",
         f"median of {len(walls)} passes, quartiles {wall_lo:.4f}..{wall_hi:.4f}"),
        ("setup_s", f"{metrics['setup_s']['value']:.4f}", "s",
         f"median of {len(setup)} fresh interpreters, quartiles {setup_lo:.4f}..{setup_hi:.4f}"),
        ("peak_rss_mb", f"{report['peak_rss_mb']:.1f}", "MB", "workload process"),
        ("fail_frac", f"{fail_frac:.4g}", "1",
         f"{report['failed']} of {report['attempted']} scenario runs"),
        ("pos_err_km", f"{report['pos_err_km']:.6g}", "km",
         "largest terminal position error, first pass"),
    ]
    for name, value, unit, note in rows:
        print(f"{workload:14s} {name:12s} {value:>12s} {unit:3s}  {note}")
    return metrics


def _print_layers(workload: str, report: dict) -> dict:
    table = report["layer_table"]
    total = sum(row["self_s"] for row in table.values())
    print(f"{workload}: per traced pass, by self time "
          f"({len(report['traced_walls'])} traced, {len(report['walls'])} untraced passes)")
    for name, row in sorted(table.items(), key=lambda item: -item[1]["self_s"]):
        share = row["self_s"] / total if total else 0.0
        print(f"  {name:32s} calls {row['calls']:10.0f}  busy {row['busy_s']:9.4f} s  "
              f"self {row['self_s']:9.4f} s  {100 * share:5.1f}%")
    for name, value in report["layers"].items():
        print(f"  {name} = {value:.6g}")
    return {
        name: {"value": value, "unit": unit_of(name)}
        for name, value in report["layers"].items()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "formation_guidance" / "__init__.py").is_file():
        print(f"perfbench: no src/formation_guidance under {ROOT}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics: dict[str, dict] = {}
    env = None
    for name in names:
        deadline = time.monotonic() + DEADLINE_S
        try:
            report = run_workload(name, args.seed, args.seconds, bool(args.trace), deadline)
        except BenchmarkError as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 2
        attempted += report["attempted"]
        failed += report["failed"]
        for scenario, reason in report["failures"].items():
            print(f"{name:14s} FAIL {scenario}: {reason}")
        shown = (_print_layers if args.trace else _print_end_to_end)(name, report)
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + key: value for key, value in shown.items()})
        env = report["env"]
    print("environment: " + json.dumps(env))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
