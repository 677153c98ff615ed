"""One workload process: generate, parse, run, write reports, check.

Started by ``run.py`` in a fresh interpreter with BLAS/OpenMP pinned to
one thread.  With ``--setup-only`` it stops at the first simulated step
and prints the wall-clock time it got there, which ``run.py`` turns into
``setup_s``.  Otherwise it repeats the workload for ``--seconds`` and
prints one JSON line with the pass times, failures, errors, peak memory
and, with ``--trace 1``, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Every matrix is 6x6 or 12x12: extra BLAS/OpenMP threads only add
# scheduler noise on a small machine, so run.py pins these to 1.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": _cpu_model(),
        "seed": seed,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def _import_library():
    import formation_guidance
    from formation_guidance import cli, harness

    source = Path(formation_guidance.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise SystemExit(f"formation_guidance imported from {source}, not from this checkout")
    return cli, harness


class Workload:
    """The generated configs of one workload and the passes run over them."""

    def __init__(self, name: str, seed: int, out: Path) -> None:
        import workloads

        self.cli, self.harness = _import_library()
        self.name = name
        self.out = out
        self.configs = []
        for scenario_name, text in workloads.generate(name, seed):
            path = out / f"{scenario_name}.cfg"
            path.write_text(text, encoding="utf-8")
            self.configs.append((scenario_name, path))
        self.first: dict | None = None
        self.attempted = 0
        self.failures: dict[str, str] = {}
        self.failed = 0
        self.pos_err_km = 0.0

    def run_pass(self) -> float:
        """Run every scenario once; return the wall time and record failures."""
        import checks

        cli, harness, out = self.cli, self.harness, self.out
        finished, failed = [], {}
        start = time.perf_counter()
        for name, path in self.configs:
            try:
                scenario = cli.parse_config(path)
                result = harness.run_scenario(scenario)
                harness.write_trajectory_csv(out / f"{name}_trajectory.csv", result)
                harness.write_metrics_csv(out / f"{name}_metrics.csv", [(name, result)])
                if result.log:
                    harness.write_iteration_log_csv(out / f"{name}_iterations.csv", result)
            except Exception as exc:
                failed[name] = f"raised {type(exc).__name__}: {exc}"
                continue
            finished.append((name, scenario, result))
        wall = time.perf_counter() - start

        runs = {name: checks.summarize(s, r) for name, s, r in finished}
        for name, reason in checks.check(self.name, runs).items():
            failed.setdefault(name, reason)
        if self.first is None:
            self.first = runs
            self.pos_err_km = max((r.pos_err_km for r in runs.values()), default=0.0)
        for name, run in runs.items():
            if self.first.get(name) != run:
                failed.setdefault(name, "result differs from the first pass")
        self.attempted += len(self.configs)
        self.failed += len(failed)
        for name, reason in failed.items():
            self.failures.setdefault(name, reason)
        return wall


def run_setup_probe(args) -> dict:
    workload = Workload(args.workload, args.seed, args.out)
    for _, path in workload.configs:
        workload.cli.parse_config(path)
    return {"ready_at": time.time()}


def run_workload(args) -> dict:
    import tracing

    workload = Workload(args.workload, args.seed, args.out)
    deadline = time.perf_counter() + args.seconds
    walls: list[float] = []
    traced_walls: list[float] = []
    tracer = tracing.Tracer() if args.trace else None
    while True:
        walls.append(workload.run_pass())
        if tracer is not None:
            tracer.install()
            try:
                traced_walls.append(workload.run_pass())
            finally:
                tracer.uninstall()
        next_pass = statistics.median(walls) + (statistics.median(traced_walls) if tracer else 0.0)
        if time.perf_counter() + next_pass > deadline:
            break

    report = {
        "walls": walls,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "failures": workload.failures,
        "pos_err_km": workload.pos_err_km,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(args.seed),
    }
    if tracer is not None:
        layers, table = tracing.layer_metrics(tracer, len(traced_walls))
        layers["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        report.update(traced_walls=traced_walls, layers=layers, layer_table=table)
        _write_spans(tracer, args.out / "spans.csv")
    return report


def _write_spans(tracer, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index,name,start_s,end_s,parent,failed\n")
        for index, (name, start, end, parent, failed) in enumerate(tracer.spans):
            fh.write(f"{index},{name},{start!r},{end!r},{parent},{int(failed)}\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    report = run_setup_probe(args) if args.setup_only else run_workload(args)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
