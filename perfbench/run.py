#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload programmable --seed 42 --seconds 15 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` adds a traced
pass and prints every per-layer metric.  Human-readable lines come first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The run is hermetic:
inherited ``REPRO_*`` variables are cleared and every on-disk tier lives in
a per-run directory under ``.perfbench/`` that is removed on exit.  Span
dumps of traced runs are kept in ``.perfbench/traces/``.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUTPUT = ROOT / ".perfbench"


def make_hermetic(work: Path) -> None:
    """Drop inherited switches and keep every file the program writes in ``work``."""

    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ.update({
        "TMPDIR": str(tmp),
        "XDG_CACHE_HOME": str(work / "xdg-cache"),
        "REPRO_TRACE_STORE": str(work / "default-trace-store"),
        "REPRO_CHECKPOINT_DIR": str(work / "default-checkpoints"),
    })
    tempfile.tempdir = None


#: The ``repro`` modules each workload drives.
MODULES = {
    "programmable": ("repro.config", "repro.sim", "repro.workloads"),
    "baseline": ("repro.config", "repro.sim", "repro.workloads"),
    "reproduce": ("repro.config", "repro.sim", "repro.workloads", "repro.eval.report"),
    "service": ("repro.config", "repro.sim", "repro.workloads", "repro.eval.report",
                "repro.service"),
}
IMPORT_REPEATS = 3

_TIME_IMPORTS = """
import importlib, sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
for name in sys.argv[2:]:
    importlib.import_module(name)
print(time.perf_counter() - start)
"""


def import_seconds(modules: tuple[str, ...]) -> float:
    """Median time to import ``modules`` in a fresh interpreter.

    Imports happen once per process, so set-up repeats them in children.
    """

    seconds = []
    for _ in range(IMPORT_REPEATS):
        child = subprocess.run(
            [sys.executable, "-c", _TIME_IMPORTS, str(SRC), *modules],
            capture_output=True, text=True, timeout=120, check=True)
        seconds.append(float(child.stdout.strip().splitlines()[-1]))
    return statistics.median(seconds)


def import_program(modules: tuple[str, ...]) -> None:
    """Import the simulator from ``src/`` into this process."""

    sys.path.insert(0, str(SRC))
    for name in modules:
        importlib.import_module(name)
    repro = sys.modules["repro"]
    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"repro imported from {repro.__file__}, not from {SRC}")


def provenance() -> list[str]:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    from repro.sim import vector_backend_enabled

    return [
        f"python            {platform.python_version()}",
        f"numpy             {numpy_version} (vector replay "
        f"{'on' if vector_backend_enabled() else 'off'})",
        f"nproc             {os.cpu_count()}",
    ]


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS, Run

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources at {SRC}", file=sys.stderr)
        return 2
    work = OUTPUT / f"run-{os.getpid()}"
    try:
        make_hermetic(work)
        modules = MODULES[args.workload]
        import_program(modules)
        run = Run(root=ROOT, work=work, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=bool(args.trace),
                  import_s=0.0 if args.trace else import_seconds(modules))
        WORKLOADS[args.workload](run)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = min(len(run.failures), run.attempted)
    correct = not run.failures and not run.check_failures
    machine = provenance()
    lines = [f"workload          {run.workload} (seed {run.seed}, trace {args.trace})"]
    lines += machine + run.lines
    lines.append(f"failed_ratio      {failed / max(run.attempted, 1):.6g} ratio "
                 f"({failed} of {run.attempted} operations)")
    metrics = run.layers if run.trace else run.metrics
    lines += [f"{name:<34} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    if run.trace_dump is not None:
        OUTPUT.joinpath("traces").mkdir(parents=True, exist_ok=True)
        path = OUTPUT / "traces" / f"{run.workload}-seed{run.seed}.json"
        path.write_text(json.dumps({
            "workload": run.workload, "seed": run.seed, "provenance": machine,
            "layers": {name: {"value": value, "unit": unit}
                       for name, (value, unit) in run.layers.items()},
            **run.trace_dump,
        }, indent=1))
        lines.append(f"spans written to  {path.relative_to(ROOT)}")
    for problem in run.failures + run.check_failures:
        lines.append(f"FAILED            {problem}")
    lines.append(f"verdict           {'correct' if correct else 'INCORRECT'}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
