#!/usr/bin/env python3
"""Kill ``-9`` a sweep mid-run, resume it, and verify exactly-once execution.

The checkpoint tier's end-to-end smoke (see ``docs/resilience.md``): a
child process runs a small checkpointed plan on two pool workers, the
drivers' default path; the parent waits until the run manifest records at
least one completed request, SIGKILLs the child — the real signal, not an
exception — and then re-runs the same command with ``--resume``.  It
asserts:

1. the killed run left a parseable manifest and durable cache entries;
2. the resumed run executes only the missing requests (everything the
   manifest recorded is served from the cache);
3. the combined results are bit-identical to an uninterrupted run;
4. a second resume is fully warm and executes nothing.

Used by the CI ``chaos`` job; also a quick local health check::

    PYTHONPATH=src python tools/chaos_smoke.py
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.config import SystemConfig  # noqa: E402
from repro.sim.engine import (  # noqa: E402
    MultiprocessRunner,
    ResultCache,
    SerialRunner,
    SimEngine,
    SimPlan,
    SimRequest,
)
from repro.sim.engine.checkpoint import manifest_paths, read_manifest  # noqa: E402

#: The sweep: small enough to finish in seconds, large enough that a kill
#: lands mid-run once the first completion is visible in the manifest.
PLAN_POINTS = [
    (workload, mode)
    for workload in ("intsort", "randacc")
    for mode in ("none", "stride")
]


def build_plan() -> SimPlan:
    config = SystemConfig.scaled()
    return SimPlan(
        SimRequest(workload=w, mode=m, scale="tiny", seed=3, config=config)
        for w, m in PLAN_POINTS
    )


def run_child(cache_dir: str, ckpt_dir: str, resume: bool) -> int:
    """Child mode: execute the checkpointed plan and print its stats."""

    engine = SimEngine(
        runner=MultiprocessRunner(2, trace_store=None),
        cache=ResultCache(cache_dir),
        checkpoint_dir=ckpt_dir,
        resume=resume,
    )
    batch = engine.run(build_plan())
    print(json.dumps({
        "executed": batch.stats.executed,
        "resumed": batch.stats.resumed,
        "failed": batch.stats.failed,
        "results": {d: r.as_dict() for d, r in batch.results.items()},
        "skipped": sorted(batch.skipped),
    }))
    return 0


def spawn_child(cache_dir: str, ckpt_dir: str, resume: bool) -> subprocess.Popen:
    command = [sys.executable, __file__, "--child",
               "--cache", cache_dir, "--checkpoint", ckpt_dir]
    if resume:
        command.append("--resume")
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        str(Path(__file__).resolve().parent.parent / "src")
        + os.pathsep + env.get("PYTHONPATH", "")
    )
    return subprocess.Popen(command, stdout=subprocess.PIPE, env=env, text=True)


def recorded_entries(ckpt_dir: str) -> int:
    paths = manifest_paths(ckpt_dir) if Path(ckpt_dir).is_dir() else []
    total = 0
    for path in paths:
        data = read_manifest(path)
        if data is not None:
            total += len(data["entries"])
    return total


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--child", action="store_true")
    parser.add_argument("--cache")
    parser.add_argument("--checkpoint")
    parser.add_argument("--resume", action="store_true")
    args = parser.parse_args()
    if args.child:
        return run_child(args.cache, args.checkpoint, args.resume)

    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as scratch:
        cache_dir = str(Path(scratch) / "cache")
        ckpt_dir = str(Path(scratch) / "ckpt")

        # An uninterrupted reference run, in separate directories.
        reference = SimEngine(runner=SerialRunner(trace_store=None)).run(build_plan())
        total = len(build_plan())

        # Phase 1: run until the manifest shows progress, then kill -9.
        victim = spawn_child(cache_dir, ckpt_dir, resume=False)
        deadline = time.monotonic() + 300.0
        while recorded_entries(ckpt_dir) < 1:
            if victim.poll() is not None:
                break  # tiny machine raced the whole plan: resume is warm
            assert time.monotonic() < deadline, "no manifest progress in time"
            time.sleep(0.005)
        if victim.poll() is None:
            os.kill(victim.pid, signal.SIGKILL)
            victim.wait(timeout=60)
            print(f"killed child pid={victim.pid} with SIGKILL")
            assert victim.returncode == -signal.SIGKILL
        banked = recorded_entries(ckpt_dir)
        print(f"manifest recorded {banked}/{total} requests at the kill point")
        assert banked >= 1

        # Phase 2: resume executes only the missing requests.
        resumer = spawn_child(cache_dir, ckpt_dir, resume=True)
        stats = json.loads(resumer.communicate(timeout=600)[0])
        assert resumer.returncode == 0
        print(f"resume: executed={stats['executed']} resumed={stats['resumed']}")
        assert stats["failed"] == 0
        # Every manifest entry was honored; a cache write that beat the
        # kill without its manifest record still serves as a cache hit, so
        # the resume never re-executes anything that completed.
        assert stats["resumed"] >= banked
        assert stats["executed"] <= total - stats["resumed"]
        assert stats["results"] == {
            d: r.as_dict() for d, r in reference.results.items()
        }, "resumed results must be bit-identical to an uninterrupted run"
        assert sorted(stats["skipped"]) == sorted(reference.skipped)

        # Phase 3: a second resume is fully warm.
        warm = spawn_child(cache_dir, ckpt_dir, resume=True)
        stats = json.loads(warm.communicate(timeout=600)[0])
        assert warm.returncode == 0
        assert stats["executed"] == 0, "warm resume must execute nothing"
        assert stats["resumed"] == total
        print("warm resume executed nothing")

    print("chaos smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
