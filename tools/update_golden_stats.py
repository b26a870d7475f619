#!/usr/bin/env python3
"""Regenerate the golden-stats fingerprint files for the equivalence suite.

The golden file (``tests/data/golden_stats.json``) pins the complete
:class:`~repro.sim.results.SimulationResult` — cycles, instructions, every
core/hierarchy counter and (for programmable modes) the prefetcher engine
statistics — for **every registered workload × every available prefetch
mode** at test (tiny) scale.  ``tests/test_sim_integration.py`` asserts each
simulation reproduces its fingerprint *bit-for-bit*, which is the guard that
lets the hot-path code be restructured for speed without any risk of
silently changing the timing model.

A second file (``tests/data/engine_paths.json``) pins the programmable
engine paths the golden matrix never takes: each scheduling policy, with
and without blocking, with default and with 1-entry observation and request
queues, on two small workloads (``tests/test_engine_paths.py``).

Only run this tool when the timing model is *intentionally* changed (a new
feature or a deliberate model fix), never to "make the tests pass" after an
optimisation — an optimisation that changes any number is a bug::

    python tools/update_golden_stats.py          # rewrite both files
    python tools/update_golden_stats.py --check  # verify without writing
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parents[1]
_SRC = _REPO_ROOT / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.config import SystemConfig  # noqa: E402
from repro.sim.modes import PrefetchMode, mode_available  # noqa: E402
from repro.sim.engine.request import resolve_policy  # noqa: E402
from repro.sim.system import simulate  # noqa: E402
from repro.workloads import build_workload, registry  # noqa: E402

#: Where the fingerprints live, relative to the repository root.
GOLDEN_PATH = _REPO_ROOT / "tests" / "data" / "golden_stats.json"

#: Where the engine-path fingerprints live, relative to the repository root.
ENGINE_PATHS_PATH = _REPO_ROOT / "tests" / "data" / "engine_paths.json"

#: Fingerprinted scale and seed — the test suite's standard tiny scale.
SCALE = "tiny"
SEED = 42

#: The engine-path matrix: workloads × scheduling policies × modes (the
#: event-triggered engine and the Figure 11 blocking ablation) × queue
#: depths (``None`` keeps the defaults; with 1, a push drops the waiting
#: entry whenever one is still queued).
ENGINE_PATH_WORKLOADS = ("randacc", "g500-list")
ENGINE_PATH_POLICIES = ("lowest-free-id", "round-robin")
ENGINE_PATH_MODES = (PrefetchMode.MANUAL, PrefetchMode.MANUAL_BLOCKED)
ENGINE_PATH_QUEUE_ENTRIES = (None, 1)


def engine_path_config(config: SystemConfig, queue_entries: int | None) -> SystemConfig:
    """``config`` with both prefetcher queues cut to ``queue_entries``."""

    if queue_entries is None:
        return config
    return config.with_prefetcher(
        observation_queue_entries=queue_entries, prefetch_queue_entries=queue_entries
    )


def engine_path_key(workload: str, mode: str, policy: str, queue_entries: int | None) -> str:
    queues = "default-queues" if queue_entries is None else f"{queue_entries}-entry-queues"
    return f"{workload}/{mode}/{policy}/{queues}"


def compute_golden_stats() -> dict[str, dict]:
    """Simulate every (workload, available mode) point and collect fingerprints."""

    config = SystemConfig.scaled()
    golden: dict[str, dict] = {}
    for name in registry.names():
        workload = build_workload(name, scale=SCALE, seed=SEED)
        for mode in PrefetchMode:
            if not mode_available(workload, mode):
                continue
            result = simulate(workload, mode, config)
            # JSON round-trip normalises containers (tuples -> lists) so the
            # stored fingerprint compares equal to a re-loaded one.
            golden[f"{name}/{mode.value}"] = json.loads(json.dumps(result.as_dict()))
    return golden


def compute_engine_path_stats() -> dict[str, dict]:
    """Simulate every point of the engine-path matrix and collect fingerprints."""

    config = SystemConfig.scaled()
    pinned: dict[str, dict] = {}
    for name in ENGINE_PATH_WORKLOADS:
        workload = build_workload(name, scale=SCALE, seed=SEED)
        for policy in ENGINE_PATH_POLICIES:
            for mode in ENGINE_PATH_MODES:
                for queue_entries in ENGINE_PATH_QUEUE_ENTRIES:
                    result = simulate(
                        workload,
                        mode,
                        engine_path_config(config, queue_entries),
                        policy=resolve_policy(policy),
                    )
                    key = engine_path_key(name, mode.value, policy, queue_entries)
                    pinned[key] = json.loads(json.dumps(result.as_dict()))
    return pinned


def _check(path: Path, computed: dict[str, dict]) -> int:
    committed = json.loads(path.read_text(encoding="utf-8"))
    mismatched = sorted(
        key for key in set(committed) | set(computed) if committed.get(key) != computed.get(key)
    )
    for key in mismatched:
        print(f"MISMATCH: {key}", file=sys.stderr)
    print(f"checked {len(computed)} fingerprints in {path.name}: {len(mismatched)} mismatches")
    return len(mismatched)


def _write(path: Path, computed: dict[str, dict]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(computed, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(computed)} fingerprints to {path}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--check", action="store_true",
                        help="compare against the committed file instead of writing")
    parser.add_argument("--output", default=str(GOLDEN_PATH), metavar="PATH")
    args = parser.parse_args(argv)

    files = [
        (Path(args.output), compute_golden_stats()),
        (ENGINE_PATHS_PATH, compute_engine_path_stats()),
    ]
    if args.check:
        return 1 if sum(_check(path, computed) for path, computed in files) else 0
    for path, computed in files:
        _write(path, computed)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
