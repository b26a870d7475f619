"""Pinned fingerprints for the programmable-engine paths the golden matrix skips.

The golden suite runs every programmable mode with the paper's
lowest-free-id scheduler and default queue depths.  This matrix adds the
round-robin policy and 1-entry observation and request queues (where a push
drops the waiting entry whenever one is still queued), each with the
event-triggered engine and the Figure 11 blocking ablation, on two small
workloads.  The fingerprints
in ``tests/data/engine_paths.json`` come from ``tools/update_golden_stats.py``
and must be reproduced bit for bit.

Beyond the pinned matrix, every tiny programmable point is checked for the
engine's conservation laws under three more configurations, a scheduling
policy object reused across runs must not carry state between them, and
the engine's inlined lowest-free-id scan must dispatch exactly as the
policy's ``select`` does.
"""

import importlib.util
import itertools
import json
from pathlib import Path

import pytest

from repro.config import SystemConfig
from repro.programmable.scheduler import LowestFreeIdPolicy, RoundRobinPolicy
from repro.sim import simulate
from repro.sim.engine.request import resolve_policy
from repro.sim.modes import PrefetchMode, mode_available
from repro.workloads import registry

_ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "update_golden_stats", _ROOT / "tools" / "update_golden_stats.py"
)
golden_tool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_tool)

MATRIX = list(
    itertools.product(
        golden_tool.ENGINE_PATH_WORKLOADS,
        golden_tool.ENGINE_PATH_POLICIES,
        golden_tool.ENGINE_PATH_MODES,
        golden_tool.ENGINE_PATH_QUEUE_ENTRIES,
    )
)


@pytest.fixture(scope="module")
def pinned():
    return json.loads(golden_tool.ENGINE_PATHS_PATH.read_text(encoding="utf-8"))


def test_file_covers_exactly_the_matrix(pinned):
    keys = {golden_tool.engine_path_key(w, m.value, p, q) for w, p, m, q in MATRIX}
    assert set(pinned) == keys


def test_one_entry_queues_drop(pinned):
    # The 1-entry points must actually exercise drop-oldest, or they pin
    # nothing the default queues do not.
    for key, result in pinned.items():
        if key.endswith("/1-entry-queues") and "/manual/" in key:
            assert result["prefetcher"]["observations_dropped"] > 0, key
            assert result["prefetcher"]["prefetches_dropped"] > 0, key


@pytest.mark.parametrize(
    "workload_name,policy,mode,queue_entries",
    MATRIX,
    ids=[golden_tool.engine_path_key(w, m.value, p, q) for w, p, m, q in MATRIX],
)
def test_engine_path_is_bit_identical(
    workload_name, policy, mode, queue_entries, tiny_workloads, pinned
):
    config = golden_tool.engine_path_config(SystemConfig.scaled(), queue_entries)
    result = simulate(
        tiny_workloads.get(workload_name), mode, config, policy=resolve_policy(policy)
    )
    key = golden_tool.engine_path_key(workload_name, mode.value, policy, queue_entries)
    assert json.loads(json.dumps(result.as_dict())) == pinned[key], key


#: Engine configurations the pinned matrix does not cover: (system config
#: overrides, scheduling policy name).
CONSERVATION_CONFIGS = {
    "1-ppu": ({"num_ppus": 1}, None),
    "2-entry-queues": ({"observation_queue_entries": 2, "prefetch_queue_entries": 2}, None),
    "blocking-round-robin": ({"blocking_mode": True}, "round-robin"),
}


@pytest.mark.parametrize("name", sorted(CONSERVATION_CONFIGS))
def test_engine_counters_are_conserved(name, tiny_workloads):
    overrides, policy = CONSERVATION_CONFIGS[name]
    config = SystemConfig.scaled().with_prefetcher(**overrides)
    checked = 0
    for workload_name in registry.names():
        workload = tiny_workloads.get(workload_name)
        for mode in PrefetchMode:
            if not (mode.uses_programmable_prefetcher and mode_available(workload, mode)):
                continue
            result = simulate(workload, mode, config, policy=resolve_policy(policy))
            engine, l1 = result.prefetcher, result.hierarchy.l1
            dropped = result.hierarchy.dropped_prefetches
            point = f"{workload_name}/{mode.value}"
            assert engine["loads_snooped"] == engine["filter"]["load_snoops"], point
            assert engine["loads_snooped"] == l1["demand_read_accesses"], point
            assert engine["observations_dropped"] == engine["observation_queue_dropped"], point
            assert engine["prefetches_dropped"] == engine["request_queue_dropped"], point
            for total, per_ppu in (
                ("events_executed", "events_executed"),
                ("ppu_instructions", "instructions_executed"),
                ("prefetches_generated", "prefetches_generated"),
                ("kernel_aborts", "kernel_aborts"),
            ):
                assert engine[total] == sum(ppu[per_ppu] for ppu in engine["per_ppu"]), point
            assert engine["prefetches_issued"] == l1["prefetch_requests"] + dropped, point
            assert engine["prefetches_discarded"] == dropped, point
            assert engine["prefetches_generated"] >= (
                engine["prefetches_issued"] + engine["prefetches_dropped"]
            ), point
            checked += 1
    assert checked > 0


def test_policy_state_does_not_leak_between_runs(tiny_workloads):
    # One round-robin object serving several runs: each run must start
    # from the cursor the caller passed, as a fresh object would.
    workload = tiny_workloads.get("pagerank")
    config = SystemConfig.scaled()
    fresh = simulate(workload, PrefetchMode.MANUAL, config, policy=RoundRobinPolicy())
    shared = RoundRobinPolicy()
    runs = [simulate(workload, PrefetchMode.MANUAL, config, policy=shared) for _ in range(2)]
    assert [result.as_dict() for result in runs] == [fresh.as_dict()] * 2


class _SelectingLowestFreeId(LowestFreeIdPolicy):
    """The paper's policy through its ``select``: the engine inlines the scan
    only for ``LowestFreeIdPolicy`` itself, so a subclass is always asked."""

    calls = 0  # on the class: the engine runs a private copy of the policy

    def select(self, ppus, time):
        type(self).calls += 1
        return super().select(ppus, time)


@pytest.mark.parametrize("mode", [PrefetchMode.MANUAL, PrefetchMode.MANUAL_BLOCKED])
@pytest.mark.parametrize("workload_name", ["randacc", "hj2"])
def test_inlined_dispatch_scan_matches_select(workload_name, mode, tiny_workloads):
    workload = tiny_workloads.get(workload_name)
    config = SystemConfig.scaled()
    inlined = simulate(workload, mode, config)
    _SelectingLowestFreeId.calls = 0
    selected = simulate(workload, mode, config, policy=_SelectingLowestFreeId())
    assert _SelectingLowestFreeId.calls > 0
    assert selected.as_dict() == inlined.as_dict()
