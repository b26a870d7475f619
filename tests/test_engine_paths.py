"""Pinned fingerprints for the programmable-engine paths the golden matrix skips.

The golden suite runs every programmable mode with the paper's
lowest-free-id scheduler and default queue depths.  This matrix adds the
round-robin policy and 1-entry observation and request queues (where a push
drops the waiting entry whenever one is still queued), each with the
event-triggered engine and the Figure 11 blocking ablation, on two small
workloads.  The fingerprints
in ``tests/data/engine_paths.json`` come from ``tools/update_golden_stats.py``
and must be reproduced bit for bit.
"""

import importlib.util
import itertools
import json
from pathlib import Path

import pytest

from repro.config import SystemConfig
from repro.sim import simulate
from repro.sim.engine.request import resolve_policy

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
