"""Tests for the vectorized replay backend and multi-config batching.

Three layers of evidence that the backend is a pure wall-clock change:

1. a *differential harness* — hypothesis-generated op sequences replayed
   through both backends over identical hierarchies must produce identical
   core and hierarchy statistics, floats included;
2. the *golden fingerprints* — ``tests/test_sim_integration.py`` checks every
   non-programmable golden entry with numpy (vector replay) and without it
   (interpreter core);
3. *batch parity* — N cache geometries replayed over one trace pass must
   equal N independent simulations, through every entry point (``simulate_batch``,
   ``cache_geometry_sweep``, engine requests).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SystemConfig
from repro.cpu.core import OutOfOrderCore
from repro.cpu.trace import TraceBuilder
from repro.errors import VectorBackendUnsupported
from repro.memory.address_space import AddressSpace
from repro.memory.hierarchy import MemoryHierarchy
from repro.prefetch.stride import StridePrefetcher
from repro.sim import (
    PrefetchMode,
    SerialRunner,
    SimEngine,
    SimPlan,
    SimRequest,
    cache_geometry_sweep,
    simulate,
    simulate_batch,
)
from repro.sim import system as system_module
from repro.sim.system import try_simulate_batch_vector
from repro.sim.vector import TraceColumnPlan
from repro.sim.vector import columns as vector_columns
from repro.sim.vector.replay import replay_trace, replay_trace_batch
from repro.workloads import registry


@pytest.fixture(scope="module")
def config():
    return SystemConfig.scaled()


class TestBackendSelection:
    def _count_vector_replays(self, monkeypatch) -> dict:
        calls = {"replays": 0}
        original = system_module.replay_trace

        def counting(*args, **kwargs):
            calls["replays"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(system_module, "replay_trace", counting)
        return calls

    def test_vector_replay_whenever_numpy_imports(self, tiny_workloads, config, monkeypatch):
        calls = self._count_vector_replays(monkeypatch)
        workload = tiny_workloads.get("randacc")
        simulate(workload, PrefetchMode.NONE, config)
        assert calls["replays"] == 1
        simulate(workload, PrefetchMode.MANUAL, config)  # programmable: interpreter core
        assert calls["replays"] == 1

    def test_numpy_absent_disables_the_backend(self, tiny_workloads, config, monkeypatch):
        calls = self._count_vector_replays(monkeypatch)
        monkeypatch.setattr(vector_columns, "_np", None)
        assert not vector_columns.numpy_available()
        simulate(tiny_workloads.get("randacc"), PrefetchMode.NONE, config)
        assert calls["replays"] == 0

    def test_numpy_absent_still_simulates(self, tiny_workloads, config, monkeypatch):
        workload = tiny_workloads.get("randacc")
        with_numpy = simulate(workload, PrefetchMode.NONE, config)
        monkeypatch.setattr(vector_columns, "_np", None)
        without = simulate(workload, PrefetchMode.NONE, config)
        assert without.as_dict() == with_numpy.as_dict()

    def test_plan_requires_numpy(self, monkeypatch):
        monkeypatch.setattr(vector_columns, "_np", None)
        trace = TraceBuilder().build()
        with pytest.raises(VectorBackendUnsupported):
            TraceColumnPlan(trace, page_bytes=4096, line_shift=6, issue_width=3)


class TestLaneSupport:
    def test_programmable_hierarchy_is_rejected(self, tiny_workloads, config):
        from repro.programmable.prefetcher import EventTriggeredPrefetcher

        workload = tiny_workloads.get("intsort")
        workload.build()
        hierarchy = MemoryHierarchy(config, workload.space)
        engine = EventTriggeredPrefetcher(config, workload.manual_configuration())
        engine.attach(hierarchy)
        with pytest.raises(VectorBackendUnsupported):
            replay_trace(workload.trace("plain"), hierarchy, config.core)

    def test_negative_addresses_are_rejected(self, config):
        builder = TraceBuilder()
        builder._emit(1, -64, 1, ())  # loads never emit negative addresses
        trace = builder.build()
        hierarchy = MemoryHierarchy(config, AddressSpace())
        with pytest.raises(VectorBackendUnsupported):
            replay_trace(trace, hierarchy, config.core)

    def test_rejection_happens_before_any_state_mutation(self, config):
        builder = TraceBuilder()
        builder.load(0)
        builder._emit(1, -64, 1, ())
        trace = builder.build()
        hierarchy = MemoryHierarchy(config, AddressSpace())
        with pytest.raises(VectorBackendUnsupported):
            replay_trace(trace, hierarchy, config.core)
        stats = hierarchy.collect_stats()
        assert stats.l1["demand_read_accesses"] == 0
        assert stats.dram["demand_accesses"] == 0


# One generated op: (kind, raw address, compute size, raw dependence seeds).
_OP = st.tuples(
    st.sampled_from(["load", "store", "compute", "branch", "swpf"]),
    st.integers(min_value=0, max_value=(1 << 16) - 8),
    st.integers(min_value=1, max_value=4),
    st.lists(st.integers(min_value=0, max_value=1 << 30), max_size=2),
)


def _build_trace(ops):
    """Deterministically map generated op specs onto a valid trace."""

    builder = TraceBuilder()
    for index, (kind, addr, count, dep_seeds) in enumerate(ops):
        deps = [seed % index for seed in dep_seeds] if index else []
        if kind == "load":
            builder.load(addr, deps)
        elif kind == "store":
            builder.store(addr, deps)
        elif kind == "compute":
            builder.compute(count, deps)
        elif kind == "branch":
            builder.branch(deps)
        else:
            builder.software_prefetch(addr, deps)
    return builder.build()


def _run_both(trace, config, *, with_stride):
    """Replay ``trace`` through interpreter and vector backends."""

    outcomes = []
    for backend in ("interp", "vector"):
        hierarchy = MemoryHierarchy(config, AddressSpace())
        if with_stride:
            StridePrefetcher(config.stride).attach(hierarchy)
        if backend == "interp":
            core_stats = OutOfOrderCore(config.core, hierarchy).run(trace)
        else:
            # A tiny chunk size forces several chunk crossings per example,
            # covering the carried-state (ROB window, MSHR, TLB) seams.
            core_stats = replay_trace(trace, hierarchy, config.core, chunk_ops=17)
        hierarchy.finalize()
        outcomes.append((core_stats.as_dict(), hierarchy.collect_stats()))
    return outcomes


class TestDifferentialHarness:
    """Random op sequences must replay identically through both backends."""

    @settings(max_examples=40, deadline=None)
    @given(ops=st.lists(_OP, max_size=120))
    def test_pure_lane_matches_interpreter(self, ops):
        config = SystemConfig.scaled()
        trace = _build_trace(ops)
        (interp_core, interp_hier), (vector_core, vector_hier) = _run_both(
            trace, config, with_stride=False
        )
        assert vector_core == interp_core
        assert vector_hier == interp_hier

    @settings(max_examples=40, deadline=None)
    @given(ops=st.lists(_OP, max_size=120))
    def test_snooped_lane_matches_interpreter(self, ops):
        # A stride prefetcher installs a demand snoop, driving the shared
        # (attribute-backed) loop variant plus the prefetch interactions.
        config = SystemConfig.scaled()
        trace = _build_trace(ops)
        (interp_core, interp_hier), (vector_core, vector_hier) = _run_both(
            trace, config, with_stride=True
        )
        assert vector_core == interp_core
        assert vector_hier == interp_hier


GEOMETRIES = [
    {"l1": {"size_bytes": 8 * 1024}},
    {"l1": {"size_bytes": 32 * 1024}},
    {"l1": {"size_bytes": 16 * 1024, "associativity": 4}, "l2": {"size_bytes": 128 * 1024}},
]


class TestMultiConfigBatching:
    def _configs(self, config):
        return [config.with_caches(**geometry) for geometry in GEOMETRIES]

    @pytest.mark.parametrize("mode", [PrefetchMode.NONE, PrefetchMode.STRIDE])
    def test_batch_matches_serial_simulations(self, tiny_workloads, config, mode):
        workload = tiny_workloads.get("intsort")
        configs = self._configs(config)
        batched = simulate_batch(workload, mode, configs)
        assert len(batched) == len(configs)
        for cfg, result in zip(configs, batched):
            serial = simulate(workload, mode, cfg)
            assert result.as_dict() == serial.as_dict()

    def test_try_batch_reports_vector_coverage(self, tiny_workloads, config, monkeypatch):
        workload = tiny_workloads.get("intsort")
        configs = self._configs(config)
        assert try_simulate_batch_vector(workload, PrefetchMode.NONE, configs) is not None
        # Not batchable: single config, programmable mode, differing cores,
        # numpy missing.
        assert try_simulate_batch_vector(workload, PrefetchMode.NONE, configs[:1]) is None
        assert try_simulate_batch_vector(workload, PrefetchMode.MANUAL, configs) is None
        mixed = [configs[0], configs[1].with_core(rob_entries=64)]
        assert try_simulate_batch_vector(workload, PrefetchMode.NONE, mixed) is None
        monkeypatch.setattr(vector_columns, "_np", None)
        assert try_simulate_batch_vector(workload, PrefetchMode.NONE, configs) is None

    def test_geometry_sweep_is_backend_independent(self, tiny_workloads, config, monkeypatch):
        workload = tiny_workloads.get("randacc")
        sizes = [8 * 1024, 16 * 1024, 32 * 1024]
        vector = cache_geometry_sweep(workload, l1_sizes=sizes, config=config)
        monkeypatch.setattr(vector_columns, "_np", None)
        interp = cache_geometry_sweep(workload, l1_sizes=sizes, config=config)
        assert list(vector) == sizes == list(interp)
        for size in sizes:
            assert vector[size].as_dict() == interp[size].as_dict()
        # Larger caches can only help at equal geometry elsewhere.
        assert vector[32 * 1024].cycles <= vector[8 * 1024].cycles

    def test_batch_replay_shares_one_column_pass(self, tiny_workloads, config, monkeypatch):
        workload = tiny_workloads.get("intsort")
        workload.build()
        trace = workload.trace("plain")
        calls = {"plans": 0}
        original_init = TraceColumnPlan.__init__

        def counting_init(self, *args, **kwargs):
            calls["plans"] += 1
            original_init(self, *args, **kwargs)

        monkeypatch.setattr(TraceColumnPlan, "__init__", counting_init)
        hierarchies = [
            MemoryHierarchy(cfg, workload.space) for cfg in self._configs(config)
        ]
        stats = replay_trace_batch(trace, hierarchies, config.core)
        assert len(stats) == len(hierarchies)
        assert calls["plans"] == 1

    def test_engine_counts_batched_requests(self, config):
        configs = [
            config.with_caches(l1={"size_bytes": size})
            for size in (8 * 1024, 16 * 1024, 32 * 1024)
        ]
        plan = SimPlan(
            SimRequest(workload="intsort", mode="none", scale="tiny", config=cfg)
            for cfg in configs
        )
        engine = SimEngine(runner=SerialRunner())
        batch = engine.run(plan)
        assert batch.stats.batched == len(configs)
        assert "vector-batched" in batch.stats.summary()
        for request, cfg in zip(plan, configs):
            direct = simulate(
                registry.build("intsort", scale="tiny", seed=42), request.prefetch_mode, cfg
            )
            assert batch[request].as_dict() == direct.as_dict()

    def test_engine_batched_is_zero_under_interpreter(self, config, monkeypatch):
        monkeypatch.setattr(vector_columns, "_np", None)
        plan = SimPlan(
            SimRequest(
                workload="intsort",
                mode="none",
                scale="tiny",
                config=config.with_caches(l1={"size_bytes": size}),
            )
            for size in (8 * 1024, 16 * 1024)
        )
        batch = SimEngine(runner=SerialRunner()).run(plan)
        assert batch.stats.batched == 0
        assert len(batch) == 2
