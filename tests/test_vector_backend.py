"""Tests for the vectorized replay backend.

Two layers of evidence that the backend is a pure wall-clock change:

1. a *differential harness* — hypothesis-generated op sequences replayed
   through both backends over identical hierarchies must produce identical
   core and hierarchy statistics, floats included;
2. the *golden fingerprints* — ``tests/test_sim_integration.py`` checks every
   non-programmable golden entry through vector replay and through the
   interpreter core.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SystemConfig
from repro.cpu.core import OutOfOrderCore
from repro.cpu.trace import TraceBuilder
from repro.errors import ConfigurationError, VectorBackendUnsupported
from repro.memory.address_space import AddressSpace
from repro.memory.hierarchy import MemoryHierarchy
from repro.prefetch.stride import StridePrefetcher
from repro.sim import PrefetchMode, simulate
from repro.sim import system as system_module
from repro.sim.vector import TraceColumnPlan
from repro.sim.vector import replay as replay_module
from repro.sim.vector.replay import replay_trace


@pytest.fixture(scope="module")
def config():
    return SystemConfig.scaled()


class TestBackendSelection:
    def test_vector_replay_whenever_numpy_imports(self, tiny_workloads, config, monkeypatch):
        calls = {"replays": 0}
        original = system_module.replay_trace

        def counting(*args, **kwargs):
            calls["replays"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(system_module, "replay_trace", counting)
        workload = tiny_workloads.get("randacc")
        simulate(workload, PrefetchMode.NONE, config)
        assert calls["replays"] == 1
        simulate(workload, PrefetchMode.MANUAL, config)  # programmable: interpreter core
        assert calls["replays"] == 1

    def test_refused_replay_falls_back_to_the_core(self, tiny_workloads, config, monkeypatch):
        # Vector replay refuses before touching the hierarchy, so simulate's
        # core fallback matches a run that never tried it.
        def unsupported(hierarchy):
            raise VectorBackendUnsupported("refused at the support check")

        monkeypatch.setattr(replay_module, "_check_supported", unsupported)
        workload = tiny_workloads.get("randacc")
        calls = {"refused": 0}
        original = system_module.replay_trace

        def counting(*args, **kwargs):
            try:
                return original(*args, **kwargs)
            except VectorBackendUnsupported:
                calls["refused"] += 1
                raise

        monkeypatch.setattr(system_module, "replay_trace", counting)
        fallback = simulate(workload, PrefetchMode.STRIDE, config)
        assert calls["refused"] == 1

        def refuse(*args, **kwargs):
            raise VectorBackendUnsupported("forced onto the interpreter core")

        monkeypatch.setattr(system_module, "replay_trace", refuse)
        assert fallback.as_dict() == simulate(workload, PrefetchMode.STRIDE, config).as_dict()


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

    def test_caches_accept_only_64_byte_lines(self, config):
        # Every mode's line arithmetic assumes 64-byte lines, so a cache with
        # other lines is refused at configuration, before any replay.
        with pytest.raises(ConfigurationError, match="L1D: lines are 64 bytes"):
            config.with_caches(l1={"line_bytes": 48})
        with pytest.raises(ConfigurationError, match="L2: lines are 64 bytes"):
            config.with_caches(l2={"line_bytes": 128})

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


#: Cache geometries as ``with_caches`` overrides of the scaled preset: each
#: compiles its own specialised replay loop (set mask and shift,
#: associativity, MSHRs).  The small ones make generated traces evict and
#: stall on MSHRs.
GEOMETRIES = {
    "scaled": {},
    "l1-8k": {"l1": {"size_bytes": 8 * 1024}},
    "l1-1k-4way": {
        "l1": {"size_bytes": 1024, "associativity": 4},
        "l2": {"size_bytes": 8 * 1024, "associativity": 4},
    },
    "l1-512-direct-mapped": {
        "l1": {"size_bytes": 512, "associativity": 1, "mshrs": 2},
        "l2": {"size_bytes": 4 * 1024, "associativity": 2, "mshrs": 3},
    },
}


class TestColumnPlan:
    @settings(max_examples=40, deadline=None)
    @given(
        ops=st.lists(_OP, max_size=120),
        chunk_ops=st.integers(min_value=1, max_value=50),
        geometry=st.sampled_from(sorted(GEOMETRIES)),
    )
    def test_chunks_carry_each_ops_l1_set_tag_and_page(self, ops, chunk_ops, geometry):
        config = SystemConfig.scaled().with_caches(**GEOMETRIES[geometry])
        hierarchy = MemoryHierarchy(config, AddressSpace())
        l1 = hierarchy.l1
        page_bytes = hierarchy.tlb._page_bytes
        trace = _build_trace(ops)
        plan = TraceColumnPlan(
            trace,
            page_bytes=page_bytes,
            line_shift=l1._line_shift,
            set_mask=l1._set_mask,
            set_shift=l1._set_shift,
            issue_width=config.core.issue_width,
            chunk_ops=chunk_ops,
        )
        position = 0
        addrs = trace.columns()[1]
        for chunk in plan.chunks():
            assert chunk.start == position
            for offset, (set_index, tag, page) in enumerate(
                zip(chunk.sets, chunk.tags, chunk.pages)
            ):
                addr = addrs[position + offset]
                assert (l1._sets[set_index], tag) == l1.probe(addr)
                assert page == addr // page_bytes
            position = chunk.end
        assert position == len(trace)


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

    @pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
    @settings(max_examples=40, deadline=None)
    @given(ops=st.lists(_OP, max_size=120))
    def test_pure_lane_matches_interpreter(self, geometry, ops):
        config = SystemConfig.scaled().with_caches(**GEOMETRIES[geometry])
        trace = _build_trace(ops)
        (interp_core, interp_hier), (vector_core, vector_hier) = _run_both(
            trace, config, with_stride=False
        )
        assert vector_core == interp_core
        assert vector_hier == interp_hier

    @pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
    @settings(max_examples=40, deadline=None)
    @given(ops=st.lists(_OP, max_size=120))
    def test_snooped_lane_matches_interpreter(self, geometry, ops):
        # A stride prefetcher installs a demand snoop, driving the shared
        # (attribute-backed) loop variant plus the prefetch interactions.
        config = SystemConfig.scaled().with_caches(**GEOMETRIES[geometry])
        trace = _build_trace(ops)
        (interp_core, interp_hier), (vector_core, vector_hier) = _run_both(
            trace, config, with_stride=True
        )
        assert vector_core == interp_core
        assert vector_hier == interp_hier
