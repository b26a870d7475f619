"""Tests for the vectorized replay backend.

Two layers of evidence that the backend is a pure wall-clock change:

1. a *differential harness* — hypothesis-generated op sequences replayed
   through both backends over identical hierarchies must produce identical
   core and hierarchy statistics, floats included;
2. the *golden fingerprints* — ``tests/test_sim_integration.py`` checks every
   non-programmable golden entry through vector replay and through the
   interpreter core.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import GHBPrefetcherConfig, SystemConfig
from repro.cpu.core import OutOfOrderCore
from repro.cpu.trace import TraceBuilder
from repro.errors import ConfigurationError, VectorBackendUnsupported
from repro.memory.address_space import AddressSpace
from repro.memory.hierarchy import MemoryHierarchy
from repro.prefetch.ghb import GHBPrefetcher
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


#: The one mapped region of the harness's address space.  Generated
#: addresses fall mostly inside it.  Half of them land on a few hot lines
#: that recur, three quarters of them just below the region's end and the
#: rest just past it, so demand reads, walks and software prefetches often
#: reach past the end; the other half fall anywhere from a quarter of the
#: region's size below it to a quarter past its end.  A prefetch outside
#: the region is dropped as unmapped.
_REGION_BASE = 1 << 16
_REGION_BYTES = 1 << 16
_MARGIN = _REGION_BYTES // 4
_HOT_LINES = 32
_HOT_BASE = _REGION_BASE + _REGION_BYTES - 64 * (_HOT_LINES * 3 // 4)
_WALK_LOADS = 6

_ADDRESS = st.one_of(
    st.integers(min_value=0, max_value=_HOT_LINES - 1).map(lambda line: _HOT_BASE + 64 * line),
    st.integers(
        min_value=_REGION_BASE - _MARGIN, max_value=_REGION_BASE + _REGION_BYTES + _MARGIN - 8
    ),
)

# One generated op: (kind, raw address, compute size, raw dependence seeds).
# A "walk" is _WALK_LOADS loads from the address with a stride of ``count``
# lines, the pattern a stride prefetcher locks onto; walks from the same hot
# line repeat a miss sequence, which the GHB correlates.
_OP = st.tuples(
    st.sampled_from(["load", "store", "compute", "branch", "swpf", "walk"]),
    _ADDRESS,
    st.integers(min_value=1, max_value=4),
    st.lists(st.integers(min_value=0, max_value=1 << 30), max_size=2),
)


def _harness_space():
    space = AddressSpace()
    space.map_region("harness", _REGION_BASE, _REGION_BYTES)
    return space


def _build_trace(ops, *, software_prefetches=True):
    """Deterministically map generated op specs onto a valid trace.

    Without ``software_prefetches``, "swpf" ops become loads.
    """

    builder = TraceBuilder()
    for kind, addr, count, dep_seeds in ops:
        index = len(builder)
        deps = [seed % index for seed in dep_seeds] if index else []
        if kind == "load":
            builder.load(addr, deps)
        elif kind == "store":
            builder.store(addr, deps)
        elif kind == "compute":
            builder.compute(count, deps)
        elif kind == "branch":
            builder.branch(deps)
        elif kind == "swpf" and software_prefetches:
            builder.software_prefetch(addr, deps)
        elif kind == "swpf":
            builder.load(addr, deps)
        else:
            builder.load(addr, deps)
            for step in range(1, _WALK_LOADS):
                builder.load(addr + step * count * 64)
    return builder.build()


#: Cache geometries as ``with_caches`` overrides of the scaled preset: each
#: compiles its own specialised replay loop (set mask and shift,
#: associativity, MSHRs).  The small ones make generated traces evict and
#: stall on MSHRs; the smallest also has a TLB small enough that demand and
#: prefetch translations evict each other's pages.
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
        "tlb": {"l1_entries": 3, "l2_entries": 6},
    },
}


def _geometry_config(geometry):
    overrides = dict(GEOMETRIES[geometry])
    tlb = overrides.pop("tlb", None)
    config = SystemConfig.scaled().with_caches(**overrides)
    return replace(config, tlb=replace(config.tlb, **tlb)) if tlb else config


class TestColumnPlan:
    @settings(max_examples=40, deadline=None)
    @given(
        ops=st.lists(_OP, max_size=120),
        chunk_ops=st.integers(min_value=1, max_value=50),
        geometry=st.sampled_from(sorted(GEOMETRIES)),
    )
    def test_chunks_carry_each_ops_l1_set_tag_and_page(self, ops, chunk_ops, geometry):
        config = _geometry_config(geometry)
        hierarchy = MemoryHierarchy(config, _harness_space())
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


#: The prefetcher each harness lane attaches.  The GHB is small enough for
#: generated traces to evict index entries and age history slots out.
LANES = {
    "none": lambda config: None,
    "stride": lambda config: StridePrefetcher(config.stride),
    "ghb": lambda config: GHBPrefetcher(
        GHBPrefetcherConfig(index_entries=64, history_entries=64, depth=4, width=3)
    ),
}


def _run_both(trace, config, lane):
    """Replay ``trace`` through interpreter and vector backends."""

    outcomes = []
    for backend in ("interp", "vector"):
        hierarchy = MemoryHierarchy(config, _harness_space())
        prefetcher = LANES[lane](config)
        if prefetcher is not None:
            prefetcher.attach(hierarchy)
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

    @pytest.mark.parametrize("lane", sorted(LANES))
    @pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
    def test_lane_matches_interpreter(self, geometry, lane):
        # Every example replays twice: with its software prefetches, and
        # with them turned into loads, the trace shape the none, stride and
        # GHB modes replay.  Prefetches from either source issue through
        # the loop's inlined prefetch path.  Traces of at least 20 ops make
        # nearly every example fill an L1 line by prefetch, and many drop
        # one as unmapped; the totals check that the harness reaches both.
        config = _geometry_config(geometry)
        totals = {"prefetch_fills": 0, "dropped_prefetches": 0}

        @settings(max_examples=30, deadline=None)
        @given(ops=st.lists(_OP, min_size=20, max_size=120))
        def replays_identically(ops):
            for software_prefetches in (True, False):
                trace = _build_trace(ops, software_prefetches=software_prefetches)
                (interp_core, interp_hier), (vector_core, vector_hier) = _run_both(
                    trace, config, lane
                )
                assert vector_core == interp_core
                assert vector_hier == interp_hier
                totals["prefetch_fills"] += interp_hier.l1["prefetch_fills"]
                totals["dropped_prefetches"] += interp_hier.dropped_prefetches

        replays_identically()
        assert totals["prefetch_fills"] > 0, totals
        assert totals["dropped_prefetches"] > 0, totals


def _two_pass_walk(software_prefetches):
    """Loads on every line of the harness region and 16 lines past it, twice.

    The first pass misses everywhere and the second misses again on the
    lines the L1 evicted, so a stride and a GHB prefetcher both issue; with
    ``software_prefetches`` each load is preceded by a prefetch four lines
    ahead.  Targets past the region's end are dropped.
    """

    builder = TraceBuilder()
    for _ in range(2):
        for line in range(_REGION_BYTES // 64 + 16):
            addr = _REGION_BASE + 64 * line
            if software_prefetches:
                builder.software_prefetch(addr + 4 * 64)
            load = builder.load(addr)
            builder.compute(2, [load])
    return builder.build()


class TestLoopIssuesItsPrefetches:
    """The vector loop carries out every prefetch it replays itself."""

    #: The regular GHB remembers the whole first pass.
    PREFETCHERS = {
        "stride": lambda config: StridePrefetcher(config.stride),
        "ghb": lambda config: GHBPrefetcher(GHBPrefetcherConfig.regular()),
        "software": lambda config: None,
    }

    @pytest.mark.parametrize("lane", sorted(PREFETCHERS))
    def test_replay_never_calls_prefetch_access(self, lane, monkeypatch):
        config = SystemConfig.scaled()
        trace = _two_pass_walk(software_prefetches=lane == "software")

        def hierarchy():
            hierarchy = MemoryHierarchy(config, _harness_space())
            prefetcher = self.PREFETCHERS[lane](config)
            if prefetcher is not None:
                prefetcher.attach(hierarchy)
            return hierarchy

        expected = hierarchy()
        expected_core = OutOfOrderCore(config.core, expected).run(trace)

        def refuse(self, addr, time):
            raise AssertionError("vector replay called MemoryHierarchy.prefetch_access")

        monkeypatch.setattr(MemoryHierarchy, "prefetch_access", refuse)
        replayed = hierarchy()
        core = replay_trace(trace, replayed, config.core)
        for hier in (expected, replayed):
            hier.finalize()
        assert core.as_dict() == expected_core.as_dict()
        assert replayed.collect_stats() == expected.collect_stats()
        assert expected.l1.stats.prefetch_fills > 0
        assert expected.dropped_prefetches > 0

    def test_snooped_lines_issue_at_the_reads_translated_time(self):
        # The first read of a page walks the page table, so its snoop sees a
        # later time than the read's issue time.  A second read merging
        # with the snooped line's fill inherits that fill time, so its
        # latency shows when the prefetch was issued.
        config = SystemConfig.scaled()
        first = _REGION_BASE + 64
        target = _REGION_BASE + 64 * 40
        builder = TraceBuilder()
        builder.load(first)
        builder.load(target)
        trace = builder.build()

        def replayed(replay):
            hierarchy = MemoryHierarchy(config, _harness_space())
            hierarchy.set_demand_snoop(
                lambda addr, time, level: [target] if addr == first else None
            )
            core_stats = replay(hierarchy)
            hierarchy.finalize()
            return core_stats.as_dict(), hierarchy.collect_stats()

        interp = replayed(lambda hierarchy: OutOfOrderCore(config.core, hierarchy).run(trace))
        vector = replayed(lambda hierarchy: replay_trace(trace, hierarchy, config.core))
        assert vector == interp
        hierarchy_stats = interp[1]
        assert hierarchy_stats.tlb["walks"] == 1
        assert hierarchy_stats.l1["prefetch_fills"] == 1
        assert hierarchy_stats.l1["inflight_merges"] == 1
