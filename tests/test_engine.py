"""Tests for the event-triggered prefetcher engine as a unit.

These drive the engine through a real memory hierarchy with a tiny synthetic
access stream (the Figure 4 loop: ``acc += C[B[A[x]]]``) so that every stage —
filter, observation queue, scheduler, PPUs, request queue, tags, EWMAs — is
exercised without needing a full workload.
"""

import pytest

from repro.config import SystemConfig
from repro.cpu.core import OutOfOrderCore
from repro.cpu.trace import TraceBuilder
from repro.memory.address_space import AddressSpace
from repro.memory.hierarchy import MemoryHierarchy
from repro.errors import ConfigurationError
from repro.programmable.config_api import PrefetcherConfiguration
from repro.programmable.ewma import LookaheadCalculator
from repro.programmable.kernel import KernelBuilder
from repro.programmable.prefetcher import EventTriggeredPrefetcher
from repro.programmable.scheduler import RoundRobinPolicy


def build_figure4_setup(num_elements=4096, iterations=1500, *, blocking=False, num_ppus=12):
    import random

    rng = random.Random(3)
    config = SystemConfig.scaled().with_prefetcher(blocking_mode=blocking, num_ppus=num_ppus)
    space = AddressSpace()
    a = space.allocate_array("A", num_elements, values=[rng.randrange(num_elements) for _ in range(num_elements)])
    b = space.allocate_array("B", num_elements, values=[rng.randrange(num_elements) for _ in range(num_elements)])
    c = space.allocate_array("C", num_elements, values=[rng.randrange(1 << 20) for _ in range(num_elements)])

    pcfg = PrefetcherConfiguration()
    stream = pcfg.add_stream("a_stream", default_distance=8)
    base_a = pcfg.set_global("base_A", a.base_addr)
    base_b = pcfg.set_global("base_B", b.base_addr)
    base_c = pcfg.set_global("base_C", c.base_addr)

    k2 = KernelBuilder("on_B_fill")
    k2.prefetch(k2.add(k2.get_global(base_c), k2.shl(k2.get_data(), 3)))
    pcfg.add_kernel(k2.build())
    tag_b = pcfg.add_tag("fill_B", "on_B_fill", stream="a_stream")

    k1 = KernelBuilder("on_A_fill")
    k1.prefetch(k1.add(k1.get_global(base_b), k1.shl(k1.get_data(), 3)), tag=tag_b)
    pcfg.add_kernel(k1.build())
    tag_a = pcfg.add_tag("fill_A", "on_A_fill", stream="a_stream")

    k0 = KernelBuilder("on_A_load")
    base = k0.get_global(base_a)
    index = k0.shr(k0.sub(k0.get_vaddr(), base), 3)
    k0.prefetch(
        k0.add(base, k0.shl(k0.add(index, k0.get_lookahead(stream)), 3)), tag=tag_a
    )
    pcfg.add_kernel(k0.build())

    pcfg.add_range(
        "A", a.base_addr, a.end_addr, load_kernel="on_A_load", stream="a_stream",
        time_iterations=True, chain_start=True,
    )
    pcfg.add_range("C", c.base_addr, c.end_addr, stream="a_stream", chain_end=True)

    tb = TraceBuilder()
    for x in range(iterations):
        la = tb.load(a.addr_of(x % num_elements))
        lb = tb.load(b.addr_of(a[x % num_elements]), deps=[la])
        lc = tb.load(c.addr_of(b[a[x % num_elements]]), deps=[lb])
        tb.compute(4, deps=[lc])
    return config, space, pcfg, tb.build()


class TestEngineEndToEnd:
    def test_chain_produces_speedup_and_accurate_prefetches(self):
        config, space, pcfg, trace = build_figure4_setup()
        baseline_hier = MemoryHierarchy(config, space)
        baseline = OutOfOrderCore(config.core, baseline_hier).run(trace)

        hier = MemoryHierarchy(config, space)
        engine = EventTriggeredPrefetcher(config, pcfg)
        engine.attach(hier)
        stats = OutOfOrderCore(config.core, hier).run(trace)
        engine.finalize(stats.cycles)

        assert stats.cycles < baseline.cycles
        assert hier.l1.stats.demand_read_hit_rate > baseline_hier.l1.stats.demand_read_hit_rate
        engine_stats = engine.collect_stats()
        assert engine_stats["prefetches_issued"] > 0
        assert engine_stats["kernel_aborts"] == 0
        # Negligible extra memory traffic (the paper's Section 7.2 property).
        assert hier.dram.stats.total_accesses <= 1.1 * baseline_hier.dram.stats.total_accesses

    def test_observations_and_events_accounted(self):
        config, space, pcfg, trace = build_figure4_setup(iterations=400)
        hier = MemoryHierarchy(config, space)
        engine = EventTriggeredPrefetcher(config, pcfg)
        engine.attach(hier)
        stats = OutOfOrderCore(config.core, hier).run(trace)
        engine.finalize(stats.cycles)
        collected = engine.collect_stats()
        assert collected["loads_snooped"] == stats.loads
        assert collected["observations_created"] > 0
        assert collected["events_executed"] > 0
        assert len(collected["per_ppu"]) == config.prefetcher.num_ppus
        assert len(collected["activity_factors"]) == config.prefetcher.num_ppus

    def test_lookahead_adapts_from_default(self):
        config, space, pcfg, trace = build_figure4_setup(iterations=1200)
        hier = MemoryHierarchy(config, space)
        engine = EventTriggeredPrefetcher(config, pcfg)
        engine.attach(hier)
        stats = OutOfOrderCore(config.core, hier).run(trace)
        engine.finalize(stats.cycles)
        assert engine.collect_stats()["lookahead"]["a_stream"] != 8

    def test_blocking_mode_is_slower_for_chained_pattern(self):
        config, space, pcfg, trace = build_figure4_setup(iterations=1000)
        event_hier = MemoryHierarchy(config, space)
        event_engine = EventTriggeredPrefetcher(config, pcfg)
        event_engine.attach(event_hier)
        event_stats = OutOfOrderCore(config.core, event_hier).run(trace)

        blocking_config, _, _, _ = build_figure4_setup(iterations=1, blocking=True)
        blocked_hier = MemoryHierarchy(blocking_config, space)
        blocked_engine = EventTriggeredPrefetcher(blocking_config, pcfg)
        blocked_engine.attach(blocked_hier)
        blocked_stats = OutOfOrderCore(blocking_config.core, blocked_hier).run(trace)

        assert event_stats.cycles < blocked_stats.cycles

    def test_fewer_ppus_never_faster(self):
        config12, space, pcfg, trace = build_figure4_setup(iterations=800)
        hier12 = MemoryHierarchy(config12, space)
        engine12 = EventTriggeredPrefetcher(config12, pcfg)
        engine12.attach(hier12)
        cycles12 = OutOfOrderCore(config12.core, hier12).run(trace).cycles

        config1, _, _, _ = build_figure4_setup(iterations=1, num_ppus=1)
        hier1 = MemoryHierarchy(config1, space)
        engine1 = EventTriggeredPrefetcher(config1, pcfg)
        engine1.attach(hier1)
        cycles1 = OutOfOrderCore(config1.core, hier1).run(trace).cycles
        assert cycles12 <= cycles1 * 1.05

    def test_lowest_id_policy_concentrates_work(self):
        config, space, pcfg, trace = build_figure4_setup(iterations=600)
        hier = MemoryHierarchy(config, space)
        engine = EventTriggeredPrefetcher(config, pcfg)
        engine.attach(hier)
        stats = OutOfOrderCore(config.core, hier).run(trace)
        engine.finalize(stats.cycles)
        factors = engine.collect_stats()["activity_factors"]
        assert factors[0] >= factors[-1]

    def test_round_robin_policy_spreads_work(self):
        config, space, pcfg, trace = build_figure4_setup(iterations=600)
        hier = MemoryHierarchy(config, space)
        engine = EventTriggeredPrefetcher(config, pcfg, policy=RoundRobinPolicy())
        engine.attach(hier)
        stats = OutOfOrderCore(config.core, hier).run(trace)
        engine.finalize(stats.cycles)
        per_ppu = engine.collect_stats()["per_ppu"]
        events = [p["events_executed"] for p in per_ppu]
        assert min(events) > 0


def kernel(name, *, global_index=None, operand="immediate"):
    """A kernel prefetching its trigger address, plus a global when given.

    The global's index is an immediate, or held in a register.
    """

    builder = KernelBuilder(name)
    target = builder.get_vaddr()
    if global_index is not None:
        index = global_index if operand == "immediate" else builder.mov(global_index)
        target = builder.add(target, builder.get_global(index))
    builder.prefetch(target)
    return builder.build()


def data_space():
    """An address space holding one 4096-word array, and the array's base."""

    space = AddressSpace()
    return space, space.allocate_array("data", 4096, values=range(4096)).base_addr


def attached(pcfg, space, **prefetcher):
    """An engine for ``pcfg`` attached to a fresh hierarchy over ``space``."""

    config = SystemConfig.scaled().with_prefetcher(**prefetcher)
    hier = MemoryHierarchy(config, space)
    engine = EventTriggeredPrefetcher(config, pcfg)
    engine.attach(hier)
    return engine, hier


class TestFilterTable:
    """The engine's filter table: which loads and fills raise events."""

    def test_overlapping_load_ranges_raise_one_observation_each(self):
        pcfg = PrefetcherConfiguration()
        pcfg.add_kernel(kernel("on_load"))
        pcfg.add_stream("s")
        space, base = data_space()
        pcfg.add_range("A", base, base + 0x1000, load_kernel="on_load")
        pcfg.add_range("B", base + 0x800, base + 0x2000, load_kernel="on_load")
        pcfg.add_range("timing", base, base + 0x2000, stream="s", time_iterations=True)
        engine, hier = attached(pcfg, space)

        hier.demand_access_time(base + 0x900, 0.0)  # in A, B and timing
        assert engine.collect_stats()["observations_created"] == 2
        hier.demand_access_time(base + 0x100, 1000.0)  # in A and timing
        assert engine.collect_stats()["observations_created"] == 3
        hier.demand_access_time(base + 0x1900, 2000.0)  # in B and timing
        hier.demand_access_time(base + 0x2100, 3000.0)  # in none
        engine.finalize(4000.0)
        stats = engine.collect_stats()
        assert stats["observations_created"] == 4
        assert stats["events_executed"] == 4
        assert stats["filter"]["load_snoops"] == 4
        assert stats["filter"]["load_matches"] == 3

    def test_a_timing_only_range_raises_no_observation(self):
        pcfg = PrefetcherConfiguration()
        pcfg.add_stream("s")
        space, base = data_space()
        pcfg.add_range("timing", base, base + 0x1000, stream="s", time_iterations=True)
        engine, hier = attached(pcfg, space)
        for index in range(20):
            hier.demand_access_time(base + 8 * index, 100.0 * index)
        engine.finalize(3000.0)
        stats = engine.collect_stats()
        assert stats["filter"]["load_matches"] == 20
        assert stats["observations_created"] == stats["events_executed"] == 0
        # The reads still fed the stream's iteration EWMA.
        assert engine._lookaheads["s"].iteration_time.samples == 2

    def test_overlapping_prefetch_ranges_raise_one_follow_on_each(self):
        pcfg = PrefetcherConfiguration()
        pcfg.add_kernel(kernel("on_load", global_index=0))
        quiet = KernelBuilder("on_fill")  # prefetches nothing, so the chain ends
        quiet.get_vaddr()
        pcfg.add_kernel(quiet.build())
        pcfg.add_stream("s")
        pcfg.set_global("distance", 0x1000)
        space, base = data_space()
        pcfg.add_range("L", base, base + 0x100, load_kernel="on_load", stream="s",
                       chain_start=True)
        pcfg.add_range("P1", base + 0x1000, base + 0x1100, prefetch_kernel="on_fill")
        pcfg.add_range("P2", base + 0x1000, base + 0x2000, prefetch_kernel="on_fill")
        pcfg.add_range("end", base + 0x1000, base + 0x2000, stream="s", chain_end=True)
        engine, hier = attached(pcfg, space)

        hier.demand_access_time(base, 0.0)
        engine.finalize(10_000.0)
        stats = engine.collect_stats()
        # One load observation, then one follow-on per matching range that
        # names a kernel: the chain-end range raises none, but times the
        # chain the load started.
        assert stats["fills_observed"] == 1
        assert stats["observations_created"] == 3
        assert stats["events_executed"] == 3
        assert engine._lookaheads["s"].chain_latency.samples == 1

    def test_an_unattached_engine_snooped_nothing(self):
        pcfg = PrefetcherConfiguration()
        pcfg.add_kernel(kernel("on_load"))
        pcfg.add_range("A", 0x1000, 0x2000, load_kernel="on_load")
        stats = EventTriggeredPrefetcher(SystemConfig.scaled(), pcfg).collect_stats()
        assert stats["loads_snooped"] == 0
        assert stats["filter"] == {"load_snoops": 0, "load_matches": 0, "prefetch_matches": 0}

    def test_more_ranges_than_filter_entries_raise_at_construction(self):
        pcfg = PrefetcherConfiguration()
        pcfg.add_kernel(kernel("on_load"))
        pcfg.add_range("A", 0x1000, 0x2000, load_kernel="on_load")
        pcfg.add_range("B", 0x2000, 0x3000, load_kernel="on_load")
        config = SystemConfig.scaled().with_prefetcher(filter_table_entries=1)
        with pytest.raises(ConfigurationError, match="filter table only has 1 entries"):
            EventTriggeredPrefetcher(config, pcfg)
        EventTriggeredPrefetcher(config.with_prefetcher(filter_table_entries=2), pcfg)


class TestGlobalRegisters:
    """The engine's global register file, as kernels read it."""

    def test_more_globals_than_registers_raise_at_construction(self):
        pcfg = PrefetcherConfiguration()
        for name in ("a", "b", "c"):
            pcfg.set_global(name, 1)
        config = SystemConfig.scaled().with_prefetcher(global_registers=2)
        with pytest.raises(ConfigurationError, match="out of global prefetcher registers"):
            EventTriggeredPrefetcher(config, pcfg)
        EventTriggeredPrefetcher(config.with_prefetcher(global_registers=3), pcfg)

    @pytest.mark.parametrize("operand", ["immediate", "register"])
    @pytest.mark.parametrize("index, aborts", [(1, 0), (3, 0), (4, 1), (40, 1)])
    def test_unset_registers_read_zero_and_past_the_file_fault(self, index, aborts, operand):
        pcfg = PrefetcherConfiguration()
        pcfg.set_global("configured", 0x40)
        pcfg.add_kernel(kernel("on_load", global_index=index, operand=operand))
        space, base = data_space()
        pcfg.add_range("A", base, base + 0x100, load_kernel="on_load")
        engine, hier = attached(pcfg, space, global_registers=4)

        hier.demand_access_time(base, 0.0)
        engine.finalize(10_000.0)
        stats = engine.collect_stats()
        assert stats["kernel_aborts"] == aborts
        assert stats["prefetches_generated"] == 1 - aborts
        if not aborts:
            # The unset register read 0: the prefetch targets the demanded
            # line itself and fetches nothing from DRAM.
            l1 = hier.l1.stats
            assert l1.prefetch_merged + l1.prefetch_redundant == 1
            assert hier.dram.stats.prefetch_accesses == 0


class TestLookaheadPinnedToCalculator:
    def test_snooped_iterations_match_observe_iteration(self):
        # The engine's snoop inlines LookaheadCalculator.observe_iteration;
        # the same demand-load times must move both alike, sample for sample.
        import random

        pcfg = PrefetcherConfiguration()
        pcfg.add_stream("s", default_distance=5)
        space, base = data_space()
        pcfg.add_range("timing", base, base + 0x8000, stream="s", time_iterations=True)
        engine, hier = attached(pcfg, space)
        inlined = engine._lookaheads["s"]
        standalone = LookaheadCalculator(
            alpha=SystemConfig.scaled().prefetcher.ewma_alpha, default_distance=5
        )
        for calculator in (inlined, standalone):
            calculator.observe_chain(0.0, 600.0)

        snoop = hier._demand_snoop
        seen = []

        def compare(addr, time, level):
            snoop(addr, time, level)
            standalone.observe_iteration(time)
            observed = (
                inlined.iteration_time.value, inlined.iteration_time.samples,
                inlined.lookahead(),
            )
            expected = (
                standalone.iteration_time.value, standalone.iteration_time.samples,
                standalone.lookahead(),
            )
            assert observed == expected, len(seen)
            seen.append(time)

        hier.set_demand_snoop(compare)
        rng = random.Random(11)
        time = 0.0
        for _ in range(400):
            time += rng.choice([0.0, 0.0, 1.0, 3.0, 40.0, 400.0])
            hier.demand_access_time(base + 8 * rng.randrange(4096), time)
        assert len(seen) == 400
        assert standalone.iteration_time.samples >= 40
        assert standalone.lookahead() != 5  # the distance left its default
