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
from repro.programmable.config_api import PrefetcherConfiguration
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
        assert engine.lookahead_distance("a_stream") != 8 or engine.collect_stats()["lookahead"]

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

    def test_detach_stops_observations(self):
        config, space, pcfg, _ = build_figure4_setup(iterations=10)
        hier = MemoryHierarchy(config, space)
        engine = EventTriggeredPrefetcher(config, pcfg)
        engine.attach(hier)
        engine.detach()
        hier.demand_access(space.regions[0].base, 0.0)
        assert engine.collect_stats()["loads_snooped"] == 0
