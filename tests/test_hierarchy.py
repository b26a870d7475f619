"""Tests for the assembled memory hierarchy.

Demand accesses go through ``demand_access_time``, the core's entry point;
a demand snoop reports the level that served each read.
"""

import random

import pytest

from repro.config import SystemConfig
from repro.memory.address_space import AddressSpace
from repro.memory.cache import Cache
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.tlb import TLB


@pytest.fixture
def hierarchy():
    config = SystemConfig.scaled()
    space = AddressSpace()
    space.allocate_array("data", 4096, values=range(4096))
    return MemoryHierarchy(config, space), space, config


def read(hier, addr, time):
    """A demand read: its completion time and the level that served it."""

    levels = []
    hier.set_demand_snoop(lambda _addr, _time, level: levels.append(level))
    completion = hier.demand_access_time(addr, time)
    return completion, levels[-1]


class TestDemandPath:
    def test_cold_miss_goes_to_dram(self, hierarchy):
        hier, space, config = hierarchy
        addr = space.regions[0].base
        completion, level = read(hier, addr, 0.0)
        assert level == "dram"
        assert completion >= config.dram.access_latency_cycles

    def test_second_access_hits_l1(self, hierarchy):
        hier, space, config = hierarchy
        addr = space.regions[0].base
        first, _ = read(hier, addr, 0.0)
        second, level = read(hier, addr, first + 1)
        assert level == "l1"
        assert second - (first + 1) <= config.l1.hit_latency + config.tlb.l2_hit_latency

    def test_access_during_fill_merges(self, hierarchy):
        hier, space, _ = hierarchy
        addr = space.regions[0].base
        first, _ = read(hier, addr, 0.0)
        merged, level = read(hier, addr, 1.0)
        assert level == "l1_inflight"
        assert merged <= first + 1
        assert hier.l1.stats.inflight_merges == 1

    def test_l2_hit_after_l1_eviction(self, hierarchy):
        hier, space, config = hierarchy
        base = space.regions[0].base
        # Touch enough distinct lines to evict the first from the L1 but not the L2.
        lines_to_fill = (config.l1.size_bytes // 64) * 2 + 8
        time = 0.0
        for i in range(lines_to_fill):
            time = hier.demand_access_time(base + 64 * i, time) + 1
        assert not hier.l1.contains(base, time)
        _, level = read(hier, base, time)
        assert level in ("l2", "l2_inflight")

    def test_snoop_hook_sees_reads_not_writes(self, hierarchy):
        hier, space, _ = hierarchy
        seen = []
        hier.set_demand_snoop(lambda addr, time, level: seen.append((addr, level)))
        addr = space.regions[0].base
        hier.demand_access_time(addr, 0.0)
        hier.demand_access_time(addr + 8, 500.0, write=True)
        assert len(seen) == 1

    def test_advance_hook_called_with_access_time(self, hierarchy):
        hier, space, _ = hierarchy
        times = []
        hier.set_advance_hook(times.append)
        hier.demand_access_time(space.regions[0].base, 123.0)
        assert times == [123.0]

    def test_gated_hooks_are_entered_only_when_they_can_act(self, hierarchy):
        hier, space, _ = hierarchy
        base = space.regions[0].base
        times, snooped = [], []
        hier.set_advance_hook(times.append)
        hier.set_demand_snoop(lambda addr, time, level: snooped.append(addr))
        due = [(200.0,)]
        hier.gate_hooks(due, base + 64, base + 128)
        hier.demand_access_time(base, 100.0)  # nothing due, outside the range
        hier.demand_access_time(base + 64, 300.0)  # due, inside the range
        assert times == [300.0] and snooped == [base + 64]
        due.clear()  # the gate reads the caller's live heap
        hier.demand_access_time(base + 64, 400.0)
        assert times == [300.0] and snooped == [base + 64, base + 64]
        hier.set_advance_hook(times.append)  # registering again ungates
        hier.demand_access_time(base, 500.0)
        assert times == [300.0, 500.0]

    def test_negative_time_rejected(self, hierarchy):
        hier, space, _ = hierarchy
        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            hier.demand_access_time(space.regions[0].base, -1.0)


class TestPrefetchPath:
    def test_prefetch_then_demand_hits(self, hierarchy):
        hier, space, _ = hierarchy
        addr = space.regions[0].base
        fill = hier.prefetch_access(addr, 0.0)
        assert fill is not None
        _, level = read(hier, addr, fill + 1)
        assert level == "l1"
        assert hier.l1.stats.prefetch_used == 1

    def test_unmapped_prefetch_discarded(self, hierarchy):
        hier, _, _ = hierarchy
        assert hier.prefetch_access(0x10, 0.0) is None
        assert hier.dropped_prefetches == 1

    def test_redundant_prefetch_counted(self, hierarchy):
        hier, space, _ = hierarchy
        addr = space.regions[0].base
        fill = hier.prefetch_access(addr, 0.0)
        hier.prefetch_access(addr, fill + 1)
        assert hier.l1.stats.prefetch_redundant == 1

    def test_prefetch_returns_fill_time(self, hierarchy):
        hier, space, _ = hierarchy
        addr = space.regions[0].base
        fill = hier.prefetch_access(addr, 0.0)
        assert fill is not None and fill > 0.0
        assert hier.l1.lookup(addr).fill_time == fill

    def test_prefetch_counts_as_prefetch_dram_traffic(self, hierarchy):
        hier, space, _ = hierarchy
        hier.prefetch_access(space.regions[0].base, 0.0)
        assert hier.dram.stats.prefetch_accesses == 1
        assert hier.dram.stats.demand_accesses == 0

    def test_mshr_next_free_reflects_outstanding_fills(self, hierarchy):
        hier, space, config = hierarchy
        base = space.regions[0].base
        for i in range(config.l1.mshrs):
            hier.prefetch_access(base + 64 * i, 0.0)
        # What the programmable engine's drain asks before each issue.
        assert hier.l1_mshrs.next_free_time(0.0) > 0.0


class TestSnoopContract:
    def test_returned_lines_are_prefetched_at_the_reads_translated_time(self):
        # A snoop returns what to prefetch; demand_access_time issues each
        # line in order, as a caller of prefetch_access at the time the
        # snoop saw would.
        def fresh():
            space = AddressSpace()
            space.allocate_array("data", 4096, values=range(4096))
            return MemoryHierarchy(SystemConfig.scaled(), space), space.regions[0].base

        snooped, base = fresh()
        issued, _ = fresh()
        # Two lines, one of them twice (a merge), and an unmapped one.
        targets = [base + 64 * 9, base + 64 * 30, base + 64 * 9, 0x40]
        snoop_times, read_times = [], []

        def returning(addr, time, level):
            snoop_times.append(time)
            return targets

        snooped.set_demand_snoop(returning)
        issued.set_demand_snoop(lambda addr, time, level: read_times.append(time))
        completion = snooped.demand_access_time(base, 5.0)
        assert issued.demand_access_time(base, 5.0) == completion
        for target in targets:
            issued.prefetch_access(target, read_times[0])

        # The cold read walked the page table, so the snoop's time is the
        # translated one, not the issue time.
        assert snoop_times == read_times and read_times[0] > 5.0
        assert snooped.collect_stats() == issued.collect_stats()
        l1 = snooped.l1.stats
        assert (l1.prefetch_requests, l1.prefetch_fills, l1.prefetch_merged) == (3, 2, 1)
        assert snooped.dropped_prefetches == 1
        for target in targets[:2]:
            assert snooped.l1.lookup(target) == issued.l1.lookup(target)


class TestStatsCollection:
    def test_collect_stats_structure(self, hierarchy):
        hier, space, _ = hierarchy
        hier.demand_access_time(space.regions[0].base, 0.0)
        hier.finalize()
        stats = hier.collect_stats()
        assert "demand_read_hit_rate" in stats.l1
        assert stats.dram["total_accesses"] >= 1
        assert stats.as_dict()["dropped_prefetches"] == 0

    def test_line_words_come_from_the_address_space(self, hierarchy):
        hier, space, _ = hierarchy
        base = space.regions[0].base
        assert hier.read_line_words(base + 8)[:4] == (0, 1, 2, 3)
        assert hier.read_line_words(base + 64) == tuple(range(8, 16))


def mixed_stream(base, count, seed):
    """Demand reads, demand writes and prefetches over 512 pages of ``base``.

    Half the accesses fall in 16 hot lines and a third in 32 warm pages, so
    caches and TLBs hit as well as miss.
    """

    rng = random.Random(seed)
    stream = []
    for _ in range(count):
        tier = rng.random()
        if tier < 0.5:
            offset = 64 * rng.randrange(16) + 8 * rng.randrange(8)
        elif tier < 0.8:
            offset = 4096 * rng.randrange(32) + 8 * rng.randrange(512)
        else:
            offset = 8 * rng.randrange(1 << 18)
        stream.append((rng.choice(["read", "read", "write", "prefetch"]), base + offset))
    return stream


class TestInlinedCopiesMatchTheirMethods:
    """The access paths inline ``TLB.translate`` and the L1's probe, touch and
    fill; driving the standalone methods with the same addresses must leave
    the same state behind."""

    @pytest.fixture(params=["scaled", "direct-mapped-l1"])
    def large(self, request):
        config = SystemConfig.scaled()
        if request.param == "direct-mapped-l1":
            config = config.with_caches(
                l1={"size_bytes": 512, "associativity": 1, "mshrs": 2},
                l2={"size_bytes": 4 * 1024, "associativity": 2, "mshrs": 3},
            )
        space = AddressSpace()
        space.allocate_array("data", 1 << 18)
        return MemoryHierarchy(config, space), space.regions[0].base, config

    def test_tlb_stats_match_translate(self, large):
        hier, base, config = large
        standalone = TLB(config.tlb)
        time = 0.0
        for kind, addr in mixed_stream(base, 3000, seed=5):
            if kind == "prefetch":
                hier.prefetch_access(addr, time)
            else:
                time = hier.demand_access_time(addr, time, write=kind == "write")
            standalone.translate(addr, time)
        assert hier.tlb.stats.as_dict() == standalone.stats.as_dict()
        assert hier.tlb.stats.walks > 0 and hier.tlb.stats.l2_hits > 0
        assert list(hier.tlb._l1._entries) == list(standalone._l1._entries)
        assert list(hier.tlb._l2._entries) == list(standalone._l2._entries)

    def test_l1_state_matches_lookup_touch_insert(self, large):
        hier, base, config = large
        standalone = Cache(config.l1)
        time = 0.0
        for kind, addr in mixed_stream(base, 3000, seed=6):
            resident = standalone.lookup(addr) is not None
            if kind == "prefetch":
                fill = hier.prefetch_access(addr, time)
                if not resident:
                    standalone.insert(addr, fill, prefetched=True)
            else:
                write = kind == "write"
                completion = hier.demand_access_time(addr, time, write=write)
                if resident:
                    standalone.touch(addr, write=write)
                else:
                    standalone.insert(addr, completion, write=write)
                time = completion

        def lines(cache):
            return [
                [(tag, line.fill_time, line.prefetched, line.used, line.dirty)
                 for tag, line in cache_set.items()]
                for cache_set in cache._sets
            ]

        assert lines(hier.l1) == lines(standalone)
        counted = ("evictions", "dirty_evictions", "prefetch_fills", "prefetch_used",
                   "prefetch_evicted_unused")
        assert {name: getattr(hier.l1.stats, name) for name in counted} == {
            name: getattr(standalone.stats, name) for name in counted
        }
        assert standalone.stats.evictions > 0 and standalone.stats.prefetch_used > 0
        assert standalone.stats.dirty_evictions > 0
