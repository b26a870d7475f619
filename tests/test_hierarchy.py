"""Tests for the assembled memory hierarchy."""

import pytest

from repro.config import SystemConfig
from repro.memory.address_space import AddressSpace
from repro.memory.hierarchy import MemoryHierarchy


@pytest.fixture
def hierarchy():
    config = SystemConfig.scaled()
    space = AddressSpace()
    space.allocate_array("data", 4096, values=range(4096))
    return MemoryHierarchy(config, space), space, config


class TestDemandPath:
    def test_cold_miss_goes_to_dram(self, hierarchy):
        hier, space, config = hierarchy
        addr = space.regions[0].base
        result = hier.demand_access(addr, 0.0)
        assert result.level == "dram"
        assert result.completion_time >= config.dram.access_latency_cycles

    def test_second_access_hits_l1(self, hierarchy):
        hier, space, config = hierarchy
        addr = space.regions[0].base
        first = hier.demand_access(addr, 0.0)
        second = hier.demand_access(addr, first.completion_time + 1)
        assert second.level == "l1"
        assert second.l1_hit
        assert second.completion_time - (first.completion_time + 1) <= config.l1.hit_latency + config.tlb.l2_hit_latency

    def test_access_during_fill_merges(self, hierarchy):
        hier, space, _ = hierarchy
        addr = space.regions[0].base
        first = hier.demand_access(addr, 0.0)
        merged = hier.demand_access(addr, 1.0)
        assert merged.level == "l1_inflight"
        assert merged.completion_time <= first.completion_time + 1
        assert hier.l1.stats.inflight_merges == 1

    def test_l2_hit_after_l1_eviction(self, hierarchy):
        hier, space, config = hierarchy
        base = space.regions[0].base
        # Touch enough distinct lines to evict the first from the L1 but not the L2.
        lines_to_fill = (config.l1.size_bytes // 64) * 2 + 8
        time = 0.0
        for i in range(lines_to_fill):
            result = hier.demand_access(base + 64 * i, time)
            time = result.completion_time + 1
        assert not hier.l1.contains(base, time)
        result = hier.demand_access(base, time)
        assert result.level in ("l2", "l2_inflight")

    def test_snoop_hook_sees_reads_not_writes(self, hierarchy):
        hier, space, _ = hierarchy
        seen = []
        hier.set_demand_snoop(lambda addr, time, level: seen.append((addr, level)))
        addr = space.regions[0].base
        hier.demand_access(addr, 0.0)
        hier.demand_access(addr + 8, 500.0, write=True)
        assert len(seen) == 1

    def test_advance_hook_called_with_access_time(self, hierarchy):
        hier, space, _ = hierarchy
        times = []
        hier.set_advance_hook(times.append)
        hier.demand_access(space.regions[0].base, 123.0)
        assert times == [123.0]

    def test_gated_hooks_are_entered_only_when_they_can_act(self, hierarchy):
        hier, space, _ = hierarchy
        base = space.regions[0].base
        times, snooped = [], []
        hier.set_advance_hook(times.append)
        hier.set_demand_snoop(lambda addr, time, level: snooped.append(addr))
        due = [(200.0,)]
        hier.gate_hooks(due, base + 64, base + 128)
        hier.demand_access(base, 100.0)  # nothing due, outside the range
        hier.demand_access(base + 64, 300.0)  # due, inside the range
        assert times == [300.0] and snooped == [base + 64]
        due.clear()  # the gate reads the caller's live heap
        hier.demand_access(base + 64, 400.0)
        assert times == [300.0] and snooped == [base + 64, base + 64]
        hier.set_advance_hook(times.append)  # registering again ungates
        hier.demand_access(base, 500.0)
        assert times == [300.0, 500.0]

    def test_negative_time_rejected(self, hierarchy):
        hier, space, _ = hierarchy
        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            hier.demand_access(space.regions[0].base, -1.0)


class TestPrefetchPath:
    def test_prefetch_then_demand_hits(self, hierarchy):
        hier, space, _ = hierarchy
        addr = space.regions[0].base
        fill = hier.prefetch_access(addr, 0.0)
        assert fill is not None
        result = hier.demand_access(addr, fill + 1)
        assert result.l1_hit
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
        assert hier.l1_mshr_next_free(0.0) > 0.0


class TestStatsCollection:
    def test_collect_stats_structure(self, hierarchy):
        hier, space, _ = hierarchy
        hier.demand_access(space.regions[0].base, 0.0)
        hier.finalize()
        stats = hier.collect_stats()
        assert "demand_read_hit_rate" in stats.l1
        assert stats.dram["total_accesses"] >= 1
        assert stats.as_dict()["dropped_prefetches"] == 0

    def test_read_line_passthrough(self, hierarchy):
        hier, space, _ = hierarchy
        assert hier.read_line(space.regions[0].base)[:4] == [0, 1, 2, 3]

    def test_reset(self, hierarchy):
        hier, space, _ = hierarchy
        hier.demand_access(space.regions[0].base, 0.0)
        hier.reset()
        assert hier.l1.stats.demand_read_accesses == 0
        assert hier.dram.stats.total_accesses == 0
