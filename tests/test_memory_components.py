"""Tests for the MSHR file, DRAM model and TLB."""

import pytest

from repro.config import DRAMConfig, TLBConfig
from repro.errors import ConfigurationError
from repro.memory.dram import DRAMModel
from repro.memory.mshr import MSHRFile
from repro.memory.tlb import TLB


class TestMSHRFile:
    def test_allocate_when_free_is_immediate(self):
        mshrs = MSHRFile(2)
        assert mshrs.allocate(10.0) == 10.0

    def test_allocation_delayed_when_full(self):
        mshrs = MSHRFile(1)
        grant = mshrs.allocate(0.0)
        mshrs.register_fill(100.0)
        assert mshrs.next_free_time(10.0) == 100.0
        delayed = mshrs.allocate(10.0)
        assert delayed == 100.0
        assert mshrs.total_stall_cycles == pytest.approx(90.0)
        assert grant == 0.0

    def test_slots_reclaimed_after_fill(self):
        mshrs = MSHRFile(1)
        mshrs.allocate(0.0)
        mshrs.register_fill(50.0)
        assert mshrs.next_free_time(60.0) == 60.0
        assert mshrs.in_flight == 0

    def test_capacity_enforced(self):
        mshrs = MSHRFile(3)
        for i in range(3):
            mshrs.allocate(0.0)
            mshrs.register_fill(100.0 + i)
        assert mshrs.next_free_time(0.0) == 100.0

    def test_invalid_capacity(self):
        with pytest.raises(ConfigurationError):
            MSHRFile(0)


class TestDRAM:
    def test_single_access_latency(self):
        dram = DRAMModel(DRAMConfig(access_latency_cycles=200, channels=1, line_service_cycles=16))
        assert dram.access(0.0) == 200.0

    def test_bandwidth_serialisation_on_one_channel(self):
        dram = DRAMModel(DRAMConfig(access_latency_cycles=200, channels=1, line_service_cycles=16))
        first = dram.access(0.0)
        second = dram.access(0.0)
        assert second == first + 16

    def test_channels_parallelise(self):
        dram = DRAMModel(DRAMConfig(access_latency_cycles=200, channels=2, line_service_cycles=16))
        assert dram.access(0.0) == 200.0
        assert dram.access(0.0) == 200.0
        assert dram.access(0.0) == 216.0

    def test_stats_split_demand_and_prefetch(self):
        dram = DRAMModel(DRAMConfig())
        dram.access(0.0)
        dram.access(0.0, is_prefetch=True)
        dram.access(0.0, is_writeback=True)
        assert dram.stats.demand_accesses == 1
        assert dram.stats.prefetch_accesses == 1
        assert dram.stats.writebacks == 1
        assert dram.stats.total_accesses == 3


class TestTLB:
    def test_first_access_walks(self):
        tlb = TLB(TLBConfig())
        latency = tlb.translate(0x10000, 0.0)
        assert latency == TLBConfig().l2_hit_latency + TLBConfig().walk_latency
        assert tlb.stats.walks == 1

    def test_second_access_hits_l1(self):
        tlb = TLB(TLBConfig())
        tlb.translate(0x10000, 0.0)
        assert tlb.translate(0x10008, 1.0) == 0.0
        assert tlb.stats.l1_hits == 1

    def test_l1_eviction_falls_back_to_l2(self):
        config = TLBConfig(l1_entries=2, l2_entries=64)
        tlb = TLB(config)
        for page in range(4):
            tlb.translate(page * config.page_bytes, 0.0)
        # Page 0 has been evicted from the 2-entry L1 but is still in the L2.
        latency = tlb.translate(0, 0.0)
        assert latency == config.l2_hit_latency
        assert tlb.stats.l2_hits >= 1

    def test_hit_rate_statistic(self):
        tlb = TLB(TLBConfig())
        tlb.translate(0, 0.0)
        tlb.translate(8, 0.0)
        assert tlb.stats.l1_hit_rate == pytest.approx(0.5)
