"""Tests for the stride and GHB baseline prefetchers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import GHBPrefetcherConfig, StridePrefetcherConfig, SystemConfig
from repro.memory.address_space import AddressSpace
from repro.memory.hierarchy import MemoryHierarchy
from repro.prefetch.ghb import GHBPrefetcher
from repro.prefetch.stride import StridePrefetcher

from ghb_oracle import GHBOracle


class TestStridePrefetcher:
    def test_learns_constant_stride(self):
        prefetcher = StridePrefetcher(StridePrefetcherConfig(confidence_threshold=2, degree=4))
        base = 0x10000
        candidates = []
        for i in range(6):
            candidates = prefetcher.train(base + i * 64, float(i), "dram")
        assert candidates, "a stable stride should produce prefetch candidates"
        assert all(addr > base + 5 * 64 for addr in candidates)
        assert len(candidates) <= 4

    def test_random_addresses_produce_no_prefetches(self):
        prefetcher = StridePrefetcher()
        import random

        rng = random.Random(7)
        produced = []
        for i in range(200):
            produced += prefetcher.train(0x10000 + rng.randrange(1 << 20) * 8, float(i), "dram")
        assert len(produced) < 10

    def test_candidates_are_line_aligned_and_unique(self):
        prefetcher = StridePrefetcher(StridePrefetcherConfig(confidence_threshold=1, degree=8))
        for i in range(4):
            candidates = prefetcher.train(0x20000 + i * 8, float(i), "l2")
        assert all(addr % 64 == 0 for addr in candidates)
        assert len(candidates) == len(set(candidates))

    def test_table_capacity_evicts_old_streams(self):
        prefetcher = StridePrefetcher(StridePrefetcherConfig(table_entries=2))
        prefetcher.train(0x0001_0000, 0.0, "dram")
        prefetcher.train(0x0002_0000, 0.0, "dram")
        prefetcher.train(0x0001_0040, 0.0, "dram")  # the first stream is used again
        prefetcher.train(0x0003_0000, 0.0, "dram")
        # The least recently used stream is the one evicted.
        assert list(prefetcher._table) == [0x1, 0x3]

    def test_attach_issues_prefetches_into_hierarchy(self):
        config = SystemConfig.scaled()
        space = AddressSpace()
        array = space.allocate_array("a", 8192, values=range(8192))
        hierarchy = MemoryHierarchy(config, space)
        prefetcher = StridePrefetcher(config.stride)
        prefetcher.attach(hierarchy)
        time = 0.0
        for i in range(64):
            time = hierarchy.demand_access_time(array.addr_of(i * 8), time) + 1
        # The hierarchy counts every prefetch issued: accepted, or dropped
        # as unmapped.
        assert hierarchy.l1.stats.prefetch_requests + hierarchy.dropped_prefetches > 0
        assert hierarchy.l1.stats.prefetch_requests > 0


class TestGHBPrefetcher:
    def test_repeating_sequence_predicted(self):
        prefetcher = GHBPrefetcher(GHBPrefetcherConfig.regular())
        sequence = [0x1000, 0x5000, 0x9000, 0xD000]
        for _ in range(3):
            for addr in sequence:
                prefetcher.train(addr, 0.0, "dram")
        candidates = prefetcher.train(sequence[0], 0.0, "dram")
        assert 0x5000 in candidates

    def test_hits_do_not_train(self):
        prefetcher = GHBPrefetcher()
        for _ in range(3):
            for addr in (0x1000, 0x5000):
                prefetcher.train(addr, 0.0, "l1")
        assert prefetcher.train(0x1000, 0.0, "l1") == []

    def test_non_repeating_stream_not_predicted(self):
        prefetcher = GHBPrefetcher()
        produced = []
        for i in range(500):
            produced += prefetcher.train(0x10000 + i * 4096, 0.0, "dram")
        assert produced == []

    def test_history_capacity_limits_regular_config(self):
        small = GHBPrefetcher(GHBPrefetcherConfig(index_entries=16, history_entries=16))
        sequence = [0x1000 + i * 64 for i in range(64)]
        for addr in sequence:
            small.train(addr, 0.0, "dram")
        # The first addresses have been pushed out of the 16-entry history.
        assert small.train(sequence[0], 0.0, "dram") == []

    def test_large_preset_has_more_state(self):
        assert GHBPrefetcherConfig.large().history_entries > GHBPrefetcherConfig.regular().history_entries

    def test_width_limits_successors(self):
        prefetcher = GHBPrefetcher(GHBPrefetcherConfig(width=2, depth=4))
        sequence = [0x1000, 0x2000, 0x3000, 0x4000, 0x5000, 0x6000]
        for _ in range(2):
            for addr in sequence:
                prefetcher.train(addr, 0.0, "dram")
        candidates = prefetcher.train(sequence[0], 0.0, "dram")
        assert len(candidates) <= 2 * 4


_LEVELS = ("l1", "l1_inflight", "l2", "l2_inflight", "dram")


class TestGHBMatchesOracle:
    @settings(max_examples=200, deadline=None)
    @given(
        index_entries=st.integers(min_value=1, max_value=12),
        history_entries=st.integers(min_value=1, max_value=24),
        depth=st.integers(min_value=1, max_value=5),
        width=st.integers(min_value=1, max_value=4),
        stream=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=15),
                st.integers(min_value=0, max_value=63),
                st.sampled_from(_LEVELS),
            ),
            min_size=50,
            max_size=200,
        ),
    )
    def test_candidates_match_call_for_call(
        self, index_entries, history_entries, depth, width, stream
    ):
        # Few lines and tiny tables: lines recur, index entries are evicted
        # and history slots age out within one stream.
        config = GHBPrefetcherConfig(
            index_entries=index_entries, history_entries=history_entries,
            depth=depth, width=width,
        )
        prefetcher = GHBPrefetcher(config)
        oracle = GHBOracle(config)
        for call, (line, offset, level) in enumerate(stream):
            addr = 0x4000 + 64 * line + offset
            expected = oracle.train(addr, float(call), level)
            assert prefetcher.train(addr, float(call), level) == expected, call
