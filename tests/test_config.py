"""Tests for the system configuration (Table 1 presets and validation)."""

import pytest

from repro.config import (
    CACHE_LINE_BYTES,
    CacheConfig,
    CoreConfig,
    DRAMConfig,
    GHBPrefetcherConfig,
    ProgrammablePrefetcherConfig,
    SystemConfig,
    TLBConfig,
)
from repro.errors import ConfigurationError


class TestPresets:
    def test_paper_preset_matches_table1(self):
        config = SystemConfig.paper()
        assert config.core.issue_width == 3
        assert config.core.rob_entries == 40
        assert config.core.frequency_ghz == pytest.approx(3.2)
        assert config.l1.size_bytes == 32 * 1024
        assert config.l1.mshrs == 12
        assert config.l2.size_bytes == 1024 * 1024
        assert config.prefetcher.num_ppus == 12
        assert config.prefetcher.observation_queue_entries == 40
        assert config.prefetcher.prefetch_queue_entries == 200
        assert config.stride.degree == 8

    def test_scaled_preset_keeps_structure_but_shrinks_l2(self):
        paper = SystemConfig.paper()
        scaled = SystemConfig.scaled()
        assert scaled.l2.size_bytes < paper.l2.size_bytes
        assert scaled.prefetcher == paper.prefetcher
        assert scaled.core == paper.core

    def test_scaled_preset_validates(self):
        SystemConfig.scaled().validate()

    def test_ppu_cycle_ratio(self):
        config = SystemConfig.paper()
        assert config.ppu_cycle_ratio == pytest.approx(3.2)
        doubled = config.with_prefetcher(ppu_frequency_ghz=2.0)
        assert doubled.ppu_cycle_ratio == pytest.approx(1.6)

    def test_ghb_presets(self):
        regular = GHBPrefetcherConfig.regular()
        large = GHBPrefetcherConfig.large()
        assert large.history_entries > regular.history_entries
        assert regular.depth == 16 and regular.width == 6


class TestValidation:
    def test_cache_size_must_be_power_of_two_sets(self):
        bad = CacheConfig(name="L1", size_bytes=3 * 1024, associativity=2, hit_latency=2, mshrs=4)
        with pytest.raises(ConfigurationError):
            bad.validate()

    def test_cache_needs_mshr(self):
        bad = CacheConfig(name="L1", size_bytes=32 * 1024, associativity=2, hit_latency=2, mshrs=0)
        with pytest.raises(ConfigurationError):
            bad.validate()

    def test_num_sets(self):
        cache = CacheConfig(name="L1", size_bytes=32 * 1024, associativity=2, hit_latency=2, mshrs=4)
        assert cache.num_sets == 32 * 1024 // (2 * CACHE_LINE_BYTES)

    def test_core_rejects_zero_width(self):
        with pytest.raises(ConfigurationError):
            CoreConfig(issue_width=0).validate()

    def test_core_rejects_bad_mispredict_rate(self):
        with pytest.raises(ConfigurationError):
            CoreConfig(branch_mispredict_rate=1.5).validate()

    def test_dram_rejects_zero_latency(self):
        with pytest.raises(ConfigurationError):
            DRAMConfig(access_latency_cycles=0).validate()

    def test_tlb_rejects_no_walkers(self):
        with pytest.raises(ConfigurationError):
            TLBConfig(active_walkers=0).validate()

    def test_prefetcher_rejects_zero_ppus(self):
        with pytest.raises(ConfigurationError):
            ProgrammablePrefetcherConfig(num_ppus=0).validate()

    def test_prefetcher_rejects_bad_alpha(self):
        with pytest.raises(ConfigurationError):
            ProgrammablePrefetcherConfig(ewma_alpha=0.0).validate()

    def test_prefetcher_rejects_zero_entry_queues(self):
        for queue in ("observation_queue_entries", "prefetch_queue_entries"):
            with pytest.raises(ConfigurationError):
                ProgrammablePrefetcherConfig(**{queue: 0}).validate()

    def test_prefetcher_rejects_an_empty_register_file(self):
        with pytest.raises(ConfigurationError, match="global prefetcher register"):
            ProgrammablePrefetcherConfig(global_registers=0).validate()

    @pytest.mark.parametrize("line_bytes", [0, 32, 48, 128])
    def test_cache_lines_must_be_64_bytes(self, line_bytes):
        def cache(line_bytes):
            return CacheConfig(
                name="L1D", size_bytes=16 * 1024, associativity=2, hit_latency=2, mshrs=4,
                line_bytes=line_bytes,
            )

        with pytest.raises(ConfigurationError, match=f"L1D: lines are 64 bytes, not {line_bytes}"):
            cache(line_bytes).validate()
        cache(CACHE_LINE_BYTES).validate()

    def test_l1_larger_than_l2_rejected(self):
        config = SystemConfig(
            l1=CacheConfig(name="L1D", size_bytes=2 * 1024 * 1024, associativity=2, hit_latency=2, mshrs=4)
        )
        with pytest.raises(ConfigurationError):
            config.validate()


class TestOverrides:
    def test_with_prefetcher_returns_new_config(self):
        base = SystemConfig.scaled()
        tuned = base.with_prefetcher(num_ppus=6, ppu_frequency_ghz=2.0)
        assert tuned.prefetcher.num_ppus == 6
        assert base.prefetcher.num_ppus == 12
        assert tuned.prefetcher.ppu_frequency_ghz == pytest.approx(2.0)

    def test_with_prefetcher_validates(self):
        with pytest.raises(ConfigurationError):
            SystemConfig.scaled().with_prefetcher(num_ppus=0)

    def test_with_core_override(self):
        tuned = SystemConfig.scaled().with_core(rob_entries=128)
        assert tuned.core.rob_entries == 128

    def test_blocking_mode_override(self):
        tuned = SystemConfig.scaled().with_prefetcher(blocking_mode=True)
        assert tuned.prefetcher.blocking_mode is True
        assert SystemConfig.scaled().prefetcher.blocking_mode is False
