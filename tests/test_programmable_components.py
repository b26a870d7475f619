"""Tests for the programmable prefetcher's building blocks.

Covers the EWMA calculators, global registers, address filter, PPU
bookkeeping, scheduling policies and the configuration API.
"""

import pytest

from repro.errors import ConfigurationError
from repro.programmable.config_api import PrefetcherConfiguration
from repro.programmable.ewma import EWMA, MAX_LOOKAHEAD, MIN_LOOKAHEAD, LookaheadCalculator
from repro.programmable.filter import AddressFilter
from repro.programmable.kernel import KernelBuilder
from repro.programmable.ppu import PPU
from repro.programmable.registers import GlobalRegisterFile
from repro.programmable.scheduler import LowestFreeIdPolicy, RoundRobinPolicy


def simple_kernel(name="k"):
    builder = KernelBuilder(name)
    builder.prefetch(builder.get_vaddr())
    return builder.build()


class TestEWMA:
    def test_first_sample_sets_value(self):
        ewma = EWMA(alpha=0.5)
        assert ewma.update(10.0) == 10.0

    def test_smoothing(self):
        ewma = EWMA(alpha=0.5)
        ewma.update(10.0)
        assert ewma.update(20.0) == pytest.approx(15.0)

    def test_negative_sample_rejected(self):
        with pytest.raises(ConfigurationError):
            EWMA().update(-1.0)

    def test_bad_alpha_rejected(self):
        with pytest.raises(ConfigurationError):
            EWMA(alpha=0.0)


class TestLookaheadCalculator:
    def test_default_distance_before_samples(self):
        calc = LookaheadCalculator(default_distance=6)
        assert calc.lookahead() == 6

    def test_lookahead_ratio(self):
        calc = LookaheadCalculator(iteration_window=1)
        for i in range(20):
            calc.observe_iteration(i * 50.0)
        calc.observe_chain(0.0, 400.0)
        # chain 400 / iteration 50 → 8 (+1 margin)
        assert 8 <= calc.lookahead() <= 10

    def test_lookahead_clamped(self):
        calc = LookaheadCalculator(iteration_window=1)
        calc.observe_iteration(0.0)
        calc.observe_iteration(1.0)
        calc.observe_chain(0.0, 1e9)
        assert calc.lookahead() == MAX_LOOKAHEAD
        calc2 = LookaheadCalculator(iteration_window=1)
        calc2.observe_iteration(0.0)
        calc2.observe_iteration(1000.0)
        calc2.observe_chain(0.0, 0.0)
        assert calc2.lookahead() >= MIN_LOOKAHEAD

    def test_bursty_observations_smoothed(self):
        calc = LookaheadCalculator(iteration_window=4)
        # 4 observations almost together, then a long gap, repeatedly: the
        # averaged iteration time should be ≈ gap / 4, not ≈ 0.
        time = 0.0
        for _ in range(8):
            for burst in range(4):
                calc.observe_iteration(time + burst)
            time += 400.0
        assert calc.iteration_time.value == pytest.approx(100.0, rel=0.3)

    def test_reset(self):
        calc = LookaheadCalculator(iteration_window=1)
        calc.observe_iteration(0.0)
        calc.observe_iteration(10.0)
        calc.observe_chain(0.0, 100.0)
        calc.reset()
        assert calc.lookahead() == calc.default_distance


class TestGlobalRegisters:
    def test_define_and_read(self):
        regs = GlobalRegisterFile(4)
        index = regs.define("base_A", 0x1234)
        assert regs.read(index) == 0x1234
        assert regs.index_of("base_A") == index

    def test_redefine_updates_value(self):
        regs = GlobalRegisterFile(4)
        index = regs.define("x", 1)
        assert regs.define("x", 2) == index
        assert regs.read(index) == 2

    def test_capacity_enforced(self):
        regs = GlobalRegisterFile(2)
        regs.define("a", 1)
        regs.define("b", 2)
        with pytest.raises(ConfigurationError):
            regs.define("c", 3)

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigurationError):
            GlobalRegisterFile(2).index_of("missing")

    def test_snapshot_is_copy(self):
        regs = GlobalRegisterFile(2)
        regs.define("a", 5)
        snapshot = regs.snapshot()
        snapshot[0] = 99
        assert regs.read(0) == 5


class TestConfigurationAPI:
    def test_round_trip(self):
        config = PrefetcherConfiguration()
        config.add_kernel(simple_kernel("on_load"))
        config.add_stream("s", default_distance=8)
        config.set_global("base", 0x1000)
        tag = config.add_tag("fill", "on_load", stream="s")
        config.add_range("A", 0x1000, 0x2000, load_kernel="on_load", stream="s")
        config.validate()
        assert config.tag(tag).kernel == "on_load"
        assert config.global_index("base") == 0
        assert config.stream_index("s") == 0
        assert config.config_instruction_count() > 0
        assert config.code_footprint_bytes() > 0

    def test_duplicate_kernel_rejected(self):
        config = PrefetcherConfiguration()
        config.add_kernel(simple_kernel("k"))
        with pytest.raises(ConfigurationError):
            config.add_kernel(simple_kernel("k"))

    def test_unknown_kernel_reference_rejected(self):
        config = PrefetcherConfiguration()
        config.add_range("A", 0, 64, load_kernel="missing")
        with pytest.raises(ConfigurationError):
            config.validate()

    def test_unknown_stream_reference_rejected(self):
        config = PrefetcherConfiguration()
        config.add_kernel(simple_kernel("k"))
        config.add_range("A", 0, 64, load_kernel="k", stream="ghost")
        with pytest.raises(ConfigurationError):
            config.validate()

    def test_invalid_range_rejected(self):
        config = PrefetcherConfiguration()
        with pytest.raises(ConfigurationError):
            config.add_range("A", 100, 100)

    def test_tag_ids_stable_by_name(self):
        config = PrefetcherConfiguration()
        config.add_kernel(simple_kernel("k"))
        first = config.add_tag("t", "k")
        assert config.add_tag("t", "k") == first
        assert config.tag_by_name("t") == first


class TestAddressFilter:
    def _config(self):
        config = PrefetcherConfiguration()
        config.add_kernel(simple_kernel("on_load"))
        config.add_kernel(simple_kernel("on_fill"))
        config.add_stream("s")
        config.add_range("A", 0x1000, 0x2000, load_kernel="on_load", stream="s", time_iterations=True)
        config.add_range("B", 0x1800, 0x3000, prefetch_kernel="on_fill")
        config.validate()
        return config

    def test_load_matching(self):
        filt = AddressFilter(self._config(), max_entries=16)
        assert [r.name for r in filt.match_load(0x1100)] == ["A"]
        assert filt.match_load(0x4000) == []

    def test_overlapping_ranges_both_match(self):
        filt = AddressFilter(self._config(), max_entries=16)
        assert len(filt.match_load(0x1900)) == 1  # B has no load kernel
        assert len(filt.match_prefetch(0x1900)) == 1

    def test_prefetch_matching(self):
        filt = AddressFilter(self._config(), max_entries=16)
        assert [r.name for r in filt.match_prefetch(0x2800)] == ["B"]

    def test_capacity_enforced(self):
        with pytest.raises(ConfigurationError):
            AddressFilter(self._config(), max_entries=1)

    def test_stats_recorded(self):
        filt = AddressFilter(self._config(), max_entries=16)
        filt.match_load(0x1100)
        filt.match_load(0x9000)
        assert filt.stats.load_snoops == 2
        assert filt.stats.load_matches == 1


class TestPPUAndScheduling:
    def test_activity_factor_clamped(self):
        ppu = PPU(0)
        ppu.stats.busy_cycles = 500.0
        assert ppu.activity_factor(100.0) == 1.0
        assert PPU(1).activity_factor(0.0) == 0.0

    def test_lowest_free_id_policy(self):
        ppus = [PPU(0), PPU(1), PPU(2)]
        ppus[0].busy_until = 100.0
        policy = LowestFreeIdPolicy()
        assert policy.select(ppus, 50.0).ppu_id == 1
        assert policy.select(ppus, 200.0).ppu_id == 0

    def test_lowest_free_id_returns_none_when_all_busy(self):
        ppus = [PPU(0)]
        ppus[0].busy_until = 10.0
        assert LowestFreeIdPolicy().select(ppus, 5.0) is None

    def test_round_robin_spreads_work(self):
        ppus = [PPU(i) for i in range(3)]
        policy = RoundRobinPolicy()
        picks = [policy.select(ppus, 0.0).ppu_id for _ in range(3)]
        assert picks == [0, 1, 2]
