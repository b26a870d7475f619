"""Tests for the programmable prefetcher's building blocks.

Covers the EWMA calculators, global registers, address filter, PPU
bookkeeping, scheduling policies and the configuration API.
"""

import math

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


def feed(calc: LookaheadCalculator, time: float, iteration: float, latency: float) -> float:
    """One sample of each input: a window of reads ``iteration`` apart, one chain.

    Returns the time of the last read.  The calculator's first read must
    already have opened its window.
    """

    for _ in range(calc.iteration_window):
        time += iteration
        calc.observe_iteration(time)
    calc.observe_chain(time, time + latency)
    return time


def samples_to_reach(alpha: float, before: float, after: float, band: tuple) -> int:
    """Samples until an EWMA stepped from ``before`` to ``after`` lies in ``band``.

    After n samples of ``after`` its value is after + (before − after)·(1 − α)^n,
    so it enters ``[low, high)`` from above once (before − after)·(1 − α)^n <
    high − after, and from below once (after − before)·(1 − α)^n ≤ after − low.
    """

    low, high = band
    gap = high - after if before > after else after - low
    exponent = math.log(abs(before - after) / gap) / -math.log(1.0 - alpha)
    return math.floor(exponent) + 1 if before > after else math.ceil(exponent)


class TestLookaheadCalculator:
    def test_default_distance_before_samples(self):
        calc = LookaheadCalculator(default_distance=6)
        assert calc.lookahead() == 6

    def test_lookahead_ratio(self):
        calc = LookaheadCalculator(iteration_window=1)
        for i in range(20):
            calc.observe_iteration(i * 50.0)
        calc.observe_chain(0.0, 400.0)
        # ⌈chain 400 ÷ iteration 50⌉ + 1
        assert calc.lookahead() == 9

    @pytest.mark.parametrize("iteration, latency", [
        (50, 400), (7, 100), (20, 250), (3, 3), (1000, 0), (1, 1000), (2, 126),
    ])
    def test_constant_inputs_settle_at_the_ceiling_ratio_plus_one(self, iteration, latency):
        expected = max(MIN_LOOKAHEAD, min(MAX_LOOKAHEAD, math.ceil(latency / iteration) + 1))
        calc = LookaheadCalculator()
        time = 0.0
        calc.observe_iteration(time)
        distances = []
        for _ in range(50):
            time = feed(calc, time, iteration, latency)
            distances.append(calc.lookahead())
        # The first sample of each input sets its EWMA exactly, so the
        # distance is right from the first sample on and never moves.
        assert distances == [expected] * 50

    # A step in one input, the other held constant.  ``band`` is the range
    # of smoothed values of the stepped input that give the new distance,
    # from distance = ⌈int(latency) ÷ int(iteration)⌉ + 1; ``samples`` is
    # what samples_to_reach derives for the default alpha of 0.25.
    @pytest.mark.parametrize("stepped, before, after, fixed, distance, band, samples", [
        # int(latency) in 241..260 gives ⌈·/20⌉ = 13.
        ("latency", 600, 250, 20, 14, (241, 261), 13),
        ("latency", 100, 250, 20, 14, (241, 261), 10),
        # int(iteration) in 37..41 gives ⌈330/·⌉ = 9; only 10 gives 33.
        ("iteration", 10, 40, 330, 10, (37, 42), 9),
        ("iteration", 40, 10, 330, 34, (10, 11), 12),
    ])
    def test_a_step_reaches_the_new_distance_within_the_derived_samples(
        self, stepped, before, after, fixed, distance, band, samples
    ):
        calc = LookaheadCalculator()
        assert samples_to_reach(calc.alpha, before, after, band) == samples

        def inputs(value):
            return (value, fixed) if stepped == "iteration" else (fixed, value)

        time = 0.0
        calc.observe_iteration(time)
        for _ in range(20):
            time = feed(calc, time, *inputs(before))
        assert calc.lookahead() != distance
        distances = []
        for _ in range(samples + 30):
            time = feed(calc, time, *inputs(after))
            distances.append(calc.lookahead())
        # Not a sample early, and then for good.
        assert distances[samples - 2] != distance
        assert distances[samples - 1:] == [distance] * 31

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
