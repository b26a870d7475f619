"""Tests for the workload registry and the off-paper workloads it serves."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SystemConfig
from repro.cpu.trace import OpKind
from repro.errors import RegistryError, WorkloadError
from repro.sim import PrefetchMode, SimEngine, SimRequest, simulate
from repro.sim.modes import mode_available
from repro.workloads import build_workload, registry
from repro.workloads.base import Workload
from repro.workloads.registry import WorkloadRegistry, WorkloadSpec, register_workload


class _DummyWorkload(Workload):
    """Minimal registrable workload used to exercise registration paths."""

    name = "dummy"
    pattern = "none"

    def _build_data(self):
        self.data = self.space.allocate_array("dummy_data", 64)

    def _emit_trace(self, tb, *, software_prefetch):
        for i in range(64):
            tb.load(self.data.addr_of(i))

    def _build_loop_ir(self):
        raise NotImplementedError


class TestRegistration:
    def test_names_cover_paper_and_extended(self):
        names = registry.names()
        assert len(names) == 11
        assert set(registry.paper_names()) | set(registry.extended_names()) == set(names)
        assert registry.extended_names() == ["bfs", "spmv", "unionfind"]

    def test_specs_carry_metadata(self):
        spec = registry.get("bfs")
        assert spec.paper_reference is False
        assert spec.pattern
        assert spec.description
        assert "tiny" in spec.scales
        assert registry.get("intsort").paper_reference is True

    def test_duplicate_name_registration_raises(self):
        private = WorkloadRegistry()
        register_workload(registry=private)(_DummyWorkload)
        assert "dummy" in private
        with pytest.raises(RegistryError):
            register_workload(registry=private)(_DummyWorkload)

    def test_anonymous_class_rejected(self):
        private = WorkloadRegistry()

        class Nameless(Workload):
            def _build_data(self):
                ...

            def _emit_trace(self, tb, *, software_prefetch):
                ...

            def _build_manual_configuration(self):
                ...

            def _build_loop_ir(self):
                ...

        with pytest.raises(RegistryError):
            register_workload(registry=private)(Nameless)

    def test_unknown_name_rejected(self):
        with pytest.raises(RegistryError):
            registry.get("nonexistent")

    def test_hand_written_kernels_need_a_derive_note(self):
        class HandWritten(_DummyWorkload):
            name = "hand-written"

            def _build_manual_configuration(self):
                raise NotImplementedError

        assert _DummyWorkload.derives_manual
        assert not HandWritten.derives_manual
        private = WorkloadRegistry()
        with pytest.raises(RegistryError, match="derive_note"):
            register_workload(registry=private)(HandWritten)
        HandWritten.derive_note = "the loop IR cannot express it"
        register_workload(registry=private)(HandWritten)
        assert not private.get("hand-written").derives_manual

    def test_unknown_scale_rejected_at_registration(self):
        private = WorkloadRegistry()
        with pytest.raises(WorkloadError):
            register_workload(registry=private, scales=("enormous",))(_DummyWorkload)

    def test_spec_build_rejects_unsupported_scale(self):
        private = WorkloadRegistry()
        register_workload(registry=private, scales=("tiny",))(_DummyWorkload)
        workload = private.build("dummy", scale="tiny")
        assert workload.space.mapped_bytes > 0
        with pytest.raises(WorkloadError):
            private.build("dummy", scale="default")


class TestSimRequestRoundTrip:
    def test_every_registered_name_digests(self):
        digests = set()
        for name in registry.names():
            request = SimRequest(workload=name, mode=PrefetchMode.NONE.value, scale="tiny")
            assert len(request.digest) == 64
            digests.add(request.digest)
        # Distinct workloads must never collide in the plan/cache key space.
        assert len(digests) == len(registry.names())

    def test_identical_specs_share_a_digest(self):
        first = SimRequest(workload="spmv", mode="manual", scale="tiny", seed=7)
        second = SimRequest(workload="spmv", mode="manual", scale="tiny", seed=7)
        assert first.digest == second.digest

    def test_new_workload_resolves_through_engine(self):
        engine = SimEngine()
        request = SimRequest(
            workload="spmv", mode=PrefetchMode.MANUAL.value, scale="tiny",
            config=SystemConfig.scaled(),
        )
        result = engine.simulate(request)
        assert result is not None
        assert result.workload == "spmv"
        # A second run is served from the memo, not re-simulated.
        engine.simulate(request)
        assert engine.stats.memo_hits == 1
        assert engine.stats.executed == 1


class TestNewWorkloads:
    def test_traces_deterministic_across_builds(self, each_extended_workload_name):
        name = each_extended_workload_name
        first = build_workload(name, scale="tiny", seed=11)
        second = build_workload(name, scale="tiny", seed=11)
        ops_a = [(op.kind, op.addr, op.deps) for op in first.trace("plain")]
        ops_b = [(op.kind, op.addr, op.deps) for op in second.trace("plain")]
        assert ops_a == ops_b

    def test_traces_differ_across_seeds(self, each_extended_workload_name):
        name = each_extended_workload_name
        first = build_workload(name, scale="tiny", seed=11)
        second = build_workload(name, scale="tiny", seed=12)
        ops_a = [(op.kind, op.addr) for op in first.trace("plain")]
        ops_b = [(op.kind, op.addr) for op in second.trace("plain")]
        assert ops_a != ops_b

    def test_manual_configuration_valid(self, each_extended_workload_name):
        workload = build_workload(each_extended_workload_name, scale="tiny")
        config = workload.manual_configuration()
        config.validate()
        assert config.kernels
        assert any(r.load_kernel for r in config.ranges)
        assert config.code_footprint_bytes() <= 4096

    def test_software_variant_adds_prefetches(self, each_extended_workload_name):
        workload = build_workload(each_extended_workload_name, scale="tiny")
        software = workload.trace("software")
        assert software.count_kind(OpKind.SOFTWARE_PREFETCH) > 0

    def test_unionfind_compression_shortens_repeat_queries(self):
        workload = build_workload("unionfind", scale="tiny")
        workload.trace("plain")
        # The simulated parent array keeps the pristine chains the walker
        # kernel must chase; the compression happens on the Python mirror.
        assert workload.parent.to_list() == list(workload._initial_parent)
        compressed = workload.compressed_parent
        assert compressed is not None

        def root_of(forest, x):
            hops = 0
            while forest[x] != x:
                x = int(forest[x])
                hops += 1
                assert hops <= 64
            return x, hops

        pristine = workload._initial_parent
        roots = workload.roots.to_list()
        for i, element in enumerate(workload._queries[:64]):
            expected_root, pristine_hops = root_of(pristine, int(element))
            # Each traced find recorded the true root of its element.
            assert roots[i] == expected_root
            # Halving never lengthens a path, and long paths get shorter.
            _, compressed_hops = root_of(compressed, int(element))
            assert compressed_hops <= max(pristine_hops, 1)


class TestPPUPrefetchProperty:
    """Each new workload's manual PPU mode must actually prefetch."""

    @pytest.mark.parametrize("name", registry.extended_names())
    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_manual_mode_issues_prefetches(self, name, seed):
        workload = build_workload(name, scale="tiny", seed=seed)
        assert mode_available(workload, PrefetchMode.MANUAL)
        result = simulate(workload, PrefetchMode.MANUAL, SystemConfig.scaled())
        assert result.prefetcher is not None
        assert result.prefetcher["prefetches_issued"] >= 1
        assert result.prefetcher["events_executed"] >= 1
