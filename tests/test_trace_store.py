"""Tests for the trace artifact tier (repro.trace_store + tools/trace_store.py).

The load-bearing guarantees:

* array-backing and the binary store encode/decode are *bit-exact* round
  trips for arbitrary valid op sequences (hypothesis property tests);
* truncated/corrupted/foreign store files read as misses, never as errors
  or wrong traces;
* replaying from artifacts — the engine's warm-store path — produces
  simulation results bit-identical to the full-build path;
* failed requests are counted and labelled instead of silently dropped.
"""

import os
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SystemConfig
from repro.cpu.trace import OpKind, Trace, TraceBuilder, TraceOp
from repro.errors import TraceStoreError, WorkloadError
from repro.sim import (
    MultiprocessRunner,
    PrefetchMode,
    ResultCache,
    SerialRunner,
    SimEngine,
    SimPlan,
    SimRequest,
)
from repro.sim.system import simulate
from repro.trace_store import (
    TRACE_STORE_ENV,
    GroupResolver,
    ReplayWorkload,
    TraceArtifact,
    TraceStore,
    decode_artifact,
    default_trace_store,
    default_trace_store_dir,
    encode_artifact,
    trace_digest,
    variants_needed,
)

# --------------------------------------------------------------- strategies


@st.composite
def trace_op_lists(draw):
    """Random valid op sequences: every dependence points at an earlier op."""

    n = draw(st.integers(min_value=0, max_value=40))
    ops = []
    for index in range(n):
        kind = draw(st.sampled_from(list(OpKind)))
        addr = draw(st.integers(min_value=0, max_value=2**59)) * 8  # stays in int64
        count = draw(st.integers(min_value=1, max_value=9)) if kind == OpKind.COMPUTE else 1
        if index:
            deps = tuple(
                draw(
                    st.lists(
                        st.integers(min_value=0, max_value=index - 1),
                        max_size=4,
                        unique=True,
                    )
                )
            )
        else:
            deps = ()
        ops.append(TraceOp(kind, addr=addr, count=count, deps=deps))
    return ops


def _columns_equal(left: Trace, right: Trace) -> bool:
    return all(list(a) == list(b) for a, b in zip(left.columns(), right.columns()))


def _artifact(trace: Trace, **overrides) -> TraceArtifact:
    fields = dict(
        workload="synthetic",
        variant="plain",
        scale="tiny",
        seed=7,
        supports_software=True,
        regions=(),
        trace=trace,
    )
    fields.update(overrides)
    return TraceArtifact(**fields)


# ------------------------------------------------------------ array backing


class TestArrayBacking:
    @given(trace_op_lists())
    @settings(max_examples=60, deadline=None)
    def test_ops_survive_array_backing_bit_exactly(self, ops):
        trace = Trace(ops)
        assert trace.ops == ops
        assert [trace[i] for i in range(len(ops))] == ops
        trace.validate()
        assert trace.instruction_count() == sum(op.count for op in ops)
        for kind in OpKind:
            assert trace.count_kind(kind) == sum(1 for op in ops if op.kind == kind)

    @given(trace_op_lists())
    @settings(max_examples=40, deadline=None)
    def test_builder_and_constructor_agree(self, ops):
        # The builder has no CONFIG emitter (no workload records raw config
        # ops); fold them onto COMPUTE so both paths see the same stream.
        ops = [
            TraceOp(OpKind.COMPUTE, addr=op.addr, count=op.count, deps=op.deps)
            if op.kind == OpKind.CONFIG
            else op
            for op in ops
        ]
        tb = TraceBuilder()
        for op in ops:
            if op.kind == OpKind.LOAD:
                tb.load(op.addr, deps=op.deps)
            elif op.kind == OpKind.STORE:
                tb.store(op.addr, deps=op.deps)
            elif op.kind == OpKind.SOFTWARE_PREFETCH:
                tb.software_prefetch(op.addr, deps=op.deps)
            elif op.kind == OpKind.BRANCH:
                tb.branch(deps=op.deps)
            else:
                tb.compute(op.count, deps=op.deps)
        built = tb.build()
        normalised = [
            # The builder zeroes addresses of non-memory ops and fixes
            # count=1 for non-compute ops — mirror that for comparison.
            TraceOp(
                op.kind,
                addr=op.addr if op.kind in (OpKind.LOAD, OpKind.STORE, OpKind.SOFTWARE_PREFETCH) else 0,
                count=op.count if op.kind == OpKind.COMPUTE else 1,
                deps=op.deps,
            )
            for op in ops
        ]
        assert built.ops == normalised

    def test_columns_are_flat_arrays(self):
        tb = TraceBuilder()
        a = tb.load(0x1000)
        tb.compute(3, deps=[a])
        trace = tb.build()
        kinds, addrs, counts, dep_offsets, dep_values = trace.columns()
        assert list(kinds) == [int(OpKind.LOAD), int(OpKind.COMPUTE)]
        assert list(dep_offsets) == [0, 0, 1]
        assert list(dep_values) == [0]
        assert trace.nbytes() > 0
        assert trace.deps_of(1) == (0,)

    def test_per_trace_memory_at_most_quarter_of_object_form(self, tiny_workloads):
        trace = tiny_workloads.get("randacc").trace("plain")
        object_bytes = 0
        for op in trace:  # materialise the old per-op object representation
            object_bytes += sys.getsizeof(op) + sys.getsizeof(op.__dict__)
            object_bytes += sys.getsizeof(op.deps) + sum(sys.getsizeof(d) for d in op.deps)
            object_bytes += sys.getsizeof(op.addr) + sys.getsizeof(op.count)
            object_bytes += 8  # the list slot that held the op
        assert trace.nbytes() * 4 <= object_bytes


# ------------------------------------------------------- encode/decode/store


class TestEncodeDecode:
    @given(trace_op_lists())
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_is_bit_exact(self, ops):
        trace = Trace(ops)
        artifact = _artifact(trace)
        decoded = decode_artifact(encode_artifact(artifact, digest="d" * 64))
        assert decoded.workload == artifact.workload
        assert decoded.variant == artifact.variant
        assert decoded.scale == artifact.scale
        assert decoded.seed == artifact.seed
        assert decoded.supports_software == artifact.supports_software
        assert _columns_equal(decoded.trace, trace)
        assert decoded.trace.ops == ops

    @given(trace_op_lists(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_truncation_anywhere_is_detected(self, ops, data):
        encoded = encode_artifact(_artifact(Trace(ops)))
        cut = data.draw(st.integers(min_value=0, max_value=len(encoded) - 1))
        with pytest.raises(TraceStoreError):
            decode_artifact(encoded[:cut])

    @given(trace_op_lists(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_bit_corruption_anywhere_is_detected(self, ops, data):
        encoded = bytearray(encode_artifact(_artifact(Trace(ops))))
        position = data.draw(st.integers(min_value=0, max_value=len(encoded) - 1))
        bit = data.draw(st.integers(min_value=0, max_value=7))
        encoded[position] ^= 1 << bit
        with pytest.raises(TraceStoreError):
            decode_artifact(bytes(encoded))

    def test_garbage_and_bad_magic_are_detected(self):
        for payload in (b"", b"junk", b"NOPE" + b"\x00" * 64, os.urandom(256)):
            with pytest.raises(TraceStoreError):
                decode_artifact(payload)


class TestTraceStore:
    def _sample_artifact(self) -> TraceArtifact:
        tb = TraceBuilder()
        a = tb.load(0x1000)
        tb.store(0x2000, deps=[a])
        return _artifact(tb.build())

    def test_put_get_roundtrip(self, tmp_path):
        store = TraceStore(tmp_path)
        artifact = self._sample_artifact()
        digest = store.put(artifact)
        assert digest == trace_digest("synthetic", "plain", "tiny", 7)
        assert digest in store and len(store) == 1
        loaded = store.get(digest)
        assert loaded is not None and _columns_equal(loaded.trace, artifact.trace)

    @pytest.mark.parametrize("spoil", ["truncate", "flip", "empty", "garbage"])
    def test_corrupted_entries_read_as_misses(self, tmp_path, spoil):
        store = TraceStore(tmp_path)
        digest = store.put(self._sample_artifact())
        path = store._path(digest)
        data = path.read_bytes()
        if spoil == "truncate":
            path.write_bytes(data[: len(data) // 2])
        elif spoil == "flip":
            corrupted = bytearray(data)
            corrupted[len(corrupted) // 3] ^= 0x40
            path.write_bytes(bytes(corrupted))
        elif spoil == "empty":
            path.write_bytes(b"")
        else:
            path.write_bytes(b"\x00" * 100)
        assert store.get(digest) is None

    def test_digest_distinguishes_identity_fields(self):
        base = trace_digest("intsort", "plain", "tiny", 42)
        assert base != trace_digest("randacc", "plain", "tiny", 42)
        assert base != trace_digest("intsort", "software", "tiny", 42)
        assert base != trace_digest("intsort", "plain", "small", 42)
        assert base != trace_digest("intsort", "plain", "tiny", 7)

    def test_atomic_write_sweeps_dead_writers(self, tmp_path):
        dead_pid = 2**22 + 54321
        orphan = tmp_path / f"deadbeef.tmp.{dead_pid}"
        orphan.write_text("partial")
        own = tmp_path / f"cafef00d.tmp.{os.getpid()}"
        own.write_text("in-progress")
        store = TraceStore(tmp_path)
        store.put(self._sample_artifact())
        assert not orphan.exists()
        assert own.exists()

    def test_prune_and_clear(self, tmp_path):
        store = TraceStore(tmp_path)
        store.put(self._sample_artifact())
        assert store.prune(older_than_seconds=3600) == 0
        assert store.prune(older_than_seconds=0) == 1
        store.put(self._sample_artifact())
        assert store.clear() == 1 and len(store) == 0

    def test_env_switch(self, tmp_path, monkeypatch):
        monkeypatch.setenv(TRACE_STORE_ENV, "off")
        assert default_trace_store_dir() is None
        assert default_trace_store() is None
        monkeypatch.setenv(TRACE_STORE_ENV, str(tmp_path / "store"))
        assert default_trace_store_dir() == tmp_path / "store"
        assert default_trace_store() is not None
        monkeypatch.delenv(TRACE_STORE_ENV)
        assert default_trace_store_dir() is not None  # per-user default

    def test_variants_needed(self):
        assert variants_needed([PrefetchMode.NONE, PrefetchMode.MANUAL]) == ("plain",)
        assert variants_needed([PrefetchMode.SOFTWARE]) == ("software",)
        assert variants_needed(
            [PrefetchMode.SOFTWARE, PrefetchMode.STRIDE]
        ) == ("plain", "software")


# ----------------------------------------------------------- replay parity


class TestReplayParity:
    @pytest.mark.parametrize("mode", [
        PrefetchMode.NONE,
        PrefetchMode.STRIDE,
        PrefetchMode.GHB_LARGE,
        PrefetchMode.SOFTWARE,
    ])
    def test_replay_workload_bit_identical(self, tmp_path, tiny_workloads, mode):
        workload = tiny_workloads.get("hj8")
        store = TraceStore(tmp_path)
        for variant in ("plain", "software"):
            store.put(TraceArtifact.from_workload(workload, variant))
        resolver = GroupResolver("hj8", "tiny", 42, store=store)
        replay = resolver.workload_for_mode(mode)
        assert isinstance(replay, ReplayWorkload)
        config = SystemConfig.scaled()
        assert simulate(replay, mode, config).as_dict() == \
            simulate(workload, mode, config).as_dict()

    def test_replay_knows_software_unavailability_without_build(self, tmp_path, tiny_workloads):
        workload = tiny_workloads.get("pagerank")
        store = TraceStore(tmp_path)
        store.put(TraceArtifact.from_workload(workload, "plain"))
        resolver = GroupResolver("pagerank", "tiny", 42, store=store)
        replay = resolver.workload_for_mode(PrefetchMode.SOFTWARE)
        assert isinstance(replay, ReplayWorkload)
        assert not replay.supports_software_prefetch()
        with pytest.raises(WorkloadError):
            replay.trace("software")

    def test_persist_never_builds_to_rediscover_unavailability(
        self, tmp_path, tiny_workloads, monkeypatch
    ):
        from repro.trace_store import replay as replay_module

        workload = tiny_workloads.get("pagerank")  # no software variant
        store = TraceStore(tmp_path)
        store.put(TraceArtifact.from_workload(workload, "plain"))

        def _refuse_build(name, **kwargs):
            raise AssertionError(f"{name!r} was rebuilt just to check availability")

        monkeypatch.setattr(replay_module, "build_workload", _refuse_build)
        resolver = GroupResolver("pagerank", "tiny", 42, store=store)
        resolver.workload_for_mode(PrefetchMode.SOFTWARE)  # replay, no build
        resolver.persist(("plain", "software"))  # must not build either
        assert len(store) == 1

    def test_replay_refuses_programmable_configuration(self, tmp_path, tiny_workloads):
        workload = tiny_workloads.get("intsort")
        store = TraceStore(tmp_path)
        store.put(TraceArtifact.from_workload(workload, "plain"))
        resolver = GroupResolver("intsort", "tiny", 42, store=store)
        replay = resolver.workload_for_mode(PrefetchMode.NONE)
        assert isinstance(replay, ReplayWorkload)
        with pytest.raises(WorkloadError):
            replay.manual_configuration()
        # The resolver never hands a replay to a programmable mode.
        full = resolver.workload_for_mode(PrefetchMode.MANUAL)
        assert not isinstance(full, ReplayWorkload)

    def test_programmable_build_emits_for_itself(self, tmp_path, tiny_workloads):
        # Emission has address-space side effects the kernels read (BFS
        # visited sets, union-find roots), so the full-build path must
        # *not* substitute a stored trace for its own emission.
        workload = tiny_workloads.get("unionfind")
        store = TraceStore(tmp_path)
        store.put(TraceArtifact.from_workload(workload, "plain"))
        resolver = GroupResolver("unionfind", "tiny", 42, store=store)
        full = resolver.workload_for_mode(PrefetchMode.MANUAL)
        assert not isinstance(full, ReplayWorkload)
        assert resolver.stats.hits == 0  # the store is not even consulted
        config = SystemConfig.scaled()
        assert simulate(full, PrefetchMode.MANUAL, config).as_dict() == \
            simulate(workload, PrefetchMode.MANUAL, config).as_dict()


# ------------------------------------------------------ engine integration


def _request(workload="intsort", mode=PrefetchMode.NONE, config=None):
    return SimRequest(
        workload=workload, mode=mode, scale="tiny",
        config=config if config is not None else SystemConfig.scaled(),
    )


class TestEngineIntegration:
    MODES = [PrefetchMode.NONE, PrefetchMode.STRIDE, PrefetchMode.SOFTWARE,
             PrefetchMode.MANUAL]

    def _plan(self, config):
        return SimPlan(
            _request(w, m, config)
            for w in ("intsort", "randacc")
            for m in self.MODES
        )

    def test_disabled_cold_warm_are_bit_identical(self, tmp_path, scaled_config):
        disabled = SimEngine(runner=SerialRunner(trace_store=None)).run(self._plan(scaled_config))
        store_dir = tmp_path / "store"
        cold_engine = SimEngine(runner=SerialRunner(trace_store=TraceStore(store_dir)))
        cold = cold_engine.run(self._plan(scaled_config))
        warm_engine = SimEngine(runner=SerialRunner(trace_store=TraceStore(store_dir)))
        warm = warm_engine.run(self._plan(scaled_config))
        assert cold_engine.stats.trace_built > 0 and cold_engine.stats.trace_hits == 0
        assert warm_engine.stats.trace_hits == cold_engine.stats.trace_stored
        assert warm_engine.stats.trace_built == 0
        for request in self._plan(scaled_config):
            results = [batch.get(request) for batch in (disabled, cold, warm)]
            assert len({r is None for r in results}) == 1
            if results[0] is not None:
                assert results[0].as_dict() == results[1].as_dict() == results[2].as_dict()

    def test_multiprocess_cold_store_persists_from_workers(self, tmp_path, scaled_config):
        # Regression: an *empty* TraceStore is falsy (__len__), and a bare
        # truthiness test once stopped the parent from shipping the store
        # directory to workers — exactly on the cold runs that populate it.
        store_dir = tmp_path / "store"
        engine = SimEngine(
            runner=MultiprocessRunner(workers=2, trace_store=TraceStore(store_dir))
        )
        engine.run(self._plan(scaled_config))
        assert len(TraceStore(store_dir)) > 0
        assert engine.stats.trace_stored > 0

    def test_multiprocess_workers_read_the_warm_store(self, tmp_path, scaled_config):
        store_dir = tmp_path / "store"
        serial = SimEngine(runner=SerialRunner(trace_store=TraceStore(store_dir)))
        baseline = serial.run(self._plan(scaled_config))
        parallel_engine = SimEngine(
            runner=MultiprocessRunner(workers=2, trace_store=TraceStore(store_dir))
        )
        parallel = parallel_engine.run(self._plan(scaled_config))
        assert parallel_engine.stats.trace_hits > 0
        for request in self._plan(scaled_config):
            left, right = baseline.get(request), parallel.get(request)
            assert (left is None) == (right is None)
            if left is not None:
                assert left.as_dict() == right.as_dict()

    def test_split_group_counts_a_store_hit_per_chunk(self, tmp_path, scaled_config):
        # Four points on one workload split into two chunks on two workers;
        # each chunk reads the warm plain trace from the store itself.
        store_dir = tmp_path / "store"
        plan = SimPlan(
            _request(config=scaled_config.with_caches(l1={"size_bytes": size}))
            for size in (8 * 1024, 16 * 1024, 32 * 1024, 64 * 1024)
        )
        SimEngine(runner=SerialRunner(trace_store=TraceStore(store_dir))).run(plan)
        runner = MultiprocessRunner(workers=2, trace_store=TraceStore(store_dir))
        assert len(runner._chunk(list(plan))) == 2
        engine = SimEngine(runner=runner)
        engine.run(plan)
        assert (engine.stats.trace_hits, engine.stats.trace_built) == (2, 0)

    def test_multiprocess_workers_treat_a_corrupt_entry_as_a_miss(self, tmp_path, scaled_config):
        store_dir = tmp_path / "store"
        baseline = SimEngine(runner=SerialRunner(trace_store=TraceStore(store_dir))).run(
            self._plan(scaled_config)
        )
        digest = trace_digest("intsort", "plain", "tiny", 42)
        spoiled = store_dir / f"{digest}.trace"
        data = bytearray(spoiled.read_bytes())
        data[len(data) // 3] ^= 0x40
        spoiled.write_bytes(bytes(data))
        engine = SimEngine(
            runner=MultiprocessRunner(workers=2, trace_store=TraceStore(store_dir))
        )
        parallel = engine.run(self._plan(scaled_config))
        # The worker re-emits the spoiled trace and rewrites the entry.
        assert (engine.stats.trace_built, engine.stats.trace_stored) == (1, 1)
        assert TraceStore(store_dir).get(digest) is not None
        for request in self._plan(scaled_config):
            left, right = baseline.get(request), parallel.get(request)
            assert (left is None) == (right is None)
            if left is not None:
                assert left.as_dict() == right.as_dict()

    def test_failed_requests_are_counted_and_labelled(self, tmp_path, scaled_config, monkeypatch):
        from repro.sim.engine import runner as runner_module

        def _explode(workload, mode, config, policy=None):
            raise WorkloadError("synthetic failure for testing")

        monkeypatch.setattr(runner_module, "simulate", _explode)
        cache = ResultCache(tmp_path / "results")
        engine = SimEngine(runner=SerialRunner(trace_store=None), cache=cache)
        request = _request(config=scaled_config)
        batch = engine.run(SimPlan([request]))
        assert batch.get(request) is None
        assert request.digest in batch.skipped
        assert "synthetic failure" in batch.failures[request.digest]
        assert engine.stats.failed == 1
        assert engine.stats.unavailable == 0
        assert any("synthetic failure" in label for label in engine.stats.failures)
        assert "1 failed" in engine.stats.summary()
        # Failures are never tombstoned: the cache stays empty and a retry
        # (after the fault is gone) executes again.
        assert cache.get(request.digest) is None
        monkeypatch.undo()
        retry = engine.run(SimPlan([request]))
        assert retry.get(request) is not None

    def test_unavailable_requests_keep_no_failure_label(self, scaled_config):
        engine = SimEngine(runner=SerialRunner(trace_store=None))
        request = _request("pagerank", PrefetchMode.SOFTWARE, scaled_config)
        batch = engine.run(SimPlan([request]))
        assert request.digest in batch.skipped
        assert batch.failures == {}
        assert engine.stats.unavailable == 1 and engine.stats.failed == 0

    def test_plan_workload_groups(self, scaled_config):
        plan = self._plan(scaled_config)
        groups = plan.workload_groups()
        assert set(groups) == {("intsort", "tiny", 42), ("randacc", "tiny", 42)}
        assert all(len(group) == len(self.MODES) for group in groups.values())


# ------------------------------------------------------------------- CLI


class TestMaintenanceCli:
    def _cli(self):
        import importlib.util
        from pathlib import Path

        spec = importlib.util.spec_from_file_location(
            "trace_store_cli",
            Path(__file__).resolve().parents[1] / "tools" / "trace_store.py",
        )
        cli = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(cli)
        return cli

    def test_ls_stat_prune_clear(self, tmp_path, tiny_workloads, capsys):
        cli = self._cli()
        store = TraceStore(tmp_path)
        store.put(TraceArtifact.from_workload(tiny_workloads.get("intsort"), "plain"))
        assert cli.main(["--dir", str(tmp_path), "ls"]) == 0
        assert "intsort" in capsys.readouterr().out
        assert cli.main(["--dir", str(tmp_path), "stat"]) == 0
        assert "entries:      1" in capsys.readouterr().out
        assert cli.main(["--dir", str(tmp_path), "prune", "--older-than", "30",
                         "--dry-run"]) == 0
        assert "would remove 0" in capsys.readouterr().out
        assert cli.main(["--dir", str(tmp_path), "prune", "--older-than", "0"]) == 0
        assert "removed 1" in capsys.readouterr().out
        assert len(store) == 0
        store.put(TraceArtifact.from_workload(tiny_workloads.get("intsort"), "plain"))
        assert cli.main(["--dir", str(tmp_path), "clear"]) == 0
        assert len(store) == 0
