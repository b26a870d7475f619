"""Tests for the batch simulation engine (plan → execute → cache)."""

import dataclasses
import json

import pytest

from repro.config import SystemConfig
from repro.errors import ConfigurationError, DuplicateResultError
from repro.eval.figure7 import run_figure7
from repro.sim import (
    ComparisonResult,
    EngineStats,
    MultiprocessRunner,
    PrefetchMode,
    ResultCache,
    SerialRunner,
    SimEngine,
    SimPlan,
    SimRequest,
    SimulationResult,
    run_comparison,
)
from repro.sim.comparison import comparison_plan
from repro.sim.engine import UNAVAILABLE, group_requests
from repro.sim.modes import FIGURE7_MODES
from repro.sim.sweeps import ppu_count_frequency_sweep, ppu_frequency_sweep

WORKLOADS = ["intsort", "randacc"]
MODES = [PrefetchMode.NONE, PrefetchMode.MANUAL, PrefetchMode.STRIDE]


@pytest.fixture(scope="module")
def config():
    return SystemConfig.scaled()


def tiny_request(workload="intsort", mode=PrefetchMode.MANUAL, config=None, **overrides):
    return SimRequest(
        workload=workload,
        mode=mode,
        scale="tiny",
        config=config if config is not None else SystemConfig.scaled(),
        **overrides,
    )


def tiny_plan(config, workloads=WORKLOADS, modes=MODES):
    return SimPlan(
        tiny_request(w, m, config) for w in workloads for m in modes
    )


class TestSimRequest:
    def test_digest_is_stable_and_content_addressed(self, config):
        first = tiny_request(config=config)
        second = tiny_request(config=config)
        assert first.digest == second.digest
        assert first == second and hash(first) == hash(second)

    def test_digest_distinguishes_every_field(self, config):
        base = tiny_request(config=config)
        assert base.digest != tiny_request(workload="randacc", config=config).digest
        assert base.digest != tiny_request(mode=PrefetchMode.NONE, config=config).digest
        assert base.digest != tiny_request(config=config, seed=7).digest
        assert base.digest != tiny_request(config=SystemConfig.paper()).digest
        assert base.digest != tiny_request(config=config, policy="round-robin").digest

    def test_mode_enum_is_normalised_to_value(self, config):
        request = tiny_request(mode=PrefetchMode.MANUAL, config=config)
        assert request.mode == "manual"
        assert request.prefetch_mode is PrefetchMode.MANUAL

    def test_unknown_mode_and_policy_rejected(self, config):
        with pytest.raises(ValueError):
            tiny_request(mode="warp-drive", config=config)
        with pytest.raises(ConfigurationError):
            tiny_request(config=config, policy="random")


class TestSimPlan:
    def test_deduplicates_identical_requests(self, config):
        request = tiny_request(config=config)
        plan = SimPlan([request, tiny_request(config=config)])
        assert len(plan) == 1
        assert plan.submitted == 2
        assert plan.deduplicated == 1

    def test_add_returns_canonical_request(self, config):
        plan = SimPlan()
        first = plan.add(tiny_request(config=config))
        second = plan.add(tiny_request(config=config))
        assert second is first

    def test_merge_accumulates_counts(self, config):
        left = tiny_plan(config, workloads=["intsort"])
        right = tiny_plan(config)  # superset: shares intsort's points
        merged = left.merge(right)
        assert len(merged) == len(WORKLOADS) * len(MODES)
        assert merged.deduplicated == len(MODES)

    def test_group_requests_by_workload(self, config):
        plan = tiny_plan(config)
        groups = group_requests(list(plan))
        assert len(groups) == len(WORKLOADS)
        for group in groups:
            assert len({request.workload_key for request in group}) == 1


class TestEngineStats:
    def test_merge_carries_every_field(self):
        # Every field gets a distinct non-default value, so a counter that
        # merge forgot (or a new field it cannot handle) fails here.
        def filled(offset: int) -> EngineStats:
            stats = EngineStats()
            for index, spec in enumerate(dataclasses.fields(EngineStats)):
                if spec.name == "failures":
                    stats.failures = {"shared": offset, f"only-{offset}": 1}
                elif spec.name == "runner":
                    stats.runner = f"runner-{offset}"
                else:
                    setattr(stats, spec.name, offset + index + 1)
            return stats

        merged, other = filled(100), filled(1000)
        merged.merge(other)
        for index, spec in enumerate(dataclasses.fields(EngineStats)):
            if spec.name == "failures":
                assert merged.failures == {"shared": 1100, "only-100": 1, "only-1000": 1}
            elif spec.name == "runner":
                assert merged.runner == "runner-1000"
            else:
                assert getattr(merged, spec.name) == 1100 + 2 * (index + 1), spec.name


class TestExecution:
    def test_serial_and_parallel_results_are_bit_identical(self, config):
        plan = tiny_plan(config)
        serial = SimEngine(runner=SerialRunner()).run(plan)
        parallel = SimEngine(runner=MultiprocessRunner(workers=2)).run(plan)
        assert parallel.stats.runner == "multiprocess"
        assert len(serial) == len(plan) and len(parallel) == len(plan)
        for request in plan:
            assert serial[request].as_dict() == parallel[request].as_dict()

    def test_runner_label_names_the_in_process_fallback(self, config):
        # One worker: the whole multi-group plan runs in-process.
        plan = tiny_plan(config)
        assert SimEngine(runner=MultiprocessRunner(workers=1)).run(plan).stats.runner == "serial"
        # One chunk: a single request leaves nothing to spread.
        single = SimPlan([tiny_request("intsort", PrefetchMode.NONE, config)])
        runner = MultiprocessRunner(workers=2)
        assert len(runner._chunk(list(single))) == 1
        assert SimEngine(runner=runner).run(single).stats.runner == "serial"
        # The same runner reports the pooled path once it takes it.
        assert SimEngine(runner=runner).run(plan).stats.runner == "multiprocess"

    def test_single_workload_sweep_is_chunked_and_identical(self, config):
        # A one-workload plan (the Figure 9(b) shape) must still split into
        # several chunks so multiple workers get busy, without changing results.
        plan = SimPlan(
            tiny_request("randacc", PrefetchMode.MANUAL,
                         config.with_prefetcher(ppu_frequency_ghz=f))
            for f in (0.25, 0.5, 1.0, 2.0)
        )
        runner = MultiprocessRunner(workers=2)
        assert len(runner._chunk(list(plan))) == 2
        serial = SimEngine(runner=SerialRunner()).run(plan)
        parallel = SimEngine(runner=runner).run(plan)
        for request in plan:
            assert serial[request].as_dict() == parallel[request].as_dict()

    def test_single_chunk_fallback_reuses_prebuilt_workloads(self, config, monkeypatch):
        from repro.trace_store import replay as replay_module
        from repro.workloads import build_workload

        prebuilt = {"intsort": build_workload("intsort", scale="tiny")}

        def _refuse_rebuild(name, **kwargs):
            raise AssertionError(f"workload {name!r} was rebuilt despite being pre-built")

        monkeypatch.setattr(replay_module, "build_workload", _refuse_rebuild)
        runner = MultiprocessRunner(workers=4, workloads=prebuilt)
        requests = [tiny_request("intsort", PrefetchMode.NONE, config)]
        assert len(runner._chunk(requests)) == 1  # forces the serial fallback
        executed = runner.run(requests)
        assert len(executed) == 1
        digest, result, failure = executed[0]
        assert digest == requests[0].digest
        assert failure is None
        assert result is not None and result.cycles > 0

    def test_unavailable_mode_is_skipped_not_raised(self, config):
        request = tiny_request("pagerank", PrefetchMode.SOFTWARE, config)
        batch = SimEngine().run(SimPlan([request]))
        assert batch.get(request) is None
        assert request.digest in batch.skipped
        assert batch.stats.unavailable == 1

    @pytest.mark.parametrize(
        "make_runner",
        [lambda: SerialRunner(trace_store=None), lambda: MultiprocessRunner(2, trace_store=None)],
        ids=["serial", "multiprocess"],
    )
    @pytest.mark.parametrize(
        "bad",
        [SimRequest("randacc", "none", scale="huge"), SimRequest("nosuch", "none", scale="tiny")],
        ids=["unsupported-scale", "unknown-workload"],
    )
    def test_unresolvable_workload_fails_alone(self, make_runner, bad):
        # A group whose workload cannot be resolved is labelled like a
        # simulate-time WorkloadError; it neither aborts the plan nor is
        # requeued as if it were a crashed worker.
        good = SimRequest("intsort", "none", scale="tiny")
        runner = make_runner()
        engine = SimEngine(runner=runner)
        batch = engine.run(SimPlan([good, bad]))
        assert batch.get(good) is not None
        assert batch.get(bad) is None
        assert list(batch.failures) == [bad.digest]
        assert batch.failures[bad.digest].startswith(f"{bad.workload}/none: ")
        assert engine.stats.failed == 1
        assert runner.resilience.requeues == 0

    def test_memo_shares_results_across_runs(self, config):
        engine = SimEngine()
        plan = tiny_plan(config, workloads=["intsort"])
        first = engine.run(plan)
        second = engine.run(tiny_plan(config))  # superset of the first plan
        assert first.stats.executed == len(MODES)
        assert second.stats.memo_hits == len(MODES)
        assert second.stats.executed == len(MODES)  # only randacc's points
        for request in plan:
            assert second[request].as_dict() == first[request].as_dict()

    def test_workers_never_reencode_warm_traces(self, config, tmp_path, monkeypatch):
        from repro.trace_store import TraceStore

        monkeypatch.setenv("REPRO_TRACE_STORE", str(tmp_path))
        plan = tiny_plan(config, modes=[PrefetchMode.NONE, PrefetchMode.STRIDE])
        # Warm the store once, serially.
        warm = SimEngine(runner=SerialRunner(trace_store=TraceStore(tmp_path))).run(plan)
        assert warm.stats.trace_built > 0
        # Workers of a parallel run over the warm store read every trace
        # from it and re-emit none of them.
        runner = MultiprocessRunner(workers=2, trace_store=TraceStore(tmp_path))
        parallel = SimEngine(runner=runner).run(plan)
        assert parallel.stats.trace_built == 0
        assert parallel.stats.trace_hits == warm.stats.trace_built
        for request in plan:
            assert parallel[request].as_dict() == warm[request].as_dict()


class TestResultCache:
    def test_warm_cache_executes_nothing_and_matches_cold_run(self, config, tmp_path):
        plan = tiny_plan(config)
        cold = SimEngine(cache=ResultCache(tmp_path)).run(plan)
        warm = SimEngine(cache=ResultCache(tmp_path)).run(plan)
        assert cold.stats.executed == len(plan)
        assert warm.stats.executed == 0
        assert warm.stats.cache_hits == len(plan)
        for request in plan:
            assert warm[request].as_dict() == cold[request].as_dict()

    def test_unavailability_tombstone_is_cached(self, config, tmp_path):
        request = tiny_request("pagerank", PrefetchMode.SOFTWARE, config)
        SimEngine(cache=ResultCache(tmp_path)).run(SimPlan([request]))
        cache = ResultCache(tmp_path)
        assert cache.get(request.digest) is UNAVAILABLE
        warm = SimEngine(cache=cache).run(SimPlan([request]))
        assert warm.stats.executed == 0
        assert request.digest in warm.skipped

    def test_corrupt_entry_is_a_miss(self, config, tmp_path):
        cache = ResultCache(tmp_path)
        request = tiny_request(config=config)
        (tmp_path / f"{request.digest}.json").write_text("{not json")
        assert cache.get(request.digest) is None

    @pytest.mark.parametrize(
        "payload",
        [
            '{"result": {"workload": "intsort"}}',        # missing fields -> KeyError
            '{"result": {"workload": "intsort", "mode": "none", "cycles": "NaNish", '
            '"instructions": 1, "hierarchy": 3}}',        # wrong shapes
            '{"result": null}',                           # TypeError
            '["not", "a", "mapping"]',                    # AttributeError on .get
        ],
    )
    def test_schema_drifted_entry_is_a_miss_not_an_error(self, config, tmp_path, payload):
        cache = ResultCache(tmp_path)
        request = tiny_request(config=config)
        (tmp_path / f"{request.digest}.json").write_text(payload)
        assert cache.get(request.digest) is None

    def test_write_sweeps_orphaned_tmp_files_of_dead_writers(self, config, tmp_path):
        import os

        dead_pid = 2 ** 22 + 12345  # beyond any default pid_max
        orphan = tmp_path / f"deadbeef.tmp.{dead_pid}"
        orphan.write_text("{partial")
        own = tmp_path / f"cafef00d.tmp.{os.getpid()}"
        own.write_text("{in-progress")
        not_a_pid = tmp_path / "feedface.tmp.backup"
        not_a_pid.write_text("{}")
        cache = ResultCache(tmp_path)
        request = tiny_request(config=config)
        cache.put(request, SimEngine().simulate(request))
        assert not orphan.exists()          # dead writer's leftover removed
        assert own.exists()                 # live process's file untouched
        assert not_a_pid.exists()           # non-pid suffixes left alone

    def test_roundtrip_preserves_result_exactly(self, config, tmp_path):
        request = tiny_request(config=config)
        result = SimEngine().simulate(request)
        cache = ResultCache(tmp_path)
        cache.put(request, result)
        loaded = cache.get(request.digest)
        assert isinstance(loaded, SimulationResult)
        assert loaded.as_dict() == result.as_dict()
        assert loaded.cycles == result.cycles
        assert loaded.instructions == result.instructions
        # The stored file is self-describing.
        data = json.loads((tmp_path / f"{request.digest}.json").read_text())
        assert data["request"]["workload"] == "intsort"

    def test_clear(self, config, tmp_path):
        cache = ResultCache(tmp_path)
        request = tiny_request(config=config)
        cache.put(request, SimEngine().simulate(request))
        assert len(cache) == 1
        assert cache.clear() == 1
        assert len(cache) == 0


class TestComparisonOnEngine:
    def test_figure7_simulates_each_unique_point_exactly_once(self, config):
        engine = SimEngine()
        run_figure7(workloads=WORKLOADS, config=config, scale="tiny", engine=engine)
        plan = comparison_plan(WORKLOADS, FIGURE7_MODES, config=config, scale="tiny")
        assert engine.stats.executed == len(plan)
        # A second figure over the same engine re-simulates nothing.
        run_figure7(workloads=WORKLOADS, config=config, scale="tiny", engine=engine)
        assert engine.stats.executed == len(plan)
        assert engine.stats.memo_hits == len(plan)

    def test_run_comparison_matches_legacy_serial_path(self, config):
        legacy = run_comparison(WORKLOADS, MODES, config=config, scale="tiny")
        engine = SimEngine(runner=MultiprocessRunner(workers=2))
        parallel = run_comparison(WORKLOADS, MODES, config=config, scale="tiny", engine=engine)
        assert legacy.workloads == parallel.workloads
        for name in WORKLOADS:
            for mode in MODES:
                left = legacy.result(name, mode)
                right = parallel.result(name, mode)
                assert (left is None) == (right is None)
                if left is not None:
                    assert left.as_dict() == right.as_dict()

    def test_duplicate_add_raises(self, config):
        comparison = ComparisonResult()
        result = SimEngine().simulate(tiny_request(config=config))
        comparison.add(result)
        with pytest.raises(DuplicateResultError):
            comparison.add(result)
        comparison.add(result, replace=True)  # explicit replacement still allowed

    def test_duplicate_baseline_raises(self, config):
        comparison = ComparisonResult()
        result = SimEngine().simulate(tiny_request(mode=PrefetchMode.NONE, config=config))
        comparison.add(result)
        with pytest.raises(DuplicateResultError):
            comparison.add(result)


class TestSweepsOnEngine:
    def test_both_sweeps_accept_baseline_and_share_engine_reference(self, config):
        engine = SimEngine()
        baseline = engine.simulate(
            tiny_request("randacc", PrefetchMode.NONE, config)
        )
        executed_before = engine.stats.executed
        freq = ppu_frequency_sweep(
            "randacc", frequencies=[1.0], config=config, baseline=baseline,
            engine=engine, scale="tiny",
        )
        counts = ppu_count_frequency_sweep(
            "randacc", counts=[12], frequencies=[1.0], config=config,
            baseline=baseline, engine=engine, scale="tiny",
        )
        # With a baseline supplied, neither sweep re-simulates the reference,
        # and the (12 PPU, 1 GHz) point deduplicates with the frequency sweep.
        assert engine.stats.executed == executed_before + 1
        assert freq[1.0] == counts[(12, 1.0)]

    def test_count_sweep_baseline_dedup_without_explicit_baseline(self, config):
        engine = SimEngine()
        ppu_frequency_sweep("randacc", frequencies=[1.0], config=config,
                            engine=engine, scale="tiny")
        executed = engine.stats.executed  # baseline + one point
        assert executed == 2
        ppu_count_frequency_sweep("randacc", counts=[12], frequencies=[2.0],
                                  config=config, engine=engine, scale="tiny")
        # The no-prefetch reference came from the memo, not a re-simulation.
        assert engine.stats.executed == executed + 1
