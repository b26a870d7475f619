"""Deterministic chaos tests: kill/resume, hung workers, deadlines.

Like ``tests/test_service_faults.py``, synchronisation is via hold-files,
protocol events, and bounded polling of counters the code under test
reports — never via sleeps that assume an ordering.  Each test injects one
failure mode and proves the stack degrades the way ``docs/resilience.md``
promises:

* a sweep killed mid-run resumes from its checkpoint manifest, executing
  only the missing requests with bit-identical results;
* a hung worker is detected by the heartbeat watchdog, killed, and its
  chunk retried by the pool until it succeeds;
* the multiprocess runner banks each request as its worker reports it,
  while the rest of that chunk still runs; after a crash the pool re-runs
  only the requests the dead worker had not reported, bit-identically,
  and never retries once it is shut down; the runner labels a chunk that
  crashes on every attempt once the pool's attempt budget is spent, keeps
  what a chunk that raised had reported, and its deadline kills a held
  worker instead of waiting for it;
* a submission past its deadline fails promptly with a retryable label.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import sys
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.config import SystemConfig
from repro.errors import WorkerCrashedError
from repro.resilience import Deadline
from repro.service import ServiceClient, ServiceEngine
from repro.sim.engine import pool as pool_module
from repro.sim.engine import runner as runner_module
from repro.sim.engine.pool import WorkerPool
from repro.sim.engine import (
    DEADLINE_FAILURE_TEXT,
    MultiprocessRunner,
    ResultCache,
    RunManifest,
    SerialRunner,
    SimEngine,
    SimPlan,
    SimRequest,
)

from service_utils import SVC_TEST_DIR_ENV, ServerThread, registered_test_workloads
from test_service_faults import read_until, request_for, wait_for_counter


@pytest.fixture
def svc_dir(tmp_path, monkeypatch):
    directory = tmp_path / "svc"
    directory.mkdir()
    monkeypatch.setenv(SVC_TEST_DIR_ENV, str(directory))
    return directory


def intsort_request(seed: int = 42, mode: str = "none") -> SimRequest:
    return SimRequest(
        workload="intsort", mode=mode, scale="tiny", seed=seed,
        config=SystemConfig.scaled(),
    )


# -------------------------------------------------------- kill-9 and resume


class KillAfter(SerialRunner):
    """A serial runner that dies (like ``kill -9``) after N completions.

    The interrupt fires *inside* the completion callback chain — after the
    engine has banked the finished request in the cache and the manifest,
    exactly the durability point a real kill would test.
    """

    def __init__(self, stop_after: int, **kwargs) -> None:
        super().__init__(**kwargs)
        self.stop_after = stop_after
        self.completed = 0

    def run(self, requests, *, on_executed=None, deadline=None):
        def tap(batch):
            if on_executed is not None:
                on_executed(batch)
            self.completed += len(batch)
            if self.completed >= self.stop_after:
                raise KeyboardInterrupt("simulated kill -9")

        return super().run(requests, on_executed=tap, deadline=deadline)


class TestKillResume:
    PLAN_POINTS = [("intsort", "none"), ("intsort", "stride"),
                   ("randacc", "none"), ("randacc", "stride")]

    def _plan(self) -> SimPlan:
        config = SystemConfig.scaled()
        return SimPlan(
            SimRequest(workload=w, mode=m, scale="tiny", seed=3, config=config)
            for w, m in self.PLAN_POINTS
        )

    def test_killed_sweep_resumes_exactly_once_bit_identical(self, tmp_path):
        killed = 2
        cache_dir = tmp_path / "cache"
        ckpt_dir = tmp_path / "ckpt"

        # An uninterrupted reference run in separate directories.
        reference = SimEngine(runner=SerialRunner(trace_store=None)).run(self._plan())

        # The doomed run dies after `killed` completions...
        doomed = SimEngine(
            runner=KillAfter(killed, trace_store=None),
            cache=ResultCache(cache_dir),
            checkpoint_dir=ckpt_dir,
        )
        with pytest.raises(KeyboardInterrupt):
            doomed.run(self._plan())

        # ...but everything completed before the kill is already durable.
        survivors = ResultCache(cache_dir)
        banked = [d for d, _ in self._plan().items() if survivors.get(d) is not None]
        assert len(banked) == killed

        # The resume executes only the missing requests, bit-identically.
        resumed = SimEngine(
            runner=SerialRunner(trace_store=None),
            cache=ResultCache(cache_dir),
            checkpoint_dir=ckpt_dir,
            resume=True,
        ).run(self._plan())
        assert resumed.stats.resumed == killed
        assert resumed.stats.executed == len(self.PLAN_POINTS) - killed
        assert len(resumed) == len(reference)
        for digest in reference.results:
            assert resumed[digest].as_dict() == reference[digest].as_dict()

        # A second resume is fully warm: nothing executes at all.
        again = SimEngine(
            runner=SerialRunner(trace_store=None),
            cache=ResultCache(cache_dir),
            checkpoint_dir=ckpt_dir,
            resume=True,
        ).run(self._plan())
        assert again.stats.executed == 0
        assert again.stats.resumed == len(self.PLAN_POINTS)


# ------------------------------------------------------ hung-worker watchdog


class TestHungWorkerWatchdog:
    def test_hung_worker_is_killed_and_chunk_requeued(self, svc_dir, monkeypatch):
        monkeypatch.setattr(pool_module, "HANG_TIMEOUT", 0.3)
        monkeypatch.setattr(pool_module, "MAX_ATTEMPTS", 10)
        hold = svc_dir / "hold-401"
        hold.touch()
        with registered_test_workloads():
            # The gated request blocks without ever heartbeating; three
            # intsort requests form further chunks so the watchdog path
            # (not the serial fallback) executes.
            requests = [request_for("svcgate", seed=401)] + [
                intsort_request(seed=s) for s in (11, 12, 13)
            ]
            runner = MultiprocessRunner(workers=2, trace_store=None)
            executed: list = []
            failure: list[BaseException] = []

            def drive() -> None:
                try:
                    executed.extend(runner.run(requests))
                except BaseException as error:  # pragma: no cover
                    failure.append(error)

            thread = threading.Thread(target=drive)
            thread.start()
            try:
                # Bounded poll of the watchdog's own counter: the gated
                # worker must be declared hung within the configured
                # timeout.  Only then release the gate so the pool's
                # retry can succeed.
                deadline = time.monotonic() + 60.0
                while runner.resilience.hung_killed < 1:
                    assert time.monotonic() < deadline, "watchdog never fired"
                    assert not failure, failure
                    time.sleep(0.01)
                hold.unlink()
            finally:
                thread.join(timeout=120.0)
            assert not thread.is_alive(), "runner never completed"
            assert failure == []

            assert runner.resilience.hung_killed >= 1
            assert runner.resilience.requeues >= 1
            outcomes = {digest: (result, fail) for digest, result, fail in executed}
            assert len(outcomes) == len(requests)
            assert all(fail is None for _, fail in outcomes.values())

            # The survivors are bit-identical to a serial run of the same set.
            serial = SerialRunner(trace_store=None).run(requests)
            for digest, result, _ in serial:
                assert outcomes[digest][0].as_dict() == result.as_dict()


def tiny_request(workload: str, mode: str) -> SimRequest:
    return SimRequest(
        workload=workload, mode=mode, scale="tiny", seed=42, config=SystemConfig.scaled()
    )


class TestPooledDurability:
    """The multiprocess runner banks every request as its worker reports it."""

    def test_finished_request_is_banked_while_its_chunk_still_runs(
        self, tmp_path, monkeypatch
    ):
        # Two intsort requests share a chunk; randacc makes a second chunk,
        # so the run takes the pooled path.
        first, held = tiny_request("intsort", "none"), tiny_request("intsort", "stride")
        plan = SimPlan([first, held, tiny_request("randacc", "none")])
        hold, started = tmp_path / "hold", tmp_path / "held-started"
        hold.touch()
        execute = runner_module.execute_request

        def gated(request, workload):
            if request == held:  # runs in the forked worker
                started.touch()
                while hold.exists():
                    time.sleep(0.002)
            return execute(request, workload)

        monkeypatch.setattr(runner_module, "execute_request", gated)
        cache_dir, ckpt_dir = tmp_path / "cache", tmp_path / "ckpt"
        runner = MultiprocessRunner(workers=2, trace_store=None)
        assert runner._chunk(list(plan))[0] == [first, held]
        engine = SimEngine(runner=runner, cache=ResultCache(cache_dir), checkpoint_dir=ckpt_dir)
        batches: list = []
        thread = threading.Thread(target=lambda: batches.append(engine.run(plan)))
        thread.start()
        try:
            # Bounded poll: the held request must start and its predecessor
            # reach the cache while the hold-file still stops the chunk.
            deadline = time.monotonic() + 30.0
            while not (started.exists() and ResultCache(cache_dir).get(first.digest)):
                if time.monotonic() > deadline or not thread.is_alive():
                    break
                time.sleep(0.01)
            banked = ResultCache(cache_dir).get(first.digest)
            entries = RunManifest(ckpt_dir, [d for d, _ in plan.items()]).load_prior()
            still_held = ResultCache(cache_dir).get(held.digest) is None and thread.is_alive()
        finally:
            hold.unlink()
            thread.join(timeout=120.0)
        assert not thread.is_alive(), "the run never completed"
        assert banked is not None, "the finished request waited for its chunk"
        assert entries[first.digest].status == "ok"
        assert held.digest not in entries and still_held

        (batch,) = batches
        assert batch.stats.runner == "multiprocess"
        assert batch.stats.executed == batch.stats.unique == len(plan)
        assert not batch.failures
        reference = SimEngine(runner=SerialRunner(trace_store=None)).run(plan)
        for request in plan:
            assert batch[request].as_dict() == reference[request].as_dict()
        assert banked.as_dict() == reference[first].as_dict()

    def test_deadline_expires_only_the_unreported_requests(self, tmp_path, monkeypatch):
        first, held = tiny_request("intsort", "none"), tiny_request("intsort", "stride")
        other = tiny_request("randacc", "none")
        hold = tmp_path / "hold"
        hold.touch()
        execute = runner_module.execute_request

        def gated(request, workload):
            while request == held and hold.exists():
                time.sleep(0.002)
            return execute(request, workload)

        monkeypatch.setattr(runner_module, "execute_request", gated)
        banked: list = []
        # The budget runs out once the two unheld requests are banked.
        budget = Deadline(60.0, clock=lambda: 0.0 if len(banked) < 2 else 120.0)
        runner = MultiprocessRunner(workers=2, trace_store=None)
        try:
            executed = runner.run([first, held, other], on_executed=banked.extend,
                                  deadline=budget)
        finally:
            hold.unlink()
        outcomes = {digest: (result, failure) for digest, result, failure in executed}
        assert outcomes[first.digest][0] is not None and outcomes[first.digest][1] is None
        assert outcomes[other.digest][0] is not None
        assert DEADLINE_FAILURE_TEXT in outcomes[held.digest][1]
        assert runner.resilience.expired == 1
        assert multiprocessing.active_children() == []

    def test_crash_re_runs_only_the_unreported_requests(self, tmp_path, monkeypatch):
        # Two chunks of three; the intsort chunk's worker dies on its third
        # request, after reporting the first two.
        modes = ("none", "stride", "ghb-regular")
        plan = SimPlan(tiny_request(w, m) for w in ("intsort", "randacc") for m in modes)
        doomed = tiny_request("intsort", "ghb-regular")
        reference = SimEngine(runner=SerialRunner(trace_store=None)).run(plan)
        log, crashed = tmp_path / "completed", tmp_path / "crashed"
        execute = runner_module.execute_request

        def crash_once(request, workload):
            if request == doomed and not crashed.exists():
                crashed.touch()
                os.kill(os.getpid(), signal.SIGKILL)
            outcome = execute(request, workload)
            with open(log, "a") as completions:
                completions.write(f"{request.digest}\n")
            return outcome

        monkeypatch.setattr(runner_module, "execute_request", crash_once)
        runner = MultiprocessRunner(workers=2, trace_store=None)
        assert [len(chunk) for chunk in runner._chunk(list(plan))] == [3, 3]
        batch = SimEngine(runner=runner).run(plan)

        assert crashed.exists() and batch.stats.requeues == 1
        completions = Counter(log.read_text().split())
        assert completions == Counter(digest for digest, _ in plan.items())
        assert batch.stats.executed == batch.stats.unique == len(plan)
        assert not batch.failures
        for request in plan:
            assert batch[request].as_dict() == reference[request].as_dict()


    def test_chunk_that_raises_keeps_what_it_reported(self, monkeypatch):
        # Two chunks of three; the intsort chunk raises on its second request.
        modes = ("none", "stride", "ghb-regular")
        plan = SimPlan(tiny_request(w, m) for w in ("intsort", "randacc") for m in modes)
        first, raising, last = (tiny_request("intsort", m) for m in modes)
        execute = runner_module.execute_request

        def raise_on_second(request, workload):
            if request == raising:  # runs in the forked worker
                raise RuntimeError("injected")
            return execute(request, workload)

        monkeypatch.setattr(runner_module, "execute_request", raise_on_second)
        runner = MultiprocessRunner(workers=2, trace_store=None)
        assert [len(chunk) for chunk in runner._chunk(list(plan))] == [3, 3]
        outcomes = {d: (result, failure) for d, result, failure in runner.run(list(plan))}

        assert outcomes[first.digest][0] is not None and outcomes[first.digest][1] is None
        for request in (raising, last):
            assert outcomes[request.digest] == (
                None, f"intsort/{request.mode}: chunk failed in its worker: RuntimeError: injected"
            )
        for mode in modes:
            assert outcomes[tiny_request("randacc", mode).digest][1] is None
        assert runner.resilience.requeues == 0
        assert multiprocessing.active_children() == []


class TestRunnerWorkerPool:
    def test_crashed_worker_chunk_is_retried_bit_identically(self, svc_dir):
        with registered_test_workloads():
            requests = [request_for("svccrashonce", seed=501)] + [
                intsort_request(seed=s) for s in (14, 15)
            ]
            runner = MultiprocessRunner(workers=2, trace_store=None)
            executed = runner.run(requests)
            assert runner.resilience.requeues == 1
            assert (svc_dir / "crashed-501").exists()

            # Serial only after the parallel run: its crash marker now
            # exists, so the crash-once workload no longer kills this process.
            serial = SerialRunner(trace_store=None).run(requests)
        outcomes = {digest: (result, fail) for digest, result, fail in executed}
        assert len(outcomes) == len(requests)
        for digest, result, _ in serial:
            assert outcomes[digest][1] is None
            assert outcomes[digest][0].as_dict() == result.as_dict()

    def test_persistent_crash_gives_up_after_the_pool_attempt_budget(
        self, svc_dir, monkeypatch
    ):
        monkeypatch.setattr(pool_module, "MAX_ATTEMPTS", 2)
        crasher = request_for("svccrashalways", seed=521)
        bystander = intsort_request(seed=17)
        with registered_test_workloads():
            runner = MultiprocessRunner(workers=2, trace_store=None)
            executed = runner.run([crasher, bystander])
        outcomes = {digest: (result, fail) for digest, result, fail in executed}
        result, failure = outcomes[crasher.digest]
        assert result is None
        assert "worker crashed" in failure and "gave up after 2 attempts" in failure
        assert runner.resilience.requeues == 1
        # The crashing chunk costs only itself.
        assert outcomes[bystander.digest][1] is None
        assert outcomes[bystander.digest][0] is not None
        assert multiprocessing.active_children() == []

    def test_deadline_kills_held_worker_and_labels_chunk_expired(self, svc_dir):
        hold = svc_dir / "hold-511"
        hold.touch()
        gated = request_for("svcgate", seed=511)
        with registered_test_workloads():
            engine = SimEngine(
                runner=MultiprocessRunner(workers=2, trace_store=None), deadline=1.0
            )
            start = time.monotonic()
            batch = engine.run(SimPlan([gated, intsort_request(seed=16)]))
            elapsed = time.monotonic() - start
        assert elapsed < 5.0
        assert DEADLINE_FAILURE_TEXT in batch.failures[gated.digest]
        assert batch.stats.expired >= 1
        assert multiprocessing.active_children() == []

    def test_pool_retries_the_unreported_requests_itself(self, svc_dir):
        healthy, crasher = intsort_request(seed=18), request_for("svccrashonce", seed=541)
        retries: list = []
        with registered_test_workloads():
            pool = WorkerPool(1)
            try:
                executed, _ = pool.run(
                    [healthy, crasher], on_retry=lambda *retry: retries.append(retry)
                )
            finally:
                pool.shutdown()
        # The healthy request ran before the crash and is not run again.
        assert [digest for digest, _, _ in executed] == [healthy.digest, crasher.digest]
        assert all(result is not None and failure is None for _, result, failure in executed)
        ((attempt, error),) = retries
        assert attempt == 1 and isinstance(error, WorkerCrashedError)
        assert pool.replaced == 1
        assert multiprocessing.active_children() == []

    def test_shut_down_pool_never_retries(self, tmp_path, monkeypatch):
        held = intsort_request(seed=19)
        hold, started = tmp_path / "hold", tmp_path / "held-started"
        hold.touch()
        execute = runner_module.execute_request

        def gated(request, workload):  # runs in the forked worker
            started.touch()
            while hold.exists():
                time.sleep(0.002)
            return execute(request, workload)

        monkeypatch.setattr(runner_module, "execute_request", gated)
        pool = WorkerPool(1)
        starts: list = []
        start = pool._start
        monkeypatch.setattr(pool, "_start", lambda slot: (starts.append(slot), start(slot)))
        retries: list = []
        raised: list = []

        def drive() -> None:
            try:
                pool.run([held], on_retry=lambda *retry: retries.append(retry))
            except WorkerCrashedError as error:
                raised.append(error)

        thread = threading.Thread(target=drive)
        thread.start()
        try:
            deadline = time.monotonic() + 30.0
            while not started.exists():
                assert time.monotonic() < deadline, "the held chunk never started"
                time.sleep(0.01)
            pool.shutdown()
            thread.join(timeout=30.0)
        finally:
            hold.unlink()
        assert not thread.is_alive()
        assert len(raised) == 1 and retries == []
        assert len(starts) == 1  # no fresh worker after the shutdown kill
        assert multiprocessing.active_children() == []

    def test_runner_under_thread_contention(self, svc_dir):
        """More workers than cores, two crashing chunks, fast thread switching."""

        healthy = [intsort_request(seed=s, mode=m) for s in (71, 72) for m in ("none", "stride")]
        crashing = [request_for("svccrashonce", seed=s) for s in (531, 532)]
        requests = healthy + crashing
        expected = {d: r.as_dict() for d, r, _ in SerialRunner(trace_store=None).run(healthy)}
        caller = threading.get_ident()
        banked: list = []

        def on_executed(batch):
            assert threading.get_ident() == caller
            banked.extend(batch)

        with registered_test_workloads():
            runner = MultiprocessRunner(workers=3, trace_store=None)
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                executed = runner.run(requests, on_executed=on_executed)
            finally:
                sys.setswitchinterval(interval)
        # A lost update on the shared counters or results would break these.
        assert runner.resilience.requeues == len(crashing)
        assert sorted(banked) == sorted(executed)
        assert sorted(d for d, _, _ in executed) == sorted(r.digest for r in requests)
        assert all(failure is None for _, _, failure in executed)
        for digest, result, _ in executed:
            if digest in expected:
                assert result.as_dict() == expected[digest]
        assert multiprocessing.active_children() == []

    def test_pool_under_thread_contention(self, svc_dir):
        """More callers than workers and workers than cores, fast switching."""

        healthy = [intsort_request(seed=s) for s in (61, 62, 63, 64)]
        crashing = [request_for("svccrashonce", seed=s) for s in (521, 522)]
        expected = {d: r.as_dict() for d, r, _ in SerialRunner(trace_store=None).run(healthy)}

        with registered_test_workloads():
            pool = WorkerPool(3)
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                with ThreadPoolExecutor(8) as threads:
                    # The pool retries each crash-once request itself, so
                    # no call raises.
                    outcomes = list(
                        threads.map(lambda r: pool.run([r]), healthy * 2 + crashing)
                    )
            finally:
                sys.setswitchinterval(interval)
                pool.shutdown()
        assert pool.replaced == len(crashing)
        for outcome in outcomes:
            ((_, result, failure),), _ = outcome
            assert failure is None and result is not None
        for outcome in outcomes[: 2 * len(healthy)]:
            ((digest, result, failure),), _ = outcome
            assert failure is None and result.as_dict() == expected[digest]
        # Every worker, replaced or not, was joined by shutdown.
        assert multiprocessing.active_children() == []


# ------------------------------------------------------------- deadlines


class TestDeadlines:
    def test_expired_engine_deadline_fails_requests_with_retryable_label(self):
        engine = SimEngine(runner=SerialRunner(trace_store=None), deadline=0.0)
        batch = engine.run(SimPlan([intsort_request(seed=21),
                                    intsort_request(seed=22)]))
        assert batch.stats.executed == 2
        assert batch.stats.failed == 2
        assert batch.stats.expired == 2
        assert len(batch) == 0
        assert all(DEADLINE_FAILURE_TEXT in label for label in batch.stats.failures)

    def test_expired_deadline_failures_are_never_cached(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        engine = SimEngine(
            runner=SerialRunner(trace_store=None), cache=cache, deadline=0.0
        )
        request = intsort_request(seed=23)
        engine.run(SimPlan([request]))
        assert cache.get(request.digest) is None

        # The same cache serves a later, unbounded run normally.
        retry = SimEngine(runner=SerialRunner(trace_store=None), cache=cache)
        batch = retry.run(SimPlan([request]))
        assert batch.stats.executed == 1 and not batch.failures

    def test_service_engine_counts_deadline_expired_requests(self, svc_dir):
        hold = svc_dir / "hold-441"
        hold.touch()
        with registered_test_workloads():
            with ServerThread(workers=1) as daemon:
                engine = ServiceEngine(daemon.address, timeout=120.0, deadline=0.3)
                try:
                    batch = engine.run(SimPlan([request_for("svcgate", seed=441)]))
                finally:
                    engine.close()
                # Release the gate so the daemon can drain and stop.
                hold.unlink()
        assert (batch.stats.failed, batch.stats.expired) == (1, 1)
        assert "1 deadline-expired" in batch.stats.summary()

    def test_service_submission_deadline_expires_gated_work(self, svc_dir):
        hold = svc_dir / "hold-431"
        hold.touch()
        with registered_test_workloads():
            with ServerThread(workers=1) as daemon:
                with ServiceClient(daemon.address, timeout=120.0) as client:
                    sid = client.submit_nowait(
                        [request_for("svcgate", seed=431)], deadline=0.2
                    )
                    read_until(client, "accepted", sid)
                    # The gate never opens, so only the deadline can finish
                    # this submission — `done` arriving at all proves expiry.
                    done = read_until(client, "done", sid)
                    (outcome,) = done["outcomes"]
                    assert outcome["status"] == "failed"
                    assert DEADLINE_FAILURE_TEXT in outcome["failure"]
                counters = wait_for_counter(daemon.address, "expired", 1)
                assert counters["expired"] >= 1
                # Release the gate so the daemon can drain and stop.
                hold.unlink()
