"""Plan executors: serial, and multiprocessing across cores.

Requests are grouped by :attr:`SimRequest.workload_key` so each group's
expensive inputs — workload data structures and dynamic traces — are
resolved exactly once.  Resolution goes through the **trace artifact tier**
(:mod:`repro.trace_store`): each group's trace artifacts are looked up front
in the digest-keyed on-disk store; warm artifacts replay directly (no
workload rebuild at all for the non-programmable modes, traces injected
instead of re-emitted for the programmable ones), and anything missing is
built once, emitted, and persisted so the next run — or the next worker —
starts warm.  The serial and multiprocess runners execute the same
per-request code path, so for a given request set they produce
bit-identical results; the multiprocess runner merely farms chunks of those
groups out to worker processes, each of which resolves its chunk through
the same on-disk store.  It is the runner every local driver uses
(:func:`repro.eval.report.build_engine`), with one worker per usable CPU by
default, and runs in-process when one worker or one chunk leaves nothing
to spread.

A request whose mode cannot be built for its workload (the missing Figure 7
bars, e.g. software prefetching on PageRank) executes to ``None`` with no
failure label, mirroring the drivers' historical "skip the bar" behaviour.
Any *other* :class:`~repro.errors.WorkloadError` also executes to ``None``
but carries a failure label, which the engine counts and surfaces — failed
requests are no longer silently indistinguishable from unavailable ones.
So does every request of a group whose workload cannot be resolved at all
(an unknown name, an unsupported scale): the rest of the plan still runs.

Both runners are resilience-aware (see ``docs/resilience.md``):

* ``run`` accepts an ``on_executed`` callback invoked, on the calling
  thread, with each completed request *as it finishes*, which the engine
  uses to persist results and checkpoint-manifest entries incrementally —
  a killed run keeps everything completed so far, whichever runner ran it.
* ``run`` accepts a :class:`~repro.resilience.Deadline`; once it expires,
  remaining requests complete as labelled failures (never cached, so a
  resumed run retries exactly the expired work).
* :class:`MultiprocessRunner` runs its chunks on the
  :class:`~repro.sim.engine.pool.WorkerPool` the service daemon uses too:
  a worker that dies or stops heartbeating is killed, the pool retries the
  requests of its chunk that it had not reported on a fresh worker, within
  its attempt budget, and those still unreported then fail with a label
  instead of hanging the plan.
"""

from __future__ import annotations

import math
import queue
import threading
from abc import ABC, abstractmethod
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional, Sequence

from ...errors import (
    ChunkFailedError,
    RegistryError,
    WorkerCrashedError,
    WorkerHungError,
    WorkloadError,
)
from ...resilience import Deadline, DeadlineLike
from ...trace_store import (
    GroupResolver,
    TraceStore,
    TraceStoreStats,
    default_trace_store,
    variants_needed,
)
from ...workloads.base import Workload
from ..modes import mode_available
from ..results import SimulationResult
from ..system import simulate
from .pool import WorkerPool, default_workers
from .request import SimRequest, resolve_policy

#: One executed request: ``(digest, result, failure)``.  ``result`` is
#: ``None`` both for unavailable modes (``failure is None``) and for genuine
#: failures (``failure`` holds the error text).
ExecutedRequest = tuple[str, Optional[SimulationResult], Optional[str]]

#: Callback receiving each completed request, as a one-element batch, as
#: it finishes.
ExecutedCallback = Callable[[Sequence[ExecutedRequest]], None]

#: Sentinel distinguishing "no store passed" (resolve from the environment)
#: from an explicit ``trace_store=None`` (tier disabled).
_DEFAULT_STORE = object()

#: Marker text present in every deadline-expiry failure label; the engine
#: uses it to count expirations separately from ordinary failures.
DEADLINE_FAILURE_TEXT = "deadline exceeded"


def _resolve_store(trace_store) -> Optional[TraceStore]:
    return default_trace_store() if trace_store is _DEFAULT_STORE else trace_store


@dataclass
class ResilienceStats:
    """What a runner's resilience machinery did during one ``run``.

    Attributes:
        expired: Requests completed as failures because a deadline expired
            before they ran.
        hung_killed: Workers killed because they stopped heartbeating.
        requeues: Chunk retries after their worker hung or crashed.
    """

    expired: int = 0
    hung_killed: int = 0
    requeues: int = 0


def group_requests(requests: Iterable[SimRequest]) -> list[list[SimRequest]]:
    """Group requests by :attr:`SimRequest.workload_key`, in first-seen order.

    This is the unit of trace-artifact resolution: every request in a group
    replays traces of the same ``(workload, scale, seed)``, so the runners
    resolve each group's artifacts once, and the daemon chunks along it.
    """

    groups: dict[tuple[str, str, int], list[SimRequest]] = {}
    for request in requests:
        groups.setdefault(request.workload_key, []).append(request)
    return list(groups.values())


def execute_request(
    request: SimRequest, workload: Workload
) -> tuple[Optional[SimulationResult], Optional[str]]:
    """Run one request against a resolved workload.

    Returns ``(result, failure)``: a successful simulation carries no
    failure text; an unavailable mode returns ``(None, None)``; any other
    workload error returns ``(None, <message>)`` so the engine can count
    and label it instead of dropping it on the floor.
    """

    try:
        result = simulate(
            workload,
            request.prefetch_mode,
            request.config,
            policy=resolve_policy(request.policy),
        )
        return result, None
    except WorkloadError as error:
        try:
            if not mode_available(workload, request.prefetch_mode):
                return None, None
        except WorkloadError:
            pass  # availability itself failed: report the original error
        return None, f"{request.workload}/{request.mode}: {error}"


def _deadline_failure(request: SimRequest, deadline: Deadline) -> ExecutedRequest:
    return (
        request.digest,
        None,
        f"{request.workload}/{request.mode}: {DEADLINE_FAILURE_TEXT} "
        f"({deadline.seconds:g}s budget)",
    )


def execute_group(
    requests: Sequence[SimRequest],
    workloads: Optional[Mapping[str, Workload]] = None,
    *,
    store: Optional[TraceStore] = None,
    deadline: Optional[Deadline] = None,
    on_executed: Optional[Callable[[ExecutedRequest], None]] = None,
    resilience: Optional[ResilienceStats] = None,
) -> tuple[list[ExecutedRequest], TraceStoreStats]:
    """Execute one workload group, resolving its trace artifacts up front.

    ``workloads`` may supply pre-built objects keyed by workload name; one
    is used only when its scale and seed match the request, otherwise the
    group resolves independently so results stay independent of what was
    passed in.  ``store`` warms the group's traces and receives
    freshly-emitted ones.

    The resilience hooks are all optional: once ``deadline`` expires the
    remaining requests complete as labelled failures instead of running;
    ``on_executed`` is called with each request as it completes (in a pool
    worker it sends the request's heartbeat); ``resilience`` accumulates
    expiry counters for the caller.

    Returns the executed requests in submission order and the trace-tier
    counters.
    """

    executed: list[ExecutedRequest] = []
    stats = TraceStoreStats()

    def finish(done: ExecutedRequest) -> None:
        executed.append(done)
        if on_executed is not None:
            on_executed(done)

    for group in group_requests(requests):
        first = group[0]
        if deadline is not None and deadline.expired:
            # Do not even build the resolver: fail the whole group fast so
            # an expired run returns promptly with retryable failures.
            for request in group:
                if resilience is not None:
                    resilience.expired += 1
                finish(_deadline_failure(request, deadline))
            continue
        resolver = GroupResolver(
            first.workload,
            first.scale,
            first.seed,
            store=store,
            prebuilt=(workloads or {}).get(first.workload),
        )
        # Set when the group's workload cannot be resolved (unknown name,
        # unsupported scale): its remaining requests fail with that label
        # and the rest of the plan still runs.
        unresolvable: Optional[Exception] = None
        for request in group:
            if deadline is not None and deadline.expired:
                if resilience is not None:
                    resilience.expired += 1
                finish(_deadline_failure(request, deadline))
                continue
            if unresolvable is None:
                try:
                    workload = resolver.workload_for_mode(request.prefetch_mode)
                except (WorkloadError, RegistryError) as error:
                    unresolvable = error
                else:
                    result, failure = execute_request(request, workload)
                    finish((request.digest, result, failure))
                    continue
            finish((request.digest, None, f"{request.workload}/{request.mode}: {unresolvable}"))
        if unresolvable is None:
            resolver.persist(variants_needed([r.prefetch_mode for r in group]))
        stats.merge(resolver.stats)
    return executed, stats


class Runner(ABC):
    """Executes the pending requests of a plan."""

    #: Human-readable label of the path the most recent :meth:`run` took,
    #: recorded in engine statistics.
    label: str = "runner"

    #: Trace-artifact resolution counters of the most recent :meth:`run`.
    trace_stats: TraceStoreStats

    #: Watchdog/deadline counters of the most recent :meth:`run`.
    resilience: ResilienceStats

    def __init__(self) -> None:
        self.trace_stats = TraceStoreStats()
        self.resilience = ResilienceStats()

    @abstractmethod
    def run(
        self,
        requests: Sequence[SimRequest],
        *,
        on_executed: Optional[ExecutedCallback] = None,
        deadline: DeadlineLike = None,
    ) -> list[ExecutedRequest]:
        ...


class SerialRunner(Runner):
    """Execute every request in-process, in submission order."""

    label = "serial"

    def __init__(
        self,
        workloads: Optional[Mapping[str, Workload]] = None,
        *,
        trace_store=_DEFAULT_STORE,
    ) -> None:
        super().__init__()
        self.workloads = workloads
        self.trace_store = _resolve_store(trace_store)

    def run(
        self,
        requests: Sequence[SimRequest],
        *,
        on_executed: Optional[ExecutedCallback] = None,
        deadline: DeadlineLike = None,
    ) -> list[ExecutedRequest]:
        self.resilience = ResilienceStats()
        per_request = None
        if on_executed is not None:
            per_request = lambda done: on_executed([done])  # noqa: E731
        executed, self.trace_stats = execute_group(
            requests,
            self.workloads,
            store=self.trace_store,
            deadline=Deadline.after(deadline),
            on_executed=per_request,
            resilience=self.resilience,
        )
        return executed


class MultiprocessRunner(Runner):
    """Farm independent request chunks across a :class:`WorkerPool`.

    Each worker resolves its chunk through the on-disk trace store the
    parent names: warm artifacts decode from a few flat arrays instead of
    regenerating graphs and re-running emission loops, and on a store miss
    the *worker* builds the workload locally, emits, and persists the
    artifact, so cold-store builds still happen in parallel and every later
    run is warm.  Only compact values cross the process boundary: requests,
    the store directory, results.  Workload groups that dominate the plan —
    a Figure 9(b) sweep is dozens of points on one workload — are split
    into several chunks in proportion to their share of the plan, trading a
    few redundant artifact decodes for keeping every core busy; each chunk
    counts its own store hits.

    ``workers`` defaults to the CPUs this process may use
    (:func:`~repro.sim.engine.pool.default_workers`).  With one worker, or
    when the plan forms at most one chunk, :meth:`run` executes in-process
    on the serial path, starts no process, and sets :attr:`label` to
    ``"serial"``; a pooled run sets it to ``"multiprocess"``.  No worker
    starts before a run has work.

    One thread per worker feeds chunks to the pool; each result is handed
    to ``on_executed`` on the calling thread as its worker reports it.
    When a worker crashes or hangs, the pool retries the requests of its
    chunk it had not reported (:meth:`WorkerPool.run`); those still
    unreported when it gives up, or when the chunk raised inside its
    worker, fail with a label.
    """

    label = "multiprocess"

    def __init__(
        self,
        workers: Optional[int] = None,
        *,
        workloads: Optional[Mapping[str, Workload]] = None,
        trace_store=_DEFAULT_STORE,
    ) -> None:
        super().__init__()
        self.workers = workers if workers is not None else default_workers()
        if self.workers < 1:
            raise ValueError("MultiprocessRunner needs at least one worker")
        #: Pre-built workloads reused by the in-process (serial) fallback;
        #: worker processes resolve through the trace store instead.
        self.workloads = workloads
        self.trace_store = _resolve_store(trace_store)

    def _chunk(self, requests: Sequence[SimRequest]) -> list[list[SimRequest]]:
        total = len(requests)
        chunks: list[list[SimRequest]] = []
        for group in group_requests(requests):
            parts = min(len(group), max(1, round(len(group) * self.workers / total)))
            size = math.ceil(len(group) / parts)
            chunks.extend(group[start : start + size] for start in range(0, len(group), size))
        return chunks

    def run(
        self,
        requests: Sequence[SimRequest],
        *,
        on_executed: Optional[ExecutedCallback] = None,
        deadline: DeadlineLike = None,
    ) -> list[ExecutedRequest]:
        self.trace_stats = TraceStoreStats()
        self.resilience = ResilienceStats()
        chunks = self._chunk(requests)
        budget = Deadline.after(deadline)
        if self.workers == 1 or len(chunks) <= 1:
            # Nothing to parallelise: hand the whole request set to the
            # serial path, forwarding any pre-built workloads so the
            # fallback does not pay a redundant workload rebuild.
            self.label = SerialRunner.label
            fallback = SerialRunner(workloads=self.workloads, trace_store=self.trace_store)
            executed = fallback.run(requests, on_executed=on_executed, deadline=budget)
            self.trace_stats = fallback.trace_stats
            self.resilience = fallback.resilience
            return executed
        self.label = MultiprocessRunner.label
        return self._run_pooled(chunks, budget, on_executed)

    def _run_pooled(
        self,
        chunks: list[list[SimRequest]],
        budget: Optional[Deadline],
        on_executed: Optional[ExecutedCallback],
    ) -> list[ExecutedRequest]:
        """Run every chunk on a worker pool; return the requests in chunk order."""

        # NOTE: ``is not None`` — TraceStore defines __len__, so an empty
        # (cold) store is falsy and a bare truthiness test would silently
        # disable worker-side persistence on exactly the runs that need it.
        store_dir = (
            str(self.trace_store.directory) if self.trace_store is not None else None
        )
        pool = WorkerPool(min(self.workers, len(chunks)), trace_store_dir=store_dir)
        lock = threading.Lock()
        stopped = threading.Event()
        # Each executed request as its worker reports it, and None as each
        # chunk ends; drained on the calling thread.
        landed: queue.SimpleQueue = queue.SimpleQueue()

        def crashed(attempt: Optional[int], error: WorkerCrashedError) -> None:
            with lock:
                self.resilience.hung_killed += isinstance(error, WorkerHungError)
                self.resilience.requeues += attempt is not None  # None: the pool gave up

        def execute(chunk: list[SimRequest]) -> None:
            reported: set[str] = set()

            def report(done: ExecutedRequest) -> None:
                reported.add(done[0])
                landed.put(done)

            try:
                _, stats = pool.run(chunk, report, crashed)
            except ChunkFailedError as error:
                reason = f"chunk failed in its worker: {error}"
            except WorkerCrashedError as error:
                if stopped.is_set():
                    return  # the run is over; its caller labels the rest
                crashed(None, error)
                reason = str(error)
            else:
                with lock:
                    self.trace_stats.merge(stats)
                return
            for r in chunk:
                if r.digest not in reported:
                    landed.put((r.digest, None, f"{r.workload}/{r.mode}: {reason}"))

        def feed(chunk: list[SimRequest]) -> None:
            try:
                execute(chunk)
            finally:
                landed.put(None)

        outcomes: dict[str, ExecutedRequest] = {}

        def bank(done: ExecutedRequest) -> None:
            outcomes[done[0]] = done
            if on_executed is not None:
                on_executed([done])

        threads = ThreadPoolExecutor(pool.workers)
        futures = [threads.submit(feed, chunk) for chunk in chunks]
        open_chunks = len(chunks)
        try:
            while open_chunks and not (budget is not None and budget.expired):
                try:
                    done = landed.get(timeout=budget.remaining() if budget is not None else None)
                except queue.Empty:
                    break  # the deadline expired
                if done is None:
                    open_chunks -= 1
                else:
                    bank(done)
        finally:
            stopped.set()
            pool.shutdown()
            threads.shutdown(cancel_futures=True)
        for future in futures:
            if not future.cancelled():
                future.result()  # re-raise an error of the feeding code
        while not landed.empty():  # reported before the pool stopped: finished work
            done = landed.get()
            if done is not None:
                bank(done)
        for chunk in chunks:
            for r in chunk:
                if r.digest not in outcomes:
                    self.resilience.expired += 1
                    bank(_deadline_failure(r, budget))
        return [outcomes[r.digest] for chunk in chunks for r in chunk]
