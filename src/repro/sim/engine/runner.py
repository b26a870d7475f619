"""Plan executors: serial, and multiprocessing across cores.

Requests are grouped by :attr:`SimRequest.workload_key` so each group's
expensive inputs — workload data structures and dynamic traces — are
resolved exactly once.  Resolution goes through the **trace artifact tier**
(:mod:`repro.trace_store`): each group's trace artifacts are looked up front
in the digest-keyed on-disk store; warm artifacts replay directly (no
workload rebuild at all for the non-programmable modes, traces injected
instead of re-emitted for the programmable ones), and anything missing is
built once, emitted, and persisted so the next run — or the next worker —
starts warm.  The serial and parallel runners execute the same per-request
code path, so for a given request set they produce bit-identical results;
the parallel runner merely farms chunks of those groups out to worker
processes, shipping each chunk the compact encoded trace columns it found
warm instead of a rebuild recipe.

A request whose mode cannot be built for its workload (the missing Figure 7
bars, e.g. software prefetching on PageRank) executes to ``None`` with no
failure label, mirroring the drivers' historical "skip the bar" behaviour.
Any *other* :class:`~repro.errors.WorkloadError` also executes to ``None``
but carries a failure label, which the engine counts and surfaces — failed
requests are no longer silently indistinguishable from unavailable ones.

Both runners are resilience-aware (see ``docs/resilience.md``):

* ``run`` accepts an ``on_executed`` callback invoked with each batch of
  completed requests *as they finish*, which the engine uses to persist
  results and checkpoint-manifest entries incrementally — a killed run
  keeps everything completed so far.
* ``run`` accepts a :class:`~repro.resilience.Deadline`; once it expires,
  remaining requests complete as labelled failures (never cached, so a
  resumed run retries exactly the expired work).
* a :class:`~repro.resilience.RetryPolicy` retries individual failed
  requests in place, and :class:`MultiprocessRunner` runs a heartbeat
  watchdog over its workers: a worker that stops making progress for
  ``hang_timeout`` seconds is killed, its chunk is requeued with bounded
  attempts, and when the pool is exhausted the remaining chunks degrade to
  in-parent serial execution instead of hanging the plan forever.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import time
from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection as _mp_connection
from typing import Callable, Mapping, Optional, Sequence, Union

try:  # POSIX shared memory; absent on some minimal platforms.
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - exercised via monkeypatched tests
    _shared_memory = None

from ...errors import WorkloadError
from ...resilience import Deadline, DeadlineLike, RetryPolicy
from ...trace_store import (
    GroupResolver,
    TraceStore,
    TraceStoreStats,
    default_trace_store,
    trace_digest,
    validate_artifact_bytes,
    variants_needed,
)
from ...workloads.base import Workload
from ..modes import mode_available
from ..results import SimulationResult
from ..system import simulate, try_simulate_batch_vector
from ..vector import numpy_available
from .request import SimRequest, resolve_policy

#: One executed request: ``(digest, result, failure)``.  ``result`` is
#: ``None`` both for unavailable modes (``failure is None``) and for genuine
#: failures (``failure`` holds the error text).
ExecutedRequest = tuple[str, Optional[SimulationResult], Optional[str]]

#: Callback receiving each batch of completed requests as it finishes.
ExecutedCallback = Callable[[Sequence[ExecutedRequest]], None]

#: One encoded trace column set as shipped to a worker: either the raw
#: bytes pickled inline (``("bytes", data)``) or the name and size of a
#: shared-memory segment holding them (``("shm", name, size)``), which every
#: worker attaches zero-copy instead of receiving its own pickled copy.
EncodedRef = Union[tuple[str, bytes], tuple[str, str, int]]

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
        retried: Individual failed requests retried in place under a
            :class:`~repro.resilience.RetryPolicy` (one count per retry).
        expired: Requests completed as failures because a deadline expired
            before they ran.
        hung_killed: Workers killed by the heartbeat watchdog.
        requeues: Chunks requeued after their worker hung or crashed.
        respawns: Replacement workers spawned after a kill or crash.
        degraded_serial: Chunks executed in-parent after the worker pool
            was exhausted.
    """

    retried: int = 0
    expired: int = 0
    hung_killed: int = 0
    requeues: int = 0
    respawns: int = 0
    degraded_serial: int = 0

    def merge(self, other: "ResilienceStats") -> None:
        self.retried += other.retried
        self.expired += other.expired
        self.hung_killed += other.hung_killed
        self.requeues += other.requeues
        self.respawns += other.respawns
        self.degraded_serial += other.degraded_serial


def group_requests(requests: Sequence[SimRequest]) -> list[list[SimRequest]]:
    """Group requests by workload key, preserving first-seen order."""

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
            kernel_source=request.kernel_source,
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


def _execute_vector_batches(
    requests: Sequence[SimRequest], resolver: GroupResolver
) -> dict[int, ExecutedRequest]:
    """Pre-execute the multi-configuration vector batches of one group.

    Requests of one workload group that differ only in system configuration
    (same mode, same policy, non-programmable) are exactly what
    :func:`~repro.sim.system.try_simulate_batch_vector` consumes: a Figure
    9-style geometry sweep submitted as N engine requests becomes one trace
    pass with N replay lanes.  Returns completed results keyed by position
    in ``requests``; anything not covered — single-request modes, batches
    the backend declined, resolution failures — falls through untouched to
    the per-request path, which also owns failure labelling.
    """

    prebatched: dict[int, ExecutedRequest] = {}
    if not numpy_available():
        return prebatched
    batches: dict[tuple[str, Optional[str]], list[int]] = {}
    for index, request in enumerate(requests):
        if not request.prefetch_mode.uses_programmable_prefetcher:
            batches.setdefault((request.mode, request.policy), []).append(index)
    for (_mode_value, policy_name), indices in batches.items():
        if len(indices) < 2:
            continue
        mode = requests[indices[0]].prefetch_mode
        try:
            workload = resolver.workload_for_mode(mode)
            results = try_simulate_batch_vector(
                workload,
                mode,
                [requests[index].config for index in indices],
                policy=resolve_policy(policy_name),
            )
        except WorkloadError:
            continue  # per-request execution reports the proper label
        if results is None:
            continue
        for index, result in zip(indices, results):
            prebatched[index] = (requests[index].digest, result, None)
    return prebatched


def execute_group(
    requests: Sequence[SimRequest],
    workloads: Optional[Mapping[str, Workload]] = None,
    *,
    store: Optional[TraceStore] = None,
    encoded: Optional[Mapping[str, bytes]] = None,
    deadline: Optional[Deadline] = None,
    retry_policy: Optional[RetryPolicy] = None,
    heartbeat: Optional[Callable[[], None]] = None,
    on_executed: Optional[Callable[[ExecutedRequest], None]] = None,
    resilience: Optional[ResilienceStats] = None,
    sleep: Callable[[float], None] = time.sleep,
) -> tuple[list[ExecutedRequest], TraceStoreStats, int]:
    """Execute one workload group, resolving its trace artifacts up front.

    ``workloads`` may supply pre-built objects keyed by workload name; one
    is used only when its scale and seed match the request, otherwise the
    group resolves independently so results stay independent of what was
    passed in.  ``encoded`` carries store-encoded trace columns a parent
    process shipped (keyed by variant); ``store`` is consulted for anything
    else and receives freshly-emitted traces.

    The resilience hooks are all optional: once ``deadline`` expires the
    remaining requests complete as labelled failures instead of running;
    ``retry_policy`` retries each *failed* request in place (unavailable
    modes are never retried — they are answers, not errors); ``heartbeat``
    is called after every completed request (the parallel runner's liveness
    signal); ``on_executed`` is called with each request as it completes;
    ``resilience`` accumulates retry/expiry counters for the caller.

    Returns the executed requests in submission order, the trace-tier
    counters, and how many requests were satisfied by multi-configuration
    vector batches rather than individual simulations.
    """

    executed: list[ExecutedRequest] = []
    stats = TraceStoreStats()
    batched = 0

    def finish(done: ExecutedRequest) -> None:
        executed.append(done)
        if heartbeat is not None:
            heartbeat()
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
            encoded=encoded if first.workload_key == requests[0].workload_key else None,
        )
        prebatched = _execute_vector_batches(group, resolver)
        batched += len(prebatched)
        for index, request in enumerate(group):
            done = prebatched.get(index)
            if done is None:
                if deadline is not None and deadline.expired:
                    if resilience is not None:
                        resilience.expired += 1
                    done = _deadline_failure(request, deadline)
                else:
                    workload = resolver.workload_for_mode(request.prefetch_mode)
                    result, failure = execute_request(request, workload)
                    if failure is not None and retry_policy is not None:
                        for attempt in range(retry_policy.retries):
                            if deadline is not None and deadline.expired:
                                break
                            sleep(retry_policy.delay(attempt))
                            if resilience is not None:
                                resilience.retried += 1
                            result, failure = execute_request(request, workload)
                            if failure is None:
                                break
                    done = (request.digest, result, failure)
            finish(done)
        resolver.persist(variants_needed([r.prefetch_mode for r in group]))
        stats.merge(resolver.stats)
    return executed, stats, batched


class Runner(ABC):
    """Executes the pending requests of a plan."""

    #: Human-readable label recorded in engine statistics.
    label: str = "runner"

    #: Trace-artifact resolution counters of the most recent :meth:`run`.
    trace_stats: TraceStoreStats

    #: Requests of the most recent :meth:`run` satisfied by multi-config
    #: vector batches (see :func:`execute_group`).
    batched: int

    #: Retry/watchdog/deadline counters of the most recent :meth:`run`.
    resilience: ResilienceStats

    def __init__(self) -> None:
        self.trace_stats = TraceStoreStats()
        self.batched = 0
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
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        super().__init__()
        self.workloads = workloads
        self.trace_store = _resolve_store(trace_store)
        self.retry_policy = retry_policy

    def run(
        self,
        requests: Sequence[SimRequest],
        *,
        on_executed: Optional[ExecutedCallback] = None,
        deadline: DeadlineLike = None,
    ) -> list[ExecutedRequest]:
        self.trace_stats = TraceStoreStats()
        self.batched = 0
        self.resilience = ResilienceStats()
        budget = Deadline.after(deadline)
        per_request = None
        if on_executed is not None:
            per_request = lambda done: on_executed([done])  # noqa: E731
        executed: list[ExecutedRequest] = []
        for group in group_requests(requests):
            chunk, stats, batched = execute_group(
                group,
                self.workloads,
                store=self.trace_store,
                deadline=budget,
                retry_policy=self.retry_policy,
                on_executed=per_request,
                resilience=self.resilience,
            )
            executed.extend(chunk)
            self.trace_stats.merge(stats)
            self.batched += batched
        return executed


def _share_artifacts(
    group_artifacts: Mapping[tuple[str, str, int], Mapping[str, bytes]]
) -> tuple[dict[tuple[str, str, int], dict[str, EncodedRef]], list]:
    """Stage warm artifact bytes for shipping to worker processes.

    Each artifact's bytes are copied once into a shared-memory segment and
    every chunk payload carries only its ``("shm", name, size)`` reference —
    a group split across K workers costs one resident copy, not K pickled
    ones.  When shared memory is unavailable (platform without it, creation
    failure) the bytes ship pickled inline as before.  Returns the
    per-group reference mappings and the created segments, which the caller
    must close and unlink once the pool has drained.
    """

    refs_by_key: dict[tuple[str, str, int], dict[str, EncodedRef]] = {}
    segments: list = []
    for key, encoded in group_artifacts.items():
        refs: dict[str, EncodedRef] = {}
        for variant, data in encoded.items():
            ref: EncodedRef = ("bytes", data)
            if _shared_memory is not None and data:
                try:
                    segment = _shared_memory.SharedMemory(create=True, size=len(data))
                except (OSError, ValueError):
                    pass  # no room / no support: pickle the bytes instead
                else:
                    segment.buf[: len(data)] = data
                    segments.append(segment)
                    ref = ("shm", segment.name, len(data))
            refs[variant] = ref
        refs_by_key[key] = refs
    return refs_by_key, segments


def _attach_encoded(
    refs: Mapping[str, EncodedRef]
) -> tuple[dict[str, object], list]:
    """Materialise shipped encoded-column references in a worker.

    ``("bytes", ...)`` entries pass through; ``("shm", name, size)`` entries
    attach the named shared-memory segment and expose it as a zero-copy
    ``memoryview`` (the buffer-friendly ``decode_artifact`` consumes it
    directly).  A segment that cannot be attached is simply dropped — the
    worker then resolves that variant through the store or a rebuild, the
    same degradation as a corrupt shipped blob.  Returns the encoded mapping
    plus the resources to release once the group has executed.
    """

    encoded: dict[str, object] = {}
    attached: list = []
    for variant, ref in refs.items():
        if ref[0] == "shm":
            try:
                segment = _shared_memory.SharedMemory(name=ref[1])
            except (OSError, ValueError):
                continue
            # NOTE: attaching re-registers the name with the resource
            # tracker, but pool workers share the parent's tracker process,
            # so the duplicate registration is a set no-op — the single
            # entry is retired by the parent's unlink.  Do NOT unregister
            # here: that would remove the parent's entry instead.
            view = memoryview(segment.buf)[: ref[2]]
            attached.append((view, segment))
            encoded[variant] = view
        else:
            encoded[variant] = ref[1]
    return encoded, attached


def _execute_group_task(
    payload: tuple[Sequence[SimRequest], Mapping[str, EncodedRef], Optional[str]]
) -> tuple[list[ExecutedRequest], TraceStoreStats, int]:
    """Execute one shipped chunk (also the service pool's entry point)."""

    requests, refs, store_dir = payload
    store = TraceStore(store_dir) if store_dir else None
    encoded, attached = _attach_encoded(refs)
    try:
        return execute_group(requests, store=store, encoded=encoded)
    finally:
        encoded.clear()
        for view, segment in attached:
            try:
                view.release()
                segment.close()
            except BufferError:  # pragma: no cover - a dangling export
                pass  # the mapping is freed with the worker process instead


def _watchdog_worker(conn) -> None:
    """Worker-process loop of the watchdogged :class:`MultiprocessRunner`.

    Receives ``(index, requests, refs, store_dir, retry_policy)`` task
    tuples over its pipe and answers with ``("hb", index)`` after every
    completed request, then ``("done", index, outcome, resilience)`` —
    or ``("err", index, message)`` if the chunk raised something the
    per-request machinery does not absorb.  A ``None`` task means exit.
    """

    try:
        while True:
            task = conn.recv()
            if task is None:
                return
            index, requests, refs, store_dir, retry_policy = task
            store = TraceStore(store_dir) if store_dir else None
            encoded, attached = _attach_encoded(refs)
            resilience = ResilienceStats()
            try:
                outcome = execute_group(
                    requests,
                    store=store,
                    encoded=encoded,
                    retry_policy=retry_policy,
                    heartbeat=lambda: conn.send(("hb", index)),
                    resilience=resilience,
                )
                conn.send(("done", index, outcome, resilience))
            except Exception as error:  # noqa: BLE001 - forwarded to parent
                conn.send(("err", index, f"{type(error).__name__}: {error}"))
            finally:
                encoded.clear()
                for view, segment in attached:
                    try:
                        view.release()
                        segment.close()
                    except BufferError:  # pragma: no cover
                        pass
    except (EOFError, OSError, KeyboardInterrupt):  # parent went away
        return


class _WorkerSlot:
    """Parent-side handle on one watchdogged worker process."""

    __slots__ = ("process", "conn", "task", "last_beat")

    def __init__(self, process, conn, clock: Callable[[], float]) -> None:
        self.process = process
        self.conn = conn
        self.task: Optional[int] = None
        self.last_beat = clock()


class MultiprocessRunner(Runner):
    """Farm independent request chunks across watchdogged worker processes.

    Each chunk ships with the compact encoded trace columns the parent
    found warm in the store — workers decode a few flat arrays instead of
    regenerating graphs and re-running emission loops.  The bytes travel
    through ``multiprocessing.shared_memory`` when available: one resident
    copy per artifact, attached zero-copy by every worker, instead of one
    pickled copy per chunk (see :func:`_share_artifacts`).  On a store miss the
    *worker* builds the workload locally, emits, and persists the artifact
    (the store directory is shared on disk), so cold-store builds still
    happen in parallel and every later run is warm.  Only compact values
    cross the process boundary: requests, encoded columns, results.
    Workload groups that dominate the plan — a Figure 9(b) sweep is dozens
    of points on one workload — are split into several chunks in proportion
    to their share of the plan, trading a few redundant artifact decodes
    for keeping every core busy.  Falls back to serial execution when there
    is nothing to parallelise.

    The parent supervises its workers directly (pipes, not a ``Pool``):
    every completed request is a heartbeat, and a worker silent for
    ``hang_timeout`` seconds is killed, its chunk requeued (at most
    ``max_attempts`` assignments per chunk) and a replacement spawned from
    a bounded respawn budget.  A chunk that exhausts its attempts fails
    with a label instead of hanging the plan; when every worker is gone
    and the budget is spent, the remaining chunks run serially in-parent.
    ``hang_timeout`` must comfortably exceed the longest *single*
    simulation, since a worker only beats between requests.
    """

    label = "multiprocess"

    def __init__(
        self,
        workers: Optional[int] = None,
        *,
        workloads: Optional[Mapping[str, Workload]] = None,
        trace_store=_DEFAULT_STORE,
        hang_timeout: float = 300.0,
        max_attempts: int = 3,
        retry_policy: Optional[RetryPolicy] = None,
        respawn_limit: Optional[int] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        super().__init__()
        self.workers = workers if workers is not None else (os.cpu_count() or 1)
        if self.workers < 1:
            raise ValueError("MultiprocessRunner needs at least one worker")
        if hang_timeout <= 0:
            raise ValueError("hang_timeout must be positive")
        if max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        #: Pre-built workloads reused by the in-process (serial) fallback;
        #: worker processes resolve through the trace store instead.
        self.workloads = workloads
        self.trace_store = _resolve_store(trace_store)
        self.hang_timeout = hang_timeout
        self.max_attempts = max_attempts
        self.retry_policy = retry_policy
        self.respawn_limit = respawn_limit
        self._clock = clock

    def _chunk(self, requests: Sequence[SimRequest]) -> list[list[SimRequest]]:
        total = len(requests)
        chunks: list[list[SimRequest]] = []
        for group in group_requests(requests):
            parts = min(len(group), max(1, round(len(group) * self.workers / total)))
            size = math.ceil(len(group) / parts)
            chunks.extend(group[start : start + size] for start in range(0, len(group), size))
        return chunks

    def _group_artifacts(
        self, requests: Sequence[SimRequest]
    ) -> dict[tuple[str, str, int], dict[str, bytes]]:
        """Read each group's warm artifacts from the store exactly once.

        Every chunk of a split group shares the same bytes objects, and the
        parent counts one store hit per (group, variant) here — workers
        decoding their shipped copy do not count again, so engine stats
        report warm traces, not warm decodes.
        """

        by_key: dict[tuple[str, str, int], dict[str, bytes]] = {}
        if self.trace_store is None:
            return by_key
        for group in group_requests(requests):
            first = group[0]
            encoded: dict[str, bytes] = {}
            for variant in variants_needed([r.prefetch_mode for r in group]):
                data = self.trace_store.get_bytes(
                    trace_digest(first.workload, variant, first.scale, first.seed)
                )
                # A corrupt entry is a miss here too — shipping it would
                # count a warm trace that every worker then re-emits.
                if data is not None and validate_artifact_bytes(data):
                    encoded[variant] = data
                    self.trace_stats.hits += 1
            by_key[first.workload_key] = encoded
        return by_key

    def run(
        self,
        requests: Sequence[SimRequest],
        *,
        on_executed: Optional[ExecutedCallback] = None,
        deadline: DeadlineLike = None,
    ) -> list[ExecutedRequest]:
        if not requests:
            self.trace_stats = TraceStoreStats()
            self.resilience = ResilienceStats()
            return []
        chunks = self._chunk(requests)
        budget = Deadline.after(deadline, clock=self._clock)
        if self.workers == 1 or len(chunks) <= 1:
            # Nothing to parallelise: hand the whole request set to the
            # serial path, forwarding any pre-built workloads so the
            # fallback does not pay a redundant workload rebuild.
            fallback = SerialRunner(
                workloads=self.workloads,
                trace_store=self.trace_store,
                retry_policy=self.retry_policy,
            )
            executed = fallback.run(requests, on_executed=on_executed, deadline=budget)
            self.trace_stats = fallback.trace_stats
            self.batched = fallback.batched
            self.resilience = fallback.resilience
            return executed
        self.trace_stats = TraceStoreStats()
        self.batched = 0
        self.resilience = ResilienceStats()
        # NOTE: ``is not None`` — TraceStore defines __len__, so an empty
        # (cold) store is falsy and a bare truthiness test would silently
        # disable worker-side persistence on exactly the runs that need it.
        store_dir = (
            str(self.trace_store.directory) if self.trace_store is not None else None
        )
        group_refs, segments = _share_artifacts(self._group_artifacts(requests))
        try:
            outcomes = self._run_watchdogged(
                chunks, group_refs, store_dir, budget, on_executed
            )
        finally:
            for segment in segments:
                segment.close()
                segment.unlink()
        executed: list[ExecutedRequest] = []
        for chunk_executed, chunk_stats, chunk_batched in outcomes:
            executed.extend(chunk_executed)
            if chunk_stats is not None:
                self.trace_stats.merge(chunk_stats)
            self.batched += chunk_batched
        return executed

    # ----------------------------------------------------------- watchdog

    def _run_watchdogged(
        self,
        chunks: list[list[SimRequest]],
        group_refs: Mapping[tuple[str, str, int], Mapping[str, EncodedRef]],
        store_dir: Optional[str],
        budget: Optional[Deadline],
        on_executed: Optional[ExecutedCallback],
    ) -> list[tuple[list[ExecutedRequest], Optional[TraceStoreStats], int]]:
        """Supervise the worker fleet until every chunk has an outcome."""

        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
        clock = self._clock
        total = len(chunks)
        pending: deque[int] = deque(range(total))
        attempts = [0] * total
        # Chunk outcome: (executed, trace_stats_or_None, batched).
        outcomes: dict[int, tuple[list[ExecutedRequest], Optional[TraceStoreStats], int]] = {}
        fleet_size = min(self.workers, total)
        respawns_left = (
            self.respawn_limit if self.respawn_limit is not None else 2 * fleet_size
        )

        def payload_for(index: int):
            chunk = chunks[index]
            refs = group_refs.get(chunk[0].workload_key, {})
            return (index, chunk, refs, store_dir, self.retry_policy)

        def spawn() -> Optional[_WorkerSlot]:
            parent_conn, child_conn = context.Pipe(duplex=True)
            process = context.Process(
                target=_watchdog_worker, args=(child_conn,), daemon=True
            )
            try:
                process.start()
            except OSError:  # out of processes: the serial tail handles it
                parent_conn.close()
                child_conn.close()
                return None
            child_conn.close()
            return _WorkerSlot(process, parent_conn, clock)

        def finish_chunk(
            index: int,
            outcome: tuple[list[ExecutedRequest], Optional[TraceStoreStats], int],
        ) -> None:
            outcomes[index] = outcome
            if on_executed is not None and outcome[0]:
                on_executed(outcome[0])

        def fail_chunk(index: int, reason: str) -> None:
            executed = [
                (
                    request.digest,
                    None,
                    f"{request.workload}/{request.mode}: {reason} "
                    f"(chunk gave up after {attempts[index]} attempts)",
                )
                for request in chunks[index]
            ]
            finish_chunk(index, (executed, None, 0))

        def requeue_or_fail(index: int, reason: str) -> None:
            if attempts[index] >= self.max_attempts:
                fail_chunk(index, reason)
            else:
                self.resilience.requeues += 1
                pending.append(index)

        fleet = [slot for slot in (spawn() for _ in range(fleet_size)) if slot]

        def retire(slot: _WorkerSlot, reason: str) -> None:
            """Remove a dead or hung worker, salvaging its chunk."""

            nonlocal respawns_left
            if slot.process.is_alive():
                slot.process.kill()
            slot.process.join()
            slot.conn.close()
            fleet.remove(slot)
            if slot.task is not None:
                requeue_or_fail(slot.task, reason)
                slot.task = None
            if pending and respawns_left > 0:
                replacement = spawn()
                if replacement is not None:
                    respawns_left -= 1
                    self.resilience.respawns += 1
                    fleet.append(replacement)

        def assign(slot: _WorkerSlot, index: int) -> bool:
            attempts[index] += 1
            slot.task = index
            slot.last_beat = clock()
            try:
                slot.conn.send(payload_for(index))
            except (OSError, ValueError):
                # The worker died between liveness check and send; the
                # retire path undoes the assignment bookkeeping via requeue.
                attempts[index] -= 1
                slot.task = None
                pending.appendleft(index)
                retire(slot, "worker crashed")
                return False
            return True

        try:
            while len(outcomes) < total:
                if budget is not None and budget.expired:
                    break
                for slot in list(fleet):
                    if slot.task is None and pending:
                        assign(slot, pending.popleft())
                busy = [slot for slot in fleet if slot.task is not None]
                if not busy:
                    if not fleet or not pending:
                        break  # pool exhausted or nothing left: serial tail
                    continue
                tick = max(0.005, min(self.hang_timeout / 4.0, 0.25))
                if budget is not None:
                    tick = min(tick, max(0.001, budget.remaining()))
                waitable = [slot.conn for slot in busy] + [
                    slot.process.sentinel for slot in busy
                ]
                _mp_connection.wait(waitable, timeout=tick)
                now = clock()
                for slot in list(busy):
                    crashed = False
                    while slot.task is not None:
                        try:
                            if not slot.conn.poll():
                                break
                            message = slot.conn.recv()
                        except (EOFError, OSError):
                            crashed = True
                            break
                        kind = message[0]
                        if kind == "hb":
                            slot.last_beat = now
                        elif kind == "done":
                            _kind, index, outcome, worker_res = message
                            executed, stats, batched = outcome
                            self.resilience.merge(worker_res)
                            finish_chunk(index, (executed, stats, batched))
                            slot.task = None
                        elif kind == "err":
                            _kind, index, text = message
                            requeue_or_fail(index, text)
                            slot.task = None
                    if crashed or (slot.task is not None and not slot.process.is_alive()):
                        retire(slot, "worker crashed")
                    elif (
                        slot.task is not None
                        and now - slot.last_beat > self.hang_timeout
                    ):
                        self.resilience.hung_killed += 1
                        retire(slot, "worker hung (no heartbeat)")
        finally:
            for slot in list(fleet):
                try:
                    slot.conn.send(None)
                except (OSError, ValueError):
                    pass
                slot.process.join(timeout=0.5)
                if slot.process.is_alive():
                    slot.process.kill()
                    slot.process.join()
                slot.conn.close()

        # Anything the fleet never finished: expired under the deadline, or
        # left over after pool exhaustion (degrade to in-parent serial).
        for index in range(total):
            if index in outcomes:
                continue
            chunk = chunks[index]
            if budget is not None and budget.expired:
                self.resilience.expired += len(chunk)
                finish_chunk(
                    index,
                    ([_deadline_failure(r, budget) for r in chunk], None, 0),
                )
                continue
            if attempts[index] >= self.max_attempts:
                fail_chunk(index, "worker pool exhausted")
                continue
            self.resilience.degraded_serial += 1
            store = TraceStore(store_dir) if store_dir else None
            outcome = execute_group(
                chunk,
                self.workloads,
                store=store,
                deadline=budget,
                retry_policy=self.retry_policy,
                resilience=self.resilience,
            )
            finish_chunk(index, outcome)

        return [outcomes[index] for index in range(total)]
