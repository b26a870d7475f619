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
processes, each of which resolves its chunk through the same on-disk store.

A request whose mode cannot be built for its workload (the missing Figure 7
bars, e.g. software prefetching on PageRank) executes to ``None`` with no
failure label, mirroring the drivers' historical "skip the bar" behaviour.
Any *other* :class:`~repro.errors.WorkloadError` also executes to ``None``
but carries a failure label, which the engine counts and surfaces — failed
requests are no longer silently indistinguishable from unavailable ones.
So does every request of a group whose workload cannot be resolved at all
(an unknown name, an unsupported scale): the rest of the plan still runs.

Both runners are resilience-aware (see ``docs/resilience.md``):

* ``run`` accepts an ``on_executed`` callback invoked with each batch of
  completed requests *as they finish*, which the engine uses to persist
  results and checkpoint-manifest entries incrementally — a killed run
  keeps everything completed so far.
* ``run`` accepts a :class:`~repro.resilience.Deadline`; once it expires,
  remaining requests complete as labelled failures (never cached, so a
  resumed run retries exactly the expired work).
* :class:`MultiprocessRunner` runs a heartbeat watchdog over its workers:
  a worker that stops making progress for ``hang_timeout`` seconds is
  killed, its chunk is requeued with bounded attempts, and when the pool
  is exhausted the remaining chunks degrade to in-parent serial execution
  instead of hanging the plan forever.
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
from typing import Callable, Mapping, Optional, Sequence

from ...errors import RegistryError, WorkloadError
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
from .request import SimRequest, resolve_policy

#: One executed request: ``(digest, result, failure)``.  ``result`` is
#: ``None`` both for unavailable modes (``failure is None``) and for genuine
#: failures (``failure`` holds the error text).
ExecutedRequest = tuple[str, Optional[SimulationResult], Optional[str]]

#: Callback receiving each batch of completed requests as it finishes.
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
        hung_killed: Workers killed by the heartbeat watchdog.
        requeues: Chunks requeued after their worker hung or crashed.
        respawns: Replacement workers spawned after a kill or crash.
        degraded_serial: Chunks executed in-parent after the worker pool
            was exhausted.
    """

    expired: int = 0
    hung_killed: int = 0
    requeues: int = 0
    respawns: int = 0
    degraded_serial: int = 0

    def merge(self, other: "ResilienceStats") -> None:
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
    heartbeat: Optional[Callable[[], None]] = None,
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
    ``heartbeat`` is called after every completed request (the parallel
    runner's liveness signal); ``on_executed`` is called with each request
    as it completes; ``resilience`` accumulates expiry counters for the
    caller.

    Returns the executed requests in submission order and the trace-tier
    counters.
    """

    executed: list[ExecutedRequest] = []
    stats = TraceStoreStats()

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

    #: Human-readable label recorded in engine statistics.
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
        self.trace_stats = TraceStoreStats()
        self.resilience = ResilienceStats()
        budget = Deadline.after(deadline)
        per_request = None
        if on_executed is not None:
            per_request = lambda done: on_executed([done])  # noqa: E731
        executed: list[ExecutedRequest] = []
        for group in group_requests(requests):
            chunk, stats = execute_group(
                group,
                self.workloads,
                store=self.trace_store,
                deadline=budget,
                on_executed=per_request,
                resilience=self.resilience,
            )
            executed.extend(chunk)
            self.trace_stats.merge(stats)
        return executed


def _watchdog_worker(conn) -> None:
    """Worker-process loop of the watchdogged :class:`MultiprocessRunner`.

    Receives ``(index, requests, store_dir)`` task tuples over its pipe and
    answers with ``("hb", index)`` after every completed request, then
    ``("done", index, outcome)`` — or ``("err", index, message)`` if the
    chunk raised something the per-request machinery does not absorb.  A
    ``None`` task means exit.
    """

    try:
        while True:
            task = conn.recv()
            if task is None:
                return
            index, requests, store_dir = task
            store = TraceStore(store_dir) if store_dir else None
            try:
                outcome = execute_group(
                    requests,
                    store=store,
                    heartbeat=lambda: conn.send(("hb", index)),
                )
                conn.send(("done", index, outcome))
            except Exception as error:  # noqa: BLE001 - forwarded to parent
                conn.send(("err", index, f"{type(error).__name__}: {error}"))
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
    counts its own store hits.  Falls back to serial execution when there
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
            fallback = SerialRunner(workloads=self.workloads, trace_store=self.trace_store)
            executed = fallback.run(requests, on_executed=on_executed, deadline=budget)
            self.trace_stats = fallback.trace_stats
            self.resilience = fallback.resilience
            return executed
        self.trace_stats = TraceStoreStats()
        self.resilience = ResilienceStats()
        # NOTE: ``is not None`` — TraceStore defines __len__, so an empty
        # (cold) store is falsy and a bare truthiness test would silently
        # disable worker-side persistence on exactly the runs that need it.
        store_dir = (
            str(self.trace_store.directory) if self.trace_store is not None else None
        )
        outcomes = self._run_watchdogged(chunks, store_dir, budget, on_executed)
        executed: list[ExecutedRequest] = []
        for chunk_executed, chunk_stats in outcomes:
            executed.extend(chunk_executed)
            if chunk_stats is not None:
                self.trace_stats.merge(chunk_stats)
        return executed

    # ----------------------------------------------------------- watchdog

    def _run_watchdogged(
        self,
        chunks: list[list[SimRequest]],
        store_dir: Optional[str],
        budget: Optional[Deadline],
        on_executed: Optional[ExecutedCallback],
    ) -> list[tuple[list[ExecutedRequest], Optional[TraceStoreStats]]]:
        """Supervise the worker fleet until every chunk has an outcome."""

        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
        clock = self._clock
        total = len(chunks)
        pending: deque[int] = deque(range(total))
        attempts = [0] * total
        # Chunk outcome: (executed, trace_stats_or_None).
        outcomes: dict[int, tuple[list[ExecutedRequest], Optional[TraceStoreStats]]] = {}
        fleet_size = min(self.workers, total)
        respawns_left = (
            self.respawn_limit if self.respawn_limit is not None else 2 * fleet_size
        )

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
            outcome: tuple[list[ExecutedRequest], Optional[TraceStoreStats]],
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
            finish_chunk(index, (executed, None))

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
                slot.conn.send((index, chunks[index], store_dir))
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
                            _kind, index, outcome = message
                            finish_chunk(index, outcome)
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
                    ([_deadline_failure(r, budget) for r in chunk], None),
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
                resilience=self.resilience,
            )
            finish_chunk(index, outcome)

        return [outcomes[index] for index in range(total)]
