"""The ``repro serve`` daemon: one warm engine shared by every client.

A long-lived asyncio server owning the warm state every invocation of the
batch engine otherwise rebuilds: the in-process result memo, a persistent
:class:`~repro.sim.engine.ResultCache`, the on-disk
:class:`~repro.trace_store.TraceStore`, and a pool of long-lived worker
processes whose compiled-kernel caches stay hot across chunks.  Clients
submit plans over the newline-delimited JSON protocol
(:mod:`repro.service.protocol`) on a TCP or UNIX socket; identical
in-flight requests — across concurrent clients or within one plan — are
deduplicated by the digest-keyed :class:`~repro.service.singleflight.
SingleflightTable` so each unique simulation executes exactly once, and the
:class:`~repro.service.scheduler.FairScheduler` interleaves chunks from
different clients round-robin under load.

Robustness guarantees (exercised by the fault-injection tests):

* a pool worker dying mid-chunk requeues the chunk (bounded retries, then
  a labelled failure delivered to every waiter — nobody hangs);
* a client disconnecting mid-stream cancels its still-queued unique work,
  while singleflight work shared with other clients survives;
* SIGTERM/SIGINT (or a ``shutdown`` message) drains: queued and running
  chunks finish, every pending submission receives its ``done``, new
  submissions are refused, then the process exits;
* **admission control**: a client whose in-flight request
  count would exceed ``--max-inflight``, or any submission arriving while
  the scheduler already holds ``--max-queued-chunks`` chunks, is answered
  with ``rejected`` + ``retry_after`` instead of being queued — one greedy
  client cannot starve the rest, and the queue cannot grow without bound;
* **per-submission deadlines**: a ``deadline`` on the submit message (or
  ``--request-deadline`` as the default) bounds how long a submission may
  wait; on expiry its unresolved requests fail with a retryable label,
  its un-shared queued work is cancelled, and work shared with other
  clients (or already running) continues and warms the caches;
* a malformed submission (bad ``id``, ``deadline`` or request payload) is
  answered with ``error`` before anything is scheduled, and the
  connection stays usable;
* a ``health`` readiness probe (uptime, queue depth, in-flight digests,
  pool generation, cache state, draining flag).
"""

from __future__ import annotations

import argparse
import asyncio
import itertools
import json
import math
import os
import signal
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Optional

from ..errors import ServiceProtocolError, WorkerCrashedError
from ..sim.engine import UNAVAILABLE, ResultCache, SimRequest
from ..sim.engine.request import code_fingerprint
from ..trace_store import trace_store_from_spec
from .pool import ChunkPool
from .protocol import (
    MAX_MESSAGE_BYTES,
    PROTOCOL_VERSION,
    decode_message,
    encode_message,
    request_from_wire,
)
from .scheduler import DEFAULT_CHUNK_SIZE, Chunk, FairScheduler, split_requests
from .singleflight import SingleflightTable

#: Default total execution attempts per chunk before its requests are
#: failed to their waiters (1 first try + 2 crash retries).
DEFAULT_MAX_ATTEMPTS = 3

#: Default ``retry_after`` hint (seconds) carried on ``rejected`` messages.
DEFAULT_RETRY_AFTER = 0.5


@dataclass
class ServiceStats:
    """Daemon-lifetime counters, served verbatim on a ``stats`` message."""

    connections: int = 0
    submissions: int = 0
    submitted: int = 0
    unique: int = 0
    deduplicated: int = 0
    memo_hits: int = 0
    cache_hits: int = 0
    joined: int = 0
    scheduled: int = 0
    executed: int = 0
    unavailable: int = 0
    failed: int = 0
    failures: dict[str, int] = field(default_factory=dict)
    cancelled: int = 0
    crashes: int = 0
    requeued: int = 0
    #: Submissions refused because the client exceeded its in-flight quota.
    rejected_quota: int = 0
    #: Submissions refused because the chunk queue was at capacity.
    rejected_queue: int = 0
    #: Requests failed to their submission because its deadline expired.
    expired: int = 0
    #: ``health`` probes answered.
    health_probes: int = 0
    chunks_dispatched: int = 0
    trace_hits: int = 0
    trace_built: int = 0
    trace_stored: int = 0

    def as_dict(self) -> dict[str, Any]:
        data = self.__dict__.copy()
        data["failures"] = dict(self.failures)
        return data


class _Connection:
    """One connected client: its writer queue and live submissions."""

    _tokens = itertools.count(1)

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.token = next(self._tokens)
        self.writer = writer
        self.outbox: asyncio.Queue[Optional[bytes]] = asyncio.Queue()
        self.submissions: dict[Any, "_Submission"] = {}
        self.closed = False

    def send(self, message: dict[str, Any]) -> None:
        if not self.closed:
            self.outbox.put_nowait(encode_message(message))

    def close_outbox(self) -> None:
        if not self.closed:
            self.closed = True
            self.outbox.put_nowait(None)

    async def pump_outbox(self) -> None:
        """Serialize all writes to this client through one task."""

        try:
            while True:
                data = await self.outbox.get()
                if data is None:
                    break
                self.writer.write(data)
                await self.writer.drain()
        except (ConnectionError, asyncio.CancelledError, OSError):
            pass
        finally:
            try:
                self.writer.close()
            except OSError:  # pragma: no cover - already torn down
                pass


class _Submission:
    """One ``submit`` message: positional requests and their outcomes."""

    def __init__(self, conn: _Connection, sid: Any, requests: list[SimRequest]) -> None:
        self.conn = conn
        self.sid = sid
        self.digests = [request.digest for request in requests]
        self.unique: list[SimRequest] = []
        seen: set[str] = set()
        for request in requests:
            if request.digest not in seen:
                seen.add(request.digest)
                self.unique.append(request)
        self.outcomes: dict[str, dict[str, Any]] = {}
        self.remaining: set[str] = set()
        #: Deadline timer (``loop.call_later`` handle) when one applies.
        self.deadline_handle: Optional[asyncio.TimerHandle] = None
        self.deadline_seconds: Optional[float] = None
        self.counts: dict[str, Any] = {
            "submitted": len(requests),
            "unique": len(self.unique),
            "deduplicated": len(requests) - len(self.unique),
            "memo_hits": 0,
            "cache_hits": 0,
            "joined": 0,
            "scheduled": 0,
            "executed": 0,
            "unavailable": 0,
            "failed": 0,
            "failures": {},
        }

    def deliver(self, digest: str, outcome: dict[str, Any]) -> bool:
        """Record one resolved digest; ``True`` when the submission is done."""

        self.outcomes[digest] = outcome
        self.remaining.discard(digest)
        return not self.remaining

    def cancel_deadline(self) -> None:
        if self.deadline_handle is not None:
            self.deadline_handle.cancel()
            self.deadline_handle = None

    @property
    def total(self) -> int:
        return len(self.unique)

    @property
    def completed(self) -> int:
        return len(self.outcomes)

    def wire_outcomes(self) -> list[dict[str, Any]]:
        return [self.outcomes[digest] for digest in self.digests]


def _check_submit(message: dict[str, Any]) -> Optional[float]:
    """Validate a submit's ``id`` and ``deadline``; return the deadline.

    Both arrive from outside: an ``id`` keys the connection's submission
    table and is echoed on every reply, and a ``deadline`` arms a timer.
    Anything else raises :class:`ServiceProtocolError` before the daemon
    schedules work.
    """

    sid = message.get("id")
    if sid is not None and (isinstance(sid, bool) or not isinstance(sid, (str, int))):
        raise ServiceProtocolError(
            f"submission id must be a string, an integer or null, not {json.dumps(sid)}"
        )
    deadline = message.get("deadline")
    if deadline is None:
        return None
    seconds = math.nan
    if isinstance(deadline, (int, float)) and not isinstance(deadline, bool):
        try:
            seconds = float(deadline)
        except OverflowError:  # an integer beyond any float
            pass
    if not 0 < seconds < math.inf:
        raise ServiceProtocolError(
            f"deadline must be a finite number of seconds greater than 0, "
            f"not {json.dumps(deadline)}"
        )
    return seconds


class ReproServer:
    """The daemon: warm caches, singleflight table, fair scheduler, pool."""

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        unix_path: Optional[str] = None,
        workers: Optional[int] = None,
        cache_dir: Optional[str] = None,
        trace_store: Optional[str] = None,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        max_inflight: Optional[int] = None,
        max_queued_chunks: Optional[int] = None,
        request_deadline: Optional[float] = None,
        retry_after: float = DEFAULT_RETRY_AFTER,
    ) -> None:
        self.host = host
        self.port = port
        self.unix_path = unix_path
        self.chunk_size = chunk_size
        self.max_attempts = max(1, max_attempts)
        #: Per-client cap on in-flight unique requests.  A client with no
        #: in-flight work is always admitted (otherwise a plan larger than
        #: the quota could never run); further submissions are rejected
        #: while outstanding + new would exceed the cap.
        self.max_inflight = max_inflight
        #: Global cap on queued (not yet running) chunks; submissions
        #: arriving at a full queue are rejected with ``retry_after``.
        self.max_queued_chunks = max_queued_chunks
        #: Default per-submission deadline when the client names none.
        self.request_deadline = request_deadline
        self.retry_after = retry_after
        self._started_at: Optional[float] = None
        self.cache = ResultCache(cache_dir) if cache_dir else None
        store = trace_store_from_spec(trace_store)
        self.pool = ChunkPool(
            workers,
            trace_store_dir=str(store.directory) if store is not None else None,
        )
        self.stats = ServiceStats()
        self._memo: dict[str, dict[str, Any]] = {}
        self._flights = SingleflightTable()
        self._scheduler = FairScheduler()
        self._running: dict[int, Chunk] = {}
        self._connections: set[_Connection] = set()
        self._tasks: set[asyncio.Task] = set()
        self._dispatch_seq = itertools.count(1)
        self._server: Optional[asyncio.base_events.Server] = None
        self._draining = False
        self._stopped: Optional[asyncio.Event] = None

    # ------------------------------------------------------------ lifecycle

    @property
    def address(self) -> str:
        """The bound address in client syntax (``host:port`` / ``unix:path``)."""

        if self.unix_path is not None:
            return f"unix:{self.unix_path}"
        return f"{self.host}:{self.port}"

    async def start(self) -> None:
        self._stopped = asyncio.Event()
        self._started_at = time.monotonic()
        if self.unix_path is not None:
            self._server = await asyncio.start_unix_server(
                self._handle_connection, path=self.unix_path, limit=MAX_MESSAGE_BYTES
            )
        else:
            self._server = await asyncio.start_server(
                self._handle_connection, self.host, self.port, limit=MAX_MESSAGE_BYTES
            )
            self.port = self._server.sockets[0].getsockname()[1]

    def request_shutdown(self) -> None:
        """Begin a graceful drain (SIGTERM / SIGINT / ``shutdown`` message).

        New connections and submissions are refused; queued and running
        work completes and is delivered; then :meth:`wait_closed` returns.
        """

        if self._draining:
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
        self._maybe_finish_drain()

    async def wait_closed(self) -> None:
        """Block until a requested drain completes, then release resources."""

        assert self._stopped is not None, "start() must run first"
        await self._stopped.wait()
        for conn in list(self._connections):
            conn.close_outbox()
        if self._server is not None:
            await self._server.wait_closed()
        # Let writer tasks flush their final done/error messages.
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        self.pool.shutdown()

    def _maybe_finish_drain(self) -> None:
        if (
            self._draining
            and self._stopped is not None
            and not self._running
            and len(self._scheduler) == 0
        ):
            self._stopped.set()

    def _track(self, coro) -> asyncio.Task:
        task = asyncio.create_task(coro)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return task

    # ---------------------------------------------------------- connections

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Connection(writer)
        self._connections.add(conn)
        self.stats.connections += 1
        pump = self._track(conn.pump_outbox())
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionError, OSError, asyncio.LimitOverrunError):
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    message = decode_message(line)
                except ServiceProtocolError as error:
                    conn.send({"type": "error", "message": str(error)})
                    break
                self._handle_message(conn, message)
        finally:
            self._disconnect(conn)
            conn.close_outbox()
            await pump

    def _handle_message(self, conn: _Connection, message: dict[str, Any]) -> None:
        kind = message.get("type")
        if kind == "hello":
            conn.send(
                {
                    "type": "welcome",
                    "server": "repro-serve",
                    "protocol": PROTOCOL_VERSION,
                    "code": code_fingerprint(),
                    "workers": self.pool.workers,
                }
            )
        elif kind == "health":
            self.stats.health_probes += 1
            conn.send(self._health_payload())
        elif kind == "submit":
            self._handle_submit(conn, message)
        elif kind == "stats":
            payload = self.stats.as_dict()
            payload.update(
                type="stats",
                pending_chunks=len(self._scheduler),
                running_chunks=len(self._running),
                in_flight=len(self._flights),
                memo_entries=len(self._memo),
                draining=self._draining,
            )
            conn.send(payload)
        elif kind == "shutdown":
            conn.send({"type": "draining"})
            self.request_shutdown()
        else:
            conn.send({"type": "error", "message": f"unknown message type {kind!r}"})

    def _health_payload(self) -> dict[str, Any]:
        """The readiness snapshot answered to a ``health`` probe."""

        uptime = (
            time.monotonic() - self._started_at if self._started_at is not None else 0.0
        )
        return {
            "type": "health",
            "status": "draining" if self._draining else "ok",
            "protocol": PROTOCOL_VERSION,
            "address": self.address,
            "uptime": uptime,
            "workers": self.pool.workers,
            "pool_generation": self.pool.generation,
            "connections": len(self._connections),
            "queued_chunks": len(self._scheduler),
            "running_chunks": len(self._running),
            "in_flight": len(self._flights),
            "memo_entries": len(self._memo),
            "cache_dir": str(self.cache.directory) if self.cache is not None else None,
            "executed": self.stats.executed,
            "memo_hits": self.stats.memo_hits,
            "cache_hits": self.stats.cache_hits,
            "failed": self.stats.failed,
            "crashes": self.stats.crashes,
        }

    def _disconnect(self, conn: _Connection) -> None:
        """Cancel the client's pending unique work; shared flights survive."""

        self._connections.discard(conn)
        orphaned: set[str] = set()
        for submission in conn.submissions.values():
            submission.cancel_deadline()
            for digest in list(submission.remaining):
                if self._flights.leave(digest, submission):
                    orphaned.add(digest)
        conn.submissions.clear()
        removed = self._scheduler.discard_digests(orphaned)
        self.stats.cancelled += len(removed)
        self._maybe_finish_drain()

    # ----------------------------------------------------------- submission

    def _handle_submit(self, conn: _Connection, message: dict[str, Any]) -> None:
        sid = message.get("id")
        if self._draining:
            conn.send({"type": "error", "id": sid, "message": "server is draining"})
            return
        try:
            deadline = _check_submit(message)
            wire_requests = message["requests"]
            if not isinstance(wire_requests, list):
                raise ServiceProtocolError("'requests' must be a list")
            requests = [request_from_wire(item) for item in wire_requests]
        except (KeyError, ServiceProtocolError) as error:
            conn.send({"type": "error", "id": sid, "message": str(error)})
            return

        rejection = self._admission_check(conn, len(requests))
        if rejection is not None:
            reason, detail = rejection
            conn.send(
                {
                    "type": "rejected",
                    "id": sid,
                    "reason": reason,
                    "message": detail,
                    "retry_after": self.retry_after,
                }
            )
            return

        submission = _Submission(conn, sid, requests)
        conn.submissions[sid] = submission
        counts = submission.counts
        to_schedule: list[SimRequest] = []
        for request in submission.unique:
            digest = request.digest
            outcome = self._memo.get(digest)
            if outcome is not None:
                counts["memo_hits"] += 1
            elif self.cache is not None:
                cached = self.cache.get(digest)
                if cached is UNAVAILABLE:
                    outcome = {"status": "unavailable"}
                elif cached is not None:
                    outcome = {"status": "ok", "result": cached.as_dict()}
                if outcome is not None:
                    counts["cache_hits"] += 1
                    self._memo[digest] = outcome
            if outcome is not None:
                submission.deliver(digest, outcome)
                continue
            submission.remaining.add(digest)
            if self._flights.join(digest, submission, request=request):
                to_schedule.append(request)
            else:
                counts["joined"] += 1

        chunks = split_requests(to_schedule, conn.token, self.chunk_size)
        for chunk in chunks:
            self._scheduler.add(chunk)
        counts["scheduled"] = len(to_schedule)

        self.stats.submissions += 1
        self.stats.submitted += counts["submitted"]
        self.stats.unique += counts["unique"]
        self.stats.deduplicated += counts["deduplicated"]
        self.stats.memo_hits += counts["memo_hits"]
        self.stats.cache_hits += counts["cache_hits"]
        self.stats.joined += counts["joined"]
        self.stats.scheduled += counts["scheduled"]

        conn.send(
            {
                "type": "accepted",
                "id": sid,
                "submitted": counts["submitted"],
                "unique": counts["unique"],
                "deduplicated": counts["deduplicated"],
                "memo_hits": counts["memo_hits"],
                "cache_hits": counts["cache_hits"],
                "joined": counts["joined"],
                "scheduled": counts["scheduled"],
                "chunks": len(chunks),
            }
        )
        if not submission.remaining:
            self._finish_submission(submission)
        else:
            effective = deadline if deadline is not None else self.request_deadline
            if effective is not None:
                submission.deadline_seconds = effective
                submission.deadline_handle = asyncio.get_running_loop().call_later(
                    effective, self._expire_submission, submission
                )
        self._pump()

    def _admission_check(
        self, conn: _Connection, incoming: int
    ) -> Optional[tuple[str, str]]:
        """Return ``(reason, detail)`` when a submission must be rejected.

        Quota: a client with outstanding work may not push its in-flight
        request count past ``max_inflight`` (a client with *no* outstanding
        work is always admitted, so a plan larger than the quota still
        runs).  Queue: nobody is admitted while the scheduler already holds
        ``max_queued_chunks`` chunks.  Both are pure backpressure — the
        client backs off ``retry_after`` seconds and resubmits.
        """

        if self.max_inflight is not None:
            outstanding = sum(
                len(submission.remaining)
                for submission in conn.submissions.values()
            )
            if outstanding > 0 and outstanding + incoming > self.max_inflight:
                self.stats.rejected_quota += 1
                return (
                    "quota",
                    f"client has {outstanding} requests in flight; "
                    f"{incoming} more would exceed the quota of {self.max_inflight}",
                )
        if self.max_queued_chunks is not None and len(self._scheduler) >= self.max_queued_chunks:
            self.stats.rejected_queue += 1
            return (
                "queue",
                f"{len(self._scheduler)} chunks queued (limit {self.max_queued_chunks})",
            )
        return None

    def _expire_submission(self, submission: _Submission) -> None:
        """Deadline fired: fail what is unresolved, cancel un-shared work.

        Digests shared with other submissions — or already running — keep
        executing and warm the memo/cache; only queued work that nobody
        else waits on is discarded.  The expired submission receives
        ``failed`` outcomes with a retryable label and its ``done``.
        """

        submission.deadline_handle = None
        if submission.conn.submissions.get(submission.sid) is not submission:
            return  # already finished
        by_digest = {request.digest: request for request in submission.unique}
        orphaned: set[str] = set()
        expired = list(submission.remaining)
        for digest in expired:
            if self._flights.leave(digest, submission):
                orphaned.add(digest)
        removed = self._scheduler.discard_digests(orphaned)
        self.stats.cancelled += len(removed)
        self.stats.expired += len(expired)
        for digest in expired:
            request = by_digest[digest]
            failure = (
                f"{request.workload}/{request.mode}: deadline exceeded "
                f"({submission.deadline_seconds:g}s budget in service)"
            )
            counts = submission.counts
            counts["failed"] += 1
            counts["failures"][failure] = counts["failures"].get(failure, 0) + 1
            submission.deliver(digest, {"status": "failed", "failure": failure})
        self._finish_submission(submission)
        self._maybe_finish_drain()

    def _finish_submission(self, submission: _Submission) -> None:
        submission.cancel_deadline()
        submission.conn.send(
            {
                "type": "done",
                "id": submission.sid,
                "outcomes": submission.wire_outcomes(),
                "stats": submission.counts,
            }
        )
        submission.conn.submissions.pop(submission.sid, None)

    # ------------------------------------------------------------- dispatch

    def _pump(self) -> None:
        """Dispatch queued chunks while worker capacity is free."""

        while len(self._running) < self.pool.workers:
            chunk = self._scheduler.next()
            if chunk is None:
                break
            # Drop digests whose flights were cancelled while queued.
            chunk.requests = [
                request for request in chunk.requests if request.digest in self._flights
            ]
            if not chunk.requests:
                continue
            for request in chunk.requests:
                self._flights.start(request.digest)
            chunk.attempts += 1
            self._running[chunk.id] = chunk
            self.stats.chunks_dispatched += 1
            self._notify_chunk(chunk, "chunk-started", seq=next(self._dispatch_seq))
            self._track(self._execute_chunk(chunk))
        self._maybe_finish_drain()

    def _notify_chunk(self, chunk: Chunk, kind: str, **extra: Any) -> None:
        """Tell every waiting submission that a chunk changed state."""

        interested: dict[int, _Submission] = {}
        for request in chunk.requests:
            for submission in self._flights.waiters(request.digest):
                interested[id(submission)] = submission
        for submission in interested.values():
            submission.conn.send(
                {
                    "type": kind,
                    "id": submission.sid,
                    "chunk": chunk.id,
                    "attempt": chunk.attempts,
                    "requests": len(chunk.requests),
                    **extra,
                }
            )

    async def _execute_chunk(self, chunk: Chunk) -> None:
        try:
            executed, trace_stats = await self.pool.run(chunk.requests)
        except WorkerCrashedError as error:
            self._running.pop(chunk.id, None)
            self.stats.crashes += 1
            if chunk.attempts < self.max_attempts:
                for request in chunk.requests:
                    self._flights.requeue(request.digest)
                self.stats.requeued += 1
                self._notify_chunk(chunk, "chunk-requeued", error=str(error))
                self._scheduler.add(chunk, front=True)
            else:
                for request in chunk.requests:
                    label = (
                        f"{request.workload}/{request.mode}: worker crashed "
                        f"(attempt {chunk.attempts}/{self.max_attempts}: {error})"
                    )
                    self._publish(request.digest, None, label)
        except Exception as error:  # defensive: a bug must never hang waiters
            self._running.pop(chunk.id, None)
            for request in chunk.requests:
                self._publish(
                    request.digest,
                    None,
                    f"{request.workload}/{request.mode}: service error: {error}",
                )
        else:
            self._running.pop(chunk.id, None)
            self.stats.executed += len(executed)
            self.stats.trace_hits += trace_stats.hits
            self.stats.trace_built += trace_stats.built
            self.stats.trace_stored += trace_stats.stored
            for digest, result, failure in executed:
                self._publish(digest, result, failure)
        finally:
            self._pump()

    def _publish(self, digest: str, result, failure: Optional[str]) -> None:
        """Fan one resolved digest out to every waiter; warm the caches."""

        waiters, request = self._flights.complete(digest)
        if result is not None:
            outcome = {"status": "ok", "result": result.as_dict()}
            self._memo[digest] = outcome
            if self.cache is not None and request is not None:
                self.cache.put(request, result)
        elif failure is None:
            outcome = {"status": "unavailable"}
            self.stats.unavailable += 1
            self._memo[digest] = outcome
            if self.cache is not None and request is not None:
                self.cache.put_unavailable(request)
        else:
            # Genuine failures are delivered but never memoised: a later
            # submission retries, mirroring the engine's transient-error
            # semantics.
            outcome = {"status": "failed", "failure": failure}
            self.stats.failed += 1
            self.stats.failures[failure] = self.stats.failures.get(failure, 0) + 1

        for submission in waiters:
            counts = submission.counts
            counts["executed"] += 1
            if outcome["status"] == "unavailable":
                counts["unavailable"] += 1
            elif outcome["status"] == "failed":
                counts["failed"] += 1
                counts["failures"][failure] = counts["failures"].get(failure, 0) + 1
            if submission.deliver(digest, outcome):
                self._finish_submission(submission)
            else:
                submission.conn.send(
                    {
                        "type": "progress",
                        "id": submission.sid,
                        "completed": submission.completed,
                        "total": submission.total,
                    }
                )


# -------------------------------------------------------------- entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Run the long-lived simulation service daemon.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address (default: loopback)")
    parser.add_argument("--port", type=int, default=0,
                        help="TCP port; 0 picks a free port (announced on stdout)")
    parser.add_argument("--unix", metavar="PATH", default=None,
                        help="serve on a UNIX socket instead of TCP")
    parser.add_argument("--workers", type=int, default=None, metavar="N",
                        help="pool worker processes (default: all cores)")
    parser.add_argument("--cache", metavar="DIR", default=None,
                        help="persistent result-cache directory shared by all clients")
    parser.add_argument("--trace-store", metavar="DIR|off", default=None,
                        help="trace-artifact store directory, 'off' to disable, "
                             "default: $REPRO_TRACE_STORE or the per-user store")
    parser.add_argument("--chunk-size", type=int, default=DEFAULT_CHUNK_SIZE,
                        help=f"max requests per scheduled chunk (default {DEFAULT_CHUNK_SIZE})")
    parser.add_argument("--max-attempts", type=int, default=DEFAULT_MAX_ATTEMPTS,
                        help="execution attempts per chunk before its requests fail "
                             f"(default {DEFAULT_MAX_ATTEMPTS})")
    parser.add_argument("--max-inflight", type=int, default=None, metavar="N",
                        help="per-client in-flight request quota; further submissions "
                             "are rejected with retry_after (default: unlimited)")
    parser.add_argument("--max-queued-chunks", type=int, default=None, metavar="N",
                        help="reject submissions while this many chunks are queued "
                             "(default: unlimited)")
    parser.add_argument("--request-deadline", type=float, default=None, metavar="SECONDS",
                        help="default per-submission deadline; expired submissions get "
                             "retryable failures (default: none)")
    parser.add_argument("--retry-after", type=float, default=DEFAULT_RETRY_AFTER,
                        help="backoff hint carried on rejected submissions "
                             f"(default {DEFAULT_RETRY_AFTER}s)")
    return parser


async def _serve(args: argparse.Namespace) -> None:
    server = ReproServer(
        host=args.host,
        port=args.port,
        unix_path=args.unix,
        workers=args.workers,
        cache_dir=args.cache,
        trace_store=args.trace_store,
        chunk_size=args.chunk_size,
        max_attempts=args.max_attempts,
        max_inflight=args.max_inflight,
        max_queued_chunks=args.max_queued_chunks,
        request_deadline=args.request_deadline,
        retry_after=args.retry_after,
    )
    await server.start()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, server.request_shutdown)
        except NotImplementedError:  # pragma: no cover - non-POSIX loop
            pass
    announcement = {
        "event": "listening",
        "address": server.address,
        "workers": server.pool.workers,
        "pid": os.getpid(),
    }
    if server.unix_path is None:
        announcement.update(host=server.host, port=server.port)
    print(json.dumps(announcement), flush=True)
    await server.wait_closed()


def main(argv: Optional[list[str]] = None) -> int:
    """``repro serve`` / ``python -m repro.service`` entry point."""

    args = _build_parser().parse_args(argv)
    try:
        asyncio.run(_serve(args))
    except KeyboardInterrupt:  # pragma: no cover - direct ^C without handler
        return 130
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
