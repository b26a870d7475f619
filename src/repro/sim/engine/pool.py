"""One pool of supervised worker processes for every multiprocess caller.

:class:`~repro.sim.engine.runner.MultiprocessRunner` and the ``repro
serve`` daemon both hand chunks of requests to :class:`WorkerPool`.  Each
worker is one long-lived process on one duplex pipe, running chunks
through :func:`~repro.sim.engine.runner.execute_group` (the serial path,
so results are bit-identical) with its kernel cache warm across chunks.

A worker sends a heartbeat after every finished request, carrying that
request's result, so a caller can bank each result as it lands.  One that
dies (EOF on its pipe) or stays silent for :data:`HANG_TIMEOUT` seconds is
killed, and only the call running on it is affected: :meth:`WorkerPool.run`
re-sends the requests the dead worker had not reported to a fresh process
in the same slot, at most :data:`MAX_ATTEMPTS` times in all, so no
finished request runs twice.  Workers never outlive their parent: a
SIGKILLed daemon or runner orphans none.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import stat
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from ...errors import ChunkFailedError, WorkerCrashedError, WorkerHungError
from ...trace_store import TraceStore, TraceStoreStats

#: Seconds a busy worker may stay silent before it is killed as hung.  A
#: worker only beats between requests, so this must comfortably exceed the
#: longest *single* simulation.
HANG_TIMEOUT = 300.0

#: Total attempts per chunk (one try plus two crash retries) before
#: :meth:`WorkerPool.run` gives up.  Read at call time, so tests can shorten it.
MAX_ATTEMPTS = 3

#: How often a worker checks that the process that started it is alive.
PARENT_POLL_SECONDS = 0.5

#: How long :meth:`WorkerPool.shutdown` gives workers before killing them.
STOP_GRACE_SECONDS = 0.5


def default_workers() -> int:
    """Worker processes to run by default: the CPUs this process may use.

    ``os.cpu_count()`` counts every CPU of the machine, including those an
    affinity mask or cpuset forbids; ``os.sched_getaffinity`` counts only
    the allowed ones, where the platform has it.
    """

    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1  # no affinity API (macOS)


def _close_inherited_sockets(keep: int) -> None:
    """Worker start-up step: drop socket fds inherited from the parent.

    A forked worker inherits every open descriptor, including the daemon's
    accepted client connections.  A worker holding a duplicate of a client
    socket keeps the TCP connection established after the client's own
    ``close()``, so the daemon never reads EOF and cannot cancel that
    client's pending work on disconnect.  The worker's only legitimate
    socket is its own pipe end ``keep`` (a duplex pipe is a socketpair).
    """

    try:
        fds = [int(name) for name in os.listdir("/proc/self/fd")]
    except OSError:  # pragma: no cover - no /proc (non-Linux)
        return
    for fd in fds:
        try:
            if fd != keep and stat.S_ISSOCK(os.fstat(fd).st_mode):
                os.close(fd)
        except OSError:
            continue


def _reset_signal_handling() -> None:
    """Worker start-up step: drop the parent's signal handling.

    A forked worker inherits the daemon's asyncio SIGTERM/SIGINT handling:
    a no-op Python handler plus a wakeup fd into the daemon's event loop,
    under which SIGTERM cannot end the worker.  Restore the default, so an
    explicit SIGTERM ends it.  SIGINT is ignored instead: a terminal's
    Ctrl-C reaches the whole process group, and the daemon answers it by
    draining, which needs its running chunks to finish.
    """

    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _exit_with_parent() -> None:
    """Worker start-up step: exit as soon as the parent is gone.

    An idle worker blocks on its pipe forever, so a parent that dies
    without shutting its pool down (SIGKILL, OOM kill) would orphan it.  A
    daemon thread polls the parent PID and ends the process once it
    changes, i.e. once the worker has been re-parented.
    """

    parent = os.getppid()

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(PARENT_POLL_SECONDS)
        os._exit(1)

    threading.Thread(target=watch, name="repro-parent-watch", daemon=True).start()


def _worker_main(conn) -> None:
    """Worker loop: ``(requests, store_dir)`` in; heartbeats and counters out.

    Answers ``("hb", executed)`` after every finished request, carrying its
    ``ExecutedRequest``, then ``("done", trace_stats)``, or ``("err",
    text)`` if the chunk raised.  Each result crosses the pipe once, in its
    heartbeat.  ``None`` exits.
    """

    from .runner import execute_group  # runner.py imports this module

    _close_inherited_sockets(conn.fileno())
    _reset_signal_handling()
    _exit_with_parent()
    try:
        while (task := conn.recv()) is not None:
            requests, store_dir = task
            store = TraceStore(store_dir) if store_dir else None
            try:
                _, stats = execute_group(
                    requests, store=store, on_executed=lambda done: conn.send(("hb", done))
                )
            except Exception as error:  # noqa: BLE001 - reported to the caller
                conn.send(("err", f"{type(error).__name__}: {error}"))
            else:
                conn.send(("done", stats))
    except (EOFError, OSError):  # parent went away
        return


@dataclass(eq=False)
class _Slot:
    """One worker: its process and the parent's end of its pipe."""

    process: Any = None
    conn: Any = None


class WorkerPool:
    """``workers`` supervised worker processes (default: :func:`default_workers`).

    ``trace_store_dir`` names the trace store the workers resolve chunks
    through; ``None`` disables the trace tier in the workers.
    """

    def __init__(
        self, workers: Optional[int] = None, *, trace_store_dir: Optional[str] = None
    ) -> None:
        self.workers = workers if workers is not None else default_workers()
        if self.workers < 1:
            raise ValueError("WorkerPool needs at least one worker")
        self.trace_store_dir = trace_store_dir
        methods = multiprocessing.get_all_start_methods()
        self._context = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
        self._cond = threading.Condition()
        self._idle = [_Slot() for _ in range(self.workers)]
        self._busy: set[_Slot] = set()
        self._closed = False
        #: Workers killed after a crash or a hang since start.
        self.replaced = 0

    def run(
        self,
        requests: Sequence,
        on_executed: Optional[Callable[[Any], None]] = None,
        on_retry: Optional[Callable[[int, WorkerCrashedError], None]] = None,
    ) -> tuple[list, TraceStoreStats]:
        """Execute one chunk on a free worker; return ``execute_group``'s outcome.

        ``on_executed`` is called with each request's ``ExecutedRequest`` as
        its heartbeat arrives, on the calling thread.  When the worker dies
        or hangs, the requests it had not reported go to a fresh process in
        the same slot, at most :data:`MAX_ATTEMPTS` times in all, and
        ``on_retry(attempt, error)`` hears of each retry.  The outcome lists
        every reported request and the last attempt's trace counters.

        Blocks, first for a free worker if all are busy; thread-safe.
        Raises :class:`WorkerHungError` or :class:`WorkerCrashedError` when
        the attempts run out ("gave up after N attempts"; a worker that
        cannot start counts as crashed) or the pool is shut down, which is
        never retried, and :class:`ChunkFailedError` if the chunk raised
        inside the worker, which a retry would only repeat.
        """

        with self._cond:
            self._cond.wait_for(lambda: self._idle or self._closed)
            if self._closed:
                raise WorkerCrashedError("worker pool is shut down")
            slot = self._idle.pop()
            self._busy.add(slot)
        executed: list = []
        try:
            remaining = list(requests)
            for attempt in range(1, MAX_ATTEMPTS + 1):
                try:
                    return executed, self._execute(slot, remaining, executed, on_executed)
                except WorkerCrashedError as error:
                    if self._closed:
                        raise
                    if attempt == MAX_ATTEMPTS:
                        raise type(error)(f"{error}; gave up after {attempt} attempts") from error
                    if on_retry is not None:
                        on_retry(attempt, error)
                    finished = {digest for digest, _, _ in executed}
                    remaining = [r for r in remaining if r.digest not in finished]
        finally:
            with self._cond:
                self._busy.discard(slot)
                closed = self._closed
                if not closed:
                    self._idle.append(slot)
                self._cond.notify_all()
            if closed:
                self._stop(slot)

    def _execute(
        self, slot: _Slot, requests: list, executed: list, on_executed: Optional[Callable]
    ) -> TraceStoreStats:
        """One attempt: send ``requests``, bank each heartbeat in ``executed``."""

        if slot.process is None:
            self._start(slot)
        try:
            slot.conn.send((requests, self.trace_store_dir))
            while True:
                if not slot.conn.poll(HANG_TIMEOUT):
                    self._retire(slot)
                    raise WorkerHungError(f"worker hung (no heartbeat for {HANG_TIMEOUT:g}s)")
                kind, payload = slot.conn.recv()
                if kind == "hb":
                    executed.append(payload)
                    if on_executed is not None:
                        on_executed(payload)
                elif kind == "done":
                    return payload
                else:
                    raise ChunkFailedError(payload)
        except (EOFError, OSError) as error:
            exitcode = self._retire(slot)
            raise WorkerCrashedError(f"worker crashed (exit code {exitcode})") from error

    def _start(self, slot: _Slot) -> None:
        parent_conn, child_conn = self._context.Pipe(duplex=True)
        process = self._context.Process(target=_worker_main, args=(child_conn,), daemon=True)
        try:
            process.start()
        except OSError as error:  # out of processes or memory
            parent_conn.close()
            raise WorkerCrashedError(f"worker could not start: {error}") from error
        finally:
            child_conn.close()
        with self._cond:
            # Published under the lock: shutdown() either sees (and kills)
            # this process or this thread sees the pool closed.
            slot.process, slot.conn = process, parent_conn
            if self._closed:
                raise WorkerCrashedError("worker pool is shut down")

    def _retire(self, slot: _Slot) -> Optional[int]:
        """Kill and join a dead or hung worker; return its exit code."""

        process, conn = slot.process, slot.conn
        with self._cond:  # never concurrent with shutdown()'s kill
            slot.process = slot.conn = None
            process.kill()
            process.join()
            self.replaced += 1
        conn.close()
        return process.exitcode

    def _stop(self, slot: _Slot) -> None:
        """Stop an idle worker: ask it to exit, kill it after the grace."""

        process, conn = slot.process, slot.conn
        if process is None:
            return
        slot.process = slot.conn = None
        try:
            conn.send(None)
        except OSError:  # already dead
            pass
        process.join(STOP_GRACE_SECONDS)
        if process.is_alive():
            process.kill()
            process.join()
        conn.close()

    def shutdown(self) -> None:
        """Stop every worker; later :meth:`run` calls raise.  Idempotent.

        Busy workers get :data:`STOP_GRACE_SECONDS` and are then killed, so
        every thread blocked in :meth:`run` returns at once and joins its
        own worker.
        """

        with self._cond:
            if self._closed:
                return
            self._closed = True
            idle, self._idle = self._idle, []
            self._cond.notify_all()
        for slot in idle:
            self._stop(slot)
        with self._cond:
            self._cond.wait_for(lambda: not self._busy, timeout=STOP_GRACE_SECONDS)
            for slot in self._busy:
                if slot.process is not None:
                    slot.process.kill()
