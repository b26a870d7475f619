"""The daemon's process worker pool, with worker-crash detection.

Chunks execute in long-lived worker processes through the same
:func:`~repro.sim.engine.runner.execute_group` path the batch runners use,
so service results are bit-identical to direct engine runs.  Long-lived
workers are the point: each worker's compiled-kernel cache and imported
module state stay warm across every chunk it executes, and all workers
share the parent's on-disk trace store, so the steady state of a busy
daemon emits no traces and compiles no kernels.

A worker that dies mid-chunk (OOM kill, segfault in an extension, fault
injection in tests) breaks the whole :class:`~concurrent.futures.process.
ProcessPoolExecutor`; every in-flight future fails with
``BrokenProcessPool``.  :class:`ChunkPool` converts that into
:class:`~repro.errors.WorkerCrashedError` per chunk and transparently
replaces the executor (once per breakage, guarded by a generation
counter), leaving requeue policy to the server.

Workers never outlive the daemon: each one restores plain signal handling
and exits on its own once its parent is gone, so a SIGKILLed daemon leaves
no orphaned worker behind.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import signal
import stat
import threading
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from typing import Optional, Sequence

from ..errors import WorkerCrashedError
from ..sim.engine import ExecutedRequest, TraceStoreStats, execute_group
from ..trace_store import TraceStore

#: One executed chunk: the per-request outcomes and the trace-tier counters.
ChunkOutcome = tuple[list[ExecutedRequest], TraceStoreStats]

#: How often a worker checks that the daemon that started it is alive.
PARENT_POLL_SECONDS = 0.5


def _close_inherited_sockets() -> None:
    """Worker initializer: drop socket fds inherited from the daemon.

    A forked worker inherits every open descriptor, including the daemon's
    accepted client connections.  A worker holding a duplicate of a client
    socket keeps the TCP connection established after the client's own
    ``close()``, so the daemon never reads EOF and cannot cancel that
    client's pending work on disconnect.  Workers never legitimately use
    sockets — the executor's call/result queues are ``os.pipe()``s — so
    close every inherited socket at worker start.
    """

    try:
        fds = [int(name) for name in os.listdir("/proc/self/fd")]
    except OSError:  # pragma: no cover - no /proc (non-Linux)
        return
    for fd in fds:
        try:
            if stat.S_ISSOCK(os.fstat(fd).st_mode):
                os.close(fd)
        except OSError:
            continue


def _reset_signal_handling() -> None:
    """Worker initializer step: drop the daemon's signal handling.

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
    """Worker initializer step: exit as soon as the daemon is gone.

    An idle worker blocks on its call queue forever, so a daemon that dies
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


def _init_worker() -> None:
    """Pool worker initializer: shed what the worker inherited from the daemon."""

    _close_inherited_sockets()
    _reset_signal_handling()
    _exit_with_parent()


def _run_chunk(payload: tuple[Sequence, Optional[str]]) -> ChunkOutcome:
    """Worker entry point (top-level so it is picklable by name)."""

    requests, store_dir = payload
    store = TraceStore(store_dir) if store_dir else None
    return execute_group(requests, store=store)


class ChunkPool:
    """Process pool executing chunks, resilient to worker death."""

    def __init__(
        self,
        workers: Optional[int] = None,
        *,
        trace_store_dir: Optional[str] = None,
        start_method: Optional[str] = None,
    ) -> None:
        self.workers = workers if workers is not None else (os.cpu_count() or 1)
        if self.workers < 1:
            raise ValueError("ChunkPool needs at least one worker")
        self.trace_store_dir = trace_store_dir
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        self._context = multiprocessing.get_context(start_method)
        self._executor: Optional[ProcessPoolExecutor] = None
        #: Bumped each time a broken executor is retired, so several chunks
        #: crashing together replace the pool exactly once.
        self._generation = 0

    @property
    def generation(self) -> int:
        """How many broken executors have been retired (0 = original pool).

        Served on the ``health`` probe: a climbing generation
        on a quiet daemon is the fingerprint of crashing workers.
        """

        return self._generation

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=self._context,
                initializer=_init_worker,
            )
        return self._executor

    async def run(self, requests: Sequence) -> ChunkOutcome:
        """Execute one chunk; raises :class:`WorkerCrashedError` on a dead worker."""

        loop = asyncio.get_running_loop()
        executor = self._ensure_executor()
        generation = self._generation
        payload = (list(requests), self.trace_store_dir)
        try:
            return await loop.run_in_executor(executor, _run_chunk, payload)
        except BrokenExecutor as error:
            self._retire(generation)
            raise WorkerCrashedError(
                str(error) or "a pool worker process died mid-chunk"
            ) from error

    def _retire(self, generation: int) -> None:
        """Replace a broken executor (idempotent per breakage)."""

        if generation != self._generation or self._executor is None:
            return
        self._generation += 1
        executor, self._executor = self._executor, None
        executor.shutdown(wait=False, cancel_futures=True)

    def shutdown(self) -> None:
        if self._executor is not None:
            executor, self._executor = self._executor, None
            executor.shutdown(wait=False, cancel_futures=True)
