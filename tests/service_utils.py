"""Harness utilities for the service test tier.

Provides:

* :class:`ServerThread` — a :class:`~repro.service.ReproServer` running on
  its own event loop in a background thread, so blocking
  :class:`~repro.service.ServiceClient` calls in the test body talk to a
  live daemon over loopback.
* Deterministic *instrumented workloads* for fault injection, registered
  under test-only names and cleaned out of the global registry afterwards
  (``tests/test_registry.py`` asserts its exact contents):

  - ``svcgate``  — blocks in ``_build_data`` while a hold-file exists, so
    tests control exactly when a chunk's simulation can proceed (no sleeps
    for *ordering*; the hold-file is the synchronisation primitive).
  - ``svccrashonce`` — SIGKILLs its worker process the first time a given
    seed is built (leaving a marker file), then behaves normally: the
    pool's retry succeeds on the second attempt.
  - ``svccrashalways`` — SIGKILLs the worker on every attempt, driving the
    bounded-retry → labelled-failure path.

  The workloads coordinate with the test through files under the directory
  named by the ``REPRO_SVC_TEST_DIR`` environment variable, which the pool
  workers inherit when they fork.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import signal
import threading
import time
from typing import Optional

from repro.service import ReproServer
from repro.workloads.intsort import IntSortWorkload
from repro.workloads.registry import REGISTRY, register_workload

#: Environment variable naming the gate/marker directory for the
#: instrumented workloads.  Read inside the (forked) pool workers.
SVC_TEST_DIR_ENV = "REPRO_SVC_TEST_DIR"


def _test_dir() -> str:
    directory = os.environ.get(SVC_TEST_DIR_ENV)
    assert directory, f"{SVC_TEST_DIR_ENV} must be set before building test workloads"
    return directory


class SvcGateWorkload(IntSortWorkload):
    """Blocks workload construction while ``hold-<seed>`` exists."""

    name = "svcgate"

    def _build_data(self) -> None:
        hold = os.path.join(_test_dir(), f"hold-{self.seed}")
        while os.path.exists(hold):
            time.sleep(0.002)
        super()._build_data()


class SvcCrashOnceWorkload(IntSortWorkload):
    """Kills its worker process on the first build of each seed."""

    name = "svccrashonce"

    def _build_data(self) -> None:
        marker = os.path.join(_test_dir(), f"crashed-{self.seed}")
        if not os.path.exists(marker):
            with open(marker, "w"):
                pass
            os.kill(os.getpid(), signal.SIGKILL)
        super()._build_data()


class SvcCrashAlwaysWorkload(IntSortWorkload):
    """Kills its worker process on every build attempt."""

    name = "svccrashalways"

    def _build_data(self) -> None:
        os.kill(os.getpid(), signal.SIGKILL)


_TEST_WORKLOADS = (SvcGateWorkload, SvcCrashOnceWorkload, SvcCrashAlwaysWorkload)


@contextlib.contextmanager
def registered_test_workloads():
    """Register the instrumented workloads; always remove them on exit.

    Registration must happen before the daemon's pool forks its workers so
    the children inherit it.  Cleanup keeps the global registry exactly as
    the rest of the suite expects.
    """

    added = []
    for cls in _TEST_WORKLOADS:
        if cls.name not in REGISTRY:
            register_workload(scales=("tiny",))(cls)
            added.append(cls.name)
    try:
        yield
    finally:
        for name in added:
            REGISTRY._specs.pop(name, None)


class ServerThread:
    """A live daemon on a background event loop; ``with`` for lifecycle."""

    def __init__(self, **server_kwargs) -> None:
        server_kwargs.setdefault("trace_store", "off")
        server_kwargs.setdefault("workers", 2)
        self._kwargs = server_kwargs
        self.server: Optional[ReproServer] = None
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self._started = threading.Event()
        self._failure: Optional[BaseException] = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    @property
    def address(self) -> str:
        assert self.server is not None
        return self.server.address

    def _run(self) -> None:
        async def serve() -> None:
            try:
                server = ReproServer(**self._kwargs)
                await server.start()
            except BaseException as error:  # surfaced in __enter__
                self._failure = error
                self._started.set()
                raise
            self.server = server
            self.loop = asyncio.get_running_loop()
            self._started.set()
            await server.wait_closed()

        try:
            asyncio.run(serve())
        except BaseException:
            pass

    def __enter__(self) -> "ServerThread":
        self._thread.start()
        assert self._started.wait(30), "daemon failed to start in time"
        if self._failure is not None:
            raise self._failure
        return self

    def stop(self, timeout: float = 60.0) -> None:
        if self.loop is not None and self.server is not None:
            with contextlib.suppress(RuntimeError):
                self.loop.call_soon_threadsafe(self.server.request_shutdown)
        self._thread.join(timeout)
        assert not self._thread.is_alive(), "daemon failed to drain and stop"

    def __exit__(self, *exc_info) -> None:
        self.stop()
