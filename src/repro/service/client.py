"""Client library for the simulation service daemon.

Three layers, lowest to highest:

* :class:`ServiceClient` — a blocking socket client speaking the
  newline-delimited JSON protocol: connect (retrying with capped
  exponential backoff), handshake, :meth:`~ServiceClient.submit` a list of
  requests and stream progress events until ``done``.  The split
  :meth:`~ServiceClient.submit_nowait` / :meth:`~ServiceClient.read_event`
  pair exposes individual protocol events for tests that synchronise on
  them (the fault-injection tier never sleeps for ordering).
* :class:`ServiceEngine` — the drop-in :class:`~repro.sim.engine.SimEngine`
  facade: it submits each plan once to one daemon and maps the positional
  ``done`` outcomes back onto local digests.
* :func:`spawn_local_daemon` — a context manager starting
  ``python -m repro.service`` as a subprocess; the child is killed on exit
  even when startup fails or the body raises.

Requests travel as declarative wire payloads (never digests), so client and
server agree on *what* to simulate even across source revisions; results
come back as exact-round-trip :meth:`~repro.sim.results.SimulationResult.
as_dict` payloads.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import socket
import subprocess
import sys
import threading
import time
from typing import Any, Callable, Iterator, Optional, Sequence, Union

from ..errors import ServiceError, ServiceProtocolError
from ..sim.engine import DEADLINE_FAILURE_TEXT, BatchResult, EngineStats, SimPlan, SimRequest
from ..sim.results import SimulationResult
from .protocol import (
    MAX_MESSAGE_BYTES,
    PROTOCOL_VERSION,
    decode_message,
    encode_message,
    request_to_wire,
)

#: Event callback: receives every server message for one submission.
EventCallback = Callable[[dict[str, Any]], None]

#: Wait before reconnect retry ``n`` (0-based) is ``min(BACKOFF_BASE * 2**n,
#: BACKOFF_CAP)`` seconds: the cap keeps a long outage from stretching the
#: wait without bound.
BACKOFF_BASE = 0.05
BACKOFF_CAP = 2.0


def parse_address(address: str) -> Union[tuple[str, int], str]:
    """Parse ``host:port`` or ``unix:/path`` into connectable form."""

    if address.startswith("unix:"):
        path = address[len("unix:"):]
        if not path:
            raise ServiceError(f"empty UNIX socket path in address {address!r}")
        return path
    host, sep, port = address.rpartition(":")
    if not sep or not host:
        raise ServiceError(
            f"service address {address!r} is not 'host:port' or 'unix:/path'"
        )
    try:
        return (host, int(port))
    except ValueError as error:
        raise ServiceError(f"bad port in service address {address!r}") from error


class ServiceClient:
    """Blocking NDJSON client for one daemon connection.

    ``timeout`` bounds every socket operation; ``connect_retries`` is how
    often a failed connect, or a connection lost before a submission is
    accepted, is retried after a backoff.
    """

    def __init__(
        self,
        address: str,
        *,
        timeout: Optional[float] = 300.0,
        connect_retries: int = 5,
    ) -> None:
        self.address = address
        self.timeout = timeout
        self.connect_retries = connect_retries
        self.welcome: Optional[dict[str, Any]] = None
        self._sock: Optional[socket.socket] = None
        self._file = None
        self._ids = itertools.count(1)
        self.connect()

    # ------------------------------------------------------------ transport

    def connect(self) -> None:
        """(Re)connect with capped exponential backoff, then handshake."""

        self.close()
        target = parse_address(self.address)
        attempts = self.connect_retries + 1
        last_error: Optional[Exception] = None
        for attempt in range(attempts):
            if attempt:
                time.sleep(min(BACKOFF_BASE * 2 ** (attempt - 1), BACKOFF_CAP))
            try:
                if isinstance(target, str):
                    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                    sock.settimeout(self.timeout)
                    sock.connect(target)
                else:
                    sock = socket.create_connection(target, timeout=self.timeout)
            except OSError as error:
                last_error = error
                continue
            self._sock = sock
            self._file = sock.makefile("rb")
            try:
                self._send({"type": "hello", "client": f"client-{os.getpid()}"})
                self.welcome = self.read_event()
                if self.welcome.get("type") != "welcome":
                    raise ServiceProtocolError(
                        f"expected welcome, got {self.welcome.get('type')!r}"
                    )
                protocol = self.welcome.get("protocol")
                if protocol != PROTOCOL_VERSION:
                    raise ServiceProtocolError(
                        f"service at {self.address!r} speaks protocol {protocol!r}; "
                        f"this client speaks protocol {PROTOCOL_VERSION}"
                    )
            except BaseException:
                # A failed handshake must not leak the socket: when the
                # constructor raises, its caller has no object to close.
                self.close()
                raise
            return
        raise ServiceError(
            f"could not connect to service at {self.address!r} "
            f"after {attempts} attempts: {last_error}"
        )

    def close(self) -> None:
        if self._file is not None:
            try:
                self._file.close()
            except OSError:
                pass
            self._file = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    @property
    def connected(self) -> bool:
        return self._sock is not None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _send(self, message: dict[str, Any]) -> None:
        if self._sock is None:
            raise ServiceError("client is not connected")
        try:
            self._sock.sendall(encode_message(message))
        except OSError as error:
            raise ServiceError(f"send to service failed: {error}") from error

    def read_event(self) -> dict[str, Any]:
        """Read one server message (blocking up to ``timeout``)."""

        if self._file is None:
            raise ServiceError("client is not connected")
        try:
            line = self._file.readline(MAX_MESSAGE_BYTES)
        except socket.timeout as error:
            raise ServiceError(
                f"timed out after {self.timeout}s waiting for the service"
            ) from error
        except OSError as error:
            raise ServiceError(f"read from service failed: {error}") from error
        if not line:
            raise ServiceError("service closed the connection")
        return decode_message(line)

    # ------------------------------------------------------------- requests

    def submit_nowait(
        self,
        requests: Sequence[SimRequest],
        *,
        deadline: Optional[float] = None,
    ) -> int:
        """Send one submission; returns its id.  Events via :meth:`read_event`."""

        sid = next(self._ids)
        message: dict[str, Any] = {
            "type": "submit",
            "id": sid,
            "requests": [request_to_wire(request) for request in requests],
        }
        if deadline is not None:
            message["deadline"] = deadline
        self._send(message)
        return sid

    def submit(
        self,
        requests: Sequence[SimRequest],
        on_event: Optional[EventCallback] = None,
        *,
        deadline: Optional[float] = None,
    ) -> dict[str, Any]:
        """Submit and block until ``done``; returns the done message.

        If the connection dies before the submission is ``accepted`` (the
        daemon restarted, a transient network fault), the client reconnects
        and resubmits — safe because nothing was scheduled yet — within
        ``connect_retries + 1`` tries in all.  After acceptance a connection
        loss is surfaced as :class:`ServiceError`: the server has cancelled
        our pending work on disconnect, and the caller decides whether to
        retry the whole plan (a retry is cheap — completed digests are
        served from the daemon's memo).
        """

        attempts = self.connect_retries + 1
        for attempt in range(1, attempts + 1):
            if self._sock is None:
                self.connect()
            try:
                sid = self.submit_nowait(requests, deadline=deadline)
            except ServiceError:
                if attempt == attempts:
                    raise
                self.close()
                continue
            accepted = False
            while True:
                try:
                    event = self.read_event()
                except ServiceError:
                    if accepted or attempt == attempts:
                        raise
                    self.close()
                    break  # lost before acceptance: reconnect and resubmit
                if event.get("id") not in (None, sid):
                    continue
                if on_event is not None:
                    on_event(event)
                kind = event.get("type")
                if kind == "accepted":
                    accepted = True
                elif kind == "done":
                    return event
                elif kind == "error":
                    raise ServiceError(f"service rejected submission: {event.get('message')}")
        raise ServiceError("submission retries exhausted")  # pragma: no cover

    def server_stats(self) -> dict[str, Any]:
        self._send({"type": "stats"})
        while True:
            event = self.read_event()
            if event.get("type") == "stats":
                return event

    def health(self) -> dict[str, Any]:
        """One ``health`` round-trip."""

        self._send({"type": "health"})
        while True:
            event = self.read_event()
            kind = event.get("type")
            if kind == "health":
                return event
            if kind == "error":
                raise ServiceError(f"health probe refused: {event.get('message')}")

    def shutdown_server(self) -> None:
        """Ask the daemon to drain and exit (best-effort)."""

        try:
            self._send({"type": "shutdown"})
            while True:
                if self.read_event().get("type") == "draining":
                    return
        except ServiceError:
            pass


# -------------------------------------------------------- engine-level API


def _absorb_outcome(
    batch: BatchResult, request: SimRequest, outcome: dict[str, Any]
) -> None:
    """Materialise one wire outcome into the batch (results/skips/failures)."""

    stats = batch.stats
    status = outcome.get("status")
    if status == "ok":
        batch.results[request.digest] = SimulationResult.from_dict(outcome["result"])
    elif status == "unavailable":
        batch.skipped.add(request.digest)
        stats.unavailable += 1
    elif status == "failed":
        label = outcome.get("failure") or f"{request.workload}/{request.mode}: service failure"
        batch.skipped.add(request.digest)
        batch.failures[request.digest] = label
        stats.failed += 1
        stats.failures[label] = stats.failures.get(label, 0) + 1
        if DEADLINE_FAILURE_TEXT in label:
            stats.expired += 1
    else:
        raise ServiceProtocolError(f"unknown outcome status {status!r}")


class ServiceEngine:
    """:class:`~repro.sim.engine.SimEngine` facade over one daemon.

    Presents the same ``run(plan)`` / ``simulate(request)`` / lifetime
    ``stats`` surface, so report drivers take ``--service ADDR`` without
    special-casing.  Each plan is submitted once over one
    :class:`ServiceClient`, connected on first use and reconnected on the
    next run after the connection drops.  Outcomes are positional in the
    wire protocol, so the mapping back to local digests never depends on
    client and server computing identical content hashes (they may run
    different source revisions).

    Args:
        address: ``host:port`` or ``unix:/path``; checked at construction.
        timeout: Socket timeout of the connection.
        deadline: Per-``run`` submission deadline forwarded to the daemon.
    """

    def __init__(
        self,
        address: str,
        *,
        timeout: Optional[float] = 600.0,
        deadline: Optional[float] = None,
    ) -> None:
        parse_address(address)
        self.address = address
        self.timeout = timeout
        self.deadline = deadline
        self._client: Optional[ServiceClient] = None
        self.stats = EngineStats(runner="service")

    @property
    def client(self) -> ServiceClient:
        """The connected client, connecting first if there is none."""

        if self._client is None or not self._client.connected:
            self._client = ServiceClient(self.address, timeout=self.timeout)
        return self._client

    def run(self, plan: SimPlan) -> BatchResult:
        requests = list(plan)
        batch = BatchResult()
        stats = batch.stats
        stats.runner = "service"
        stats.submitted = plan.submitted
        stats.unique = len(requests)
        stats.deduplicated = stats.submitted - stats.unique
        if requests:
            self._submit(batch, requests)
        self.stats.merge(stats)
        return batch

    def _submit(self, batch: BatchResult, requests: list[SimRequest]) -> None:
        stats = batch.stats
        try:
            done = self.client.submit(requests, deadline=self.deadline)
        except ServiceError:
            self.close()  # the next run reconnects
            raise
        outcomes = done.get("outcomes")
        if not isinstance(outcomes, list) or len(outcomes) != len(requests):
            raise ServiceProtocolError(
                f"service returned "
                f"{len(outcomes) if isinstance(outcomes, list) else 'no'} "
                f"outcomes for {len(requests)} requests"
            )
        remote = done.get("stats", {})
        # The daemon distinguishes its own reuse tiers (memo, disk cache,
        # joined in-flight work); locally they are all avoided simulations.
        stats.memo_hits = int(remote.get("memo_hits", 0))
        stats.cache_hits = int(remote.get("cache_hits", 0))
        stats.deduplicated += int(remote.get("joined", 0))
        stats.executed = int(remote.get("executed", 0))
        for request, outcome in zip(requests, outcomes):
            _absorb_outcome(batch, request, outcome)

    def simulate(self, request: SimRequest) -> Optional[SimulationResult]:
        batch = self.run(SimPlan([request]))
        return batch.get(request)

    def close(self) -> None:
        if self._client is not None:
            self._client.close()
            self._client = None


# ------------------------------------------------------------ local daemon


@contextlib.contextmanager
def spawn_local_daemon(
    *,
    workers: int = 2,
    cache_dir: Optional[str] = None,
    trace_store: Optional[str] = "off",
    startup_timeout: float = 60.0,
) -> Iterator[tuple[subprocess.Popen, str]]:
    """Start ``python -m repro.service``; yield ``(process, address)``.

    A context manager so the child can never be leaked: on exit — normal,
    test failure, or an exception during startup itself, such as a daemon
    that does not announce itself within ``startup_timeout`` seconds — a
    still-running daemon is killed and reaped.  A body that already shut
    the daemon down (drain, SIGTERM) sees no interference: an exited child
    is only reaped.
    Used by the smoke tool, the benchmark and the fault-injection tests;
    ``trace_store`` defaults to ``"off"`` so spawning a daemon never
    touches the per-user store.
    """

    package_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src_root = os.path.dirname(package_root)
    child_env = dict(os.environ)
    child_env["PYTHONPATH"] = src_root + os.pathsep + child_env.get("PYTHONPATH", "")
    command = [sys.executable, "-m", "repro.service", "--workers", str(workers)]
    if cache_dir is not None:
        command += ["--cache", cache_dir]
    if trace_store is not None:
        command += ["--trace-store", trace_store]
    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=child_env
    )
    try:
        yield process, _read_announcement(process, startup_timeout)
    finally:
        if process.poll() is None:
            process.kill()
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:  # pragma: no cover - kill must reap
            pass
        if process.stdout is not None:
            process.stdout.close()


def _read_announcement(process: subprocess.Popen, startup_timeout: float) -> str:
    """Wait for the daemon's ``listening`` line; return its address.

    The line is read on a helper thread joined with ``startup_timeout``, so
    a child that neither writes nor exits costs its caller that long, not
    forever.  A thread rather than ``select`` because ``select`` takes no
    pipes on Windows; once the caller kills the child, the pipe reaches EOF
    and the thread ends.
    """

    stdout = process.stdout
    assert stdout is not None
    deadline = time.monotonic() + startup_timeout
    late = f"service daemon did not announce itself within {startup_timeout:g}s"
    lines: list[bytes] = []
    reader = threading.Thread(
        target=lambda: lines.append(stdout.readline()),
        name="daemon-announcement",
        daemon=True,
    )
    reader.start()
    reader.join(startup_timeout)
    if not lines:
        raise ServiceError(late)
    line = lines[0]
    if not line:  # EOF: the child is exiting
        try:
            code = process.wait(max(0.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise ServiceError(late) from None
        raise ServiceError(f"service daemon exited during startup (code {code})")
    try:
        announcement = json.loads(line)
        if announcement.get("event") != "listening":
            raise ValueError(announcement)
        return announcement["address"]
    except (ValueError, KeyError) as error:
        raise ServiceError(f"bad daemon announcement {line!r}") from error
