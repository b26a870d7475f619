"""Client library for the simulation service daemon.

Three layers, lowest to highest:

* :class:`ServiceClient` — a blocking socket client speaking the
  newline-delimited JSON protocol: connect (with exponential-backoff
  retries), handshake, :meth:`~ServiceClient.submit` a list of requests and
  stream progress events until ``done``.  The split
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
import time
from typing import Any, Callable, Iterator, Optional, Sequence, Union

from ..errors import ServiceError, ServiceProtocolError
from ..resilience import RetryPolicy
from ..sim.engine import BatchResult, EngineStats, SimPlan, SimRequest
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

#: Upper bound on admission-control rejections one ``submit`` call will
#: retry through before giving up.  Deliberately generous: each retry waits
#: at least the server's ``retry_after``, so a busy-but-progressing daemon
#: is eventually admitted, while a wedged one still cannot loop forever.
DEFAULT_REJECTION_LIMIT = 100


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
    """Blocking NDJSON client for one daemon connection."""

    def __init__(
        self,
        address: str,
        *,
        timeout: Optional[float] = 300.0,
        connect_retries: int = 5,
        backoff: float = 0.05,
        name: Optional[str] = None,
        retry_policy: Optional[RetryPolicy] = None,
        rejection_limit: int = DEFAULT_REJECTION_LIMIT,
    ) -> None:
        self.address = address
        self.timeout = timeout
        self.connect_retries = connect_retries
        self.backoff = backoff
        self.name = name or f"client-{os.getpid()}"
        #: Backoff schedule shared by connects, resubmits after connection
        #: loss, and admission-control rejections.  Capped and seeded with
        #: the client name, so concurrent clients decorrelate their retries
        #: instead of hammering the daemon in lockstep.
        self.retry_policy = (
            retry_policy
            if retry_policy is not None
            else RetryPolicy(
                max_attempts=connect_retries + 1,
                base_delay=backoff,
                seed=self.name,
            )
        )
        self.rejection_limit = rejection_limit
        self.welcome: Optional[dict[str, Any]] = None
        self._sock: Optional[socket.socket] = None
        self._file = None
        self._ids = itertools.count(1)
        self._sleep: Callable[[float], None] = time.sleep
        self.connect()

    # ------------------------------------------------------------ transport

    def connect(self) -> None:
        """(Re)connect with capped, jittered backoff, then handshake."""

        self.close()
        target = parse_address(self.address)
        last_error: Optional[Exception] = None
        for attempt in range(self.retry_policy.max_attempts):
            if attempt:
                self._sleep(self.retry_policy.delay(attempt - 1))
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
                self._send({"type": "hello", "client": self.name})
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
            f"after {self.retry_policy.max_attempts} attempts: {last_error}"
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
        and resubmits — safe because nothing was scheduled yet.  After
        acceptance a connection loss is surfaced as :class:`ServiceError`:
        the server has cancelled our pending work on disconnect, and the
        caller decides whether to retry the whole plan (a retry is cheap —
        completed digests are served from the daemon's memo).

        A ``rejected`` answer (admission control) is honored
        by sleeping at least the server's ``retry_after`` — and at least
        this client's own backoff for the attempt — then resubmitting, up
        to :attr:`rejection_limit` times.  Rejections do not consume
        connection-retry attempts: being told "later" is flow control, not
        a fault.
        """

        rejections = 0
        attempt = 0
        while attempt < self.retry_policy.max_attempts:
            if self._sock is None:
                self.connect()
            try:
                sid = self.submit_nowait(requests, deadline=deadline)
            except ServiceError:
                attempt += 1
                if attempt >= self.retry_policy.max_attempts:
                    raise
                self.close()
                continue
            accepted = False
            rejected = False
            while True:
                try:
                    event = self.read_event()
                except ServiceError:
                    attempt += 1
                    if accepted or attempt >= self.retry_policy.max_attempts:
                        raise
                    self.close()
                    break
                if event.get("id") not in (None, sid):
                    continue
                if on_event is not None:
                    on_event(event)
                kind = event.get("type")
                if kind == "accepted":
                    accepted = True
                elif kind == "rejected":
                    rejections += 1
                    if rejections > self.rejection_limit:
                        raise ServiceError(
                            f"service kept rejecting submission "
                            f"({event.get('reason')}: {event.get('message')}) "
                            f"after {self.rejection_limit} retries"
                        )
                    retry_after = float(event.get("retry_after") or 0.0)
                    backoff = self.retry_policy.delay(
                        min(rejections - 1, self.retry_policy.retries)
                    )
                    self._sleep(max(retry_after, backoff))
                    rejected = True
                    break
                elif kind == "done":
                    return event
                elif kind == "error":
                    raise ServiceError(f"service rejected submission: {event.get('message')}")
            if rejected:
                continue  # backed off; resubmit without burning an attempt
            # fell out of the read loop pre-acceptance: reconnect + resubmit
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

        def count_rejections(event: dict[str, Any]) -> None:
            if event.get("type") == "rejected":
                stats.rejected += 1

        try:
            done = self.client.submit(
                requests, on_event=count_rejections, deadline=self.deadline
            )
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
    extra_args: Sequence[str] = (),
    startup_timeout: float = 60.0,
) -> Iterator[tuple[subprocess.Popen, str]]:
    """Start ``python -m repro.service``; yield ``(process, address)``.

    A context manager so the child can never be leaked: on exit — normal,
    test failure, or an exception during startup itself — a still-running
    daemon is killed and reaped.  A body that already shut the daemon down
    (drain, SIGTERM) sees no interference: an exited child is only reaped.
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
    command += list(extra_args)
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
    """Wait for the daemon's ``listening`` line; return its address."""

    assert process.stdout is not None
    deadline = time.monotonic() + startup_timeout
    line = b""
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if line:
            break
        if process.poll() is not None:
            raise ServiceError(
                f"service daemon exited during startup (code {process.returncode})"
            )
    try:
        announcement = json.loads(line)
        if announcement.get("event") != "listening":
            raise ValueError(announcement)
        return announcement["address"]
    except (ValueError, KeyError) as error:
        raise ServiceError(f"bad daemon announcement {line!r}") from error
