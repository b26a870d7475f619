"""Unit tests for the deadline primitive and the client's retry loops.

Everything here is deterministic and sleep-free: the deadline clock is
injected, the client backoff tests record the delays instead of serving
them, and the resubmission tests talk to a scripted loopback stand-in for
the daemon that plays one fixed reply per connection.
"""

from __future__ import annotations

import contextlib
import socket
import threading

import pytest

from repro.config import SystemConfig
from repro.errors import ServiceError
from repro.resilience import Deadline
from repro.service import PROTOCOL_VERSION, ServiceClient
from repro.service.protocol import decode_message, encode_message
from repro.sim.engine import SimRequest


class TestDeadline:
    def test_remaining_and_expiry_with_fake_clock(self):
        now = [100.0]
        deadline = Deadline(5.0, clock=lambda: now[0])
        assert deadline.remaining() == pytest.approx(5.0)
        assert not deadline.expired
        now[0] = 104.0
        assert deadline.remaining() == pytest.approx(1.0)
        now[0] = 105.0
        assert deadline.expired
        assert deadline.remaining() == 0.0

    def test_after_normalises_none_number_and_deadline(self):
        assert Deadline.after(None) is None
        existing = Deadline(1.0)
        assert Deadline.after(existing) is existing
        fresh = Deadline.after(2.5, clock=lambda: 0.0)
        assert isinstance(fresh, Deadline)
        assert fresh.seconds == 2.5

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            Deadline(-1.0)


class TestClientBackoffCap:
    """Regression: the service client's backoff used to double unbounded."""

    def _refused_address(self) -> str:
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        return f"127.0.0.1:{port}"

    def test_connect_backoff_is_capped_and_bounded(self, monkeypatch):
        from repro.service import client as client_module

        recorded: list[float] = []
        monkeypatch.setattr(client_module.time, "sleep", recorded.append)
        with pytest.raises(ServiceError, match="after 11 attempts"):
            client_module.ServiceClient(
                self._refused_address(), timeout=1.0, connect_retries=10
            )
        # One backoff per retry, doubling from 50 ms and capped at 2 s
        # instead of doubling without bound.
        assert recorded == [min(0.05 * 2**n, 2.0) for n in range(10)]
        assert recorded[-1] == 2.0  # the cap is in force

    def test_zero_connect_retries_make_one_attempt_without_backoff(self, monkeypatch):
        from repro.service import client as client_module

        recorded: list[float] = []
        monkeypatch.setattr(client_module.time, "sleep", recorded.append)
        with pytest.raises(ServiceError, match="after 1 attempts"):
            client_module.ServiceClient(
                self._refused_address(), timeout=1.0, connect_retries=0
            )
        assert recorded == []


# ------------------------------------------------------- client resubmission


ACCEPTED = {"type": "accepted"}
DONE = {"type": "done", "outcomes": [], "stats": {}}


@contextlib.contextmanager
def scripted_daemon(*scripts: list[dict]):
    """Serve loopback connections, each playing one script; yield
    ``(address, submits)``.

    A connection answers ``hello`` with ``welcome``, records the client's
    ``submit`` in ``submits``, sends the script's messages under the
    submission's id and hangs up; an empty script hangs up without a reply.
    Connections past the last script replay it, so ``submits`` counts every
    attempt the client makes.
    """

    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(8)
    listener.settimeout(0.05)
    submits: list[dict] = []
    stop = threading.Event()

    def serve() -> None:
        while not stop.is_set():
            try:
                conn, _peer = listener.accept()
            except socket.timeout:
                continue
            script = scripts[min(len(submits), len(scripts) - 1)]
            conn.settimeout(30.0)
            with conn, conn.makefile("rb") as stream:
                stream.readline()  # the client's hello
                conn.sendall(encode_message({"type": "welcome", "protocol": PROTOCOL_VERSION}))
                submit = decode_message(stream.readline())
                submits.append(submit)
                for reply in script:
                    conn.sendall(encode_message({**reply, "id": submit["id"]}))

    server = threading.Thread(target=serve)
    server.start()
    try:
        yield f"127.0.0.1:{listener.getsockname()[1]}", submits
    finally:
        stop.set()
        server.join()
        listener.close()


def intsort_request() -> SimRequest:
    return SimRequest(
        workload="intsort", mode="none", scale="tiny", seed=42,
        config=SystemConfig.scaled(),
    )


class TestClientResubmit:
    """``submit`` resends a submission the daemon never accepted, and only
    that: after ``accepted`` the daemon owns the work."""

    def test_submission_lost_before_acceptance_is_resubmitted(self):
        events: list[str] = []
        with scripted_daemon([], [ACCEPTED, DONE]) as (address, submits):
            with ServiceClient(address, timeout=5.0, connect_retries=1) as client:
                done = client.submit(
                    [intsort_request()],
                    on_event=lambda event: events.append(event["type"]),
                    deadline=3.0,
                )
        assert done["type"] == "done"
        assert events == ["accepted", "done"]
        first, second = submits
        assert first["requests"] == second["requests"]
        assert first["deadline"] == second["deadline"] == 3.0

    def test_resubmission_gives_up_after_connect_retries_plus_one_tries(self):
        with scripted_daemon([]) as (address, submits):
            with ServiceClient(address, timeout=5.0, connect_retries=2) as client:
                with pytest.raises(ServiceError, match="closed the connection"):
                    client.submit([intsort_request()])
        assert len(submits) == 3

    def test_connection_lost_after_acceptance_is_not_resubmitted(self):
        with scripted_daemon([ACCEPTED]) as (address, submits):
            with ServiceClient(address, timeout=5.0, connect_retries=2) as client:
                with pytest.raises(ServiceError, match="closed the connection"):
                    client.submit([intsort_request()])
        assert len(submits) == 1

    def test_error_reply_raises_without_resubmitting(self):
        refusal = {"type": "error", "message": "server is draining"}
        with scripted_daemon([refusal]) as (address, submits):
            with ServiceClient(address, timeout=5.0, connect_retries=2) as client:
                with pytest.raises(ServiceError, match="rejected submission: server is draining"):
                    client.submit([intsort_request()])
        assert len(submits) == 1
