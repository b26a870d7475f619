"""Fault-injection tests: worker crashes, client disconnects, SIGTERM drain.

All synchronisation is via protocol events, marker files, and bounded
polling of *state the daemon reports* — never via sleeps that assume an
ordering.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import time
from collections import Counter

import pytest

from repro.config import SystemConfig
from repro.service import ServiceClient, spawn_local_daemon
from repro.service.protocol import decode_message, encode_message, request_to_wire
from repro.sim.engine import SimRequest
from repro.sim.engine import pool as pool_module
from repro.sim.engine import runner as runner_module

from service_utils import SVC_TEST_DIR_ENV, ServerThread, registered_test_workloads


@pytest.fixture
def svc_dir(tmp_path, monkeypatch):
    directory = tmp_path / "svc"
    directory.mkdir()
    monkeypatch.setenv(SVC_TEST_DIR_ENV, str(directory))
    return directory


def request_for(workload: str, seed: int) -> SimRequest:
    return SimRequest(
        workload=workload,
        mode="none",
        scale="tiny",
        seed=seed,
        config=SystemConfig.scaled(),
    )


def read_until(client: ServiceClient, kind: str, sid=None) -> dict:
    while True:
        event = client.read_event()
        if event.get("type") == kind and (sid is None or event.get("id") == sid):
            return event


def wait_for_counter(address: str, key: str, value: int, timeout: float = 30.0) -> dict:
    """Poll server stats until ``stats[key] >= value`` (bounded)."""

    deadline = time.monotonic() + timeout
    with ServiceClient(address) as probe:
        while True:
            counters = probe.server_stats()
            if counters.get(key, 0) >= value:
                return counters
            assert time.monotonic() < deadline, (
                f"server counter {key!r} never reached {value}: {counters}"
            )
            time.sleep(0.01)


# ------------------------------------------------------------ worker crash


def test_worker_crash_requeues_chunk_and_completes(svc_dir):
    """A SIGKILLed worker's chunk is requeued and succeeds on retry."""

    with registered_test_workloads():
        with ServerThread(workers=1) as daemon:
            with ServiceClient(daemon.address, timeout=120.0) as client:
                sid = client.submit_nowait([request_for("svccrashonce", seed=301)])
                read_until(client, "accepted", sid)
                requeued = read_until(client, "chunk-requeued", sid)
                assert requeued["attempt"] == 1
                done = read_until(client, "done", sid)
            counters = wait_for_counter(daemon.address, "crashes", 1)

    (outcome,) = done["outcomes"]
    assert outcome["status"] == "ok", outcome
    assert outcome["result"]["workload"] == "svccrashonce"
    assert counters["crashes"] >= 1
    assert counters["requeued"] >= 1
    assert counters["executed"] == 1
    # The crash marker proves the first attempt really died mid-build.
    assert os.path.exists(svc_dir / "crashed-301")


def test_persistent_crash_fails_cleanly_and_pool_recovers(svc_dir, monkeypatch):
    """Attempts exhausted → labelled failure; the daemon stays healthy."""

    monkeypatch.setattr(pool_module, "MAX_ATTEMPTS", 2)
    with registered_test_workloads():
        with ServerThread(workers=1) as daemon:
            with ServiceClient(daemon.address, timeout=120.0) as client:
                sid = client.submit_nowait([request_for("svccrashalways", seed=302)])
                read_until(client, "accepted", sid)
                done = read_until(client, "done", sid)

                (outcome,) = done["outcomes"]
                assert outcome["status"] == "failed"
                assert "worker crashed" in outcome["failure"]
                assert done["stats"]["failed"] == 1

                # Failures are not memoised and the pool was rebuilt: a
                # healthy submission on the same connection still works.
                sid2 = client.submit_nowait([request_for("svccrashonce", seed=303)])
                read_until(client, "accepted", sid2)
                done2 = read_until(client, "done", sid2)
                (outcome2,) = done2["outcomes"]
                assert outcome2["status"] == "ok"

            counters = wait_for_counter(daemon.address, "failed", 1)
    assert counters["failed"] == 1
    assert any("worker crashed" in label for label in counters["failures"])


def test_crash_costs_only_the_chunk_on_the_dead_worker(svc_dir, monkeypatch):
    """A bystander's running chunk survives another client's crashing one."""

    monkeypatch.setattr(pool_module, "MAX_ATTEMPTS", 2)
    hold = svc_dir / "hold-331"
    hold.touch()
    with registered_test_workloads():
        with ServerThread(workers=2) as daemon:
            with ServiceClient(daemon.address, timeout=120.0) as bystander, \
                    ServiceClient(daemon.address, timeout=120.0) as crasher:
                sid = bystander.submit_nowait([request_for("svcgate", seed=331)])
                read_until(bystander, "accepted", sid)
                read_until(bystander, "chunk-started", sid)

                # Both attempts of the crashing chunk kill their worker
                # while the gated chunk holds the other one.
                done_crasher = crasher.submit([request_for("svccrashalways", seed=332)])
                (crashed,) = done_crasher["outcomes"]
                assert crashed["status"] == "failed"
                assert "worker crashed" in crashed["failure"]

                hold.unlink()
                events = []
                while not (events and events[-1].get("type") == "done"):
                    event = bystander.read_event()
                    if event.get("id") == sid:
                        events.append(event)
            counters = wait_for_counter(daemon.address, "crashes", 2)

    (outcome,) = events[-1]["outcomes"]
    assert outcome["status"] == "ok", outcome
    assert "chunk-requeued" not in [event["type"] for event in events]
    # One crash per dead worker: the crashing chunk ran twice.
    assert counters["crashes"] == 2


def intsort_chunk() -> list[SimRequest]:
    """Three requests of one workload group: one chunk on the daemon."""

    return [
        SimRequest(workload="intsort", mode=mode, scale="tiny", seed=42,
                   config=SystemConfig.scaled())
        for mode in ("none", "stride", "ghb-regular")
    ]


def test_crash_re_runs_only_the_unpublished_requests(tmp_path, monkeypatch):
    """A worker that dies on a chunk's third request costs only that request."""

    requests = intsort_chunk()
    log, crashed = tmp_path / "completed", tmp_path / "crashed"
    execute = runner_module.execute_request

    def crash_once(request, workload):  # runs in the forked worker
        if request == requests[2] and not crashed.exists():
            crashed.touch()
            os.kill(os.getpid(), signal.SIGKILL)
        outcome = execute(request, workload)
        with open(log, "a") as completions:
            completions.write(f"{request.digest}\n")
        return outcome

    monkeypatch.setattr(runner_module, "execute_request", crash_once)
    with ServerThread(workers=1) as daemon:
        with ServiceClient(daemon.address, timeout=120.0) as client:
            sid = client.submit_nowait(requests)
            read_until(client, "accepted", sid)
            requeued = read_until(client, "chunk-requeued", sid)
            done = read_until(client, "done", sid)
        counters = wait_for_counter(daemon.address, "executed", 3)

    assert (requeued["attempt"], requeued["requests"]) == (1, 1)
    assert [outcome["status"] for outcome in done["outcomes"]] == ["ok"] * 3
    assert crashed.exists()
    assert Counter(log.read_text().split()) == Counter(r.digest for r in requests)
    assert (counters["requeued"], counters["crashes"], counters["executed"]) == (1, 1, 3)


def test_chunk_that_raises_keeps_its_published_results(monkeypatch):
    """A chunk raising on its second request still delivers its first."""

    requests = intsort_chunk()
    execute = runner_module.execute_request

    def raise_on_second(request, workload):  # runs in the forked worker
        if request == requests[1]:
            raise RuntimeError("injected")
        return execute(request, workload)

    monkeypatch.setattr(runner_module, "execute_request", raise_on_second)
    with ServerThread(workers=1) as daemon:
        with ServiceClient(daemon.address, timeout=120.0) as client:
            sid = client.submit_nowait(requests)
            events = [read_until(client, "accepted", sid)]
            while events[-1]["type"] != "done":
                events.append(client.read_event())

    first, second, third = events[-1]["outcomes"]
    assert first["status"] == "ok", first
    assert second == {
        "status": "failed",
        "failure": "intsort/stride: service error: RuntimeError: injected",
    }
    assert third["status"] == "failed"
    assert "chunk-requeued" not in [event["type"] for event in events]


# ------------------------------------------------------- client disconnect


def test_disconnect_cancels_unique_work_but_not_shared(svc_dir):
    """Disconnect drops the client's queued unique work; joined work runs on."""

    shared = request_for("svcgate", seed=311)
    unique = request_for("svcgate", seed=312)
    hold = svc_dir / "hold-311"
    hold.touch()
    with registered_test_workloads():
        with ServerThread(workers=1) as daemon:
            leaver = ServiceClient(daemon.address, timeout=120.0)
            stayer = ServiceClient(daemon.address, timeout=120.0)

            # Two workload groups → two chunks; the shared one is gated and
            # occupies the only worker, the unique one sits in the queue.
            sid_l = leaver.submit_nowait([shared, unique])
            accepted = read_until(leaver, "accepted", sid_l)
            assert accepted["chunks"] == 2
            read_until(leaver, "chunk-started", sid_l)

            sid_s = stayer.submit_nowait([shared])
            accepted_s = read_until(stayer, "accepted", sid_s)
            assert accepted_s["joined"] == 1

            # The leaver vanishes mid-stream.  Its unique queued request
            # must be cancelled; the shared in-flight one survives for the
            # stayer.
            leaver.close()
            counters = wait_for_counter(daemon.address, "cancelled", 1)
            assert counters["cancelled"] == 1

            hold.unlink()
            done = read_until(stayer, "done", sid_s)
            (outcome,) = done["outcomes"]
            assert outcome["status"] == "ok"

            final = wait_for_counter(daemon.address, "executed", 1)
            stayer.close()

    # Only the shared digest executed; the orphaned unique one never ran.
    assert final["executed"] == 1
    assert final["cancelled"] == 1


# ------------------------------------------------------ malformed submits


@pytest.mark.parametrize(
    "bad",
    [
        {"id": [1]},
        {"id": {"nested": 1}},
        {"id": 1.5},
        {"deadline": "soon"},
        {"deadline": 0},
        {"deadline": -2.0},
        {"deadline": float("nan")},
        {"deadline": float("inf")},
    ],
    ids=lambda bad: repr(bad),
)
def test_malformed_submission_gets_error_and_connection_stays_usable(bad):
    """A bad ``id`` or ``deadline`` is refused before anything is scheduled,
    and a valid submission on the same connection then completes."""

    wire = request_to_wire(request_for("intsort", seed=7))
    with ServerThread(workers=1) as daemon:
        host, port = daemon.address.rsplit(":", 1)
        with socket.create_connection((host, int(port)), timeout=120.0) as sock:
            with sock.makefile("rb") as lines:
                sock.sendall(encode_message(
                    {"type": "submit", "id": 1, "requests": [wire], **bad}))
                reply = decode_message(lines.readline())
                assert reply["type"] == "error", reply
                assert reply["id"] == bad.get("id", 1)

                sock.sendall(encode_message({"type": "submit", "id": 2, "requests": [wire]}))
                while True:
                    event = decode_message(lines.readline())
                    assert event["type"] != "error", event
                    if event["type"] == "done":
                        break
        assert daemon.server.stats.submissions == 1
    (outcome,) = event["outcomes"]
    assert event["id"] == 2 and outcome["status"] == "ok"


# ------------------------------------------------------------ SIGTERM drain


def test_sigterm_drains_in_flight_work_before_exit(tmp_path):
    """SIGTERM mid-run: the pending submission completes, then the daemon exits."""

    with spawn_local_daemon(workers=1, trace_store="off") as (process, address):
        client = ServiceClient(address, timeout=300.0)
        requests = [
            SimRequest(workload="intsort", mode=m, scale="tiny", seed=42,
                       config=SystemConfig.scaled())
            for m in ("none", "stride")
        ]
        sid = client.submit_nowait(requests)
        read_until(client, "accepted", sid)
        read_until(client, "chunk-started", sid)

        # Work is in flight *now*; ask for termination.
        process.send_signal(signal.SIGTERM)

        done = read_until(client, "done", sid)
        assert [o["status"] for o in done["outcomes"]] == ["ok", "ok"]

        # After the drain the daemon closes connections and exits cleanly.
        with pytest.raises(Exception):
            while True:
                client.read_event()
        client.close()
        assert process.wait(timeout=60) == 0


def test_draining_daemon_rejects_new_submissions(svc_dir):
    """Submissions arriving during a drain get an error, not silence."""

    hold = svc_dir / "hold-321"
    hold.touch()
    with registered_test_workloads():
        daemon = ServerThread(workers=1)
        with daemon:
            client = ServiceClient(daemon.address, timeout=120.0)
            sid = client.submit_nowait([request_for("svcgate", seed=321)])
            read_until(client, "accepted", sid)
            read_until(client, "chunk-started", sid)

            # Connect the late client *before* the drain: once draining
            # begins the listener is closed, so fresh connections are
            # refused outright — only already-connected clients can still
            # submit (and must be told no).
            late = ServiceClient(daemon.address, timeout=120.0)

            # Start the drain while the gated chunk runs, from a second
            # connection (the drain leaves existing connections alive until
            # their work completes).
            drainer = ServiceClient(daemon.address, timeout=120.0)
            drainer.shutdown_server()

            late_sid = late.submit_nowait([request_for("svcgate", seed=322)])
            error = read_until(late, "error", late_sid)
            assert "draining" in error["message"]
            late.close()
            drainer.close()

            hold.unlink()
            done = read_until(client, "done", sid)
            (outcome,) = done["outcomes"]
            assert outcome["status"] == "ok"
            client.close()
