"""Integration tests for the simulation service over a loopback socket.

Every test runs a real :class:`~repro.service.ReproServer` on a background
event loop (:class:`tests.service_utils.ServerThread`) and talks to it with
the blocking :class:`~repro.service.ServiceClient`.  Ordering is always
established through protocol events (``accepted``, ``chunk-started``,
``done``) and hold-files — never through sleeps.
"""

from __future__ import annotations

import gc
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import pytest

from repro.config import SystemConfig
from repro.errors import ServiceError
from repro.service import (
    PROTOCOL_VERSION,
    ServiceClient,
    ServiceEngine,
    probe_endpoint,
    spawn_local_daemon,
)
from repro.service.protocol import encode_message
from repro.sim.comparison import comparison_plan
from repro.sim.engine import SerialRunner, SimEngine, SimPlan, SimRequest

from service_utils import SVC_TEST_DIR_ENV, ServerThread, registered_test_workloads

#: A loopback port nothing listens on in the test environment.
DEAD = "127.0.0.1:1"

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def svc_dir(tmp_path, monkeypatch):
    """Coordination directory for instrumented workloads (inherited on fork)."""

    directory = tmp_path / "svc"
    directory.mkdir()
    monkeypatch.setenv(SVC_TEST_DIR_ENV, str(directory))
    return directory


def gated_request(seed: int, workload: str = "svcgate") -> SimRequest:
    return SimRequest(
        workload=workload,
        mode="none",
        scale="tiny",
        seed=seed,
        config=SystemConfig.scaled(),
    )


def read_until(client: ServiceClient, kind: str, sid=None) -> dict:
    """Read events until one of type ``kind`` (for ``sid``, when given)."""

    while True:
        event = client.read_event()
        if event.get("type") == kind and (sid is None or event.get("id") == sid):
            return event


# --------------------------------------------------------------- identity


def test_service_results_bit_identical_to_direct_engine():
    plan = comparison_plan(["intsort", "randacc"], scale="tiny")
    direct = SimEngine(runner=SerialRunner()).run(
        comparison_plan(["intsort", "randacc"], scale="tiny")
    )
    with ServerThread(workers=2) as daemon:
        engine = ServiceEngine(daemon.address, timeout=600.0)
        batch = engine.run(plan)
        engine.close()

    assert set(batch.results) == set(direct.results)
    assert batch.skipped == direct.skipped
    for digest, result in direct.results.items():
        assert batch.results[digest].as_dict() == result.as_dict()
    assert batch.stats.executed == batch.stats.unique - batch.stats.unavailable
    assert batch.stats.runner == "service"


def test_second_submission_is_served_entirely_from_memo():
    plan = comparison_plan(["intsort"], scale="tiny")
    with ServerThread(workers=2) as daemon:
        engine = ServiceEngine(daemon.address, timeout=600.0)
        cold = engine.run(comparison_plan(["intsort"], scale="tiny"))
        warm = engine.run(comparison_plan(["intsort"], scale="tiny"))
        with ServiceClient(daemon.address) as probe:
            counters = probe.server_stats()
        engine.close()

    assert warm.stats.executed == 0
    assert warm.stats.memo_hits == warm.stats.unique
    assert {d: r.as_dict() for d, r in warm.results.items()} == {
        d: r.as_dict() for d, r in cold.results.items()
    }
    assert counters["executed"] == cold.stats.executed
    assert counters["memo_hits"] == warm.stats.unique


def test_daemon_restart_served_from_persistent_cache(tmp_path):
    cache_dir = str(tmp_path / "results")
    plan = comparison_plan(["intsort"], scale="tiny")
    with ServerThread(workers=2, cache_dir=cache_dir) as daemon:
        engine = ServiceEngine(daemon.address, timeout=600.0)
        cold = engine.run(comparison_plan(["intsort"], scale="tiny"))
        engine.close()

    # A brand-new daemon process state, same cache directory: everything
    # must come from disk, nothing re-simulates.
    with ServerThread(workers=2, cache_dir=cache_dir) as daemon:
        engine = ServiceEngine(daemon.address, timeout=600.0)
        warm = engine.run(comparison_plan(["intsort"], scale="tiny"))
        with ServiceClient(daemon.address) as probe:
            counters = probe.server_stats()
        engine.close()

    assert warm.stats.executed == 0
    assert warm.stats.cache_hits == warm.stats.unique
    assert counters["executed"] == 0
    assert {d: r.as_dict() for d, r in warm.results.items()} == {
        d: r.as_dict() for d, r in cold.results.items()
    }
    assert len(warm.results) == len(plan) - cold.stats.unavailable


# ------------------------------------------------------------ singleflight


def test_concurrent_clients_share_one_execution(svc_dir):
    """Two clients submitting the same point → exactly one simulation."""

    request = gated_request(seed=101)
    hold = svc_dir / "hold-101"
    hold.touch()
    with registered_test_workloads():
        with ServerThread(workers=1) as daemon:
            first = ServiceClient(daemon.address, timeout=120.0)
            second = ServiceClient(daemon.address, timeout=120.0)

            sid_a = first.submit_nowait([request])
            accepted_a = read_until(first, "accepted", sid_a)
            assert accepted_a["scheduled"] == 1
            # The chunk must be *running* (held at the gate) before the
            # second client submits, so the join is genuinely in-flight.
            read_until(first, "chunk-started", sid_a)

            sid_b = second.submit_nowait([request])
            accepted_b = read_until(second, "accepted", sid_b)
            assert accepted_b["joined"] == 1
            assert accepted_b["scheduled"] == 0

            hold.unlink()
            done_a = read_until(first, "done", sid_a)
            done_b = read_until(second, "done", sid_b)

            with ServiceClient(daemon.address) as probe:
                counters = probe.server_stats()
            first.close()
            second.close()

    assert counters["executed"] == 1
    assert counters["joined"] == 1
    (outcome_a,) = done_a["outcomes"]
    (outcome_b,) = done_b["outcomes"]
    assert outcome_a["status"] == outcome_b["status"] == "ok"
    assert outcome_a["result"] == outcome_b["result"]
    assert done_b["stats"]["executed"] == 1  # the shared result reached B


def test_duplicate_requests_within_one_submission_deduplicate():
    request = comparison_plan(["intsort"], scale="tiny")
    points = list(request)[:2]
    with ServerThread(workers=1) as daemon:
        engine = ServiceEngine(daemon.address, timeout=600.0)
        batch = engine.run(SimPlan(points + points + points))
        engine.close()
    assert batch.stats.submitted == 6
    assert batch.stats.unique == 2
    assert batch.stats.deduplicated == 4
    assert len(batch.results) == 2


# ---------------------------------------------------------------- fairness


def test_chunks_interleave_fairly_across_clients(svc_dir):
    """A bulk client does not starve a small one: round-robin dispatch."""

    hold = svc_dir / "hold-201"
    hold.touch()
    with registered_test_workloads():
        with ServerThread(workers=1) as daemon:
            bulk = ServiceClient(daemon.address, timeout=120.0)
            small = ServiceClient(daemon.address, timeout=120.0)

            # Three workload groups → three chunks for the bulk client; the
            # first is gated so it occupies the single worker.
            sid_bulk = bulk.submit_nowait(
                [gated_request(201), gated_request(202), gated_request(203)]
            )
            read_until(bulk, "accepted", sid_bulk)
            read_until(bulk, "chunk-started", sid_bulk)

            sid_small = small.submit_nowait([gated_request(204)])
            accepted = read_until(small, "accepted", sid_small)
            assert accepted["chunks"] == 1

            hold.unlink()

            bulk_seqs = []
            while True:
                event = bulk.read_event()
                if event.get("type") == "chunk-started":
                    bulk_seqs.append(event["seq"])
                elif event.get("type") == "done":
                    break
            small_started = read_until(small, "chunk-started", sid_small)
            read_until(small, "done", sid_small)
            bulk.close()
            small.close()

    # Round-robin: the bulk client gets one more turn (it was at the
    # rotation head), then the small client's chunk dispatches — strictly
    # before the bulk backlog ends.  FIFO would dispatch it last.
    assert len(bulk_seqs) == 2, "bulk client should see its 2nd and 3rd dispatches"
    assert small_started["seq"] < max(bulk_seqs)


# ------------------------------------------------------------------ driver


def test_reproduce_paper_driver_accepts_service_flag():
    from repro.eval.report import build_engine

    with ServerThread(workers=2) as daemon:
        engine = build_engine(service=daemon.address)
        batch = engine.run(comparison_plan(["intsort"], scale="tiny"))
        assert batch.stats.runner == "service"
        assert len(batch.results) > 0
        engine.close()


def test_build_engine_refuses_local_only_arguments_with_service():
    """`--service` runs on the daemon: local-only knobs are refused, not ignored."""

    from repro.eval.report import build_engine

    with pytest.raises(ValueError) as excinfo:
        build_engine(service=DEAD, parallel=True, cache_dir="results", resume=True)
    message = str(excinfo.value)
    for name in ("parallel", "cache_dir", "resume"):
        assert name in message
    for name in ("workers", "trace_store_dir", "checkpoint_dir", "max_attempts"):
        assert name not in message

    engine = build_engine(service=DEAD, deadline=5.0)
    assert isinstance(engine, ServiceEngine) and engine.deadline == 5.0

    driver = subprocess.run(
        [sys.executable, str(REPO_ROOT / "examples" / "reproduce_paper.py"),
         "--service", DEAD, "--cache", "results"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
    )
    assert driver.returncode == 2
    assert "cache_dir" in driver.stderr


# ---------------------------------------------------------- engine errors


def test_service_engine_rejects_malformed_address():
    with pytest.raises(ServiceError):
        ServiceEngine("not-an-address")


def test_service_engine_unreachable_daemon_raises_naming_it():
    engine = ServiceEngine(DEAD, timeout=5.0)
    with pytest.raises(ServiceError, match=DEAD):
        engine.run(SimPlan([gated_request(seed=1, workload="intsort")]))


def test_service_engine_reconnects_to_restarted_daemon(tmp_path):
    """A daemon restarted at the same address between runs is reached again:
    the engine's stale connection is replaced without failing the run."""

    socket_path = str(tmp_path / "repro.sock")
    request = gated_request(seed=1, workload="intsort")
    with ServerThread(workers=1, unix_path=socket_path) as daemon:
        engine = ServiceEngine(daemon.address, timeout=120.0)
        first = engine.run(SimPlan([request]))
        assert engine.client.connected
    # The old daemon drained and closed the connection the engine still holds.
    with ServerThread(workers=1, unix_path=socket_path) as daemon:
        second = engine.run(SimPlan([request]))
        served = daemon.server.stats.executed
        engine.close()

    assert first.stats.executed == 1 and served == 1
    # A fresh daemon has an empty memo: the point ran again, over the new connection.
    assert second.stats.executed == 1 and second.stats.memo_hits == 0
    assert second.get(request).as_dict() == first.get(request).as_dict()
    assert engine.stats.executed == 2


# ------------------------------------------------------------ health probe


def test_health_probe_reports_daemon_readiness():
    with ServerThread(workers=1) as daemon:
        report = probe_endpoint(daemon.address)
        assert report.ok and report.ready
        assert report.status == "ok"
        assert report.protocol == PROTOCOL_VERSION
        assert report.workers == 1
        assert report.pool_generation == 0
        assert report.uptime is not None and report.uptime >= 0.0


def test_health_probe_unreachable_endpoint_never_raises():
    report = probe_endpoint(DEAD, timeout=5.0)
    assert not report.ok and not report.ready
    assert report.error and "connect" in report.error


def test_draining_daemon_reports_not_ready_on_live_connection(svc_dir):
    """A draining daemon answers ``health`` with ``draining`` to connected
    clients (new connections are refused outright — the listener closes)."""

    hold = svc_dir / "hold-601"
    hold.touch()
    with registered_test_workloads():
        daemon = ServerThread(workers=1)
        with daemon:
            with ServiceClient(daemon.address, timeout=120.0) as client:
                client.submit_nowait([gated_request(seed=601)])
                read_until(client, "chunk-started")
                # Work is gated in flight: ask for a drain, which cannot
                # complete until the hold lifts.  The drain flag flips on
                # the daemon's loop; poll the reported state (bounded).
                daemon.loop.call_soon_threadsafe(daemon.server.request_shutdown)
                deadline = time.monotonic() + 30.0
                while client.health()["status"] != "draining":
                    assert time.monotonic() < deadline, "drain flag never reported"
                    time.sleep(0.01)
                # And a fresh probe sees the closed listener: not ready.
                assert not probe_endpoint(daemon.address, timeout=5.0).ready
                hold.unlink()
                read_until(client, "done")


@pytest.mark.parametrize(
    "reply",
    [
        None,
        {"type": "error", "error": "not a daemon"},
        {"type": "welcome", "protocol": PROTOCOL_VERSION - 1},
    ],
    ids=["hang-up", "not-welcome", "other-protocol"],
)
def test_failed_handshake_closes_the_client_socket(reply):
    """Whichever handshake step fails, the client closes its socket instead
    of leaving it for the garbage collector to warn about."""

    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)

    def serve_once() -> None:
        conn, _peer = listener.accept()
        conn.settimeout(30.0)
        with conn, conn.makefile("rb") as stream:
            if reply is not None:
                stream.readline()  # the client's hello
                conn.sendall(encode_message(reply))
                conn.recv(1)  # returns once the client hangs up

    server = threading.Thread(target=serve_once)
    server.start()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ServiceError):
                ServiceClient(
                    f"127.0.0.1:{listener.getsockname()[1]}", timeout=5.0, connect_retries=0
                )
            gc.collect()
    finally:
        server.join()
        listener.close()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_protocol_version_mismatch_is_rejected(monkeypatch):
    """Client and daemon ship together: any other version is refused."""

    import repro.service.server as server_module

    monkeypatch.setattr(server_module, "PROTOCOL_VERSION", PROTOCOL_VERSION - 1)
    with ServerThread(workers=1) as daemon:
        with pytest.raises(ServiceError) as excinfo:
            ServiceClient(daemon.address, timeout=120.0, connect_retries=0)
        message = str(excinfo.value)
        assert f"protocol {PROTOCOL_VERSION - 1}" in message
        assert f"protocol {PROTOCOL_VERSION}" in message
        # The probe reports the daemon as unusable.
        report = probe_endpoint(daemon.address)
        assert not report.ok and not report.ready
        assert f"protocol {PROTOCOL_VERSION - 1}" in report.error


# ----------------------------------------------------------- local daemon


def _process_state(pid: int):
    """``(state, parent pid)`` from ``/proc/<pid>/stat``, or ``None`` if gone."""

    try:
        with open(f"/proc/{pid}/stat", encoding="ascii", errors="replace") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return None
    return fields[0], int(fields[1])


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc to find pool workers")
def test_sigkilled_daemon_leaves_no_orphaned_worker():
    """Regression: a pool worker blocked on its call queue used to outlive a
    SIGKILLed daemon forever, re-parented and deaf to SIGTERM."""

    plan = SimPlan([gated_request(seed, workload="intsort") for seed in (1, 2)])
    with spawn_local_daemon(workers=1) as (process, address):
        engine = ServiceEngine(address, timeout=120.0)
        batch = engine.run(plan)
        engine.close()
        assert len(batch.results) == 2 and not batch.failures
        workers = [
            int(entry)
            for entry in os.listdir("/proc")
            if entry.isdigit() and (_process_state(int(entry)) or ("", 0))[1] == process.pid
        ]
        assert workers, "the plan must have run in a pool worker"
        os.kill(process.pid, signal.SIGKILL)
        process.wait()
        deadline = time.monotonic() + 15.0
        # An exited worker nobody has reaped yet is a zombie: gone all the same.
        while any((_process_state(pid) or ("Z",))[0] != "Z" for pid in workers):
            assert time.monotonic() < deadline, f"pool workers {workers} outlived the daemon"
            time.sleep(0.05)


def test_spawn_local_daemon_kills_child_on_exit():
    with spawn_local_daemon(workers=1) as (process, address):
        assert address
        assert process.poll() is None, "daemon must be running inside the block"
    assert process.poll() is not None, "daemon must be reaped on exit"


def test_spawn_local_daemon_kills_child_when_body_raises():
    leaked = {}
    with pytest.raises(RuntimeError, match="boom"):
        with spawn_local_daemon(workers=1) as (process, _address):
            leaked["process"] = process
            raise RuntimeError("boom")
    assert leaked["process"].poll() is not None, "daemon must be reaped on error"
