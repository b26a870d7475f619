#!/usr/bin/env python3
"""End-to-end smoke test of the ``repro serve`` daemon.

Spawns a real daemon subprocess (``python -m repro.service``) with fresh
cache and trace-store directories, runs a tiny Figure 7 comparison plan
through the client library twice, and asserts the service contract:

1. the cold pass executes every unique point exactly once;
2. the warm pass is served entirely from the daemon's memo — zero
   simulations, bit-identical results;
3. the ``health`` probe answers with a ready daemon speaking this
   client's protocol version;
4. the daemon drains cleanly on request and exits 0;
5. against a quota-limited daemon (``--max-inflight``), a pipelined second
   submission is rejected with ``retry_after``, and completes after
   backing off — the admission-control round-trip.

Used by the CI ``service`` job; also handy as a quick local health check::

    PYTHONPATH=src python tools/service_smoke.py
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.config import SystemConfig  # noqa: E402
from repro.service import (  # noqa: E402
    PROTOCOL_VERSION,
    ServiceClient,
    ServiceEngine,
    probe_endpoint,
    spawn_local_daemon,
)
from repro.sim.comparison import comparison_plan  # noqa: E402
from repro.sim.engine import SimRequest  # noqa: E402


def health_roundtrip(address: str) -> None:
    """Health probe against a live, idle daemon."""

    report = probe_endpoint(address, timeout=30.0)
    assert report.ok, f"health probe failed: {report.error}"
    assert report.ready, f"idle daemon reported not ready: {report.status}"
    assert report.protocol == PROTOCOL_VERSION, report.protocol
    assert report.pool_generation == 0, "no worker should have crashed"
    print(f"health: {report.status}, protocol {report.protocol}, "
          f"{report.workers} workers, up {report.uptime:.1f}s")


def quota_roundtrip() -> None:
    """Admission control: rejection, backoff, recovery — against a real daemon."""

    import time

    with spawn_local_daemon(
        workers=1, extra_args=["--max-inflight", "1", "--retry-after", "0.05"]
    ) as (process, address):
        print(f"quota daemon pid={process.pid} at {address}")
        config = SystemConfig.scaled()
        first = [
            SimRequest(workload="intsort", mode="none", scale="tiny", seed=seed,
                       config=config)
            for seed in range(1, 7)
        ]
        second = [SimRequest(workload="randacc", mode="none", scale="tiny", seed=9,
                             config=config)]
        with ServiceClient(address, timeout=600.0) as client:
            sid1 = client.submit_nowait(first)
            sid2 = client.submit_nowait(second)
            rejections = 0
            finished: dict[int, dict] = {}
            while sid1 not in finished or sid2 not in finished:
                event = client.read_event()
                kind = event.get("type")
                if kind == "rejected" and event.get("id") == sid2:
                    rejections += 1
                    time.sleep(float(event.get("retry_after") or 0.05))
                    sid2 = client.submit_nowait(second)
                elif kind == "done":
                    finished[event["id"]] = event
            assert rejections >= 1, (
                "the pipelined second submission must trip the in-flight quota"
            )
            for sid in (sid1, sid2):
                statuses = [o["status"] for o in finished[sid]["outcomes"]]
                assert all(s == "ok" for s in statuses), statuses
            counters = client.server_stats()
            assert counters["rejected_quota"] >= rejections
            print(
                f"quota: {rejections} rejection(s) honored, both submissions "
                f"completed (rejected_quota={counters['rejected_quota']})"
            )
            client.shutdown_server()
        code = process.wait(timeout=120)
        assert code == 0, f"quota daemon exited with {code}"


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-smoke-") as scratch:
        cache_dir = str(Path(scratch) / "results")
        store_dir = str(Path(scratch) / "traces")
        with spawn_local_daemon(
            workers=2, cache_dir=cache_dir, trace_store=store_dir
        ) as (process, address):
            print(f"daemon pid={process.pid} at {address}")
            health_roundtrip(address)
            engine = ServiceEngine(address, timeout=600.0)

            cold = engine.run(comparison_plan(["intsort", "randacc"], scale="tiny"))
            print(f"cold: {cold.stats.summary()}")
            assert len(cold.results) > 0, "cold pass produced no results"
            assert cold.stats.executed == cold.stats.unique - cold.stats.unavailable, (
                "cold pass must simulate every available unique point once"
            )

            warm = engine.run(comparison_plan(["intsort", "randacc"], scale="tiny"))
            print(f"warm: {warm.stats.summary()}")
            assert warm.stats.executed == 0, "warm pass must simulate nothing"
            assert warm.stats.memo_hits == warm.stats.unique, (
                "warm pass must be served entirely from the daemon memo"
            )
            assert {d: r.as_dict() for d, r in warm.results.items()} == {
                d: r.as_dict() for d, r in cold.results.items()
            }, "warm results must be bit-identical to cold results"

            with ServiceClient(address) as probe:
                counters = probe.server_stats()
            assert counters["executed"] == cold.stats.executed, (
                f"daemon executed {counters['executed']} sims, "
                f"expected {cold.stats.executed}"
            )
            print(
                f"daemon counters: executed={counters['executed']} "
                f"memo_hits={counters['memo_hits']} "
                f"cache_hits={counters['cache_hits']} "
                f"submissions={counters['submissions']}"
            )

            engine.client.shutdown_server()
            engine.close()
            code = process.wait(timeout=120)
            assert code == 0, f"daemon exited with {code}"
            print("daemon drained and exited cleanly")
    quota_roundtrip()
    print("service smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
