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
4. the daemon drains cleanly on request and exits 0.

Used by the CI ``service`` job; also handy as a quick local health check::

    PYTHONPATH=src python tools/service_smoke.py
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.service import (  # noqa: E402
    PROTOCOL_VERSION,
    ServiceClient,
    ServiceEngine,
    probe_endpoint,
    spawn_local_daemon,
)
from repro.sim.comparison import comparison_plan  # noqa: E402


def health_roundtrip(address: str) -> None:
    """Health probe against a live, idle daemon."""

    report = probe_endpoint(address, timeout=30.0)
    assert report.ok, f"health probe failed: {report.error}"
    assert report.ready, f"idle daemon reported not ready: {report.status}"
    assert report.protocol == PROTOCOL_VERSION, report.protocol
    assert report.pool_generation == 0, "no worker should have crashed"
    print(f"health: {report.status}, protocol {report.protocol}, "
          f"{report.workers} workers, up {report.uptime:.1f}s")


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
    print("service smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
