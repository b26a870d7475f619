"""Simulation-as-a-service: the ``repro serve`` daemon and its client.

A long-lived daemon (:class:`ReproServer`) holds one warm result memo,
persistent :class:`~repro.sim.engine.ResultCache`, on-disk trace store and
process worker pool, and serves simulation plans to any number of
concurrent clients over newline-delimited JSON on a TCP or UNIX socket.
Identical in-flight requests are deduplicated across clients by a
digest-keyed singleflight table — each unique simulation executes exactly
once per daemon lifetime — and a fair scheduler interleaves chunks from
different clients under load.

Start a daemon::

    repro serve --workers 8 --cache ~/.cache/repro-results

and point any driver at it::

    python examples/reproduce_paper.py --service 127.0.0.1:7421

Daemons form a high-availability fabric: clients accept an
ordered endpoint list (``--service ADDR,ADDR,...``) and fail over between
daemons behind per-endpoint circuit breakers, ``health`` probes gate
endpoint selection, daemons replicate finished results from ``--peer``
daemons before executing, and when the whole fleet is unreachable the
client degrades to local execution.  ``repro status ADDR[,ADDR...]``
prints the fleet's health table.

See ``docs/service.md`` for the protocol, lifecycle and failure semantics.
"""

from .breaker import CircuitBreaker
from .client import (
    ServiceClient,
    ServiceEngine,
    parse_address,
    parse_endpoints,
    run_plan,
    spawn_local_daemon,
)
from .health import EndpointHealth, format_health_table, probe_endpoint, probe_endpoints
from .pool import ChunkPool
from .protocol import PROTOCOL_VERSION, request_from_wire, request_to_wire, result_checksum
from .scheduler import DEFAULT_CHUNK_SIZE, Chunk, FairScheduler, split_requests
from .server import DEFAULT_MAX_ATTEMPTS, DEFAULT_PEER_TIMEOUT, ReproServer, ServiceStats
from .singleflight import Flight, SingleflightTable

__all__ = [
    "ReproServer",
    "ServiceStats",
    "ServiceClient",
    "ServiceEngine",
    "CircuitBreaker",
    "EndpointHealth",
    "probe_endpoint",
    "probe_endpoints",
    "format_health_table",
    "run_plan",
    "parse_address",
    "parse_endpoints",
    "spawn_local_daemon",
    "SingleflightTable",
    "Flight",
    "FairScheduler",
    "Chunk",
    "split_requests",
    "ChunkPool",
    "PROTOCOL_VERSION",
    "DEFAULT_CHUNK_SIZE",
    "DEFAULT_MAX_ATTEMPTS",
    "DEFAULT_PEER_TIMEOUT",
    "request_to_wire",
    "request_from_wire",
    "result_checksum",
]
