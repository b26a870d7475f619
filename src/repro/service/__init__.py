"""Simulation-as-a-service: the ``repro serve`` daemon and its client.

A long-lived daemon (:class:`ReproServer`) holds one warm result memo,
persistent :class:`~repro.sim.engine.ResultCache`, on-disk trace store and
worker pool (the :class:`~repro.sim.engine.pool.WorkerPool` the
multiprocess runner uses too), and serves simulation plans to any number of
concurrent clients over newline-delimited JSON on a TCP or UNIX socket.
Identical in-flight requests are deduplicated across clients by a
digest-keyed singleflight table — each unique simulation executes exactly
once per daemon lifetime — and a fair scheduler interleaves chunks from
different clients under load.

Start a daemon::

    repro serve --workers 8 --cache ~/.cache/repro-results

and point any driver at it::

    python examples/reproduce_paper.py --service 127.0.0.1:7421

:class:`ServiceEngine` is the client side: one connection to one daemon,
behind the same ``run(plan)`` surface as the local engine.

See ``docs/service.md`` for the protocol, lifecycle and failure semantics.
"""

from .client import ServiceClient, ServiceEngine, parse_address, spawn_local_daemon
from .health import EndpointHealth, probe_endpoint
from .protocol import PROTOCOL_VERSION, request_from_wire, request_to_wire
from .scheduler import DEFAULT_CHUNK_SIZE, Chunk, FairScheduler, split_requests
from .server import ReproServer, ServiceStats
from .singleflight import Flight, SingleflightTable

__all__ = [
    "ReproServer",
    "ServiceStats",
    "ServiceClient",
    "ServiceEngine",
    "EndpointHealth",
    "probe_endpoint",
    "parse_address",
    "spawn_local_daemon",
    "SingleflightTable",
    "Flight",
    "FairScheduler",
    "Chunk",
    "split_requests",
    "PROTOCOL_VERSION",
    "DEFAULT_CHUNK_SIZE",
    "request_to_wire",
    "request_from_wire",
]
