"""Wire protocol of the simulation service: newline-delimited JSON.

Every message is one JSON object per line, UTF-8 encoded.  The framing is
deliberately primitive — any language (or ``nc``) can speak it — and every
message carries a ``"type"`` field naming its meaning.

Client → server
    ``hello``      optional handshake; answered with ``welcome``.  The
                   client refuses a server whose ``welcome`` carries a
                   different protocol version.
    ``submit``     ``{"id": <client id>, "requests": [<wire request>, ...]}``
                   plus an optional ``"deadline"`` (seconds): after that
                   budget the server fails the submission's unresolved
                   requests instead of keeping it waiting forever.
    ``stats``      global server counters; answered with ``stats``.
    ``ping``       liveness probe; answered with ``pong``.
    ``health``     readiness probe; answered with ``health``:
                   uptime, queue depth, in-flight digests, pool
                   generation, cache/memo state, draining flag.  Clients
                   use it for endpoint selection and circuit-breaker
                   half-open probing.
    ``fetch``      peer replication pull:
                   ``{"digests": [...]}`` asks whether this daemon already
                   holds results for the given content digests; answered
                   with ``fetch-result`` carrying checksummed payloads for
                   the hits and the list of misses.  Purely best-effort —
                   a daemon that cannot answer is simply a miss.
    ``shutdown``   ask the server to drain and exit (same as SIGTERM).

Server → client
    ``welcome``        protocol version, code fingerprint, worker count.
    ``accepted``       per-submission plan accounting (unique, memo/cache
                       hits, joined in-flight digests, scheduled chunks).
    ``rejected``       admission control refused the submission (``reason``
                       is ``"quota"`` or ``"queue"``); nothing was
                       scheduled.  Carries ``retry_after`` seconds — a
                       well-behaved client backs off at least that long and
                       resubmits (``ServiceClient.submit`` does, through
                       its :class:`~repro.resilience.RetryPolicy`).
    ``chunk-started``  a chunk containing digests this submission waits on
                       began executing (carries a global ``seq`` so clients
                       can observe dispatch order).
    ``chunk-requeued`` the chunk's worker crashed and it was requeued.
    ``progress``       ``completed``/``total`` unique digests resolved.
    ``outcome``        one resolved digest's outcome, streamed as it lands
                       (only for submissions that set ``"stream": true``).
                       Carries the ``positions`` of the resolved requests
                       in the submitted list and a ``source``
                       (``"executed"`` / ``"peer"``), so a failover client
                       can bank partial results before a daemon dies and
                       resubmit only what is missing.
    ``done``           positional ``outcomes`` (aligned with the submitted
                       request list) plus per-submission statistics.
    ``error``          submission-scoped or connection-scoped failure text.

Simulation requests travel as their declarative fields (workload, mode,
scale, seed, policy, full nested config) — never as digests — so a client
and server with different source trees still agree on what to simulate;
results travel as :meth:`~repro.sim.results.SimulationResult.as_dict`
payloads, which round-trip floats exactly (the same property the on-disk
:class:`~repro.sim.engine.ResultCache` relies on), so service results are
bit-identical to direct engine runs.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

from ..config import (
    CacheConfig,
    CoreConfig,
    DRAMConfig,
    GHBPrefetcherConfig,
    ProgrammablePrefetcherConfig,
    StridePrefetcherConfig,
    SystemConfig,
    TLBConfig,
)
from ..errors import ServiceProtocolError
from ..sim.engine import SimRequest

#: Protocol revision; bumped on any incompatible message change.  Client
#: and daemon ship together, so there is no negotiation: a client refuses
#: a ``welcome`` that advertises any other version.
PROTOCOL_VERSION = 3

#: Upper bound on one encoded message line (and the server's readline
#: limit).  Large sweep submissions with full nested configs stay well
#: under this; anything bigger is a protocol violation, not a workload.
MAX_MESSAGE_BYTES = 1 << 24


def encode_message(message: dict[str, Any]) -> bytes:
    """Encode one message as a JSON line ready for the socket."""

    return json.dumps(message, separators=(",", ":")).encode("utf-8") + b"\n"


def decode_message(line: bytes) -> dict[str, Any]:
    """Decode one received line; anything but a JSON object is an error."""

    try:
        message = json.loads(line)
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ServiceProtocolError(f"undecodable message line: {error}") from error
    if not isinstance(message, dict):
        raise ServiceProtocolError(
            f"expected a JSON object per line, got {type(message).__name__}"
        )
    return message


# ---------------------------------------------------------- result checksum


def result_checksum(result_payload: dict[str, Any]) -> str:
    """Content checksum of one result payload for peer replication.

    Peers exchange results as ``SimulationResult.as_dict()`` payloads; the
    checksum is a SHA-256 over the canonical (sorted-keys, compact) JSON
    encoding, so a truncated or corrupted transfer — or a peer whose
    result schema drifted — is detected and treated as a miss rather than
    poisoning the puller's cache.
    """

    canonical = json.dumps(result_payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ----------------------------------------------------------- request codec


def request_to_wire(request: SimRequest) -> dict[str, Any]:
    """Encode a request as its declarative fields (no digest, no code hash)."""

    description = request.describe()
    description.pop("code", None)
    return description


def config_from_wire(data: dict[str, Any]) -> SystemConfig:
    """Rebuild a :class:`SystemConfig` from its ``asdict`` encoding."""

    try:
        return SystemConfig(
            core=CoreConfig(**data["core"]),
            l1=CacheConfig(**data["l1"]),
            l2=CacheConfig(**data["l2"]),
            tlb=TLBConfig(**data["tlb"]),
            dram=DRAMConfig(**data["dram"]),
            prefetcher=ProgrammablePrefetcherConfig(**data["prefetcher"]),
            stride=StridePrefetcherConfig(**data["stride"]),
            ghb=GHBPrefetcherConfig(**data["ghb"]),
        )
    except (KeyError, TypeError) as error:
        raise ServiceProtocolError(f"malformed config payload: {error}") from error


def request_from_wire(data: dict[str, Any]) -> SimRequest:
    """Rebuild a :class:`SimRequest` from :func:`request_to_wire` output.

    The server recomputes the digest locally, so a client cannot poison the
    result cache with a forged content address.
    """

    if not isinstance(data, dict):
        raise ServiceProtocolError(
            f"expected a request object, got {type(data).__name__}"
        )
    try:
        return SimRequest(
            workload=data["workload"],
            mode=data["mode"],
            scale=data.get("scale", "default"),
            seed=int(data.get("seed", 42)),
            config=config_from_wire(data["config"]),
            policy=data.get("policy"),
            kernel_source=data.get("kernel_source"),
        )
    except ServiceProtocolError:
        raise
    except KeyError as error:
        raise ServiceProtocolError(f"request is missing field {error}") from error
    except Exception as error:  # unknown mode/policy/scale names, bad types
        raise ServiceProtocolError(f"invalid request payload: {error}") from error
