"""Daemon readiness probe.

:func:`probe_endpoint` answers "is the daemon at this address up and
taking submissions?": perfbench's ``service`` workload waits on it
after spawning a daemon, and ``tools/service_smoke.py`` asserts its
round-trip against a live daemon.

A probe is one short-lived connection: connect, ``hello``/``welcome``
handshake, and one ``health`` request.  An unreachable endpoint, or one
speaking another protocol version, yields ``ok=False`` with the failure
text; probing never raises.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from ..errors import ServiceError
from .client import ServiceClient

__all__ = ["EndpointHealth", "probe_endpoint"]


@dataclass
class EndpointHealth:
    """One endpoint's probe outcome (reachable or not)."""

    address: str
    #: Reachable and handshaken.  ``False`` means the connection (or the
    #: handshake) failed; :attr:`error` says why.
    ok: bool
    error: Optional[str] = None
    #: Protocol version the server advertised (``None`` when unreachable).
    protocol: Optional[int] = None
    #: ``"ok"`` / ``"draining"`` from the health payload.
    status: Optional[str] = None
    uptime: Optional[float] = None
    workers: Optional[int] = None
    queued_chunks: Optional[int] = None
    running_chunks: Optional[int] = None
    in_flight: Optional[int] = None
    #: Pool workers killed after a crash or a hang since the daemon started.
    pool_generation: Optional[int] = None
    memo_entries: Optional[int] = None
    executed: Optional[int] = None
    #: The raw health payload, for consumers that want every field.
    raw: dict[str, Any] = field(default_factory=dict)

    @property
    def ready(self) -> bool:
        """Reachable *and* willing to take new submissions."""

        return self.ok and self.status != "draining"


def probe_endpoint(address: str, *, timeout: float = 5.0) -> EndpointHealth:
    """Probe one endpoint; never raises.

    A *draining* daemon closes its listener, so from a fresh probe it is
    indistinguishable from a dead one (``ok=False``): neither takes new
    submissions.  The ``"draining"`` status only appears when an
    already-connected client asks
    :meth:`~repro.service.client.ServiceClient.health`.

    Args:
        address: ``host:port`` or ``unix:/path``.
        timeout: Socket timeout for the connect and each reply line.
    """

    try:
        client = ServiceClient(address, timeout=timeout, connect_retries=0)
    except ServiceError as error:
        return EndpointHealth(address=address, ok=False, error=str(error))
    try:
        payload = client.health()
    except ServiceError as error:
        return EndpointHealth(address=address, ok=False, error=str(error))
    finally:
        client.close()
    return EndpointHealth(
        address=address,
        ok=True,
        protocol=payload.get("protocol"),
        status=payload.get("status"),
        uptime=payload.get("uptime"),
        workers=payload.get("workers"),
        queued_chunks=payload.get("queued_chunks"),
        running_chunks=payload.get("running_chunks"),
        in_flight=payload.get("in_flight"),
        pool_generation=payload.get("pool_generation"),
        memo_entries=payload.get("memo_entries"),
        executed=payload.get("executed"),
        raw=payload,
    )
