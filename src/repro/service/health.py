"""Endpoint health probing and the fleet status table.

One probe — :func:`probe_endpoint` — serves three consumers:

* the failover :class:`~repro.service.client.ServiceEngine`, which gates
  endpoint selection and circuit-breaker half-open probing on it;
* ``repro status ADDR[,ADDR...]`` (and ``tools/service_status.py``),
  which renders one :func:`format_health_table` row per endpoint;
* ``tools/service_smoke.py`` / ``tools/ha_smoke.py``, which assert the
  probe round-trip against live daemons.

A probe is one short-lived connection: connect, ``hello``/``welcome``
handshake, and one ``health`` request.  An unreachable endpoint, or one
speaking another protocol version, yields ``ok=False`` with the failure
text; probing never raises.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from ..errors import ServiceError

__all__ = ["EndpointHealth", "probe_endpoint", "probe_endpoints", "format_health_table"]


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
    pool_generation: Optional[int] = None
    memo_entries: Optional[int] = None
    peer_hits: Optional[int] = None
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
    indistinguishable from a dead one (``ok=False``) — which is exactly
    what endpoint selection wants.  The ``"draining"`` status only appears
    when an already-connected client asks
    :meth:`~repro.service.client.ServiceClient.health`.

    Args:
        address: ``host:port`` or ``unix:/path``.
        timeout: Socket timeout for the connect and each reply line.
    """

    from .client import ServiceClient  # local import: client imports health

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
        peer_hits=payload.get("peer_hits"),
        executed=payload.get("executed"),
        raw=payload,
    )


def probe_endpoints(
    addresses: Sequence[str], *, timeout: float = 5.0
) -> list[EndpointHealth]:
    """Probe every endpoint in order (sequentially; probes are cheap)."""

    return [probe_endpoint(address, timeout=timeout) for address in addresses]


def _cell(value: Any, fmt: str = "{}") -> str:
    return fmt.format(value) if value is not None else "-"


def format_health_table(reports: Sequence[EndpointHealth]) -> str:
    """Render probe results as an aligned text table (one endpoint per row)."""

    headers = (
        "ENDPOINT", "STATUS", "PROTO", "UPTIME", "WORKERS",
        "QUEUED", "RUNNING", "INFLIGHT", "POOLGEN", "MEMO", "PEERHITS",
    )
    rows = [headers]
    for report in reports:
        status = report.status if report.ok else "unreachable"
        rows.append((
            report.address,
            status or "-",
            _cell(report.protocol),
            _cell(report.uptime, "{:.1f}s"),
            _cell(report.workers),
            _cell(report.queued_chunks),
            _cell(report.running_chunks),
            _cell(report.in_flight),
            _cell(report.pool_generation),
            _cell(report.memo_entries),
            _cell(report.peer_hits),
        ))
    widths = [max(len(row[i]) for row in rows) for i in range(len(headers))]
    lines = [
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
        for row in rows
    ]
    for report in reports:
        if not report.ok and report.error:
            lines.append(f"  {report.address}: {report.error}")
    return "\n".join(lines)
