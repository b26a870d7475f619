"""Digest-keyed singleflight table: each unique request runs at most once.

The daemon's core dedup structure.  A *flight* is one in-progress unique
simulation digest; any number of *waiters* (submissions from any client)
attach to it.  The first waiter to ask for a digest becomes the flight's
creator and is responsible for getting it scheduled; every later waiter —
a concurrent client submitting the same point, or an overlapping request
within one large plan — simply joins, and the one result is fanned out to
all of them on completion.

The table is deliberately free of sockets, asyncio and clocks: it is a
synchronous state machine over opaque hashable waiter tokens, driven by the
server's single event loop and property-tested in isolation (random
interleavings of join/leave/start/complete — see
``tests/test_service_properties.py``).

Lifecycle of one flight::

    join (first) ──> pending ──start──> running ──complete/fail──> gone
                        │
      leave (last waiter,│
      never started)     ▼
                       gone

A running flight stays running through worker crashes: the pool retries
its request in place, so the flight completes exactly once.

Cancellation semantics: a waiter leaving a *pending* flight whose waiter
set becomes empty cancels the flight entirely (the caller must also drop
it from the scheduler); leaving a *running* flight never cancels it — the
simulation is already paid for, its result still warms the caches, there
is simply nobody left to notify.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterator, Optional

from ..errors import ServiceError
from ..sim.engine import SimRequest


@dataclass
class Flight:
    """One in-progress unique digest and everybody waiting on it."""

    digest: str
    request: Optional[SimRequest] = None
    waiters: set[Hashable] = field(default_factory=set)
    #: ``True`` while a chunk containing this digest is executing.
    started: bool = False


class SingleflightTable:
    """In-flight unique digests, keyed by content digest."""

    def __init__(self) -> None:
        self._flights: dict[str, Flight] = {}

    # ------------------------------------------------------------- joining

    def join(
        self, digest: str, waiter: Hashable, request: Optional[SimRequest] = None
    ) -> bool:
        """Attach ``waiter`` to the flight for ``digest``.

        Returns ``True`` when this call *created* the flight — the caller
        now owns scheduling the work — and ``False`` when an existing
        flight was joined (the result will be fanned out on completion).
        """

        flight = self._flights.get(digest)
        if flight is None:
            self._flights[digest] = Flight(digest, request=request, waiters={waiter})
            return True
        flight.waiters.add(waiter)
        return False

    def leave(self, digest: str, waiter: Hashable) -> bool:
        """Detach ``waiter`` (client disconnect / submission cancel).

        Returns ``True`` when the flight was cancelled outright: its last
        waiter left before any execution started, so the caller must also
        remove the digest from the scheduler.  A running flight is never
        cancelled here (see module docstring).
        """

        flight = self._flights.get(digest)
        if flight is None:
            return False
        flight.waiters.discard(waiter)
        if not flight.waiters and not flight.started:
            del self._flights[digest]
            return True
        return False

    # ----------------------------------------------------------- execution

    def start(self, digest: str) -> bool:
        """Mark the flight as executing; ``False`` if it no longer exists.

        Starting the same flight twice is a dispatcher bug — a digest must
        never run in two chunks at once — and raises.
        """

        flight = self._flights.get(digest)
        if flight is None:
            return False
        if flight.started:
            raise ServiceError(f"digest {digest[:12]} dispatched twice")
        flight.started = True
        return True

    def complete(self, digest: str) -> tuple[frozenset, Optional[SimRequest]]:
        """Retire the flight; return its waiters (to notify) and request.

        Completing a digest with no flight — one whose waiters all left
        while it was running — returns an empty waiter set: the result is
        still worth caching, there is just nobody to tell.
        """

        flight = self._flights.pop(digest, None)
        if flight is None:
            return frozenset(), None
        return frozenset(flight.waiters), flight.request

    # --------------------------------------------------------------- views

    def waiters(self, digest: str) -> frozenset:
        flight = self._flights.get(digest)
        return frozenset(flight.waiters) if flight is not None else frozenset()

    def started(self, digest: str) -> bool:
        flight = self._flights.get(digest)
        return flight is not None and flight.started

    def __contains__(self, digest: str) -> bool:
        return digest in self._flights

    def __len__(self) -> int:
        return len(self._flights)

    def __iter__(self) -> Iterator[str]:
        return iter(self._flights)
