"""Miss-status-holding-register (MSHR) file model.

MSHRs bound the number of outstanding misses a cache can sustain.  The model
tracks the completion times of in-flight fills; a new miss that arrives when
all MSHRs are busy is delayed until the earliest outstanding fill completes.
The prefetch request queue drains into the L1 only when an MSHR is free
(Section 4.6 of the paper), which this model also provides via
:meth:`next_free_time`.
"""

from __future__ import annotations

import heapq

from ..errors import ConfigurationError


class MSHRFile:
    """A fixed-capacity set of miss-status holding registers."""

    __slots__ = ("_capacity", "_completions", "total_allocations", "total_stall_cycles")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ConfigurationError("MSHR capacity must be at least 1")
        self._capacity = capacity
        self._completions: list[float] = []
        self.total_allocations = 0
        self.total_stall_cycles = 0.0

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def in_flight(self) -> int:
        return len(self._completions)

    def next_free_time(self, now: float) -> float:
        """Earliest time at or after ``now`` when an MSHR can be allocated.

        Reclaims the MSHRs whose fills completed by ``now`` (inline: the
        prefetcher's drain asks once per queued prefetch).
        """

        completions = self._completions
        while completions and completions[0] <= now:
            heapq.heappop(completions)
        if len(completions) < self._capacity:
            return now
        return completions[0]

    def allocate(self, now: float) -> float:
        """Allocate an MSHR, returning the time the allocation takes effect.

        If the file is full the allocation is delayed until the earliest
        outstanding fill completes; the delay is accounted as a stall.
        (Inlined reclaim: this runs once per cache miss.)
        """

        completions = self._completions
        while completions and completions[0] <= now:
            heapq.heappop(completions)
        if len(completions) < self._capacity:
            grant = now
        else:
            grant = completions[0]
            self.total_stall_cycles += grant - now
            while completions and completions[0] <= grant:
                heapq.heappop(completions)
        self.total_allocations += 1
        return grant

    def register_fill(self, completion_time: float) -> None:
        """Record the completion time of the fill occupying the MSHR."""

        heapq.heappush(self._completions, completion_time)
