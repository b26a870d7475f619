"""Common interface for the baseline hardware prefetchers.

A baseline prefetcher attaches to a :class:`~repro.memory.hierarchy.MemoryHierarchy`
by registering its :meth:`~HardwarePrefetcher.train` as the demand snoop:
every demand read is reported to the prefetcher (with the level that served
it), the prefetcher trains its internal state and returns the lines to
prefetch.  The prefetcher never calls into the hierarchy; whoever replays
the demand read issues the returned lines as L1 prefetches at the snoop's
time (``MemoryHierarchy.demand_access_time`` on the interpreter path, the
generated loop in :mod:`repro.sim.vector.replay` on the vector path).  The
L1 counts what they issue: ``prefetch_requests`` for each one it accepts,
and the hierarchy's ``dropped_prefetches`` for each one to an unmapped
address.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from ..memory.hierarchy import MemoryHierarchy


class HardwarePrefetcher(ABC):
    """A demand-access-trained prefetcher attached to the L1."""

    name = "base"

    def attach(self, hierarchy: MemoryHierarchy) -> None:
        """Register :meth:`train` as the hierarchy's demand snoop."""

        hierarchy.set_demand_snoop(self.train)

    @abstractmethod
    def train(self, addr: int, time: float, level: str) -> list[int]:
        """Observe a demand read and return addresses to prefetch (may be empty)."""
