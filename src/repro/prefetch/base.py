"""Common interface for the baseline hardware prefetchers.

A baseline prefetcher attaches to a :class:`~repro.memory.hierarchy.MemoryHierarchy`
through its demand snoop hook: every demand read is reported to the prefetcher
(with the level that served it), the prefetcher trains its internal state, and
any prefetch candidates it produces are issued straight back into the
hierarchy as L1 prefetches.  The L1 counts what they issue:
``prefetch_requests`` for each one it accepts, and the hierarchy's
``dropped_prefetches`` for each one to an unmapped address.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from ..memory.hierarchy import MemoryHierarchy


class HardwarePrefetcher(ABC):
    """A demand-access-trained prefetcher attached to the L1."""

    name = "base"

    def __init__(self) -> None:
        self._hierarchy: MemoryHierarchy | None = None

    def attach(self, hierarchy: MemoryHierarchy) -> None:
        """Attach to a hierarchy's demand snoop hook."""

        self._hierarchy = hierarchy
        hierarchy.set_demand_snoop(self._on_snoop)

    # ------------------------------------------------------------------ hooks

    def _on_snoop(self, addr: int, time: float, level: str) -> None:
        for target in self.train(addr, time, level):
            self._hierarchy.prefetch_access(target, time)

    @abstractmethod
    def train(self, addr: int, time: float, level: str) -> list[int]:
        """Observe a demand read and return addresses to prefetch (may be empty)."""
