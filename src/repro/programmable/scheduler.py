"""PPU scheduling policies (Section 4.3 / Figure 10).

The paper's scheduler assigns the oldest observation to the free PPU with the
lowest ID, which is what makes the Figure 10 activity-factor analysis
informative (low-ID units do most of the work when there is little prefetch
computation).  A round-robin policy is provided as the ablation the paper
mentions ("other scheduling policies would spread the work out more evenly,
but would not change the overall performance").
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional, Sequence

from .ppu import PPU


class SchedulingPolicy(ABC):
    """Chooses which free PPU receives the next observation."""

    name = "base"

    @abstractmethod
    def select(self, ppus: Sequence[PPU], time: float) -> Optional[PPU]:
        """Return a PPU that is free at ``time``, or None if all are busy."""


class LowestFreeIdPolicy(SchedulingPolicy):
    """Pick the free PPU with the lowest ID (the paper's policy)."""

    name = "lowest-free-id"

    def select(self, ppus: Sequence[PPU], time: float) -> Optional[PPU]:
        for ppu in ppus:
            if ppu.busy_until <= time:
                return ppu
        return None


class RoundRobinPolicy(SchedulingPolicy):
    """Rotate across PPUs, spreading work evenly."""

    name = "round-robin"

    def __init__(self) -> None:
        self._next = 0

    def select(self, ppus: Sequence[PPU], time: float) -> Optional[PPU]:
        count = len(ppus)
        for offset in range(count):
            candidate = ppus[(self._next + offset) % count]
            if candidate.busy_until <= time:
                self._next = (candidate.ppu_id + 1) % count
                return candidate
        return None
