"""DDR3-like main memory timing model.

The model captures the two DRAM properties the prefetcher evaluation depends
on: a long access latency that the prefetcher hides, and finite bandwidth that
over-fetching (e.g. pointer prefetchers, or G500-List's early edge prefetches)
wastes.  Requests are served by a small number of channels; each channel is
busy for :attr:`~repro.config.DRAMConfig.line_service_cycles` per 64-byte line
and every request additionally pays the access latency.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import DRAMConfig


@dataclass(slots=True)
class DRAMStats:
    """Counters for main-memory traffic."""

    demand_accesses: int = 0
    prefetch_accesses: int = 0
    writebacks: int = 0
    busy_cycles: float = 0.0

    @property
    def total_accesses(self) -> int:
        return self.demand_accesses + self.prefetch_accesses + self.writebacks

    def as_dict(self) -> dict[str, float]:
        return {
            "demand_accesses": self.demand_accesses,
            "prefetch_accesses": self.prefetch_accesses,
            "writebacks": self.writebacks,
            "total_accesses": self.total_accesses,
            "busy_cycles": self.busy_cycles,
        }


@dataclass
class DRAMModel:
    """Channel-based DRAM timing model."""

    config: DRAMConfig
    _channel_free: list[float] = field(default_factory=list)
    stats: DRAMStats = field(default_factory=DRAMStats)

    def __post_init__(self) -> None:
        self._channel_free = [0.0] * self.config.channels
        # Hot-path constants (access() runs once per L2 miss).
        self._access_latency = self.config.access_latency_cycles
        self._service_cycles = self.config.line_service_cycles

    def access(self, time: float, *, is_prefetch: bool = False, is_writeback: bool = False) -> float:
        """Serve one line-sized request arriving at ``time``.

        Returns the completion time of the request.  The least-loaded channel
        is used, which approximates address interleaving across channels.
        """

        # First least-loaded channel (min() with a key built a range object
        # and paid a key call per channel on every DRAM access).
        channel_free = self._channel_free
        channel = 0
        earliest = channel_free[0]
        for index in range(1, len(channel_free)):
            free = channel_free[index]
            if free < earliest:
                earliest = free
                channel = index
        start = time if time > earliest else earliest
        completion = start + self._access_latency
        channel_free[channel] = start + self._service_cycles
        self.stats.busy_cycles += self._service_cycles
        if is_writeback:
            self.stats.writebacks += 1
        elif is_prefetch:
            self.stats.prefetch_accesses += 1
        else:
            self.stats.demand_accesses += 1
        return completion
