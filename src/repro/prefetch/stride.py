"""Reference-prediction-table stride prefetcher.

This follows Chen & Baer's reference prediction table (the "Stride Prefetcher"
row of Table 1): accesses are grouped into streams by the cache-line-aligned
region they fall in, a stride is learned per stream, and once the stride has
repeated ``confidence_threshold`` times, ``degree`` lines ahead are prefetched.

In the absence of per-PC information in the dynamic trace (the trace carries
addresses and dependences, not program counters), streams are keyed by address
region, which is how region-based stride prefetchers in commercial cores
behave.  Strided workloads (the sequential key/index arrays in every
benchmark) train quickly; the irregular indirect accesses never establish a
stable stride, which is exactly the failure mode the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import CACHE_LINE_BYTES, StridePrefetcherConfig
from .base import HardwarePrefetcher

#: Size of the address region used to identify a stream (bytes).
_REGION_BYTES = 1 << 16


@dataclass
class _StrideEntry:
    last_addr: int
    stride: int = 0
    confidence: int = 0


class StridePrefetcher(HardwarePrefetcher):
    """Region-keyed reference-prediction-table stride prefetcher."""

    name = "stride"

    def __init__(self, config: StridePrefetcherConfig | None = None) -> None:
        self.config = config if config is not None else StridePrefetcherConfig()
        #: region -> stream entry, in recency order (oldest first): a hit
        #: deletes and re-inserts its key, and the first key is the LRU
        #: victim, as in the TLB's ``_LRUSet``.
        self._table: dict[int, _StrideEntry] = {}

    def train(self, addr: int, time: float, level: str) -> list[int]:
        del time, level
        region = addr // _REGION_BYTES
        table = self._table
        entry = table.pop(region, None)
        if entry is None:
            if len(table) >= self.config.table_entries:
                del table[next(iter(table))]
            table[region] = _StrideEntry(last_addr=addr)
            return []

        table[region] = entry
        stride = addr - entry.last_addr
        if stride == 0:
            return []

        if stride == entry.stride:
            entry.confidence = min(entry.confidence + 1, self.config.confidence_threshold + 1)
        else:
            entry.stride = stride
            entry.confidence = 1
        entry.last_addr = addr

        if entry.confidence < self.config.confidence_threshold:
            return []

        candidates: list[int] = []
        seen_lines: set[int] = set()
        for distance in range(1, self.config.degree + 1):
            target = addr + distance * entry.stride
            if target <= 0:
                break
            line = target - (target % CACHE_LINE_BYTES)
            if line not in seen_lines:
                seen_lines.add(line)
                candidates.append(line)
        return candidates
