"""Markov global-history-buffer (GHB) prefetcher.

Implements the GHB G/AC organisation of Nesbit & Smith used as the history
baseline in the paper: a global history buffer of miss addresses in arrival
order, plus an index table mapping a miss address to its most recent
occurrence (address correlation).  On a miss, the prefetcher follows the chain
of previous occurrences of the same address and prefetches the addresses that
followed each of them — up to ``width`` successors from each of up to
``depth`` occurrences.

Two presets mirror the paper:

* *regular* — 2048-entry index and history buffer, an SRAM-realistic size;
* *large* — 2^26 entries (the paper's 1 GiB experiment), given free lookups.

As in the paper, the large configuration only helps workloads whose miss
footprint both fits in the history and repeats (G500-List, ConjGrad); the
others either touch too much data or never repeat an address.

The history is stored as two append-only columns indexed by a monotonically
increasing position: the line address, and the position of that line's
previous occurrence.  Capacity is enforced by treating entries older than
``history_entries`` positions as overwritten.  This is timing-equivalent to a
circular buffer and keeps the linked "previous occurrence" chains simple.
"""

from __future__ import annotations

from ..config import CACHE_LINE_BYTES, GHBPrefetcherConfig
from .base import HardwarePrefetcher


class GHBPrefetcher(HardwarePrefetcher):
    """Markov (address-correlating) global history buffer prefetcher."""

    name = "ghb"

    def __init__(self, config: GHBPrefetcherConfig | None = None, *, label: str | None = None) -> None:
        self.config = config if config is not None else GHBPrefetcherConfig.regular()
        if label is not None:
            self.name = label
        #: position -> line address
        self._lines: list[int] = []
        #: position -> position of the line's previous occurrence, or -1
        self._previous: list[int] = []
        #: line address -> most recent position, in recency order (oldest
        #: first): a hit deletes and re-inserts its key, and the first key
        #: is the LRU victim, as in the TLB's ``_LRUSet``.
        self._index: dict[int, int] = {}

    def train(self, addr: int, time: float, level: str) -> list[int]:
        del time
        # Markov prefetchers train on L1 misses: hits carry no new
        # correlation information and would pollute the buffer.
        if level == "l1":
            return []
        line = addr - (addr % CACHE_LINE_BYTES)
        lines = self._lines
        previous = self._previous
        index = self._index
        end = len(lines)

        last = index.pop(line, -1)
        candidates: list[int] = []
        if last >= 0:
            # Follow the chain of the line's live occurrences, newest first,
            # and collect up to ``width`` successors of each.  A slot is live
            # while fewer than ``history_entries`` lines have been appended
            # after it; the slice stops at the newest slot.  The bound never
            # drops below 0, so it also ends the chain at -1.
            config = self.config
            oldest = end - config.history_entries
            if oldest < 0:
                oldest = 0
            width = config.width
            depth = config.depth
            successors: list[int] = []
            position = last
            while depth and position >= oldest:
                successors += lines[position + 1 : position + 1 + width]
                position = previous[position]
                depth -= 1
            if successors:
                # Each successor once, in order of first sight, never the line.
                unique = dict.fromkeys(successors)
                unique.pop(line, None)
                candidates = list(unique)
        elif len(index) >= self.config.index_entries:
            del index[next(iter(index))]

        index[line] = end
        lines.append(line)
        previous.append(last)
        return candidates
