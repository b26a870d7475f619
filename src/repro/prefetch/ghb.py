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

The history is stored as an append-only list indexed by a monotonically
increasing position; capacity is enforced by treating entries older than
``history_entries`` positions as overwritten.  This is timing-equivalent to a
circular buffer and keeps the linked "previous occurrence" chains simple.
"""

from __future__ import annotations

from collections import OrderedDict

from ..config import CACHE_LINE_BYTES, GHBPrefetcherConfig
from .base import HardwarePrefetcher


class GHBPrefetcher(HardwarePrefetcher):
    """Markov (address-correlating) global history buffer prefetcher."""

    name = "ghb"

    def __init__(self, config: GHBPrefetcherConfig | None = None, *, label: str | None = None) -> None:
        super().__init__()
        self.config = config if config is not None else GHBPrefetcherConfig.regular()
        if label is not None:
            self.name = label
        #: position -> (line_address, position of previous occurrence or -1)
        self._history: list[tuple[int, int]] = []
        #: line address -> most recent position in the history buffer
        self._index: OrderedDict[int, int] = OrderedDict()

    # ------------------------------------------------------------------ train

    def train(self, addr: int, time: float, level: str) -> list[int]:
        del time
        line = addr - (addr % CACHE_LINE_BYTES)

        # Markov prefetchers train on L1 misses: hits carry no new
        # correlation information and would pollute the buffer.
        if level == "l1":
            return []

        candidates = self._predict(line)
        self._record(line)
        return candidates

    # ---------------------------------------------------------------- predict

    def _is_live(self, position: int) -> bool:
        """True when the history slot has not been (conceptually) overwritten."""

        if position < 0 or position >= len(self._history):
            return False
        return len(self._history) - position <= self.config.history_entries

    def _predict(self, line: int) -> list[int]:
        position = self._index.get(line)
        candidates: list[int] = []
        seen: set[int] = set()
        depth_remaining = self.config.depth
        while position is not None and depth_remaining > 0 and self._is_live(position):
            stored_line, previous = self._history[position]
            if stored_line != line:
                break
            for offset in range(1, self.config.width + 1):
                successor_pos = position + offset
                if not self._is_live(successor_pos):
                    break
                successor_line, _ = self._history[successor_pos]
                if successor_line != line and successor_line not in seen:
                    seen.add(successor_line)
                    candidates.append(successor_line)
            position = previous if previous >= 0 else None
            depth_remaining -= 1
        return candidates

    # ----------------------------------------------------------------- record

    def _record(self, line: int) -> None:
        previous = self._index.get(line, -1)
        position = len(self._history)
        self._history.append((line, previous))

        if line in self._index:
            self._index.move_to_end(line)
        elif len(self._index) >= self.config.index_entries:
            self._index.popitem(last=False)
        self._index[line] = position
