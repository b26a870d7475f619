"""The GHB G/AC prefetcher as a history of (line, previous) tuples.

:class:`~repro.prefetch.ghb.GHBPrefetcher` trains over two flat history
columns and a recency-ordered dict; this is the tuple-and-``OrderedDict``
formulation it replaced, kept as the differential oracle it is tested
against (``tests/test_baseline_prefetchers.py``), as ``kernel_oracle.py``
keeps the kernel interpreter.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.config import CACHE_LINE_BYTES, GHBPrefetcherConfig


class GHBOracle:
    """Markov (address-correlating) global history buffer, one method per step."""

    def __init__(self, config: GHBPrefetcherConfig) -> None:
        self.config = config
        #: position -> (line_address, position of previous occurrence or -1)
        self._history: list[tuple[int, int]] = []
        #: line address -> most recent position in the history buffer
        self._index: OrderedDict[int, int] = OrderedDict()

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

    def _record(self, line: int) -> None:
        previous = self._index.get(line, -1)
        position = len(self._history)
        self._history.append((line, previous))

        if line in self._index:
            self._index.move_to_end(line)
        elif len(self._index) >= self.config.index_entries:
            self._index.popitem(last=False)
        self._index[line] = position
