"""Two-level TLB and page-table-walker cost model.

Translation cost is added to every demand access and to every prefetch issued
from the prefetch request queue (the paper's prefetcher translates through the
shared TLB).  Page faults never occur for workload data because every workload
address is mapped; prefetches to unmapped addresses (e.g. a speculative
pointer that turns out to be garbage) are discarded by the hierarchy, matching
Section 5.3 ("the prefetcher ... cannot handle page faults, so in this case we
discard the prefetch").
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import TLBConfig


@dataclass(slots=True)
class TLBStats:
    accesses: int = 0
    l1_hits: int = 0
    l2_hits: int = 0
    walks: int = 0

    @property
    def l1_hit_rate(self) -> float:
        return self.l1_hits / self.accesses if self.accesses else 0.0

    def as_dict(self) -> dict[str, float]:
        return {
            "accesses": self.accesses,
            "l1_hits": self.l1_hits,
            "l2_hits": self.l2_hits,
            "walks": self.walks,
            "l1_hit_rate": self.l1_hit_rate,
        }


class _LRUSet:
    """A small fully-associative LRU structure keyed by virtual page number.

    A plain dict in recency order (oldest first): delete + re-insert moves a
    key to the end, ``next(iter(...))`` is the LRU victim.  Equivalent to an
    ``OrderedDict`` with ``move_to_end``/``popitem(last=False)`` but faster —
    this sits on the per-access translation path.
    """

    __slots__ = ("_capacity", "_entries")

    def __init__(self, capacity: int) -> None:
        self._capacity = capacity
        self._entries: dict[int, None] = {}

    def lookup(self, page: int) -> bool:
        entries = self._entries
        if page in entries:
            del entries[page]
            entries[page] = None
            return True
        return False

    def insert(self, page: int) -> None:
        entries = self._entries
        if page in entries:
            del entries[page]
            entries[page] = None
            return
        if len(entries) >= self._capacity:
            del entries[next(iter(entries))]
        entries[page] = None

    def __len__(self) -> int:
        return len(self._entries)


class TLB:
    """Two-level TLB returning the extra latency of address translation."""

    def __init__(self, config: TLBConfig) -> None:
        self.config = config
        self._l1 = _LRUSet(config.l1_entries)
        self._l2 = _LRUSet(config.l2_entries)
        self.stats = TLBStats()
        # Hot-path constants: translate() runs once per demand access and
        # once per issued prefetch, so the config chain and latency floats
        # are resolved here instead of per call.
        self._page_bytes = config.page_bytes
        self._l2_latency = float(config.l2_hit_latency)
        self._walk_latency = float(config.l2_hit_latency + config.walk_latency)

    def translate(self, addr: int, time: float) -> float:
        """Return the translation latency (in cycles) for ``addr``.

        ``time`` is accepted for interface symmetry with the caches; the TLB
        model itself is stateless in time.  The L1 hit path (the vast
        majority of translations) is inlined: one dict probe plus the
        delete/re-insert recency update.
        """

        del time  # latency-only model
        page = addr // self._page_bytes
        stats = self.stats
        stats.accesses += 1
        l1_entries = self._l1._entries
        if page in l1_entries:
            del l1_entries[page]
            l1_entries[page] = None
            stats.l1_hits += 1
            return 0.0
        return self.miss(page)

    def miss(self, page: int) -> float:
        """L1-TLB-miss continuation of :meth:`translate`.

        Split out so the memory hierarchy can inline the L1-hit fast path
        (one dict membership test) and only pay a call on the miss path.
        The access has already been counted by the caller.
        """

        stats = self.stats
        if self._l2.lookup(page):
            stats.l2_hits += 1
            self._l1.insert(page)
            return self._l2_latency
        stats.walks += 1
        self._l2.insert(page)
        self._l1.insert(page)
        return self._walk_latency
