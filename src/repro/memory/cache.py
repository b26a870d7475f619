"""Set-associative cache model with LRU replacement and prefetch bookkeeping.

The cache is a *timing-and-occupancy* model: it tracks which lines are
resident, when each line's fill completes, whether the line was brought in by
a prefetch, and whether a prefetched line was used by a demand access before
eviction.  These are exactly the quantities behind Figure 8 of the paper
(prefetch utilisation and L1 read hit rates).

The cache does not store data — data lives in the
:class:`~repro.memory.address_space.AddressSpace` — so fills never copy bytes;
they only update the tag state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..config import CacheConfig


@dataclass(slots=True)
class CacheStats:
    """Per-cache counters."""

    demand_read_accesses: int = 0
    demand_read_hits: int = 0
    demand_write_accesses: int = 0
    demand_write_hits: int = 0
    inflight_merges: int = 0
    misses: int = 0
    evictions: int = 0
    dirty_evictions: int = 0
    prefetch_requests: int = 0
    prefetch_fills: int = 0
    prefetch_redundant: int = 0
    prefetch_merged: int = 0
    prefetch_used: int = 0
    prefetch_evicted_unused: int = 0
    prefetch_unused_at_end: int = 0

    @property
    def demand_accesses(self) -> int:
        return self.demand_read_accesses + self.demand_write_accesses

    @property
    def demand_hits(self) -> int:
        return self.demand_read_hits + self.demand_write_hits

    @property
    def demand_read_hit_rate(self) -> float:
        if self.demand_read_accesses == 0:
            return 0.0
        return self.demand_read_hits / self.demand_read_accesses

    @property
    def prefetch_utilisation(self) -> float:
        """Fraction of completed prefetch fills used by a demand access."""

        if self.prefetch_fills == 0:
            return 0.0
        return self.prefetch_used / self.prefetch_fills

    def as_dict(self) -> dict[str, float]:
        return {
            "demand_read_accesses": self.demand_read_accesses,
            "demand_read_hits": self.demand_read_hits,
            "demand_write_accesses": self.demand_write_accesses,
            "demand_write_hits": self.demand_write_hits,
            "demand_read_hit_rate": self.demand_read_hit_rate,
            "inflight_merges": self.inflight_merges,
            "misses": self.misses,
            "evictions": self.evictions,
            "dirty_evictions": self.dirty_evictions,
            "prefetch_requests": self.prefetch_requests,
            "prefetch_fills": self.prefetch_fills,
            "prefetch_redundant": self.prefetch_redundant,
            "prefetch_merged": self.prefetch_merged,
            "prefetch_used": self.prefetch_used,
            "prefetch_evicted_unused": self.prefetch_evicted_unused,
            "prefetch_unused_at_end": self.prefetch_unused_at_end,
            "prefetch_utilisation": self.prefetch_utilisation,
        }


@dataclass(slots=True)
class CacheLine:
    """Tag-array state for one resident (or in-flight) line.

    ``slots=True``: one is allocated per cache fill, and the slotted layout
    makes both construction and the per-hit field accesses cheaper.
    """

    tag: int
    fill_time: float
    prefetched: bool = False
    used: bool = False
    dirty: bool = False


class Cache:
    """A single level of set-associative cache.

    Hot-path layout: each set is a plain dict ordered by recency (oldest
    entry first), so a hit is one dict probe, an LRU update is a delete +
    re-insert, and the eviction victim is ``next(iter(set))`` — no per-miss
    scan.  Set index and tag come from precomputed shifts/masks instead of
    re-deriving ``line_address(...) // line_bytes`` on every access.
    """

    def __init__(self, config: CacheConfig) -> None:
        config.validate()
        self.config = config
        self._num_sets = config.num_sets
        # Both line_bytes (64) and num_sets are validated powers of two.
        self._line_shift = config.line_bytes.bit_length() - 1
        self._set_mask = self._num_sets - 1
        self._set_shift = self._num_sets.bit_length() - 1
        self._sets: list[dict[int, CacheLine]] = [dict() for _ in range(self._num_sets)]
        self._associativity = config.associativity
        self.stats = CacheStats()

    # ------------------------------------------------------------- addressing

    def probe(self, addr: int) -> tuple[dict[int, CacheLine], int]:
        """Return ``(cache_set, tag)`` for ``addr`` — the one-probe hot path.

        The caller may read ``cache_set.get(tag)`` and, for a hit, pass the
        results straight to :meth:`touch_entry` / :meth:`fill_entry` without
        recomputing the set and tag.
        """

        line = addr >> self._line_shift
        return self._sets[line & self._set_mask], line >> self._set_shift

    # ----------------------------------------------------------------- lookup

    def lookup(self, addr: int) -> Optional[CacheLine]:
        """Return the line containing ``addr`` if resident or in flight."""

        cache_set, tag = self.probe(addr)
        return cache_set.get(tag)

    def contains(self, addr: int, time: float) -> bool:
        """Return True when the line is resident and filled by ``time``."""

        line = self.lookup(addr)
        return line is not None and line.fill_time <= time

    def touch(self, addr: int, *, write: bool = False) -> None:
        """Update LRU state (and dirtiness) for a hit on ``addr``."""

        cache_set, tag = self.probe(addr)
        line = cache_set.get(tag)
        if line is not None:
            self.touch_entry(cache_set, tag, line, write=write)

    def touch_entry(
        self, cache_set: dict[int, CacheLine], tag: int, line: CacheLine, *, write: bool = False
    ) -> None:
        """LRU/dirty/prefetch-used update for a line already probed via :meth:`probe`."""

        # Intrusive LRU: each set's dict is kept in recency order (oldest
        # first), so eviction is O(1) instead of a per-miss stamp scan.
        del cache_set[tag]
        cache_set[tag] = line
        if write:
            line.dirty = True
        if line.prefetched and not line.used:
            line.used = True
            self.stats.prefetch_used += 1

    # ------------------------------------------------------------------ fills

    def insert(
        self,
        addr: int,
        fill_time: float,
        *,
        prefetched: bool = False,
        write: bool = False,
    ) -> Optional[CacheLine]:
        """Insert the line containing ``addr``; return the evicted line, if any.

        The line is inserted immediately but only becomes usable (a "hit") at
        ``fill_time``; accesses between now and then merge with the in-flight
        fill.

        Inserting a tag that is already resident (or in flight) *merges* with
        the existing line rather than replacing it: ``dirty`` and ``used``
        state is preserved (so ``dirty_evictions`` and ``prefetch_used`` stay
        correct), the line becomes available at the earlier of the two fill
        times, and a prefetch landing on a line it did not originally bring
        in does not count an extra ``prefetch_fills``.
        """

        cache_set, tag = self.probe(addr)
        return self.fill_entry(cache_set, tag, fill_time, prefetched=prefetched, write=write)

    def fill_entry(
        self,
        cache_set: dict[int, CacheLine],
        tag: int,
        fill_time: float,
        prefetched: bool = False,
        write: bool = False,
    ) -> Optional[CacheLine]:
        """:meth:`insert` for a set/tag already probed via :meth:`probe`.

        The flags are positional too: the hierarchy's access paths call
        this once per fill, and a keyword call costs measurably more.
        """

        existing = cache_set.get(tag)
        if existing is not None:
            # Merge: never drop dirty/used state or double-count fills.
            if fill_time < existing.fill_time:
                existing.fill_time = fill_time
            if write:
                existing.dirty = True
            del cache_set[tag]  # refresh intrusive LRU order (oldest first)
            cache_set[tag] = existing
            return None
        victim: Optional[CacheLine] = None
        if len(cache_set) >= self._associativity:
            victim_tag = next(iter(cache_set))
            victim = cache_set.pop(victim_tag)
            stats = self.stats
            stats.evictions += 1
            if victim.dirty:
                stats.dirty_evictions += 1
            if victim.prefetched and not victim.used:
                stats.prefetch_evicted_unused += 1
        # Positional construction (this runs once per fill).
        cache_set[tag] = CacheLine(tag, fill_time, prefetched, False, write)
        if prefetched:
            self.stats.prefetch_fills += 1
        return victim

    # ------------------------------------------------------------------ wrap-up

    def finalize(self) -> None:
        """Count prefetched lines never used by the end of the simulation."""

        for cache_set in self._sets:
            for line in cache_set.values():
                if line.prefetched and not line.used:
                    self.stats.prefetch_unused_at_end += 1

    # ------------------------------------------------------------------ info

    @property
    def resident_lines(self) -> int:
        return sum(len(s) for s in self._sets)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Cache({self.config.name}, {self.config.size_bytes // 1024}KB, "
            f"{self.config.associativity}-way, {self.resident_lines} lines resident)"
        )
