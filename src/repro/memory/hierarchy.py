"""Assembly of the simulated memory hierarchy.

:class:`MemoryHierarchy` wires together the L1 and L2 caches, their MSHR
files, the TLB and the DRAM model, and exposes the two entry points used by
the rest of the simulator:

``demand_access_time``
    called by the core timing model for every load and store in the dynamic
    trace; returns the completion time of the access.

``prefetch_access``
    called by the programmable engine, by ``demand_access_time`` for each
    line a snoop returns, and by the interpreter core for a software-prefetch
    trace op; brings a line into the L1/L2 and returns the time its data is
    available, which is how the event-triggered prefetcher learns when its
    own prefetches return.

Two hooks let a prefetch engine observe the hierarchy the way the paper's
address filter snoops the L1: ``demand_snoop`` is invoked for every demand
*read* (Section 4.2: "the address filter snoops all loads coming from the
main core"), and ``advance_hook`` is invoked with the current time before
each demand access so an event-driven engine can catch up with simulated
time before the core looks at the cache state.  An engine whose hooks
would do nothing for most accesses narrows them with :meth:`gate_hooks`.

A snoop never calls into the hierarchy: it returns the lines to prefetch,
and ``demand_access_time`` issues each one through ``prefetch_access`` at
the snoop's time.  So the code that replays a demand read carries out the
prefetches it triggers, and the vector replay loop
(:mod:`repro.sim.vector.replay`) does the same without calling back here.
"""

from __future__ import annotations

import heapq
from math import inf
from typing import Callable, Optional, Sequence

from ..config import CACHE_LINE_BYTES, SystemConfig
from ..errors import SimulationError
from .address_space import AddressSpace
from .cache import Cache
from .dram import DRAMModel
from .mshr import MSHRFile
from .stats import HierarchyStats
from .tlb import TLB

#: Signature of the demand-read snoop callback: ``(address, time, level)``,
#: where ``time`` is the read's post-translation time and ``level`` the level
#: that served it ("l1", "l1_inflight", "l2", "l2_inflight" or "dram").  It
#: returns the lines to prefetch at ``time``, in issue order, or ``None``.
#: The programmable prefetcher's address filter ignores the level (it snoops
#: all loads) and returns nothing, issuing through its own queue; the stride
#: and GHB baselines train on hits/misses as their original designs do and
#: return their candidates.
SnoopHook = Callable[[int, float, str], Optional[Sequence[int]]]

#: Signature of the time-advance callback: ``(time)``.
AdvanceHook = Callable[[float], None]

# The advance hook is entered while ``due[0][0] <= time``: always for a
# plain hook, never without one.
_ALWAYS_DUE = ((-inf,),)
_NEVER_DUE = ()


class MemoryHierarchy:
    """L1 + L2 + TLB + DRAM with prefetch support."""

    def __init__(self, config: SystemConfig, address_space: Optional[AddressSpace] = None) -> None:
        config.validate()
        self.config = config
        self.address_space = address_space if address_space is not None else AddressSpace()
        self.l1 = Cache(config.l1)
        self.l2 = Cache(config.l2)
        self.l1_mshrs = MSHRFile(config.l1.mshrs)
        self.l2_mshrs = MSHRFile(config.l2.mshrs)
        self.tlb = TLB(config.tlb)
        self.dram = DRAMModel(config.dram)
        self.dropped_prefetches = 0
        self._demand_snoop: Optional[SnoopHook] = None
        self._advance_hook: Optional[AdvanceHook] = None
        # Hook gates (see gate_hooks): the snoop is entered for addresses in
        # [_snoop_lo, _snoop_hi), the advance hook while _advance_due's head
        # is due.
        self._snoop_lo = self._snoop_hi = 0
        self._advance_due: Sequence[tuple] = _NEVER_DUE
        # Hot-path constants and structures, hoisted out of the per-access
        # attribute chain: Cache.probe and the TLB's L1-hit path are inlined
        # into demand_access_time/prefetch_access (one shift/mask or dict
        # probe instead of a method call per access).
        self._l1_hit_latency = config.l1.hit_latency
        self._l2_hit_latency = config.l2.hit_latency
        self._l1_sets = self.l1._sets
        self._l1_line_shift = self.l1._line_shift
        self._l1_set_mask = self.l1._set_mask
        self._l1_set_shift = self.l1._set_shift
        self._l2_sets = self.l2._sets
        self._l2_line_shift = self.l2._line_shift
        self._l2_set_mask = self.l2._set_mask
        self._l2_set_shift = self.l2._set_shift
        self._tlb_page_bytes = self.tlb._page_bytes
        self._tlb_l1_entries = self.tlb._l1._entries
        self._tlb_stats = self.tlb.stats
        # Memoised line reads for the prefetcher (see read_line_words):
        # trace replay never writes the address space, so the 8-word tuple of
        # a line is invariant for the lifetime of one simulation.
        self._line_words_cache: dict[int, tuple[int, ...]] = {}
        # Memoised is_mapped() verdicts for prefetch targets (the address
        # space's region map is likewise fixed during a simulation).
        self._mapped_cache: dict[int, bool] = {}

    # ----------------------------------------------------------------- hooks

    def set_demand_snoop(self, hook: Optional[SnoopHook]) -> None:
        """Register the address-filter snoop for demand reads."""

        self._demand_snoop = hook
        self._snoop_lo, self._snoop_hi = (-inf, inf) if hook is not None else (0, 0)

    def set_advance_hook(self, hook: Optional[AdvanceHook]) -> None:
        """Register a callback run before each demand access with the access time."""

        self._advance_hook = hook
        self._advance_due = _ALWAYS_DUE if hook is not None else _NEVER_DUE

    def gate_hooks(self, due: Sequence[tuple], snoop_lo: int, snoop_hi: int) -> None:
        """Enter the registered hooks only when they can act.

        ``due`` is the caller's live event heap of ``(time, ...)`` entries:
        the advance hook is entered only when its head is at or before the
        access time.  The snoop is entered only for addresses in
        ``[snoop_lo, snoop_hi)``; the caller accounts the reads it skips.
        Registering a hook again removes its gate.
        """

        self._advance_due = due
        self._snoop_lo = snoop_lo
        self._snoop_hi = snoop_hi

    # ---------------------------------------------------------------- demand

    def demand_access_time(self, addr: int, time: float, *, write: bool = False) -> float:
        """Perform a demand load or store issued by the core at ``time``.

        Returns the completion time of the access.  A demand read is
        reported to the snoop with the level that served it, and each line
        the snoop returns is prefetched at the read's post-translation time.
        """

        if time < 0:
            raise SimulationError("access time must be non-negative")
        due = self._advance_due
        if due and due[0][0] <= time:
            self._advance_hook(time)

        # The lookup body is inlined here (it used to be _demand_lookup):
        # this method runs once per dynamic memory op, and the extra call
        # was measurable once the lookup itself had been slimmed down.
        # TLB.translate's L1-hit path is inlined the same way.
        page = addr // self._tlb_page_bytes
        tlb_stats = self._tlb_stats
        tlb_stats.accesses += 1
        tlb_l1 = self._tlb_l1_entries
        if page in tlb_l1:
            del tlb_l1[page]
            tlb_l1[page] = None
            tlb_stats.l1_hits += 1
            translation_latency = 0.0
        else:
            translation_latency = self.tlb.miss(page)
        t = time + translation_latency

        l1 = self.l1
        l1_stats = l1.stats
        if write:
            l1_stats.demand_write_accesses += 1
        else:
            l1_stats.demand_read_accesses += 1

        # One probe serves the hit, the in-flight merge and the miss fill
        # (Cache.probe, inlined).
        line_index = addr >> self._l1_line_shift
        cache_set = self._l1_sets[line_index & self._l1_set_mask]
        tag = line_index >> self._l1_set_shift
        line = cache_set.get(tag)
        hit_latency = self._l1_hit_latency
        if line is not None:
            fill_time = line.fill_time
            if fill_time <= t:
                if write:
                    l1_stats.demand_write_hits += 1
                else:
                    l1_stats.demand_read_hits += 1
                completion = t + hit_latency
                level = "l1"
            else:
                # The line is already being filled (by a prefetch or an
                # earlier miss); this access merges with the outstanding fill.
                l1_stats.inflight_merges += 1
                earliest = t + hit_latency
                completion = fill_time if fill_time > earliest else earliest
                level = "l1_inflight"
            # Cache.touch_entry, inlined (runs once per L1 hit/merge).
            del cache_set[tag]
            cache_set[tag] = line
            if write:
                line.dirty = True
            if line.prefetched and not line.used:
                line.used = True
                l1_stats.prefetch_used += 1
        else:
            # L1 miss.
            l1_stats.misses += 1
            grant = self.l1_mshrs.allocate(t)
            completion, level = self._access_l2(addr, grant + hit_latency, False)
            l1.fill_entry(cache_set, tag, completion, False, write)
            self.l1_mshrs.register_fill(completion)

        if not write and self._snoop_lo <= addr < self._snoop_hi:
            targets = self._demand_snoop(addr, t, level)
            if targets:
                for target in targets:
                    self.prefetch_access(target, t)
        return completion

    # -------------------------------------------------------------- prefetch

    def prefetch_access(self, addr: int, time: float) -> Optional[float]:
        """Bring the line containing ``addr`` into the L1 as a prefetch.

        Returns the time the data is available in the L1, or ``None`` when
        the prefetch was discarded (unmapped address, i.e. what would have
        been a page fault — Section 5.3).
        """

        mapped_cache = self._mapped_cache
        mapped = mapped_cache.get(addr)
        if mapped is None:
            if len(mapped_cache) >= 65536:
                mapped_cache.clear()
            mapped = self.address_space.is_mapped(addr)
            mapped_cache[addr] = mapped
        if not mapped:
            self.dropped_prefetches += 1
            return None

        l1 = self.l1
        l1_stats = l1.stats
        l1_stats.prefetch_requests += 1
        # TLB.translate's L1-hit path, inlined (as in demand_access_time).
        page = addr // self._tlb_page_bytes
        tlb_stats = self._tlb_stats
        tlb_stats.accesses += 1
        tlb_l1 = self._tlb_l1_entries
        if page in tlb_l1:
            del tlb_l1[page]
            tlb_l1[page] = None
            tlb_stats.l1_hits += 1
            translation_latency = 0.0
        else:
            translation_latency = self.tlb.miss(page)
        t = time + translation_latency

        # Cache.probe, inlined (as in demand_access_time).
        line_index = addr >> self._l1_line_shift
        cache_set = self._l1_sets[line_index & self._l1_set_mask]
        tag = line_index >> self._l1_set_shift
        line = cache_set.get(tag)
        if line is not None:
            fill_time = line.fill_time
            if fill_time <= t:
                l1_stats.prefetch_redundant += 1
                return t + self._l1_hit_latency
            l1_stats.prefetch_merged += 1
            return fill_time

        # MSHRFile.allocate + register_fill, inlined (one L1 fill per issued
        # prefetch is the common case on the event-engine hot path).
        mshrs = self.l1_mshrs
        completions = mshrs._completions
        heappop = heapq.heappop
        while completions and completions[0] <= t:
            heappop(completions)
        if len(completions) < mshrs._capacity:
            grant = t
        else:
            grant = completions[0]
            mshrs.total_stall_cycles += grant - t
            while completions and completions[0] <= grant:
                heappop(completions)
        mshrs.total_allocations += 1
        data_time, _level = self._access_l2(addr, grant + self._l1_hit_latency, True)
        l1.fill_entry(cache_set, tag, data_time, True)
        heapq.heappush(completions, data_time)
        return data_time

    # ------------------------------------------------------------------- L2

    def _access_l2(self, addr: int, time: float, is_prefetch: bool) -> tuple[float, str]:
        l2 = self.l2
        l2_stats = l2.stats
        if is_prefetch:
            l2_stats.prefetch_requests += 1
        else:
            l2_stats.demand_read_accesses += 1

        # Cache.probe, inlined (as in demand_access_time).
        line_index = addr >> self._l2_line_shift
        cache_set = self._l2_sets[line_index & self._l2_set_mask]
        tag = line_index >> self._l2_set_shift
        line = cache_set.get(tag)
        hit_latency = self._l2_hit_latency
        if line is not None:
            # Cache.touch_entry, inlined (the L2 has no demand-write path).
            del cache_set[tag]
            cache_set[tag] = line
            if line.prefetched and not line.used:
                line.used = True
                l2_stats.prefetch_used += 1
            fill_time = line.fill_time
            if fill_time <= time:
                if not is_prefetch:
                    l2_stats.demand_read_hits += 1
                return time + hit_latency, "l2"
            l2_stats.inflight_merges += 1
            earliest = time + hit_latency
            return (fill_time if fill_time > earliest else earliest), "l2_inflight"

        l2_stats.misses += 1
        grant = self.l2_mshrs.allocate(time)
        dram_completion = self.dram.access(grant + hit_latency, is_prefetch=is_prefetch)
        victim = l2.fill_entry(cache_set, tag, dram_completion, is_prefetch)
        if victim is not None and victim.dirty:
            self.dram.stats.writebacks += 1
        self.l2_mshrs.register_fill(dram_completion)
        return dram_completion, "dram"

    # ------------------------------------------------------------------ misc

    def read_line_words(self, addr: int) -> tuple[int, ...]:
        """The words of the line containing ``addr``, as a memoised tuple.

        The prefetcher reads one line per observation and one per
        interesting fill, and trace replay never writes the address space,
        so line contents are invariant for the lifetime of a simulation.
        The cache is bounded (cleared wholesale past the cap) so large-scale
        runs cannot grow it past a few megabytes.
        """

        base = addr - (addr % CACHE_LINE_BYTES)
        cache = self._line_words_cache
        words = cache.get(base)
        if words is None:
            if len(cache) >= 65536:
                cache.clear()
            words = tuple(self.address_space.read_line(base))
            cache[base] = words
        return words

    def finalize(self) -> None:
        """Close out end-of-run statistics (unused prefetched lines)."""

        self.l1.finalize()
        self.l2.finalize()

    def collect_stats(self) -> HierarchyStats:
        return HierarchyStats(
            l1=self.l1.stats.as_dict(),
            l2=self.l2.stats.as_dict(),
            tlb=self.tlb.stats.as_dict(),
            dram=self.dram.stats.as_dict(),
            dropped_prefetches=self.dropped_prefetches,
        )
