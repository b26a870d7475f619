"""The event-triggered programmable prefetcher engine.

This module ties together every structure of Figure 3: the address filter
snoops demand loads, observations queue up for the scheduler, free PPUs run
kernels that generate prefetch requests, the request queue drains into the L1
when MSHRs are free, and returned prefetches trigger further events (via the
memory-request tags of Section 4.7 or the filter table's ``PF Ptr`` entries).
EWMA calculators (Section 4.5) turn observed iteration times and prefetch
chain latencies into dynamic look-ahead distances that kernels can read.

The engine holds the filter table (Section 4.2) and the global prefetcher
registers itself.  The filter table is flattened per event source when the
engine is built: the *load* table holds every range with a load kernel or
an iteration timer, the *prefetch* table every range with a prefetch
kernel or a chain mark.  Ranges may overlap; an address inside several
ranges produces one observation per matching range that names a kernel,
as in the paper.  The registers are the configured global values padded
with zeros to the register-file size; kernels have no opcode that writes
one, so every kernel reads that one list.

The engine is a discrete-event model sharing the simulation's global clock
(main-core cycles).  It is driven lazily: the memory hierarchy calls
:meth:`EventTriggeredPrefetcher.advance_to` with the current time before every
demand access at which an engine event is due, so the prefetcher's state
(including lines it has filled into the cache model) is up to date whenever
the core looks.

One event loop runs every configuration.  The *blocking* variant
(``ProgrammablePrefetcherConfig.blocking_mode``) models the Figure 11
ablation as a branch at dispatch: instead of scheduling a fresh event when a
prefetch returns, the PPU that issued it stalls until the data arrives and
continues the chain itself, exactly like a helper thread that must wait on
intermediate loads.  Scheduling policies other than the paper's
lowest-free-id scan are consulted through their ``select`` at the same
point.

The records flowing through the engine are plain tuples, built positionally
on the per-event path:

* an *observation* (an observation-queue entry) is
  ``(executor, addr, line_base, line_words, stream, chain_start_time)``,
  where ``executor`` is the compiled kernel to run, ``line_words`` the
  forwarded cache line, ``stream`` the EWMA stream the kernel's look-ahead
  reads and ``chain_start_time`` the timestamp of a timed prefetch chain
  (Section 4.5), or ``None``;
* a *prefetch request* (a request-queue entry) is
  ``(addr, tag, stream, chain_start_time)``;
* a heap *event* is ``(time, sequence, kind, a, b, c)``: an observation
  carries the observation in ``a``; a finished PPU its prefetches, stream
  and chain start; a fill its request in ``a``; a drain nothing.

Both queues are ``deque(maxlen=N)``: a full queue drops its oldest entry, as
the paper's queues do ("old observations can be safely dropped with no
impact on correctness"), and the engine counts each drop.
"""

from __future__ import annotations

import copy
import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from ..config import CACHE_LINE_BYTES, SystemConfig
from ..errors import ConfigurationError
from ..memory.hierarchy import MemoryHierarchy
from .compiler import kernel_executor
from .config_api import PrefetcherConfiguration
from .ewma import LookaheadCalculator
from .ppu import EVENT_DISPATCH_OVERHEAD_PPU_CYCLES, PPU
from .scheduler import LowestFreeIdPolicy, SchedulingPolicy

# Internal event kinds on the engine's heap.
_EV_OBSERVATION = 0
_EV_PPU_DONE = 1
_EV_DRAIN = 2
_EV_FILL = 3

# The arrivals of a PPU-done event with observations waiting: nothing to
# push, one dispatch.
_DISPATCH_ONLY = (None,)


@dataclass(slots=True)
class PrefetcherStats:
    """The facts only the engine counts.

    :meth:`EventTriggeredPrefetcher.collect_stats` derives the rest: the
    PPU totals from the per-PPU counters and ``loads_snooped`` from the
    demand reads the L1 served while the engine was attached.
    ``load_matches`` counts snooped loads inside at least one load-table
    range; ``prefetch_matches`` counts issued prefetches and interesting
    fills inside at least one prefetch-table range, so an untagged
    prefetch into a watched range counts twice: at issue and at its fill.
    """

    load_matches: int = 0
    prefetch_matches: int = 0
    observations_created: int = 0
    observations_dropped: int = 0
    prefetches_dropped: int = 0
    prefetches_issued: int = 0
    prefetches_discarded: int = 0
    fills_observed: int = 0
    activity_factors: list[float] = field(default_factory=list)


class EventTriggeredPrefetcher:
    """The paper's programmable prefetcher, attached to a memory hierarchy."""

    name = "programmable"

    def __init__(
        self,
        system_config: SystemConfig,
        configuration: PrefetcherConfiguration,
        *,
        policy: Optional[SchedulingPolicy] = None,
    ) -> None:
        configuration.validate()
        self.system_config = system_config
        self.config = system_config.prefetcher
        self.config.validate()
        self.configuration = configuration
        self.cycle_ratio = system_config.ppu_cycle_ratio
        self.blocking = self.config.blocking_mode

        ranges = configuration.ranges
        capacity = self.config.filter_table_entries
        if len(ranges) > capacity:
            raise ConfigurationError(
                f"configuration declares {len(ranges)} address ranges, but the filter "
                f"table only has {capacity} entries"
            )
        self.observation_queue: deque[tuple] = deque(
            maxlen=self.config.observation_queue_entries
        )
        self.request_queue: deque[tuple] = deque(maxlen=self.config.prefetch_queue_entries)
        self.ppus = [PPU(index) for index in range(self.config.num_ppus)]
        # A private copy, so a policy with state (the round-robin cursor)
        # starts every run where the caller's object stands.
        self.policy = copy.deepcopy(policy) if policy is not None else LowestFreeIdPolicy()
        self._select = (
            None if type(self.policy) is LowestFreeIdPolicy else self.policy.select
        )

        values = configuration.global_values()
        registers = self.config.global_registers
        if len(values) > registers:
            raise ConfigurationError(
                f"out of global prefetcher registers (capacity {registers})"
            )
        # Its length is the register count: a kernel reading past it faults.
        self._globals = values + [0] * (registers - len(values))

        self._streams = configuration.streams
        self._lookaheads: dict[str, LookaheadCalculator] = {
            name: LookaheadCalculator(
                alpha=self.config.ewma_alpha, default_distance=stream.default_distance
            )
            for name, stream in self._streams.items()
        }
        # Kernels are resolved to executors once, here — compiled closures
        # cached process-wide by program digest — and every observation
        # carries its executor, so an event pays one call, no lookup.
        executors = {
            name: kernel_executor(program)
            for name, program in configuration.kernels.items()
        }

        def executor(kernel: Optional[str]):
            return None if kernel is None else executors[kernel]

        # The filter table, flattened per event source.  Load entries:
        # (base, end, executor, stream, chain_start, iteration calculator).
        self._load_entries = [
            (
                entry.base, entry.end, executor(entry.load_kernel), entry.stream,
                entry.chain_start,
                self._lookaheads[entry.stream]
                if entry.time_iterations and entry.stream is not None
                else None,
            )
            for entry in ranges
            if entry.load_kernel is not None or entry.time_iterations
        ]
        # Convex hull of the load-watched ranges: the hierarchy enters the
        # snoop only for addresses inside [lo, hi) (see attach).
        if self._load_entries:
            self._load_lo = min(entry[0] for entry in self._load_entries)
            self._load_hi = max(entry[1] for entry in self._load_entries)
        else:
            self._load_lo = self._load_hi = 0
        # Prefetch entries: (base, end, executor, stream, chain_end, chain_start).
        self._prefetch_entries = [
            (
                entry.base, entry.end, executor(entry.prefetch_kernel), entry.stream,
                entry.chain_end, entry.chain_start,
            )
            for entry in ranges
            if entry.prefetch_kernel is not None or entry.chain_end or entry.chain_start
        ]
        # Tags: tag -> (executor, stream, chain_end).  Configured tags are
        # non-negative, so an untagged request (-1) never matches.
        self._tag_entries = {
            tag: (executors[config.kernel], config.stream, config.chain_end)
            for tag, config in configuration.tags.items()
            if tag >= 0
        }
        self._calc_by_index = {
            stream.index: self._lookaheads[name]
            for name, stream in self._streams.items()
        }
        self._unconfigured_distance = LookaheadCalculator().default_distance

        self.stats = PrefetcherStats()
        self._hierarchy: Optional[MemoryHierarchy] = None
        # The attached hierarchy's prefetch path and line-word memo (attach).
        self._prefetch_access = None
        self._line_words: dict[int, tuple[int, ...]] = {}
        # Demand reads the L1 had served when the engine attached.
        self._reads_at_attach = 0
        self._heap: list[tuple] = []
        self._sequence = 0
        self._all_busy_until = 0.0

    # ------------------------------------------------------------- attachment

    def attach(self, hierarchy: MemoryHierarchy) -> None:
        """Attach to ``hierarchy``: snoop demand loads and advance with the clock.

        The hierarchy enters the advance hook only while an engine event is
        due and the snoop only for addresses inside the load-watched hull;
        either call would do nothing otherwise.  The filter sees every
        demand read, so ``loads_snooped`` is the L1's read count.
        """

        self._hierarchy = hierarchy
        self._reads_at_attach = hierarchy.l1.stats.demand_read_accesses
        self._prefetch_access = hierarchy.prefetch_access
        self._line_words = hierarchy._line_words_cache
        hierarchy.set_demand_snoop(self._on_snoop)
        hierarchy.set_advance_hook(self.advance_to)
        hierarchy.gate_hooks(self._heap, self._load_lo, self._load_hi)

    # ------------------------------------------------------------------ snoop

    def _on_snoop(self, addr: int, time: float, level: str) -> None:
        """A demand read inside the load hull (the hierarchy skips the rest)."""

        del level  # The address filter watches every demand load.
        matched = False
        line_words = None
        for base, end, run, stream, chain_start, calculator in self._load_entries:
            if not base <= addr < end:
                continue
            if not matched:
                matched = True
                self.stats.load_matches += 1
            if calculator is not None:
                # LookaheadCalculator.observe_iteration, inlined: it runs per
                # matched load on timing ranges, and the common case only
                # bumps the window counter.
                start = calculator._window_start_time
                if start is None:
                    calculator._window_start_time = time
                    calculator._window_count = 0
                else:
                    calculator._window_count = count = calculator._window_count + 1
                    if count >= calculator.iteration_window:
                        delta = time - start
                        if delta > 0:
                            calculator.iteration_time.update(delta / count)
                            calculator._cached_distance = None
                        calculator._window_start_time = time
                        calculator._window_count = 0
            if run is None:
                continue
            if line_words is None:  # read the snooped line once, not per match
                line_base = addr - (addr % CACHE_LINE_BYTES)
                line_words = self._line_words.get(line_base)
                if line_words is None:
                    line_words = self._hierarchy.read_line_words(addr)
            self.stats.observations_created += 1
            self._sequence = sequence = self._sequence + 1
            heapq.heappush(
                self._heap,
                (
                    time, sequence, _EV_OBSERVATION,
                    (run, addr, line_base, line_words, stream,
                     time if chain_start else None),
                    None, None,
                ),
            )

    # ------------------------------------------------------------------ clock

    def advance_to(self, time: float) -> None:
        """Process every internal event scheduled at or before ``time``.

        This is the engine's one event loop.  Each event first adds what it
        carries:

        * an observation joins the observation queue (dropping the oldest
          entry when full);
        * a finished PPU moves its prefetches into the request queue;
        * an interesting fill builds its follow-on observations
          (:meth:`_fill_observations`), and each is pushed and dispatched
          in turn.

        Dispatch then hands the oldest waiting observation to a free PPU —
        the paper's lowest-free-id scan inline, any other policy through
        its ``select`` — and runs the kernel.  The blocking ablation is the
        one branch there: instead of returning the prefetches as a
        PPU-done event, the PPU issues them at once, waits for each
        interesting fill and runs the follow-on kernels itself.

        A drain issues queued prefetches while an L1 MSHR is free and
        re-arms itself as a heap event for the next free one.  A PPU-done
        event drains in place, right after its dispatch, unless another
        event shares its timestamp and so must run first: the dispatch only
        schedules strictly later events and issuing touches neither the
        EWMAs nor the PPUs, so the order is the one a same-time drain event
        would have produced.  Otherwise it pushes a drain for its own time,
        unless the event pushed last already is one: the second would run
        right after the first with nothing in between, and find the queue
        empty or the MSHRs still busy.
        """

        heap = self._heap
        if not heap or heap[0][0] > time:
            return
        heappop = heapq.heappop
        heappush = heapq.heappush
        observations = self.observation_queue
        queue_observation = observations.append
        next_observation = observations.popleft
        observation_capacity = observations.maxlen
        requests = self.request_queue
        queue_request = requests.append
        next_request = requests.popleft
        request_capacity = requests.maxlen
        next_free = self._hierarchy.l1_mshrs.next_free_time
        issue = self._issue
        fill_observations = self._fill_observations
        ppus = self.ppus
        select = self._select
        # No PPU is free before this time (valid while select is None: a
        # dispatch only ever pushes a PPU's busy_until later).
        all_busy_until = self._all_busy_until
        blocking = self.blocking
        global_registers = self._globals
        lookahead = self._lookahead_by_index
        cycle_ratio = self.cycle_ratio
        overhead = EVENT_DISPATCH_OVERHEAD_PPU_CYCLES
        stats = self.stats
        # Counters of the loop, written back once at the end.
        sequence = self._sequence
        issued = fills = created = 0
        # Key of the newest drain pushed for a PPU-done event's own time.
        drain_time = drain_sequence = -1
        # Follow-on observations of one blocking chain, oldest first; always
        # empty between dispatches.
        follow_ons: list[tuple] = []

        while heap and heap[0][0] <= time:
            event_time, _seq, kind, a, b, c = heappop(heap)

            if kind != _EV_DRAIN:
                if kind == _EV_PPU_DONE:
                    for target, tag in a:
                        if len(requests) == request_capacity:
                            stats.prefetches_dropped += 1
                        queue_request((target, tag, b, c))
                    arrivals = _DISPATCH_ONLY if observations else ()
                elif kind == _EV_FILL:
                    arrivals = fill_observations(a, event_time)
                    fills += 1
                    created += len(arrivals)
                else:  # _EV_OBSERVATION
                    arrivals = (a,)

                for arrival in arrivals:
                    if arrival is not None:
                        if len(observations) == observation_capacity:
                            stats.observations_dropped += 1
                        queue_observation(arrival)
                    while observations:
                        if select is None:
                            if event_time < all_busy_until:
                                break
                            for ppu in ppus:
                                if ppu.busy_until <= event_time:
                                    break
                            else:
                                all_busy_until = min([ppu.busy_until for ppu in ppus])
                                break
                        else:
                            ppu = select(ppus, event_time)
                            if ppu is None:
                                break
                        run, addr, line_base, line_words, stream, chain = next_observation()
                        ppu_stats = ppu.stats
                        finish = event_time
                        while True:
                            prefetches, instructions, aborted = run(
                                addr, line_base, line_words, global_registers, lookahead
                            )
                            ppu_stats.events_executed += 1
                            ppu_stats.instructions_executed += instructions
                            if aborted:
                                ppu_stats.kernel_aborts += 1
                            ppu_stats.prefetches_generated += len(prefetches)
                            duration = (instructions + overhead) * cycle_ratio
                            finish += duration
                            if not blocking:
                                ppu_stats.busy_cycles += duration
                                sequence += 1
                                heappush(
                                    heap,
                                    (finish, sequence, _EV_PPU_DONE, prefetches, stream, chain),
                                )
                                break
                            for target, tag in prefetches:
                                request = (target, tag, stream, chain)
                                issued += 1
                                fill_time = issue(request, finish)
                                if fill_time is not None:
                                    # Blocking: wait for the data before
                                    # running the next kernel of the chain.
                                    if fill_time > finish:
                                        finish = fill_time
                                    follow_ons.extend(fill_observations(request, fill_time))
                                    fills += 1
                            if not follow_ons:
                                ppu_stats.busy_cycles += finish - event_time
                                break
                            run, addr, line_base, line_words, stream, chain = follow_ons.pop(0)
                        ppu.busy_until = finish

                if kind != _EV_PPU_DONE or not requests:
                    continue
                if heap and heap[0][0] <= event_time:
                    if sequence != drain_sequence or event_time != drain_time:
                        sequence += 1
                        heappush(heap, (event_time, sequence, _EV_DRAIN, None, None, None))
                        drain_time, drain_sequence = event_time, sequence
                    continue

            # Drain: issue while an L1 MSHR is free; otherwise re-arm for
            # the next free one.
            while requests:
                free_at = next_free(event_time)
                if free_at > event_time:
                    sequence += 1
                    heappush(heap, (free_at, sequence, _EV_DRAIN, None, None, None))
                    break
                queued = next_request()
                issued += 1
                fill_time = issue(queued, event_time)
                if fill_time is not None:
                    sequence += 1
                    heappush(heap, (fill_time, sequence, _EV_FILL, queued, None, None))

        self._sequence = sequence
        self._all_busy_until = all_busy_until
        stats.prefetches_issued += issued
        stats.fills_observed += fills
        stats.observations_created += created

    def _issue(self, request: tuple, time: float) -> Optional[float]:
        """Send ``request`` to the L1 at ``time``.

        Returns the fill time when the fill will wake the prefetcher, i.e.
        when it is *interesting*: its tag is configured, its line lies in a
        prefetch-watched range, or it carries a timed chain.  Any other
        fill, and a prefetch the hierarchy discards, returns ``None``.
        """

        addr = request[0]
        fill_time = self._prefetch_access(addr, time)
        if fill_time is None:
            self.stats.prefetches_discarded += 1
            return None
        if request[1] in self._tag_entries:
            return fill_time
        for entry in self._prefetch_entries:
            if entry[0] <= addr < entry[1]:
                self.stats.prefetch_matches += 1
                return fill_time
        return fill_time if request[3] is not None else None

    # ------------------------------------------------------------------- fill

    def _fill_observations(self, request: tuple, time: float) -> list[tuple]:
        """Apply an interesting fill's EWMA chain updates and build its
        follow-on observations: one for its tag, then one per matching
        prefetch-watched range that names a kernel."""

        addr, tag, request_stream, request_chain = request
        line_base = addr - (addr % CACHE_LINE_BYTES)
        line_words = self._line_words.get(line_base)
        if line_words is None:
            line_words = self._hierarchy.read_line_words(addr)
        observations: list[tuple] = []

        tag_entry = self._tag_entries.get(tag)
        if tag_entry is not None:
            run, stream, chain_end = tag_entry
            stream = stream or request_stream
            chain = request_chain
            if chain_end and chain is not None and stream is not None:
                self._lookaheads[stream].observe_chain(chain, time)
                chain = None
            observations.append((run, addr, line_base, line_words, stream, chain))

        matched = False
        for base, end, run, stream, chain_end, chain_start in self._prefetch_entries:
            if not base <= addr < end:
                continue
            if not matched:
                matched = True
                self.stats.prefetch_matches += 1
            stream = stream or request_stream
            chain = request_chain
            if chain_end and chain is not None and stream is not None:
                self._lookaheads[stream].observe_chain(chain, time)
                chain = None
            if chain_start:
                chain = time
            if run is not None:
                observations.append((run, addr, line_base, line_words, stream, chain))
        return observations

    # ------------------------------------------------------------------ EWMAs

    def _lookahead_by_index(self, index: int) -> int:
        calculator = self._calc_by_index.get(index)
        if calculator is None:
            return self._unconfigured_distance
        distance = calculator._cached_distance
        return distance if distance is not None else calculator.lookahead()

    # -------------------------------------------------------------- finalising

    def finalize(self, end_time: float) -> None:
        """Process trailing events and compute per-PPU activity factors."""

        self.advance_to(end_time + 1.0)
        self.stats.activity_factors = [
            ppu.activity_factor(end_time) for ppu in self.ppus
        ]

    def collect_stats(self) -> dict[str, object]:
        counted = self.stats
        per_ppu = [ppu.stats for ppu in self.ppus]
        hierarchy = self._hierarchy
        loads_snooped = (
            hierarchy.l1.stats.demand_read_accesses - self._reads_at_attach
            if hierarchy is not None
            else 0
        )
        return {
            "loads_snooped": loads_snooped,
            "observations_created": counted.observations_created,
            "observations_dropped": counted.observations_dropped,
            "events_executed": sum(s.events_executed for s in per_ppu),
            "kernel_aborts": sum(s.kernel_aborts for s in per_ppu),
            "ppu_instructions": sum(s.instructions_executed for s in per_ppu),
            "prefetches_generated": sum(s.prefetches_generated for s in per_ppu),
            "prefetches_dropped": counted.prefetches_dropped,
            "prefetches_issued": counted.prefetches_issued,
            "prefetches_discarded": counted.prefetches_discarded,
            "fills_observed": counted.fills_observed,
            "activity_factors": list(counted.activity_factors),
            "observation_queue_dropped": counted.observations_dropped,
            "request_queue_dropped": counted.prefetches_dropped,
            "filter": {
                "load_snoops": loads_snooped,
                "load_matches": counted.load_matches,
                "prefetch_matches": counted.prefetch_matches,
            },
            "per_ppu": [s.as_dict() for s in per_ppu],
            "kernel_code_bytes": self.configuration.code_footprint_bytes(),
            "lookahead": {
                name: calculator.lookahead() for name, calculator in self._lookaheads.items()
            },
        }
