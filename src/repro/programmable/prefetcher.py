"""The event-triggered programmable prefetcher engine.

This module ties together every structure of Figure 3: the address filter
snoops demand loads, observations queue up for the scheduler, free PPUs run
kernels that generate prefetch requests, the request queue drains into the L1
when MSHRs are free, and returned prefetches trigger further events (via the
memory-request tags of Section 4.7 or the filter table's ``PF Ptr`` entries).
EWMA calculators (Section 4.5) turn observed iteration times and prefetch
chain latencies into dynamic look-ahead distances that kernels can read.

The engine is a discrete-event model sharing the simulation's global clock
(main-core cycles).  It is driven lazily: the memory hierarchy calls
:meth:`EventTriggeredPrefetcher.advance_to` with the current time before every
demand access, so the prefetcher's state (including lines it has filled into
the cache model) is up to date whenever the core looks.

One event loop runs every configuration.  The *blocking* variant
(``ProgrammablePrefetcherConfig.blocking_mode``) models the Figure 11
ablation as a branch at dispatch: instead of scheduling a fresh event when a
prefetch returns, the PPU that issued it stalls until the data arrives and
continues the chain itself, exactly like a helper thread that must wait on
intermediate loads.  Scheduling policies other than the paper's
lowest-free-id scan are consulted through their ``select`` at the same
point.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Optional

from ..config import CACHE_LINE_BYTES, SystemConfig
from ..errors import ConfigurationError
from ..memory.hierarchy import MemoryHierarchy
from .compiler import kernel_executor
from .config_api import PrefetcherConfiguration
from .ewma import LookaheadCalculator
from .events import Observation, ObservationKind, PrefetchRequest
from .filter import AddressFilter
from .ppu import EVENT_DISPATCH_OVERHEAD_PPU_CYCLES, PPU
from .queues import ObservationQueue, PrefetchRequestQueue
from .registers import GlobalRegisterFile
from .scheduler import LowestFreeIdPolicy, SchedulingPolicy

# Internal event kinds on the engine's heap.
_EV_OBSERVATION = 0
_EV_PPU_DONE = 1
_EV_DRAIN = 2
_EV_FILL = 3

# Enum members hoisted for the hot observation constructors.
_OBS_LOAD = ObservationKind.LOAD
_OBS_PREFETCH = ObservationKind.PREFETCH

# The arrivals of a PPU-done event: nothing to push, one dispatch.
_DISPATCH_ONLY = (None,)


@dataclass(slots=True)
class PrefetcherStats:
    """Aggregate statistics of one run of the programmable prefetcher."""

    loads_snooped: int = 0
    observations_created: int = 0
    observations_dropped: int = 0
    events_executed: int = 0
    kernel_aborts: int = 0
    ppu_instructions: int = 0
    prefetches_generated: int = 0
    prefetches_dropped: int = 0
    prefetches_issued: int = 0
    prefetches_discarded: int = 0
    fills_observed: int = 0
    activity_factors: list[float] = field(default_factory=list)

    def as_dict(self) -> dict[str, object]:
        return {
            "loads_snooped": self.loads_snooped,
            "observations_created": self.observations_created,
            "observations_dropped": self.observations_dropped,
            "events_executed": self.events_executed,
            "kernel_aborts": self.kernel_aborts,
            "ppu_instructions": self.ppu_instructions,
            "prefetches_generated": self.prefetches_generated,
            "prefetches_dropped": self.prefetches_dropped,
            "prefetches_issued": self.prefetches_issued,
            "prefetches_discarded": self.prefetches_discarded,
            "fills_observed": self.fills_observed,
            "activity_factors": list(self.activity_factors),
        }


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
        self.configuration = configuration
        self.cycle_ratio = system_config.ppu_cycle_ratio
        self.blocking = self.config.blocking_mode

        self.filter = AddressFilter(configuration, self.config.filter_table_entries)
        self.observation_queue = ObservationQueue(self.config.observation_queue_entries)
        self.request_queue = PrefetchRequestQueue(self.config.prefetch_queue_entries)
        self.ppus = [PPU(index) for index in range(self.config.num_ppus)]
        self.policy = policy if policy is not None else LowestFreeIdPolicy()

        self.globals = GlobalRegisterFile(self.config.global_registers)
        for name, index in sorted(configuration.global_names.items(), key=lambda item: item[1]):
            assigned = self.globals.define(name, configuration.global_values()[index])
            if assigned != index:
                raise ConfigurationError(
                    f"global register {name!r} assigned index {assigned}, expected {index}"
                )

        self._streams = configuration.streams
        self._lookaheads: dict[str, LookaheadCalculator] = {
            name: LookaheadCalculator(
                alpha=self.config.ewma_alpha, default_distance=stream.default_distance
            )
            for name, stream in self._streams.items()
        }
        # Kernels are resolved to executors once, here — compiled closures
        # cached process-wide by program digest.  Event handling then pays a
        # single dict lookup and one call per event instead of re-dispatching
        # every kernel instruction.
        self._executors = {
            name: kernel_executor(program)
            for name, program in configuration.kernels.items()
        }
        # The *live* register list (kernels cannot write globals) and the
        # bound look-ahead resolver, hoisted so no per-event context object
        # needs to be built.
        self._globals_view = self.globals.values_view()
        # Per-event hot-path state, resolved once: the tag table as a plain
        # dict, look-ahead calculators by stream index and the default
        # distance for unconfigured streams.
        self._tag_configs = configuration.tags
        # Package-private peek at the filter's pre-partitioned load entries:
        # _on_snoop runs for every demand read, and inlining the match saves
        # a call per load (the filter's counters are still kept exactly).
        self._load_entries = self.filter._load_entries
        self._prefetch_entries = self.filter._prefetch_entries
        self._filter_stats = self.filter.stats
        # Convex hull of the load-watched ranges: a snooped address outside
        # [lo, hi) cannot match any entry, so the per-load match scan is
        # skipped entirely (counters are still kept exactly).
        if self._load_entries:
            self._load_lo = min(base for base, _end, _entry in self._load_entries)
            self._load_hi = max(end for _base, end, _entry in self._load_entries)
        else:
            self._load_lo = self._load_hi = 0
        # With exactly one watched range the hull test IS the match test, so
        # the snoop path can reuse a pre-built single-entry match list.
        self._single_load_match = (
            [self._load_entries[0][2]] if len(self._load_entries) == 1 else None
        )
        self._calc_by_index = {
            stream.index: self._lookaheads[name]
            for name, stream in self._streams.items()
        }
        self._unconfigured_distance = LookaheadCalculator().default_distance

        self.stats = PrefetcherStats()
        self._hierarchy: Optional[MemoryHierarchy] = None
        self._heap: list[tuple[float, int, int, object]] = []
        self._sequence = 0

    # ------------------------------------------------------------- attachment

    def attach(self, hierarchy: MemoryHierarchy) -> None:
        """Attach to ``hierarchy``: snoop demand loads and advance with the clock."""

        self._hierarchy = hierarchy
        hierarchy.set_demand_snoop(self._on_snoop)
        hierarchy.set_advance_hook(self.advance_to)

    def detach(self) -> None:
        if self._hierarchy is not None:
            self._hierarchy.set_demand_snoop(None)
            self._hierarchy.set_advance_hook(None)
            self._hierarchy = None

    # ------------------------------------------------------------------ snoop

    def _on_snoop(self, addr: int, time: float, level: str) -> None:
        del level  # The address filter watches every demand load.
        self.stats.loads_snooped += 1
        # AddressFilter.match_load, inlined (it runs per demand read).
        filter_stats = self._filter_stats
        filter_stats.load_snoops += 1
        if not self._load_lo <= addr < self._load_hi:
            return
        matches = self._single_load_match
        if matches is None:
            matches = [
                entry for base, end, entry in self._load_entries if base <= addr < end
            ]
            if not matches:
                return
        filter_stats.load_matches += 1
        hierarchy = self._hierarchy
        assert hierarchy is not None
        line_words: Optional[tuple[int, ...]] = None
        line_base = 0
        for entry in matches:
            if entry.time_iterations and entry.stream is not None:
                # Streams referenced by ranges are checked by validate(), so
                # the plain dict access cannot miss.  observe_iteration is
                # inlined: it runs per matched load on timing ranges, and
                # the common case only bumps the window counter.
                calculator = self._lookaheads[entry.stream]
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
            if entry.load_kernel is None:
                continue
            if line_words is None:  # read the snooped line once, not per match
                line_base = addr - (addr % CACHE_LINE_BYTES)
                line_words = hierarchy._line_words_cache.get(line_base)
                if line_words is None:
                    line_words = hierarchy.read_line_words(addr)
            # Positional construction: keyword NamedTuple construction costs
            # measurably more, and this runs per matching demand load.
            observation = Observation(
                _OBS_LOAD,
                addr,
                time,
                entry.load_kernel,
                line_base,
                line_words,
                entry.stream,
                time if entry.chain_start else None,
            )
            self.stats.observations_created += 1
            self._sequence = sequence = self._sequence + 1
            heapq.heappush(self._heap, (time, sequence, _EV_OBSERVATION, observation))

    # ------------------------------------------------------------------ clock

    def advance_to(self, time: float) -> None:
        """Process every internal event scheduled at or before ``time``.

        This is the engine's one event loop; the memory hierarchy calls it
        before every demand access.  Each event first adds what it carries:

        * an observation joins the observation queue (dropping the oldest
          entry when full);
        * a finished PPU moves its prefetches into the request queue and
          schedules a drain;
        * a drain issues queued prefetches while an L1 MSHR is free and
          re-arms itself for the next free one;
        * an interesting fill builds its follow-on observations
          (:meth:`_fill_observations`), and each is pushed and dispatched
          in turn.

        Dispatch then hands the oldest waiting observation to a free PPU —
        the paper's lowest-free-id scan inline, any other policy through
        its ``select`` — and runs the kernel.  The blocking ablation is the
        one branch there: instead of returning the prefetches as a
        PPU-done event, the PPU issues them at once, waits for each
        interesting fill and runs the follow-on kernels itself.
        """

        heap = self._heap
        if not heap or heap[0][0] > time:
            return
        stats = self.stats
        next_free = self._hierarchy.l1_mshrs.next_free_time
        push_observation = self.observation_queue.push
        obs_entries = self.observation_queue.entries
        push_request = self.request_queue.push
        req_entries = self.request_queue.entries
        ppus = self.ppus
        select = None if type(self.policy) is LowestFreeIdPolicy else self.policy.select
        blocking = self.blocking
        executors = self._executors
        globals_view = self._globals_view
        lookahead = self._lookahead_by_index
        cycle_ratio = self.cycle_ratio
        issue = self._issue
        fill_observations = self._fill_observations
        # Follow-on observations of one blocking chain, oldest first; always
        # empty between dispatches.
        chain: list[Observation] = []
        heappop = heapq.heappop
        heappush = heapq.heappush

        while heap and heap[0][0] <= time:
            event_time, _seq, kind, payload = heappop(heap)

            if kind == _EV_DRAIN:
                # Issue while an L1 MSHR is free; otherwise re-arm for the
                # next free one.
                while req_entries:
                    free_at = next_free(event_time)
                    if free_at > event_time:
                        self._sequence = sequence = self._sequence + 1
                        heappush(heap, (free_at, sequence, _EV_DRAIN, None))
                        break
                    request = req_entries.popleft()
                    fill_time = issue(request, event_time)
                    if fill_time is not None:
                        self._sequence = sequence = self._sequence + 1
                        heappush(heap, (fill_time, sequence, _EV_FILL, request))
                continue

            if kind == _EV_OBSERVATION:
                arrivals = (payload,)
            elif kind == _EV_PPU_DONE:
                prefetches, observation = payload
                for addr, tag in prefetches:
                    if push_request(
                        PrefetchRequest(
                            addr, tag, event_time, observation.stream,
                            observation.chain_start_time,
                        )
                    ):
                        stats.prefetches_dropped += 1
                if req_entries:
                    # Every event already queued at this timestamp precedes
                    # the drain, and everything the dispatch below schedules
                    # lies in the future, so the drain runs next.
                    self._sequence = sequence = self._sequence + 1
                    heappush(heap, (event_time, sequence, _EV_DRAIN, None))
                arrivals = _DISPATCH_ONLY
            else:  # _EV_FILL
                arrivals = fill_observations(payload, event_time)
                stats.observations_created += len(arrivals)

            for arrival in arrivals:
                if arrival is not None and push_observation(arrival):
                    stats.observations_dropped += 1
                while obs_entries:
                    if select is None:
                        for ppu in ppus:
                            if ppu.busy_until <= event_time:
                                break
                        else:
                            break  # every PPU is busy
                    else:
                        ppu = select(ppus, event_time)
                        if ppu is None:
                            break
                    observation = obs_entries.popleft()
                    ppu_stats = ppu.stats
                    finish = event_time
                    while True:
                        prefetches, instructions, aborted = executors[observation.kernel_name](
                            observation.addr,
                            observation.line_base,
                            observation.line_words,
                            globals_view,
                            lookahead,
                        )
                        stats.events_executed += 1
                        stats.ppu_instructions += instructions
                        ppu_stats.events_executed += 1
                        ppu_stats.instructions_executed += instructions
                        if aborted:
                            stats.kernel_aborts += 1
                            ppu_stats.kernel_aborts += 1
                        generated = len(prefetches)
                        stats.prefetches_generated += generated
                        ppu_stats.prefetches_generated += generated
                        duration = (
                            instructions + EVENT_DISPATCH_OVERHEAD_PPU_CYCLES
                        ) * cycle_ratio
                        finish += duration
                        if not blocking:
                            ppu_stats.busy_cycles += duration
                            self._sequence = sequence = self._sequence + 1
                            heappush(
                                heap,
                                (finish, sequence, _EV_PPU_DONE, (prefetches, observation)),
                            )
                            break
                        for addr, tag in prefetches:
                            request = PrefetchRequest(
                                addr, tag, finish, observation.stream,
                                observation.chain_start_time,
                            )
                            fill_time = issue(request, finish)
                            if fill_time is not None:
                                # Blocking: wait for the data before running
                                # the next kernel of the chain.
                                finish = max(finish, fill_time)
                                chain.extend(fill_observations(request, fill_time))
                        if not chain:
                            ppu_stats.busy_cycles += finish - event_time
                            break
                        observation = chain.pop(0)
                    ppu.busy_until = finish

    def drain(self, until: float) -> None:
        """Run the engine past the end of the core trace (end-of-run cleanup)."""

        self.advance_to(until)

    def _issue(self, request: PrefetchRequest, time: float) -> Optional[float]:
        """Send ``request`` to the L1 at ``time``.

        Returns the fill time when the fill will wake the prefetcher, i.e.
        when it is *interesting*: its tag is configured, its line lies in a
        prefetch-watched range, or it carries a timed chain.  Any other
        fill, and a prefetch the hierarchy discards, returns ``None``.
        """

        stats = self.stats
        stats.prefetches_issued += 1
        addr = request.addr
        fill_time = self._hierarchy.prefetch_access(addr, time)
        if fill_time is None:
            stats.prefetches_discarded += 1
            return None
        if request.tag >= 0 and request.tag in self._tag_configs:
            return fill_time
        # AddressFilter.match_prefetch, inlined (runs per issued prefetch).
        for base, end, _entry in self._prefetch_entries:
            if base <= addr < end:
                self._filter_stats.prefetch_matches += 1
                return fill_time
        return fill_time if request.chain_start_time is not None else None

    # ------------------------------------------------------------------- fill

    def _fill_observations(self, request: PrefetchRequest, time: float) -> list[Observation]:
        """Count an interesting fill, apply its EWMA chain updates and build
        its follow-on observations: one for its tag, then one per matching
        prefetch-watched range that names a kernel."""

        self.stats.fills_observed += 1
        addr = request.addr
        line_base = addr - (addr % CACHE_LINE_BYTES)
        line_words = self._hierarchy.read_line_words(addr)
        observations: list[Observation] = []

        tag_config = self._tag_configs.get(request.tag) if request.tag >= 0 else None
        if tag_config is not None:
            stream = tag_config.stream or request.stream
            chain = request.chain_start_time
            if tag_config.chain_end and chain is not None and stream is not None:
                self._lookaheads[stream].observe_chain(chain, time)
                chain = None
            observations.append(
                Observation(
                    _OBS_PREFETCH, addr, time, tag_config.kernel, line_base, line_words,
                    stream, chain,
                )
            )

        # AddressFilter.match_prefetch, inlined (runs per interesting fill).
        matched = False
        for base, end, entry in self._prefetch_entries:
            if not base <= addr < end:
                continue
            if not matched:
                matched = True
                self._filter_stats.prefetch_matches += 1
            stream = entry.stream or request.stream
            chain = request.chain_start_time
            if entry.chain_end and chain is not None and stream is not None:
                self._lookaheads[stream].observe_chain(chain, time)
                chain = None
            if entry.chain_start:
                chain = time
            if entry.prefetch_kernel is not None:
                observations.append(
                    Observation(
                        _OBS_PREFETCH, addr, time, entry.prefetch_kernel, line_base,
                        line_words, stream, chain,
                    )
                )
        return observations

    # ------------------------------------------------------------------ EWMAs

    def _lookahead_for(self, stream: str) -> LookaheadCalculator:
        calculator = self._lookaheads.get(stream)
        if calculator is None:
            raise ConfigurationError(f"stream {stream!r} was never configured")
        return calculator

    def _lookahead_by_index(self, index: int) -> int:
        calculator = self._calc_by_index.get(index)
        if calculator is None:
            return self._unconfigured_distance
        return calculator.lookahead()

    def lookahead_distance(self, stream: str) -> int:
        """Current look-ahead distance for ``stream`` (exposed for analysis/tests)."""

        return self._lookahead_for(stream).lookahead()

    # -------------------------------------------------------------- finalising

    def finalize(self, end_time: float) -> None:
        """Process trailing events and compute per-PPU activity factors."""

        self.drain(end_time + 1.0)
        self.stats.activity_factors = [
            ppu.activity_factor(end_time) for ppu in self.ppus
        ]

    def collect_stats(self) -> dict[str, object]:
        stats = self.stats.as_dict()
        stats["observation_queue_dropped"] = self.observation_queue.dropped
        stats["request_queue_dropped"] = self.request_queue.dropped
        stats["filter"] = self.filter.stats.as_dict()
        stats["per_ppu"] = [ppu.stats.as_dict() for ppu in self.ppus]
        stats["kernel_code_bytes"] = self.configuration.code_footprint_bytes()
        stats["lookahead"] = {
            name: calculator.lookahead() for name, calculator in self._lookaheads.items()
        }
        return stats
