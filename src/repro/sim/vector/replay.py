"""Fused, bit-identical replay over precomputed trace columns.

:func:`replay_trace` is a drop-in replacement for
:meth:`repro.cpu.core.OutOfOrderCore.run` on the non-programmable prefetch
modes.  All per-op *pure* arithmetic — set/tag extraction, page numbers,
front-end fetch increments, dependence spans — comes precomputed per chunk
from :class:`~repro.sim.vector.columns.TraceColumnPlan`; what remains here is
the inherently sequential state machine: the ROB/LQ window, the dependence
walk, and the cache/MSHR/TLB/DRAM bookkeeping.

That state machine is *generated*, not handwritten: following the kernel
compiler's idiom (:mod:`repro.programmable.compiler`), :func:`_chunk_source`
emits one specialized replay loop per (core config, cache geometry, DRAM
shape, prefetcher attachment, software prefetches) signature, with every
configuration constant baked in as a literal and the L1/L2 probe, MSHR
allocate, DRAM channel pick and cache fill all inlined into a single
function body.  The source transcribes the interpreter's arithmetic
*exactly* (same operations, same order, same float expressions), which is
what the golden-stats gate demands; ``exec`` of the compiled source is
cached per signature, so a sweep over N workloads pays the (millisecond)
compile once.

The snoop contract (:data:`~repro.memory.hierarchy.SnoopHook`): an attached
stride or GHB prefetcher's snoop is its ``train``, which returns the lines to
prefetch and never calls into the hierarchy.  The loop issues each returned
line at the snoop's time, and each software-prefetch op at its ready time,
through an inlined transcription of ``MemoryHierarchy.prefetch_access``.

Three safety invariants make the specialization a replay of the interpreter
rather than a fork of the timing model:

* **The loop is the only writer.**  The loop mutates the hierarchy's own
  cache sets, MSHR heaps, TLB dicts, DRAM channels and mapped-address memo,
  and nothing else touches them during a replay: the demand snoop only
  trains and returns lines, and every prefetch is issued by the loop itself
  in the interpreter's order.
* **Only exact arithmetic is reordered.**  Integer counters accumulate in
  loop locals and fold into the shared stats once at the end (integer
  addition commutes exactly); DRAM busy cycles are a multiple of the line
  service time and stay exact in float64, so they fold too.  Genuinely
  order-dependent float state (MSHR stall cycles) also lives in locals,
  seeded from the hierarchy and assigned back: as the only writer, the
  loop performs the interpreter's additions in the interpreter's order.
* **Dead code is dropped only under a checked invariant.**  The
  interpreter's ``previous_issue`` term never exceeds ``fetch_clock`` when
  per-op instruction counts are non-negative (the column plan verifies
  this); the TLB fast path reuses the previous translation's page, which
  is the most recently used TLB entry because every translation of the
  replay, demand or prefetch, goes through this loop and updates it.

Anything this module cannot replay bit-identically — programmable-prefetcher
hooks, negative addresses or instruction counts — raises
:class:`~repro.errors.VectorBackendUnsupported` *before* touching any
hierarchy state, so callers can fall back to the interpreter.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Callable

from ...config import CACHE_LINE_BYTES, CoreConfig
from ...cpu.core import CoreStats
from ...cpu.trace import OpKind, Trace
from ...errors import VectorBackendUnsupported
from ...memory.cache import CacheLine
from ...memory.hierarchy import MemoryHierarchy
from .columns import CHUNK_OPS, TraceColumnPlan

_KIND_COMPUTE = int(OpKind.COMPUTE)
_KIND_LOAD = int(OpKind.LOAD)
_KIND_STORE = int(OpKind.STORE)
_KIND_SWPF = int(OpKind.SOFTWARE_PREFETCH)
_KIND_BRANCH = int(OpKind.BRANCH)

#: Address bits below the cache line, at both levels (``CacheConfig.validate``).
_LINE_SHIFT = CACHE_LINE_BYTES.bit_length() - 1

#: Integer counters accumulated in loop locals and folded once per run.
#: Order in this tuple is the order of the generated prologue/epilogue.
_INT_COUNTERS = (
    "tlb_accesses", "tlb_l1_hits",
    "l1_read_accesses", "l1_read_hits", "l1_write_accesses", "l1_write_hits",
    "l1_inflight_merges", "l1_misses", "l1_prefetch_used",
    "l1_evictions", "l1_dirty_evictions", "l1_prefetch_evicted_unused",
    "l1_allocations", "l1_prefetch_requests", "l1_prefetch_redundant",
    "l1_prefetch_merged", "l1_prefetch_fills",
    "l2_read_accesses", "l2_read_hits", "l2_inflight_merges", "l2_misses",
    "l2_prefetch_used", "l2_evictions", "l2_dirty_evictions",
    "l2_prefetch_evicted_unused", "l2_allocations", "l2_prefetch_requests",
    "l2_prefetch_fills",
    "dram_demand", "dram_prefetch", "dram_writebacks",
    "dropped_prefetches",
)


def _check_supported(hierarchy: MemoryHierarchy) -> None:
    """Reject configurations the specialized loop cannot replay bit-identically.

    Cache lines are 64 bytes at both levels (``CacheConfig.validate``), so
    the loop rebuilds an L2 line index from the L1 set and tag.
    """

    if hierarchy._advance_hook is not None:
        raise VectorBackendUnsupported(
            "an advance hook is installed (programmable prefetcher attached)"
        )


def _mispredict_every(core_config: CoreConfig) -> int:
    """The interpreter's deterministic mispredict period (0 = never)."""

    if core_config.branch_mispredict_rate > 0:
        return int(round(1.0 / core_config.branch_mispredict_rate))
    return 0


# --------------------------------------------------------------------------
# Source generation
# --------------------------------------------------------------------------

#: Compiled chunk-replay functions, keyed by the full specialization tuple.
_COMPILED: dict[tuple, Callable] = {}


def _indent(block: str, depth: int) -> str:
    """``block`` with every line indented ``depth`` levels."""

    pad = "    " * depth
    return "\n".join(pad + line for line in block.split("\n"))


def _tlb_block(time: str) -> str:
    """The inlined TLB access shared by every translation the loop makes.

    A TLB L1 hit has translation latency 0.0, and ``t + 0.0 == t`` bitwise
    for the non-negative floats the model produces, so both hit paths skip
    the addition the interpreter performs.  ``last_page`` short-circuits the
    recency update: when the page matches the previous translation it is
    already the MRU tail, so the interpreter's delete/re-insert is a dict
    no-op.
    """

    return f"""\
tlb_accesses += 1
if page == last_page:
    tlb_l1_hits += 1
    t = {time}
elif page in tlb_l1:
    del tlb_l1[page]
    tlb_l1[page] = None
    tlb_l1_hits += 1
    last_page = page
    t = {time}
else:
    t = {time} + tlb_miss(page)
    last_page = page"""


def _chunk_source(
    rob: int,
    lq: int,
    alu: int,
    penalty: int,
    every: int,
    l1_hit: int,
    l1_cap: int,
    l1_assoc: int,
    l1_set_mask: int,
    l1_set_shift: int,
    l2_hit: int,
    l2_cap: int,
    l2_assoc: int,
    l2_set_mask: int,
    l2_set_shift: int,
    dram_lat: int,
    svc: int,
    channels: int,
    page_bytes: int,
    has_snoop: bool,
    has_swpf: bool,
) -> str:
    """Emit the specialized chunk-replay function for one signature.

    Every statement mirrors a statement in ``OutOfOrderCore.run``,
    ``MemoryHierarchy.demand_access_time``/``prefetch_access``/``_access_l2``,
    ``MSHRFile.allocate``, ``Cache.fill_entry`` or ``DRAMModel.access``;
    when editing either side, keep them in lockstep — the golden suite and
    the differential harness will catch a divergence, not tolerate it.

    ``has_snoop`` adds the demand snoop and the prefetches it returns;
    ``has_swpf`` adds the software-prefetch branch.  Both issue through
    one inlined ``prefetch_access``.
    """

    def level(name: str, depth: int) -> str:
        """Record the serving level of a demand read (only the snoop reads it)."""

        return f'\n{"    " * depth}level = "{name}"' if has_snoop else ""

    # ----- prologue -------------------------------------------------------
    lines = ["def _replay_chunk_compiled(state, chunk):"]
    lines.append("""\
    l1_sets = state.l1_sets
    l2_sets = state.l2_sets
    l1_completions = state.l1_completions
    l2_completions = state.l2_completions
    channel_free = state.channel_free
    tlb_l1 = state.tlb_l1
    tlb_miss = state.tlb_miss
    completion = state.completion
    completion_append = completion.append
    retires = state.retires
    retires_append = retires.append
    rob_idx = len(retires) - %d
    outstanding_loads = state.outstanding_loads
    loads_append = outstanding_loads.append
    loads_popleft = outstanding_loads.popleft
    loads_len = state.loads_len
    fetch_clock = state.fetch_clock
    last_retire = state.last_retire
    branch_counter = state.branch_counter
    last_page = state.last_page
    load_latency_total = state.load_latency_total
    load_stall_total = state.load_stall_total
    l1_stall = state.l1_stall
    l2_stall = state.l2_stall
    dram_busy = state.dram_busy""" % rob)
    if has_snoop or has_swpf:
        lines.append("""\
    mapped_cache = state.mapped_cache
    is_mapped = state.is_mapped""")
    if has_snoop:
        lines.append("    snoop = state.snoop")
    for name in _INT_COUNTERS:
        lines.append(f"    {name} = state.{name}")
    lines.append("""\
    dep_values = chunk.dep_values
    dep_pos = 0""")

    # ----- loop header ----------------------------------------------------
    # Without a snoop or a software prefetch the loop never reads op
    # addresses (pages and set/tag columns are precomputed), so its zip
    # carries one column less.  The cache-line index is not a column at
    # all: on the rare L1 miss it is reassembled from the set/tag pair
    # (``tag << set_shift | set_index``), which is exact because the set
    # count is a power of two.
    if has_snoop or has_swpf:
        lines.append("""\
    for kind, addr, fetch_incr, dep_end, page, set_index, tag in zip(
        chunk.kinds, chunk.addrs, chunk.fetch_incr, chunk.dep_ends,
        chunk.pages, chunk.sets, chunk.tags,
    ):""")
    else:
        lines.append("""\
    for kind, fetch_incr, dep_end, page, set_index, tag in zip(
        chunk.kinds, chunk.fetch_incr, chunk.dep_ends,
        chunk.pages, chunk.sets, chunk.tags,
    ):""")

    # ----- front end ------------------------------------------------------
    # ``issue_time = max(fetch_clock, previous_issue, window head)`` loses
    # the ``previous_issue`` term: fetch_clock advances by a non-negative
    # increment from the previous issue time (verified by the column plan),
    # so it dominates.  The ROB window head is retires[i - rob] — the
    # retire-window deque is replaced by the append-only retires list.
    lines.append("""\
        issue_time = fetch_clock
        if rob_idx >= 0:
            rob_ready = retires[rob_idx]
            if rob_ready > issue_time:
                issue_time = rob_ready
        rob_idx += 1
        fetch_clock = issue_time + fetch_incr
        deps_ready = issue_time
        while dep_pos < dep_end:
            dep_time = completion[dep_values[dep_pos]]
            dep_pos += 1
            if dep_time > deps_ready:
                deps_ready = dep_time""")

    # ----- shared blocks (indent 0; placed with _indent) ------------------
    l1_mshr_block = f"""\
while l1_completions and l1_completions[0] <= t:
    heappop(l1_completions)
if len(l1_completions) < {l1_cap!r}:
    grant = t
else:
    grant = l1_completions[0]
    l1_stall += grant - t
    while l1_completions and l1_completions[0] <= grant:
        heappop(l1_completions)
l1_allocations += 1"""

    if channels == 2:
        dram_block = f"""\
free0 = channel_free[0]
free1 = channel_free[1]
if free1 < free0:
    start = time3 if time3 > free1 else free1
    channel_free[1] = start + {svc!r}
else:
    start = time3 if time3 > free0 else free0
    channel_free[0] = start + {svc!r}"""
    else:
        dram_block = f"""\
dram_channel = 0
dram_earliest = channel_free[0]
for dram_i in range(1, {channels!r}):
    dram_free = channel_free[dram_i]
    if dram_free < dram_earliest:
        dram_earliest = dram_free
        dram_channel = dram_i
start = time3 if time3 > dram_earliest else dram_earliest
channel_free[dram_channel] = start + {svc!r}"""

    def l2_block(is_prefetch: bool, done: str) -> str:
        """``_access_l2`` for an L1 miss granted at ``grant``; result in ``done``."""

        demand = not is_prefetch
        requests = "l2_prefetch_requests" if is_prefetch else "l2_read_accesses"
        read_hit = "\n        l2_read_hits += 1" if demand else ""
        dram_count = "dram_prefetch" if is_prefetch else "dram_demand"
        fill_count = "\n        l2_prefetch_fills += 1" if is_prefetch else ""
        return f"""\
time2 = grant + {l1_hit!r}
line_index = tag << {l1_set_shift!r} | set_index
{requests} += 1
l2_set = l2_sets[line_index & {l2_set_mask!r}]
l2_tag = line_index >> {l2_set_shift!r}
l2_line = l2_set.get(l2_tag)
if l2_line is not None:
    del l2_set[l2_tag]
    l2_set[l2_tag] = l2_line
    if l2_line.prefetched and not l2_line.used:
        l2_line.used = True
        l2_prefetch_used += 1
    fill_time = l2_line.fill_time
    if fill_time <= time2:{read_hit}
        {done} = time2 + {l2_hit!r}{level("l2", 2) if demand else ""}
    else:
        l2_inflight_merges += 1
        earliest = time2 + {l2_hit!r}
        {done} = fill_time if fill_time > earliest else earliest{level("l2_inflight", 2) if demand else ""}
else:
    l2_misses += 1
    while l2_completions and l2_completions[0] <= time2:
        heappop(l2_completions)
    if len(l2_completions) < {l2_cap!r}:
        l2_grant = time2
    else:
        l2_grant = l2_completions[0]
        l2_stall += l2_grant - time2
        while l2_completions and l2_completions[0] <= l2_grant:
            heappop(l2_completions)
    l2_allocations += 1
    time3 = l2_grant + {l2_hit!r}
{_indent(dram_block, 1)}
    dram_busy += {svc!r}
    {dram_count} += 1
    {done} = start + {dram_lat!r}
    l2_existing = l2_set.get(l2_tag)
    if l2_existing is not None:
        if {done} < l2_existing.fill_time:
            l2_existing.fill_time = {done}
        del l2_set[l2_tag]
        l2_set[l2_tag] = l2_existing
    else:
        if len(l2_set) >= {l2_assoc!r}:
            l2_victim = l2_set.pop(next(iter(l2_set)))
            l2_evictions += 1
            if l2_victim.dirty:
                l2_dirty_evictions += 1
                dram_writebacks += 1
            if l2_victim.prefetched and not l2_victim.used:
                l2_prefetch_evicted_unused += 1
        l2_set[l2_tag] = CacheLine(l2_tag, {done}, {is_prefetch!r}, False, False){fill_count}
    heappush(l2_completions, {done}){level("dram", 1) if demand else ""}"""

    def l1_fill_block(write: bool, prefetched: bool, done: str) -> str:
        """``Cache.fill_entry`` on the probed L1 set, then the MSHR's fill."""

        dirty_merge = "\n        l1_existing.dirty = True" if write else ""
        fill_count = "\n    l1_prefetch_fills += 1" if prefetched else ""
        return f"""\
l1_existing = cache_set.get(tag)
if l1_existing is not None:
    if {done} < l1_existing.fill_time:
        l1_existing.fill_time = {done}{dirty_merge}
    del cache_set[tag]
    cache_set[tag] = l1_existing
else:
    if len(cache_set) >= {l1_assoc!r}:
        l1_victim = cache_set.pop(next(iter(cache_set)))
        l1_evictions += 1
        if l1_victim.dirty:
            l1_dirty_evictions += 1
        if l1_victim.prefetched and not l1_victim.used:
            l1_prefetch_evicted_unused += 1
    cache_set[tag] = CacheLine(tag, {done}, {prefetched!r}, False, {write!r}){fill_count}
heappush(l1_completions, {done})"""

    def l1_miss_block(write: bool) -> str:
        """A demand miss: MSHR, L2 and L1 fill; the completion in ``complete``."""

        return "\n".join((
            "l1_misses += 1",
            l1_mshr_block,
            l2_block(False, "complete"),
            l1_fill_block(write, False, "complete"),
        ))

    def prefetch_block(target: str, time: str, locate: bool) -> str:
        """``prefetch_access(target, time)``, its fill time discarded.

        Software-prefetch ops arrive with ``page``, ``set_index`` and
        ``tag`` from the columns; snooped lines are ``locate``d here.  The
        demand path's names are reused; ``complete`` is left alone.
        """

        located = f"""
    page = {target} // {page_bytes!r}
    set_index = {target} >> {_LINE_SHIFT!r} & {l1_set_mask!r}
    tag = {target} >> {_LINE_SHIFT + l1_set_shift!r}""" if locate else ""
        miss = "\n".join((
            l1_mshr_block,
            l2_block(True, "data_time"),
            l1_fill_block(False, True, "data_time"),
        ))
        return f"""\
mapped = mapped_cache.get({target})
if mapped is None:
    if len(mapped_cache) >= 65536:
        mapped_cache.clear()
    mapped = is_mapped({target})
    mapped_cache[{target}] = mapped
if not mapped:
    dropped_prefetches += 1
else:
    l1_prefetch_requests += 1{located}
{_indent(_tlb_block(time), 1)}
    cache_set = l1_sets[set_index]
    line = cache_set.get(tag)
    if line is not None:
        if line.fill_time <= t:
            l1_prefetch_redundant += 1
        else:
            l1_prefetch_merged += 1
    else:
{_indent(miss, 2)}"""

    # ----- LOAD -----------------------------------------------------------
    lines.append(f"""\
        if kind == {_KIND_LOAD!r}:
            if loads_len >= {lq!r}:
                lq_ready = loads_popleft()
                loads_len -= 1
                if lq_ready > deps_ready:
                    deps_ready = lq_ready
{_indent(_tlb_block("deps_ready"), 3)}
            l1_read_accesses += 1
            cache_set = l1_sets[set_index]
            line = cache_set.get(tag)
            if line is not None:
                fill_time = line.fill_time
                if fill_time <= t:
                    l1_read_hits += 1
                    complete = t + {l1_hit!r}{level("l1", 5)}
                else:
                    l1_inflight_merges += 1
                    earliest = t + {l1_hit!r}
                    complete = fill_time if fill_time > earliest else earliest{level("l1_inflight", 5)}
                del cache_set[tag]
                cache_set[tag] = line
                if line.prefetched and not line.used:
                    line.used = True
                    l1_prefetch_used += 1
            else:
{_indent(l1_miss_block(False), 4)}
            loads_append(complete)
            loads_len += 1
            latency = complete - deps_ready
            load_latency_total += latency
            if latency > {alu!r}:
                load_stall_total += latency""")
    # The interpreter runs the snoop and its prefetches inside the demand
    # access, before the load-queue bookkeeping above; that bookkeeping
    # touches no hierarchy state, so the order between them is free.
    if has_snoop:
        lines.append(f"""\
            targets = snoop(addr, t, level)
            if targets:
                snoop_time = t
                for target in targets:
{_indent(prefetch_block("target", "snoop_time", True), 5)}""")

    # ----- COMPUTE (the second most common kind gets the second test) -----
    lines.append(f"""\
        elif kind == {_KIND_COMPUTE!r}:
            base = fetch_clock if fetch_clock > deps_ready else deps_ready
            complete = base + {alu!r}""")

    # ----- STORE ----------------------------------------------------------
    # The store's hierarchy completion time is discarded (store-buffer
    # model) and writes are never snooped; ``complete`` from the inlined
    # miss path is overwritten below.
    lines.append(f"""\
        elif kind == {_KIND_STORE!r}:
{_indent(_tlb_block("deps_ready"), 3)}
            l1_write_accesses += 1
            cache_set = l1_sets[set_index]
            line = cache_set.get(tag)
            if line is not None:
                if line.fill_time <= t:
                    l1_write_hits += 1
                else:
                    l1_inflight_merges += 1
                del cache_set[tag]
                cache_set[tag] = line
                line.dirty = True
                if line.prefetched and not line.used:
                    line.used = True
                    l1_prefetch_used += 1
            else:
{_indent(l1_miss_block(True), 4)}
            complete = deps_ready + {alu!r}""")

    # ----- BRANCH ---------------------------------------------------------
    if every:
        lines.append(f"""\
        elif kind == {_KIND_BRANCH!r}:
            branch_counter += 1
            complete = deps_ready + {alu!r}
            if branch_counter % {every!r} == 0:
                flush_until = complete + {penalty!r}
                if flush_until > fetch_clock:
                    fetch_clock = flush_until""")
    else:
        lines.append(f"""\
        elif kind == {_KIND_BRANCH!r}:
            branch_counter += 1
            complete = deps_ready + {alu!r}""")

    # ----- SOFTWARE_PREFETCH (only for traces that carry them) ------------
    if has_swpf:
        lines.append(f"""\
        elif kind == {_KIND_SWPF!r}:
{_indent(prefetch_block("addr", "deps_ready", False), 3)}
            complete = deps_ready + {alu!r}""")

    # ----- everything else (CONFIG costs a single instruction) -----------
    lines.append(f"""\
        else:
            base = fetch_clock if fetch_clock > deps_ready else deps_ready
            complete = base + {alu!r}""")

    # ----- retire ---------------------------------------------------------
    lines.append("""\
        completion_append(complete)
        if complete > last_retire:
            last_retire = complete
        retires_append(last_retire)""")

    # ----- epilogue -------------------------------------------------------
    lines.append("""\
    state.loads_len = loads_len
    state.fetch_clock = fetch_clock
    state.last_retire = last_retire
    state.branch_counter = branch_counter
    state.last_page = last_page
    state.load_latency_total = load_latency_total
    state.load_stall_total = load_stall_total
    state.l1_stall = l1_stall
    state.l2_stall = l2_stall
    state.dram_busy = dram_busy""")
    for name in _INT_COUNTERS:
        lines.append(f"    state.{name} = {name}")

    return "\n".join(lines) + "\n"


def _chunk_fn(
    hierarchy: MemoryHierarchy, core_config: CoreConfig, *, has_snoop: bool, has_swpf: bool
) -> Callable:
    """The compiled chunk-replay function for one hierarchy's signature."""

    l1 = hierarchy.l1
    l2 = hierarchy.l2
    dram = hierarchy.dram
    key = (
        core_config.rob_entries,
        core_config.load_queue_entries,
        core_config.int_alu_latency,
        core_config.branch_mispredict_penalty,
        _mispredict_every(core_config),
        hierarchy._l1_hit_latency,
        hierarchy.l1_mshrs._capacity,
        l1._associativity,
        hierarchy._l1_set_mask,
        hierarchy._l1_set_shift,
        hierarchy._l2_hit_latency,
        hierarchy.l2_mshrs._capacity,
        l2._associativity,
        hierarchy._l2_set_mask,
        hierarchy._l2_set_shift,
        dram._access_latency,
        dram._service_cycles,
        len(dram._channel_free),
        hierarchy._tlb_page_bytes,
        has_snoop,
        has_swpf,
    )
    fn = _COMPILED.get(key)
    if fn is None:
        source = _chunk_source(*key)
        namespace = {"heappop": heappop, "heappush": heappush, "CacheLine": CacheLine}
        exec(compile(source, "<repro.sim.vector.replay>", "exec"), namespace)
        fn = namespace["_replay_chunk_compiled"]
        _COMPILED[key] = fn
    return fn


# --------------------------------------------------------------------------
# Replay state
# --------------------------------------------------------------------------


class _ReplayState:
    """One hierarchy's replay state, persisted between chunks.

    The compiled chunk function unpacks these fields into locals, runs, and
    repacks — the pack/unpack cost is amortised over
    :data:`~.columns.CHUNK_OPS` ops.
    """

    __slots__ = (
        # static references into the hierarchy
        "hierarchy", "l1_sets", "l2_sets", "l1_completions", "l2_completions",
        "channel_free", "tlb_l1", "tlb_miss", "mapped_cache", "is_mapped", "snoop",
        "chunk_fn",
        # core timing state
        "completion", "retires", "outstanding_loads", "loads_len",
        "fetch_clock", "last_retire", "branch_counter", "last_page",
        "load_latency_total", "load_stall_total",
        # order-dependent MSHR stall floats, written back at the end
        "l1_stall", "l2_stall",
        # exact float accumulator (multiples of the DRAM service time)
        "dram_busy",
    ) + _INT_COUNTERS

    def __init__(self, hierarchy: MemoryHierarchy, core_config: CoreConfig, has_swpf: bool) -> None:
        self.hierarchy = hierarchy
        self.l1_sets = hierarchy.l1._sets
        self.l2_sets = hierarchy.l2._sets
        self.l1_completions = hierarchy.l1_mshrs._completions
        self.l2_completions = hierarchy.l2_mshrs._completions
        self.channel_free = hierarchy.dram._channel_free
        self.tlb_l1 = hierarchy._tlb_l1_entries
        self.tlb_miss = hierarchy.tlb.miss
        self.mapped_cache = hierarchy._mapped_cache
        self.is_mapped = hierarchy.address_space.is_mapped
        self.snoop = hierarchy._demand_snoop
        self.chunk_fn = _chunk_fn(
            hierarchy, core_config, has_snoop=self.snoop is not None, has_swpf=has_swpf
        )

        self.completion: list[float] = []
        self.retires: list[float] = []
        self.outstanding_loads: deque[float] = deque()
        self.loads_len = 0
        self.fetch_clock = 0.0
        self.last_retire = 0.0
        self.branch_counter = 0
        self.last_page = -1
        self.load_latency_total = 0.0
        self.load_stall_total = 0.0

        # The loop is the only writer of the MSHR stall accumulators, so the
        # state carries them (seeded with the current values) and *assigns*
        # them back — bit-identical to the interpreter's in-place adds
        # because the add order is preserved.
        self.l1_stall = hierarchy.l1_mshrs.total_stall_cycles
        self.l2_stall = hierarchy.l2_mshrs.total_stall_cycles
        self.dram_busy = 0.0

        for name in _INT_COUNTERS:
            setattr(self, name, 0)

    def fold_stats(self) -> None:
        """Apply the locally accumulated counters to the shared stats objects.

        Integer addition is commutative and exact, so folding once at the
        end produces the same totals as the interpreter's per-op increments.
        The DRAM busy fold is float but exact (every term is a multiple of
        the line service time, far below 2**53).
        """

        hierarchy = self.hierarchy
        tlb_stats = hierarchy.tlb.stats
        tlb_stats.accesses += self.tlb_accesses
        tlb_stats.l1_hits += self.tlb_l1_hits

        l1_stats = hierarchy.l1.stats
        l1_stats.demand_read_accesses += self.l1_read_accesses
        l1_stats.demand_read_hits += self.l1_read_hits
        l1_stats.demand_write_accesses += self.l1_write_accesses
        l1_stats.demand_write_hits += self.l1_write_hits
        l1_stats.inflight_merges += self.l1_inflight_merges
        l1_stats.misses += self.l1_misses
        l1_stats.prefetch_used += self.l1_prefetch_used
        l1_stats.evictions += self.l1_evictions
        l1_stats.dirty_evictions += self.l1_dirty_evictions
        l1_stats.prefetch_evicted_unused += self.l1_prefetch_evicted_unused
        l1_stats.prefetch_requests += self.l1_prefetch_requests
        l1_stats.prefetch_redundant += self.l1_prefetch_redundant
        l1_stats.prefetch_merged += self.l1_prefetch_merged
        l1_stats.prefetch_fills += self.l1_prefetch_fills

        l2_stats = hierarchy.l2.stats
        l2_stats.demand_read_accesses += self.l2_read_accesses
        l2_stats.demand_read_hits += self.l2_read_hits
        l2_stats.inflight_merges += self.l2_inflight_merges
        l2_stats.misses += self.l2_misses
        l2_stats.prefetch_used += self.l2_prefetch_used
        l2_stats.evictions += self.l2_evictions
        l2_stats.dirty_evictions += self.l2_dirty_evictions
        l2_stats.prefetch_evicted_unused += self.l2_prefetch_evicted_unused
        l2_stats.prefetch_requests += self.l2_prefetch_requests
        l2_stats.prefetch_fills += self.l2_prefetch_fills

        hierarchy.l1_mshrs.total_allocations += self.l1_allocations
        hierarchy.l2_mshrs.total_allocations += self.l2_allocations
        hierarchy.l1_mshrs.total_stall_cycles = self.l1_stall
        hierarchy.l2_mshrs.total_stall_cycles = self.l2_stall

        dram_stats = hierarchy.dram.stats
        dram_stats.demand_accesses += self.dram_demand
        dram_stats.prefetch_accesses += self.dram_prefetch
        dram_stats.writebacks += self.dram_writebacks
        dram_stats.busy_cycles += self.dram_busy

        hierarchy.dropped_prefetches += self.dropped_prefetches


# --------------------------------------------------------------------------
# Entry points
# --------------------------------------------------------------------------


def replay_trace(
    trace: Trace,
    hierarchy: MemoryHierarchy,
    core_config: CoreConfig,
    *,
    chunk_ops: int = CHUNK_OPS,
) -> CoreStats:
    """Replay ``trace`` through ``hierarchy``; return the core statistics.

    Raises :class:`VectorBackendUnsupported` — before mutating the
    hierarchy — when the configuration or the trace falls outside the
    supported envelope.
    """

    _check_supported(hierarchy)
    plan = TraceColumnPlan(
        trace,
        page_bytes=hierarchy.tlb._page_bytes,
        line_shift=hierarchy._l1_line_shift,
        set_mask=hierarchy._l1_set_mask,
        set_shift=hierarchy._l1_set_shift,
        issue_width=core_config.issue_width,
        chunk_ops=chunk_ops,
    )

    counts = plan.kind_counts()
    software_prefetches = counts[_KIND_SWPF]
    state = _ReplayState(hierarchy, core_config, has_swpf=software_prefetches > 0)
    chunk_fn = state.chunk_fn
    for chunk in plan.chunks(want_addrs=state.snoop is not None or software_prefetches > 0):
        chunk_fn(state, chunk)
    state.fold_stats()

    branches = counts[_KIND_BRANCH]
    mispredict_every = _mispredict_every(core_config)
    # branch_counter runs 1..branches with a mispredict at every multiple of
    # mispredict_every, so the count closes to a division.
    branch_mispredicts = branches // mispredict_every if mispredict_every else 0
    return CoreStats(
        cycles=state.last_retire,
        instructions=plan.total_instructions(),
        ops=plan.n,
        loads=counts[_KIND_LOAD],
        stores=counts[_KIND_STORE],
        software_prefetches=software_prefetches,
        branches=branches,
        branch_mispredicts=branch_mispredicts,
        load_latency_total=state.load_latency_total,
        load_stall_total=state.load_stall_total,
    )
