"""Assemble and run one simulation: workload × prefetch mode × system config."""

from __future__ import annotations

from typing import Optional

from ..config import GHBPrefetcherConfig, SystemConfig
from ..cpu.core import OutOfOrderCore
from ..errors import VectorBackendUnsupported, WorkloadError
from ..memory.hierarchy import MemoryHierarchy
from ..prefetch.ghb import GHBPrefetcher
from ..prefetch.stride import StridePrefetcher
from ..programmable.prefetcher import EventTriggeredPrefetcher
from ..programmable.scheduler import SchedulingPolicy
from ..workloads.base import Workload
from .modes import PrefetchMode, mode_available
from .results import SimulationResult
from .vector import replay_trace


def _programmable_configuration(workload: Workload, mode: PrefetchMode):
    if mode in (PrefetchMode.MANUAL, PrefetchMode.MANUAL_BLOCKED):
        return workload.manual_configuration()
    if mode == PrefetchMode.CONVERTED:
        return workload.converted_configuration()
    if mode == PrefetchMode.PRAGMA:
        return workload.pragma_configuration()
    raise WorkloadError(f"mode {mode} does not use the programmable prefetcher")


def simulate(
    workload: Workload,
    mode: PrefetchMode,
    config: Optional[SystemConfig] = None,
    *,
    policy: Optional[SchedulingPolicy] = None,
) -> SimulationResult:
    """Run ``workload`` under ``mode`` and return the recorded result.

    This is the single-point primitive beneath the batch engine: it builds
    the workload (idempotent), assembles the memory hierarchy, attaches the
    prefetcher the mode calls for, replays the workload's dynamic trace
    through the out-of-order core model and collects every statistic.

    Args:
        workload: A built (or buildable) :class:`~repro.workloads.base.Workload`.
        mode: The prefetching scheme to simulate.
        config: System parameters; defaults to ``SystemConfig.scaled()``.
        policy: PPU scheduling policy override for programmable modes;
            ``None`` uses the prefetcher's built-in lowest-free-ID policy.

    Returns:
        A :class:`~repro.sim.results.SimulationResult` with cycles,
        instructions, per-level hierarchy statistics and (for programmable
        modes) the prefetcher engine statistics.

    Raises:
        repro.errors.WorkloadError: When the mode cannot be built for the
            workload (e.g. software prefetching for PageRank); callers that
            want the Figure 7 behaviour of simply omitting the bar should
            check :func:`~repro.sim.modes.mode_available` first.
    """

    system_config = config if config is not None else SystemConfig.scaled()
    if not mode_available(workload, mode):
        raise WorkloadError(f"{workload.name}: mode {mode.value!r} is not available")

    workload.build()
    hierarchy, engine, system_config = _assemble_hierarchy(
        workload, mode, system_config, policy
    )

    trace = workload.trace(mode.trace_variant)
    core_stats = None
    if engine is None:
        # Non-programmable modes replay through the vectorized backend when
        # it supports the configuration; results are bit-identical either
        # way (the golden suite pins this), only wall-clock time differs.
        try:
            core_stats = replay_trace(trace, hierarchy, system_config.core)
        except VectorBackendUnsupported:
            core_stats = None
    if core_stats is None:
        core_stats = OutOfOrderCore(system_config.core, hierarchy).run(trace)

    if engine is not None:
        engine.finalize(core_stats.cycles)
    hierarchy.finalize()

    return SimulationResult(
        workload=workload.name,
        mode=mode.value,
        cycles=core_stats.cycles,
        instructions=core_stats.instructions,
        core=core_stats.as_dict(),
        hierarchy=hierarchy.collect_stats(),
        prefetcher=engine.collect_stats() if engine is not None else None,
    )


def _assemble_hierarchy(
    workload: Workload,
    mode: PrefetchMode,
    system_config: SystemConfig,
    policy: Optional[SchedulingPolicy],
) -> tuple[MemoryHierarchy, Optional[EventTriggeredPrefetcher], SystemConfig]:
    """Build a hierarchy with the prefetcher ``mode`` calls for attached.

    Returns the (possibly adjusted, for the blocking ablation) system config
    alongside, since the programmable engine reads it.
    """

    hierarchy = MemoryHierarchy(system_config, workload.space)
    engine: Optional[EventTriggeredPrefetcher] = None

    if mode == PrefetchMode.STRIDE:
        StridePrefetcher(system_config.stride).attach(hierarchy)
    elif mode == PrefetchMode.GHB_REGULAR:
        GHBPrefetcher(GHBPrefetcherConfig.regular(), label="ghb-regular").attach(hierarchy)
    elif mode == PrefetchMode.GHB_LARGE:
        GHBPrefetcher(GHBPrefetcherConfig.large(), label="ghb-large").attach(hierarchy)
    elif mode == PrefetchMode.SOFTWARE:
        pass  # the prefetches live in the trace variant selected by the caller
    elif mode.uses_programmable_prefetcher:
        if mode == PrefetchMode.MANUAL_BLOCKED:
            system_config = system_config.with_prefetcher(blocking_mode=True)
        configuration = _programmable_configuration(workload, mode)
        engine = EventTriggeredPrefetcher(system_config, configuration, policy=policy)
        engine.attach(hierarchy)
    return hierarchy, engine, system_config
