"""Assemble and run one simulation: workload × prefetch mode × system config."""

from __future__ import annotations

from typing import Optional, Sequence

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
from .vector import numpy_available, replay_trace, replay_trace_batch


def _programmable_configuration(
    workload: Workload, mode: PrefetchMode, kernel_source: Optional[str] = None
):
    if mode in (PrefetchMode.MANUAL, PrefetchMode.MANUAL_BLOCKED):
        resolved = workload.resolve_kernel_source(kernel_source)
        return workload.manual_configuration_for(resolved)
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
    kernel_source: Optional[str] = None,
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
        kernel_source: Where the manual-mode kernels come from: ``"hand"``
            (hand-written) or ``"compiled"`` (derived from the loop IR by
            the compiler pipeline).  ``None`` resolves through
            ``REPRO_KERNEL_SOURCE`` and the workload's default.  Only
            meaningful for the ``manual``/``manual-blocked`` modes.

    Returns:
        A :class:`~repro.sim.results.SimulationResult` with cycles,
        instructions, per-level hierarchy statistics and (for programmable
        modes) the prefetcher engine statistics.

    Raises:
        repro.errors.WorkloadError: When the mode cannot be built for the
            workload (e.g. software prefetching for PageRank), or when an
            explicit ``kernel_source="compiled"`` is requested for a
            workload whose kernels cannot be derived; callers that want the
            Figure 7 behaviour of simply omitting the bar should check
            :func:`~repro.sim.modes.mode_available` first.
    """

    system_config = config if config is not None else SystemConfig.scaled()
    if not mode_available(workload, mode):
        raise WorkloadError(f"{workload.name}: mode {mode.value!r} is not available")

    workload.build()
    hierarchy, engine, system_config = _assemble_hierarchy(
        workload, mode, system_config, policy, kernel_source=kernel_source
    )

    trace = workload.trace(mode.trace_variant)
    core_stats = None
    if engine is None and numpy_available():
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
    kernel_source: Optional[str] = None,
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
        configuration = _programmable_configuration(workload, mode, kernel_source)
        engine = EventTriggeredPrefetcher(system_config, configuration, policy=policy)
        engine.attach(hierarchy)
    return hierarchy, engine, system_config


def simulate_batch(
    workload: Workload,
    mode: PrefetchMode,
    configs: Sequence[SystemConfig],
    *,
    policy: Optional[SchedulingPolicy] = None,
) -> list[SimulationResult]:
    """Simulate N system configurations over one pass of the same trace.

    The multi-config analogue of :func:`simulate`, built for geometry sweeps:
    when the vector backend can drive the request, every configuration
    becomes one replay lane and the trace columns are decoded and chunked
    exactly once (see :func:`repro.sim.vector.replay_trace_batch`), so a
    Figure 9-style cache sweep costs one column pass instead of N replays.
    Each lane gets its own hierarchy and its own hardware-prefetcher
    instance, so results are identical to N independent :func:`simulate`
    calls — which is also the automatic fallback whenever batching is not
    applicable (programmable modes, numpy missing, differing core
    configurations, unsupported geometry).
    """

    configs = list(configs)
    if not configs:
        return []
    if not mode_available(workload, mode):
        raise WorkloadError(f"{workload.name}: mode {mode.value!r} is not available")

    results = try_simulate_batch_vector(workload, mode, configs, policy=policy)
    if results is not None:
        return results
    return [simulate(workload, mode, cfg, policy=policy) for cfg in configs]


def try_simulate_batch_vector(
    workload: Workload,
    mode: PrefetchMode,
    configs: Sequence[SystemConfig],
    *,
    policy: Optional[SchedulingPolicy] = None,
) -> Optional[list[SimulationResult]]:
    """The vector-batched path of :func:`simulate_batch`, or ``None``.

    Returns ``None`` whenever batching does not apply — fewer than two
    configurations, a programmable mode, numpy missing, differing core
    configurations, an unavailable mode, or a trace/geometry
    the replay backend rejects — so callers (``simulate_batch``, the engine
    runners) can fall back to per-configuration simulation and, unlike with
    an internal fallback, *know* whether the batch happened.
    """

    configs = list(configs)
    if (
        len(configs) < 2
        or mode.uses_programmable_prefetcher
        or not numpy_available()
        or not all(cfg.core == configs[0].core for cfg in configs)
        or not mode_available(workload, mode)
    ):
        return None
    workload.build()
    assembled = [_assemble_hierarchy(workload, mode, cfg, policy) for cfg in configs]
    hierarchies = [hierarchy for hierarchy, _engine, _cfg in assembled]
    trace = workload.trace(mode.trace_variant)
    try:
        stats_list = replay_trace_batch(trace, hierarchies, configs[0].core)
    except VectorBackendUnsupported:
        return None  # pre-state-mutation check failed; caller runs serially
    results = []
    for cfg, hierarchy, core_stats in zip(configs, hierarchies, stats_list):
        hierarchy.finalize()
        results.append(
            SimulationResult(
                workload=workload.name,
                mode=mode.value,
                cycles=core_stats.cycles,
                instructions=core_stats.instructions,
                core=core_stats.as_dict(),
                hierarchy=hierarchy.collect_stats(),
                prefetcher=None,
            )
        )
    return results
