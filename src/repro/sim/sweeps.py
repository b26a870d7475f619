"""Parameter sweeps over the programmable prefetcher (Figure 9).

Both sweeps are plan-builders over the batch engine: every swept point and
the shared no-prefetch reference become declarative requests, so an engine
shared across calls (or across figures) deduplicates the baseline instead of
re-simulating it, and a parallel runner spreads the points across cores.
Either a workload *name* or a pre-built :class:`Workload` object may be
passed; a pre-built object's traces are reused by the serial executor.
"""

from __future__ import annotations

from typing import Iterable, Optional, Union

from ..config import SystemConfig
from ..workloads.base import Workload
from .engine import SimEngine, SimPlan, SimRequest, SerialRunner
from .modes import PrefetchMode
from .results import SimulationResult

#: PPU clock frequencies (GHz) swept in Figure 9(a).
FIGURE9A_FREQUENCIES = [0.25, 0.5, 1.0, 2.0]

#: PPU counts and frequencies swept in Figure 9(b).
FIGURE9B_COUNTS = [3, 6, 12]
FIGURE9B_FREQUENCIES = [0.125, 0.25, 0.5, 1.0, 2.0, 4.0]


def _workload_spec(
    workload: Union[Workload, str], scale: str, seed: int
) -> tuple[str, str, int, Optional[dict[str, Workload]]]:
    """Resolve a name-or-object workload argument to (name, scale, seed, prebuilt)."""

    if isinstance(workload, Workload):
        return workload.name, workload.scale.name, workload.seed, {workload.name: workload}
    return workload, scale, seed, None


def baseline_request(
    name: str, config: SystemConfig, *, scale: str = "default", seed: int = 42
) -> SimRequest:
    """The shared no-prefetching reference point for a sweep."""

    return SimRequest(
        workload=name, mode=PrefetchMode.NONE.value, scale=scale, seed=seed, config=config
    )


def frequency_sweep_requests(
    name: str,
    frequencies: Iterable[float],
    config: SystemConfig,
    *,
    scale: str = "default",
    seed: int = 42,
) -> dict[float, SimRequest]:
    """One manual-mode request per swept PPU clock frequency."""

    return {
        frequency: SimRequest(
            workload=name,
            mode=PrefetchMode.MANUAL.value,
            scale=scale,
            seed=seed,
            config=config.with_prefetcher(ppu_frequency_ghz=frequency),
        )
        for frequency in frequencies
    }


def count_frequency_sweep_requests(
    name: str,
    counts: Iterable[int],
    frequencies: Iterable[float],
    config: SystemConfig,
    *,
    scale: str = "default",
    seed: int = 42,
) -> dict[tuple[int, float], SimRequest]:
    """One manual-mode request per (PPU count, PPU clock) pair."""

    return {
        (count, frequency): SimRequest(
            workload=name,
            mode=PrefetchMode.MANUAL.value,
            scale=scale,
            seed=seed,
            config=config.with_prefetcher(num_ppus=count, ppu_frequency_ghz=frequency),
        )
        for count in counts
        for frequency in frequencies
    }


def _run_sweep(
    requests: dict,
    reference: Optional[SimulationResult],
    baseline_req: SimRequest,
    engine: Optional[SimEngine],
    prebuilt: Optional[dict[str, Workload]],
) -> dict:
    """Execute a sweep plan and convert results into speedups over baseline."""

    if engine is None:
        engine = SimEngine(runner=SerialRunner(workloads=prebuilt))
    plan = SimPlan()
    if reference is None:
        plan.add(baseline_req)
    plan.add_all(requests.values())
    batch = engine.run(plan)

    if reference is None:
        reference = batch[baseline_req]
    sweep = {}
    for key, request in requests.items():
        result = batch.get(request)
        if result is not None:
            sweep[key] = result.speedup_over(reference)
    return sweep


def ppu_frequency_sweep(
    workload: Union[Workload, str],
    *,
    frequencies: Optional[Iterable[float]] = None,
    config: Optional[SystemConfig] = None,
    baseline: Optional[SimulationResult] = None,
    engine: Optional[SimEngine] = None,
    scale: str = "default",
    seed: int = 42,
) -> dict[float, float]:
    """Speedup of manual programmable prefetching at each PPU clock."""

    name, scale, seed, prebuilt = _workload_spec(workload, scale, seed)
    system_config = config if config is not None else SystemConfig.scaled()
    frequency_list = list(frequencies) if frequencies is not None else list(FIGURE9A_FREQUENCIES)
    requests = frequency_sweep_requests(
        name, frequency_list, system_config, scale=scale, seed=seed
    )
    reference_req = baseline_request(name, system_config, scale=scale, seed=seed)
    return _run_sweep(requests, baseline, reference_req, engine, prebuilt)


def ppu_count_frequency_sweep(
    workload: Union[Workload, str],
    *,
    counts: Optional[Iterable[int]] = None,
    frequencies: Optional[Iterable[float]] = None,
    config: Optional[SystemConfig] = None,
    baseline: Optional[SimulationResult] = None,
    engine: Optional[SimEngine] = None,
    scale: str = "default",
    seed: int = 42,
) -> dict[tuple[int, float], float]:
    """Speedup for every (PPU count, PPU clock) pair — Figure 9(b).

    Accepts the same ``baseline`` short-circuit as :func:`ppu_frequency_sweep`
    (the historical API asymmetry is gone); without one, the reference is a
    deduplicated engine request, simulated at most once per engine.
    """

    name, scale, seed, prebuilt = _workload_spec(workload, scale, seed)
    system_config = config if config is not None else SystemConfig.scaled()
    count_list = list(counts) if counts is not None else list(FIGURE9B_COUNTS)
    frequency_list = list(frequencies) if frequencies is not None else list(FIGURE9B_FREQUENCIES)
    requests = count_frequency_sweep_requests(
        name, count_list, frequency_list, system_config, scale=scale, seed=seed
    )
    reference_req = baseline_request(name, system_config, scale=scale, seed=seed)
    return _run_sweep(requests, baseline, reference_req, engine, prebuilt)
