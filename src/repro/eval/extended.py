"""Extended-workloads comparison: the off-paper kernels, paper style.

The paper's evaluation stops at the eight Table 2 benchmarks; this driver
runs the same speedup comparison over every *off-paper* workload registered
with :mod:`repro.workloads.registry` (BFS, SpMV, union-find out of the box —
plus anything a user registers).  Each kernel is simulated under the four
prefetching schemes a new workload gets for free — no prefetching, the
stride prefetcher, the GHB prefetcher, and the programmable prefetcher
running the workload's manual PPU kernels (derived from its loop IR, or
hand-written where the workload says why) — through one deduplicated batch
engine plan, and the table reports the speedups plus the engine's dedup and
cache statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from ..config import SystemConfig
from ..sim.comparison import ComparisonResult, comparison_from_batch, comparison_plan
from ..sim.engine import EngineStats, SimEngine
from ..sim.modes import PrefetchMode
from ..workloads import registry
from .figure7 import speedup_table
from .table import Table

#: The schemes every registry workload supports without compiler support:
#: no-prefetching baseline, the two hardware baselines, and the programmable
#: prefetcher running the workload's manual PPU kernels.
EXTENDED_MODES = [
    PrefetchMode.NONE,
    PrefetchMode.STRIDE,
    PrefetchMode.GHB_REGULAR,
    PrefetchMode.MANUAL,
]


@dataclass
class ExtendedData:
    """Speedups of the extended workloads plus the engine run statistics.

    Attributes:
        speedups: ``{workload: {mode value: speedup-over-baseline}}``; the
            baseline (``none``) column is always 1.0, missing modes are
            ``None``.
        comparison: The underlying per-mode results.
        engine_stats: Statistics of the batch-engine run that produced the
            results (submitted / deduplicated / cache hits / simulated).
    """

    speedups: dict[str, dict[str, Optional[float]]] = field(default_factory=dict)
    comparison: Optional[ComparisonResult] = None
    engine_stats: Optional[EngineStats] = None


def run_extended(
    *,
    workloads: Optional[Iterable[str]] = None,
    modes: Optional[Iterable[PrefetchMode]] = None,
    config: Optional[SystemConfig] = None,
    scale: str = "default",
    seed: int = 42,
    engine: Optional[SimEngine] = None,
) -> ExtendedData:
    """Compare every off-paper workload under the extended mode set.

    Args:
        workloads: Workload names; defaults to
            :func:`repro.workloads.registry.extended_names`.
        modes: Prefetch modes to compare; defaults to :data:`EXTENDED_MODES`.
        config: System configuration (default ``SystemConfig.scaled()``).
        scale: Workload scale name.
        seed: Workload data-generation seed.
        engine: A shared :class:`SimEngine` for dedup/parallelism/caching
            across drivers; a serial engine is created when omitted.

    Returns:
        An :class:`ExtendedData` with one speedup row per workload and the
        batch-engine statistics of the run.
    """

    names = list(workloads) if workloads is not None else registry.extended_names()
    mode_list = list(modes) if modes is not None else list(EXTENDED_MODES)
    system_config = config if config is not None else SystemConfig.scaled()
    if engine is None:
        engine = SimEngine()

    plan = comparison_plan(names, mode_list, config=system_config, scale=scale, seed=seed)
    batch = engine.run(plan)
    comparison = comparison_from_batch(plan, batch)

    # The baseline's speedup over itself is 1.0, its column's bar.
    speedups = {
        name: {mode.value: comparison.speedup(name, mode) for mode in mode_list}
        for name in names
    }
    return ExtendedData(speedups, comparison=comparison, engine_stats=batch.stats)


def extended_table(data: ExtendedData) -> Table:
    """The extended comparison as a paper-style speedup table."""

    table = speedup_table("Extended workloads: speedup over no prefetching", data.speedups)
    if data.engine_stats is not None:
        table.notes.append(f"Batch engine: {data.engine_stats.summary()}")
    return table
