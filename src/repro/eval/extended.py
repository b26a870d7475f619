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
from ..sim.comparison import ComparisonResult, comparison_plan
from ..sim.engine import EngineStats, SimEngine
from ..sim.modes import PrefetchMode
from ..sim.results import geometric_mean
from ..workloads import registry

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

    def geomean(self, mode: PrefetchMode) -> float:
        return geometric_mean(
            [
                row[mode.value]
                for row in self.speedups.values()
                if row.get(mode.value) is not None
            ]
        )


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

    comparison = ComparisonResult(engine_stats=batch.stats)
    for request in plan:
        result = batch.get(request)
        if result is not None:
            comparison.add(result)

    data = ExtendedData(comparison=comparison, engine_stats=batch.stats)
    for name in names:
        row: dict[str, Optional[float]] = {}
        for mode in mode_list:
            row[mode.value] = comparison.speedup(name, mode) if mode != PrefetchMode.NONE else (
                1.0 if comparison.result(name, PrefetchMode.NONE) is not None else None
            )
        data.speedups[name] = row
    return data


def format_extended(data: ExtendedData, *, modes: Optional[Iterable[PrefetchMode]] = None) -> str:
    """Render the extended comparison as a paper-style speedup table."""

    mode_list = list(modes) if modes is not None else list(EXTENDED_MODES)
    mode_values = [mode.value for mode in mode_list]
    header = f"{'workload':<12}" + "".join(f"{value:>14}" for value in mode_values)
    lines = [
        "Extended workloads: speedup over no prefetching",
        header,
        "-" * len(header),
    ]
    for name, row in data.speedups.items():
        cells = []
        for value in mode_values:
            speedup = row.get(value)
            cells.append(f"{speedup:>14.2f}" if speedup is not None else f"{'--':>14}")
        lines.append(f"{name:<12}" + "".join(cells))
    lines.append("-" * len(header))
    geomeans = []
    for mode in mode_list:
        value = data.geomean(mode)
        geomeans.append(f"{value:>14.2f}" if value else f"{'--':>14}")
    lines.append(f"{'geomean':<12}" + "".join(geomeans))
    if data.engine_stats is not None:
        lines.append("")
        lines.append(f"Batch engine: {data.engine_stats.summary()}")
    return "\n".join(lines)
