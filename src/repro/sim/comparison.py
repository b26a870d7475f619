"""Multi-workload, multi-mode comparison driver (the engine behind Figure 7).

Since the batch-engine refactor this module is a thin plan-builder: it
declares one :class:`~repro.sim.engine.SimRequest` per ``(workload, mode)``
point plus the shared no-prefetch baseline, hands the plan to a
:class:`~repro.sim.engine.SimEngine`, and folds the batch back into the
:class:`ComparisonResult` view the figures consume.  Unavailable modes (the
missing Figure 7 bars) execute to nothing and are skipped, as before.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from ..config import SystemConfig
from ..errors import DuplicateResultError
from ..workloads import registry
from .engine import BatchResult, EngineStats, SimEngine, SimPlan, SimRequest
from .modes import FIGURE7_MODES, PrefetchMode
from .results import SimulationResult


@dataclass
class ComparisonResult:
    """Baseline and per-mode results for a set of workloads.

    Attributes:
        baselines: No-prefetching result per workload name.
        results: Result per ``(workload, mode value)`` pair for every other
            mode.
        engine_stats: Statistics of the engine run that produced the results
            (set by :func:`comparison_from_batch`; ``None`` for
            hand-assembled comparisons).
    """

    baselines: dict[str, SimulationResult] = field(default_factory=dict)
    results: dict[tuple[str, str], SimulationResult] = field(default_factory=dict)
    engine_stats: Optional[EngineStats] = None

    def add(self, result: SimulationResult, *, replace: bool = False) -> None:
        """Record one result; duplicates raise unless ``replace`` is set."""

        if result.mode == PrefetchMode.NONE.value:
            if result.workload in self.baselines and not replace:
                raise DuplicateResultError(
                    f"duplicate baseline result for workload {result.workload!r}"
                )
            self.baselines[result.workload] = result
        else:
            key = (result.workload, result.mode)
            if key in self.results and not replace:
                raise DuplicateResultError(
                    f"duplicate result for workload {result.workload!r} "
                    f"mode {result.mode!r}"
                )
            self.results[key] = result

    # ----------------------------------------------------------------- views

    def result(self, workload: str, mode: PrefetchMode) -> Optional[SimulationResult]:
        """The recorded result for ``(workload, mode)``, or ``None``."""

        if mode == PrefetchMode.NONE:
            return self.baselines.get(workload)
        return self.results.get((workload, mode.value))

    def speedup(self, workload: str, mode: PrefetchMode) -> Optional[float]:
        """Speedup of ``mode`` over the workload's no-prefetch baseline.

        Returns ``None`` when either the baseline or the mode result is
        missing (an unavailable Figure 7 bar).
        """

        baseline = self.baselines.get(workload)
        result = self.result(workload, mode)
        if baseline is None or result is None:
            return None
        return result.speedup_over(baseline)

    @property
    def workloads(self) -> list[str]:
        """Workload names with a recorded baseline, in insertion order."""

        return list(self.baselines)


def comparison_plan(
    workload_names: Optional[Iterable[str]] = None,
    modes: Optional[Iterable[PrefetchMode]] = None,
    *,
    config: Optional[SystemConfig] = None,
    scale: str = "default",
    seed: int = 42,
) -> SimPlan:
    """Declare every (workload, mode) point plus the shared baselines."""

    names = list(workload_names) if workload_names is not None else registry.paper_names()
    mode_list = list(modes) if modes is not None else list(FIGURE7_MODES)
    system_config = config if config is not None else SystemConfig.scaled()

    plan = SimPlan()
    for name in names:
        plan.add(
            SimRequest(
                workload=name,
                mode=PrefetchMode.NONE.value,
                scale=scale,
                seed=seed,
                config=system_config,
            )
        )
        for mode in mode_list:
            if mode == PrefetchMode.NONE:
                continue
            plan.add(
                SimRequest(
                    workload=name,
                    mode=mode.value,
                    scale=scale,
                    seed=seed,
                    config=system_config,
                )
            )
    return plan


def run_comparison(
    workload_names: Optional[Iterable[str]] = None,
    modes: Optional[Iterable[PrefetchMode]] = None,
    *,
    config: Optional[SystemConfig] = None,
    scale: str = "default",
    seed: int = 42,
    engine: Optional[SimEngine] = None,
) -> ComparisonResult:
    """Simulate every (workload, mode) pair plus the no-prefetching baseline.

    ``engine`` shares memoised/cached results (and a parallel runner) across
    callers; when omitted a serial engine is created.  Unavailable modes
    (missing Figure 7 bars) are skipped silently.
    """

    if engine is None:
        engine = SimEngine()
    plan = comparison_plan(workload_names, modes, config=config, scale=scale, seed=seed)
    return comparison_from_batch(plan, engine.run(plan))


def comparison_from_batch(plan: SimPlan, batch: BatchResult) -> ComparisonResult:
    """Fold ``plan``'s results into a comparison; ``batch`` may hold more."""

    comparison = ComparisonResult(engine_stats=batch.stats)
    for request in plan:
        result = batch.get(request)
        if result is not None:
            comparison.add(result)
    return comparison
