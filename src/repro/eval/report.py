"""Run every experiment and render the EXPERIMENTS.md report.

This is the top of the reproduction pipeline: it declares every simulation
the evaluation needs — the Figure 7 comparison (shared by Figures 8, 10, 11
and the traffic analysis) plus the Figure 9 sweeps — as **one** deduplicated
:class:`~repro.sim.engine.SimPlan`, executes it in a single engine run (on
every CPU this process may use, optionally against a persistent result
cache), and renders every figure and table once, as Markdown with the
paper's reading beside each measured value.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Iterable, Optional

from ..config import SystemConfig
from ..sim.comparison import comparison_from_batch, comparison_plan
from ..sim.engine import (
    EngineStats,
    MultiprocessRunner,
    ResultCache,
    SimEngine,
    SimPlan,
)
from ..trace_store import trace_store_from_spec
from ..sim.modes import FIGURE7_MODES, PrefetchMode
from ..workloads import registry
from .figure7 import Figure7Data, figure7_tables, run_figure7
from .figure8 import Figure8Data, figure8_table, run_figure8
from .figure9 import Figure9Data, figure9_plan, figure9_tables
from .figure10 import Figure10Data, figure10_table, run_figure10
from .figure11 import Figure11Data, figure11_table, run_figure11
from .memtraffic import MemTrafficData, memtraffic_table, run_memtraffic
from .table import Table, render_tables
from .table1 import run_table1, table1_table
from .table2 import run_table2, table2_table


@dataclass
class ReproductionReport:
    """Everything measured by one full reproduction run."""

    figure7: Figure7Data
    figure8: Figure8Data
    figure9: Optional[Figure9Data]
    figure10: Figure10Data
    figure11: Figure11Data
    memtraffic: MemTrafficData
    table1: dict[str, dict[str, object]]
    table2: list[dict[str, str]]
    scale: str
    #: Plan/execution statistics of the shared engine run (dedup, cache hits,
    #: simulations executed, runner kind).
    engine_stats: Optional[EngineStats] = None

    def tables(self) -> list[Table]:
        """Every table of the report, in the paper's order."""

        figure9 = figure9_tables(self.figure9) if self.figure9 is not None else []
        return [
            table1_table(self.table1),
            table2_table(self.table2),
            *figure7_tables(self.figure7),
            figure8_table(self.figure8),
            *figure9,
            figure10_table(self.figure10),
            figure11_table(self.figure11),
            memtraffic_table(self.memtraffic),
        ]


def build_engine(
    *,
    workers: Optional[int] = None,
    cache_dir: Optional[str] = None,
    trace_store_dir: Optional[str] = None,
    service: Optional[str] = None,
    checkpoint_dir: Optional[str] = None,
    resume: bool = False,
    deadline: Optional[float] = None,
) -> SimEngine:
    """Assemble an engine from the common driver knobs.

    Local plans run on a :class:`~repro.sim.engine.MultiprocessRunner` with
    ``workers`` processes, by default one per CPU this process may use;
    ``workers=1`` runs in-process.  No worker starts before a run has work,
    so building an engine, and a run the caches answer, cost no process.

    ``trace_store_dir`` mirrors the result cache's knob for the trace
    artifact tier: ``None`` uses the environment default
    (``REPRO_TRACE_STORE``, falling back to the per-user cache directory),
    ``"off"`` disables the tier, and any other value names the directory.

    The resilience knobs (see ``docs/resilience.md``): ``checkpoint_dir``
    writes a durable run manifest as each request completes; ``resume``
    replays the previous manifest against the cache and executes only the
    missing requests; and ``deadline`` bounds each run in seconds.

    ``service`` routes execution to a ``repro serve`` daemon at
    ``host:port`` or ``unix:/path``: a :class:`~repro.service.ServiceEngine`
    that forwards ``deadline`` as the per-submission deadline.  The daemon
    owns its workers, cache and trace store, so every other knob is
    local-only; setting one together with ``service`` raises
    :class:`ValueError` naming it rather than silently ignoring it.
    """

    if service is not None:
        local_only = {
            "workers": workers,
            "cache_dir": cache_dir,
            "trace_store_dir": trace_store_dir,
            "checkpoint_dir": checkpoint_dir,
            "resume": resume,
        }
        ignored = [
            name for name, value in local_only.items()
            if value is not None and value is not False
        ]
        if ignored:
            raise ValueError(
                f"service={service!r} runs simulations on the daemon, which would "
                f"ignore the local-only argument(s) {', '.join(ignored)}; "
                "configure the daemon through 'repro serve' instead"
            )
        from ..service import ServiceEngine

        return ServiceEngine(service, deadline=deadline)
    runner = MultiprocessRunner(workers, trace_store=trace_store_from_spec(trace_store_dir))
    cache = ResultCache(cache_dir) if cache_dir else None
    if resume and cache is None:
        # Resume replays the manifest *against the cache*; without one only
        # unavailable markers could be reused.  Nudge rather than fail —
        # the run is still correct, just slower.
        print(
            "note: --resume without a result cache re-executes completed "
            "requests; pass --cache DIR to make resume effective",
            file=sys.stderr,
        )
    return SimEngine(
        runner=runner,
        cache=cache,
        checkpoint_dir=checkpoint_dir,
        resume=resume,
        deadline=deadline,
    )


def failure_exit_code(stats: Optional[EngineStats]) -> int:
    """Driver exit code for a finished run: nonzero when requests failed.

    Failed requests are delivered as labelled skips, so a report still
    renders — but a CI job or script must not read partial results as
    success.  Prints the failure labels to stderr as the explanation.
    """

    if stats is None or not stats.failed:
        return 0
    print(
        f"error: {stats.failed} simulation request(s) failed:", file=sys.stderr
    )
    for label, count in sorted(stats.failures.items()):
        suffix = f" (×{count})" if count > 1 else ""
        print(f"  - {label}{suffix}", file=sys.stderr)
    return 1


def run_report(
    *,
    workloads: Optional[Iterable[str]] = None,
    config: Optional[SystemConfig] = None,
    scale: str = "default",
    seed: int = 42,
    include_figure9: bool = True,
    engine: Optional[SimEngine] = None,
) -> ReproductionReport:
    """Run the full experiment suite and return the collected report.

    Every simulation point of every figure is declared up front in one
    deduplicated plan and executed in a single engine run, on ``engine`` or
    else on :func:`build_engine`'s; the per-figure code then reads its
    results off that one batch.
    """

    names = list(workloads) if workloads is not None else registry.paper_names()
    system_config = config if config is not None else SystemConfig.scaled()
    if engine is None:
        engine = build_engine()

    # One plan drives everything: the Figure 7 comparison modes (shared by
    # Figures 8, 10, 11 and the traffic analysis) plus the Figure 9 sweeps.
    modes = list(FIGURE7_MODES) + [PrefetchMode.MANUAL_BLOCKED]
    compared = comparison_plan(names, modes, config=system_config, scale=scale, seed=seed)
    plan = SimPlan().merge(compared)
    swept = None
    if include_figure9:
        swept = figure9_plan(workloads=names, config=system_config, scale=scale, seed=seed)
        plan.merge(swept.plan)
    batch = engine.run(plan)

    # Read the comparison off its own requests: the merged plan also holds
    # Figure 9's manual points, which would collide with Figure 7's.
    comparison = comparison_from_batch(compared, batch)
    figure7 = run_figure7(workloads=names, comparison=comparison)
    figure8 = run_figure8(workloads=names, comparison=comparison)
    figure10 = run_figure10(workloads=names, comparison=comparison)
    figure11 = run_figure11(workloads=names, comparison=comparison)
    memtraffic = run_memtraffic(workloads=names, comparison=comparison)
    figure9 = swept.data(batch) if swept is not None else None

    return ReproductionReport(
        figure7=figure7,
        figure8=figure8,
        figure9=figure9,
        figure10=figure10,
        figure11=figure11,
        memtraffic=memtraffic,
        table1=run_table1(system_config),
        table2=run_table2(workloads=names, scale=scale),
        scale=scale,
        engine_stats=batch.stats,
    )


def render_markdown(report: ReproductionReport) -> str:
    """Render the report, the body of EXPERIMENTS.md: every table once."""

    header = [
        "# EXPERIMENTS — measured reproduction results",
        "",
        "The committed EXPERIMENTS.md is this report at `small` scale with Figure 9; "
        "regenerate it with `python examples/reproduce_paper.py --scale small --figure9 "
        "--trace-store off --write-experiments`.",
        "",
        f"All runs use the `{report.scale}` workload scale and `SystemConfig.scaled()` "
        "(its docstring in `src/repro/config.py` gives the scaling rationale).  "
        "Paper values are approximate readings of the published figures; the goal "
        "is to reproduce the *shape* of each result, not absolute simulator cycle "
        "counts.",
        "",
    ]
    return "\n".join(header) + "\n" + render_tables(report.tables())
