"""Run every experiment and render the EXPERIMENTS.md report.

This is the top of the reproduction pipeline: it declares every simulation
the evaluation needs — the Figure 7 comparison (shared by Figures 8, 10, 11
and the traffic analysis) plus the Figure 9 sweeps — as **one** deduplicated
:class:`~repro.sim.engine.SimPlan`, executes it in a single engine run
(serial or parallel, optionally against a persistent result cache), and
renders everything both as console tables and as a Markdown report recording
paper-vs-measured values.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Iterable, Optional

from ..config import SystemConfig
from ..sim.comparison import comparison_plan, run_comparison
from ..sim.engine import (
    EngineStats,
    MultiprocessRunner,
    ResultCache,
    SerialRunner,
    SimEngine,
)
from ..trace_store import trace_store_from_spec
from ..sim.modes import FIGURE7_MODES, PrefetchMode
from ..workloads import registry
from . import paper_values
from .figure7 import Figure7Data, format_figure7, run_figure7
from .figure8 import Figure8Data, format_figure8, run_figure8
from .figure9 import Figure9Data, figure9_plan, format_figure9, run_figure9
from .figure10 import Figure10Data, format_figure10, run_figure10
from .figure11 import Figure11Data, format_figure11, run_figure11
from .memtraffic import MemTrafficData, format_memtraffic, run_memtraffic
from .table1 import format_table1, run_table1
from .table2 import format_table2, run_table2


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

    def format_console(self) -> str:
        sections = [
            format_table1(self.table1),
            "",
            format_table2(self.table2),
            "",
            format_figure7(self.figure7),
            "",
            format_figure8(self.figure8),
            "",
            format_figure10(self.figure10),
            "",
            format_figure11(self.figure11),
            "",
            format_memtraffic(self.memtraffic),
        ]
        if self.figure9 is not None:
            sections += ["", format_figure9(self.figure9)]
        if self.engine_stats is not None:
            sections += ["", f"Batch engine: {self.engine_stats.summary()}"]
        return "\n".join(sections)


def build_engine(
    *,
    parallel: bool = False,
    workers: Optional[int] = None,
    cache_dir: Optional[str] = None,
    trace_store_dir: Optional[str] = None,
    service: Optional[str] = None,
    checkpoint_dir: Optional[str] = None,
    resume: bool = False,
    deadline: Optional[float] = None,
    max_attempts: Optional[int] = None,
) -> SimEngine:
    """Assemble an engine from the common driver knobs.

    ``trace_store_dir`` mirrors the result cache's knob for the trace
    artifact tier: ``None`` uses the environment default
    (``REPRO_TRACE_STORE``, falling back to the per-user cache directory),
    ``"off"`` disables the tier, and any other value names the directory.

    The resilience knobs (see ``docs/resilience.md``): ``checkpoint_dir``
    writes a durable run manifest as each request completes; ``resume``
    replays the previous manifest against the cache and executes only the
    missing requests; ``deadline`` bounds each run in seconds; and
    ``max_attempts`` bounds how often the parallel runner requeues a chunk
    whose worker hung or crashed.  ``workers`` and ``max_attempts`` configure
    the parallel runner only; passing either without ``parallel=True``
    raises :class:`ValueError` naming it.

    ``service`` routes execution to a ``repro serve`` daemon at
    ``host:port`` or ``unix:/path``: a :class:`~repro.service.ServiceEngine`
    that forwards ``deadline`` as the per-submission deadline.  The daemon
    owns its workers, cache and trace store, so every other knob is
    local-only; setting one together with ``service`` raises
    :class:`ValueError` naming it rather than silently ignoring it.
    """

    if service is not None:
        local_only = {
            "parallel": parallel,
            "workers": workers,
            "cache_dir": cache_dir,
            "trace_store_dir": trace_store_dir,
            "checkpoint_dir": checkpoint_dir,
            "resume": resume,
            "max_attempts": max_attempts,
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
    if not parallel:
        unused = [
            name for name, value in (("workers", workers), ("max_attempts", max_attempts))
            if value is not None
        ]
        if unused:
            raise ValueError(
                "a serial run would ignore the parallel-only argument(s) "
                f"{', '.join(unused)}; pass parallel=True (--parallel) to use them"
            )
    store = trace_store_from_spec(trace_store_dir)
    if parallel:
        runner_kwargs = {} if max_attempts is None else {"max_attempts": max_attempts}
        runner = MultiprocessRunner(workers, trace_store=store, **runner_kwargs)
    else:
        runner = SerialRunner(trace_store=store)
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
    parallel: bool = False,
    workers: Optional[int] = None,
    cache_dir: Optional[str] = None,
    trace_store_dir: Optional[str] = None,
    service: Optional[str] = None,
    checkpoint_dir: Optional[str] = None,
    resume: bool = False,
    deadline: Optional[float] = None,
    max_attempts: Optional[int] = None,
) -> ReproductionReport:
    """Run the full experiment suite and return the collected report.

    Every simulation point of every figure is declared up front in one
    deduplicated plan and executed in a single engine run; the per-figure
    code then reads results back out of the engine's memo without simulating
    anything further.
    """

    names = list(workloads) if workloads is not None else registry.paper_names()
    system_config = config if config is not None else SystemConfig.scaled()
    if engine is None:
        engine = build_engine(
            parallel=parallel, workers=workers, cache_dir=cache_dir,
            trace_store_dir=trace_store_dir, service=service,
            checkpoint_dir=checkpoint_dir, resume=resume,
            deadline=deadline, max_attempts=max_attempts,
        )

    # One plan drives everything: the Figure 7 comparison modes (shared by
    # Figures 8, 10, 11 and the traffic analysis) plus the Figure 9 sweeps.
    modes = list(FIGURE7_MODES) + [PrefetchMode.MANUAL_BLOCKED]
    plan = comparison_plan(names, modes, config=system_config, scale=scale, seed=seed)
    if include_figure9:
        plan.merge(
            figure9_plan(
                workloads=names, config=system_config, scale=scale, seed=seed
            ).plan
        )
    batch = engine.run(plan)

    comparison = run_comparison(
        names, modes, config=system_config, scale=scale, seed=seed, engine=engine
    )
    figure7 = run_figure7(workloads=names, comparison=comparison)
    figure8 = run_figure8(workloads=names, comparison=comparison)
    figure10 = run_figure10(workloads=names, comparison=comparison)
    figure11 = run_figure11(workloads=names, comparison=comparison)
    memtraffic = run_memtraffic(workloads=names, comparison=comparison)
    figure9 = (
        run_figure9(
            workloads=names, config=system_config, scale=scale, seed=seed, engine=engine
        )
        if include_figure9
        else None
    )

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


# ----------------------------------------------------------------- markdown


def _markdown_figure7(report: ReproductionReport) -> list[str]:
    lines = [
        "## E1 — Figure 7: speedup over no prefetching",
        "",
        "| benchmark | " + " | ".join(mode.value for mode in FIGURE7_MODES) + " |",
        "|---|" + "---|" * len(FIGURE7_MODES),
    ]
    for name, row in report.figure7.speedups.items():
        cells = []
        for mode in FIGURE7_MODES:
            measured = row.get(mode.value)
            paper = paper_values.FIGURE7_SPEEDUPS.get(name, {}).get(
                mode.value.replace("ghb-regular", "ghb").replace("ghb-large", "ghb")
            )
            if measured is None:
                cells.append("–")
            elif paper is not None:
                cells.append(f"{measured:.2f}× (paper ≈{paper:.1f}×)")
            else:
                cells.append(f"{measured:.2f}×")
        lines.append(f"| {name} | " + " | ".join(cells) + " |")
    lines += [
        "",
        f"Measured geometric means: manual {report.figure7.geomean(PrefetchMode.MANUAL):.2f}×, "
        f"converted {report.figure7.geomean(PrefetchMode.CONVERTED):.2f}×, "
        f"pragma {report.figure7.geomean(PrefetchMode.PRAGMA):.2f}× "
        f"(paper: 3.0×, 2.5×, 1.9×).",
        "",
    ]
    if report.figure7.software_overhead:
        lines.append("Software-prefetch dynamic-instruction overhead (E11):")
        lines.append("")
        for name, overhead in sorted(report.figure7.software_overhead.items()):
            paper = paper_values.SOFTWARE_PREFETCH_OVERHEAD.get(name)
            suffix = f" (paper +{paper * 100:.0f} %)" if paper is not None else ""
            lines.append(f"- {name}: +{overhead * 100:.0f} %{suffix}")
        lines.append("")
    return lines


def _markdown_figure8(report: ReproductionReport) -> list[str]:
    lines = [
        "## E2/E3 — Figure 8: prefetch utilisation and L1 hit rates",
        "",
        "| benchmark | utilisation | L1 hit (no PF) | L1 hit (prog PF) | L2 hit (no PF) | L2 hit (prog PF) |",
        "|---|---|---|---|---|---|",
    ]
    for name, utilisation in report.figure8.utilisation.items():
        l1_before, l1_after = report.figure8.hit_rates[name]
        l2_before, l2_after = report.figure8.l2_hit_rates[name]
        lines.append(
            f"| {name} | {utilisation:.2f} | {l1_before:.2f} | {l1_after:.2f} "
            f"| {l2_before:.2f} | {l2_after:.2f} |"
        )
    lines.append("")
    return lines


def _markdown_figure9(report: ReproductionReport) -> list[str]:
    if report.figure9 is None:
        return []
    data = report.figure9
    frequencies = sorted({f for sweep in data.frequency_sweeps.values() for f in sweep})
    lines = [
        "## E4/E5 — Figure 9: PPU frequency and count scaling",
        "",
        "| benchmark | " + " | ".join(f"{f:g} GHz" for f in frequencies) + " |",
        "|---|" + "---|" * len(frequencies),
    ]
    for name, sweep in data.frequency_sweeps.items():
        cells = [f"{sweep[f]:.2f}×" if f in sweep else "–" for f in frequencies]
        lines.append(f"| {name} | " + " | ".join(cells) + " |")
    lines.append("")
    if data.count_sweep:
        counts = sorted({count for count, _ in data.count_sweep})
        sweep_frequencies = sorted({f for _, f in data.count_sweep})
        lines += [
            f"Figure 9(b) on {data.count_sweep_workload}:",
            "",
            "| PPUs | " + " | ".join(f"{f:g} GHz" for f in sweep_frequencies) + " |",
            "|---|" + "---|" * len(sweep_frequencies),
        ]
        for count in counts:
            cells = [
                f"{data.count_sweep.get((count, f), 0.0):.2f}×" for f in sweep_frequencies
            ]
            lines.append(f"| {count} | " + " | ".join(cells) + " |")
        lines.append("")
    return lines


def _markdown_figure10(report: ReproductionReport) -> list[str]:
    lines = [
        "## E6 — Figure 10: PPU activity factors (manual, lowest-free-ID scheduling)",
        "",
        "| benchmark | min | q1 | median | q3 | max | unused PPUs |",
        "|---|---|---|---|---|---|---|",
    ]
    for name in report.figure10.activity:
        stats = report.figure10.summary(name)
        lines.append(
            f"| {name} | {stats['min']:.2f} | {stats['q1']:.2f} | {stats['median']:.2f} "
            f"| {stats['q3']:.2f} | {stats['max']:.2f} | {report.figure10.unused_ppus(name)} |"
        )
    lines.append("")
    return lines


def _markdown_figure11(report: ReproductionReport) -> list[str]:
    lines = [
        "## E7 — Figure 11: event triggering vs blocking",
        "",
        "| benchmark | blocked | events |",
        "|---|---|---|",
    ]
    for name, events in report.figure11.events.items():
        blocked = report.figure11.blocked.get(name)
        blocked_text = f"{blocked:.2f}×" if blocked is not None else "–"
        lines.append(f"| {name} | {blocked_text} | {events:.2f}× |")
    lines.append("")
    return lines


def _markdown_traffic(report: ReproductionReport) -> list[str]:
    lines = [
        "## E8 — Extra memory accesses (Section 7.2)",
        "",
        "| benchmark | extra DRAM traffic | paper |",
        "|---|---|---|",
    ]
    for name, extra in report.memtraffic.extra.items():
        paper = paper_values.EXTRA_MEMORY_ACCESSES.get(name)
        paper_text = f"+{paper * 100:.0f} %" if paper is not None else "negligible"
        lines.append(f"| {name} | {extra * 100:+.1f} % | {paper_text} |")
    lines.append("")
    return lines


def render_markdown(report: ReproductionReport) -> str:
    """Render the EXPERIMENTS.md body for a completed reproduction run."""

    lines = [
        "# EXPERIMENTS — measured reproduction results",
        "",
        f"All runs use the `{report.scale}` workload scale and `SystemConfig.scaled()` "
        "(see DESIGN.md for the scaling rationale).  Paper values are approximate "
        "readings of the published figures; the goal is to reproduce the *shape* "
        "of each result, not absolute simulator cycle counts.",
        "",
    ]
    lines += _markdown_figure7(report)
    lines += _markdown_figure8(report)
    lines += _markdown_figure9(report)
    lines += _markdown_figure10(report)
    lines += _markdown_figure11(report)
    lines += _markdown_traffic(report)
    return "\n".join(lines)


def write_markdown(report: ReproductionReport, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(render_markdown(report))
