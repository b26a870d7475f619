"""Figure 7: speedup of every prefetching scheme over no prefetching."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional

from ..sim.comparison import ComparisonResult
from ..sim.modes import FIGURE7_MODES, PrefetchMode
from ..sim.results import geometric_mean
from ..workloads import registry
from . import paper_values
from .table import PERCENT, SPEEDUP, Cell, Column, Table

Speedups = dict[str, dict[str, Optional[float]]]


def geomean(speedups: Speedups, mode: str) -> Optional[float]:
    """Geometric mean of one column's bars; ``None`` when it has no bar."""

    values = [row[mode] for row in speedups.values() if row.get(mode) is not None]
    return geometric_mean(values) if values else None


@dataclass
class Figure7Data:
    """Per-benchmark speedups for each prefetching scheme."""

    speedups: Speedups = field(default_factory=dict)
    software_overhead: dict[str, float] = field(default_factory=dict)
    comparison: Optional[ComparisonResult] = None

    def geomean(self, mode: PrefetchMode) -> Optional[float]:
        return geomean(self.speedups, mode.value)


def run_figure7(
    *,
    workloads: Optional[Iterable[str]] = None,
    comparison: ComparisonResult,
) -> Figure7Data:
    """Read Figure 7 (and the Section 7.1 instruction overhead) off ``comparison``."""

    names = list(workloads) if workloads is not None else registry.paper_names()
    data = Figure7Data(comparison=comparison)
    for name in names:
        row: dict[str, Optional[float]] = {}
        for mode in FIGURE7_MODES:
            row[mode.value] = comparison.speedup(name, mode)
        data.speedups[name] = row

        baseline = comparison.result(name, PrefetchMode.NONE)
        software = comparison.result(name, PrefetchMode.SOFTWARE)
        if baseline is not None and software is not None and baseline.instructions:
            data.software_overhead[name] = (
                software.instructions / baseline.instructions - 1.0
            )
    return data


def speedup_table(
    title: str,
    speedups: Speedups,
    paper: Optional[Mapping[str, Mapping[str, float]]] = None,
    paper_geomean: Optional[Mapping[str, float]] = None,
) -> Table:
    """One row of speedups per benchmark, one column per scheme, and their
    geometric means; the columns are the schemes of the rows."""

    modes = list(next(iter(speedups.values()), {}))
    paper, paper_geomean = paper or {}, paper_geomean or {}
    return Table(
        title,
        [Column("benchmark"), *(Column(mode, SPEEDUP) for mode in modes)],
        [
            [name, *(Cell(row.get(mode), paper.get(name, {}).get(mode)) for mode in modes)]
            for name, row in speedups.items()
        ],
        summary=["geomean", *(
            Cell(geomean(speedups, mode), paper_geomean.get(mode)) for mode in modes
        )],
    )


def figure7_tables(data: Figure7Data) -> list[Table]:
    """Figure 7 and the Section 7.1 software-prefetch instruction overhead."""

    figure = speedup_table(
        "Figure 7: speedup over no prefetching",
        data.speedups,
        paper_values.FIGURE7_SPEEDUPS,
        paper_values.PAPER_GEOMEAN,
    ).with_paper_error()
    overhead = Table(
        "Section 7.1: dynamic instruction overhead of software prefetching",
        [Column("benchmark"), Column("overhead", PERCENT)],
        [
            [name, Cell(value, paper_values.SOFTWARE_PREFETCH_OVERHEAD.get(name))]
            for name, value in data.software_overhead.items()
        ],
    )
    return [figure, overhead]
