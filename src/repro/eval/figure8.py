"""Figure 8: L1 prefetch utilisation and read hit rates."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from ..sim.comparison import ComparisonResult
from ..sim.modes import PrefetchMode
from ..workloads import registry
from . import paper_values
from .table import RATE, Cell, Column, Table


@dataclass
class Figure8Data:
    """Per-benchmark prefetch utilisation and hit rates."""

    #: Figure 8(a): fraction of prefetches used before eviction from the L1.
    utilisation: dict[str, float] = field(default_factory=dict)
    #: Figure 8(b): L1 read hit rate without and with the programmable prefetcher.
    hit_rates: dict[str, tuple[float, float]] = field(default_factory=dict)
    #: The G500-List side note: L2 hit rates without/with prefetching.
    l2_hit_rates: dict[str, tuple[float, float]] = field(default_factory=dict)


def run_figure8(
    *,
    workloads: Optional[Iterable[str]] = None,
    comparison: ComparisonResult,
) -> Figure8Data:
    names = list(workloads) if workloads is not None else registry.paper_names()
    data = Figure8Data()
    for name in names:
        baseline = comparison.result(name, PrefetchMode.NONE)
        manual = comparison.result(name, PrefetchMode.MANUAL)
        if baseline is None or manual is None:
            continue
        data.utilisation[name] = manual.l1_prefetch_utilisation
        data.hit_rates[name] = (baseline.l1_read_hit_rate, manual.l1_read_hit_rate)
        data.l2_hit_rates[name] = (baseline.l2_read_hit_rate, manual.l2_read_hit_rate)
    return data


def figure8_table(data: Figure8Data) -> Table:
    rows = []
    for name, utilisation in data.utilisation.items():
        before, after = data.hit_rates[name]
        paper_before, paper_after = paper_values.FIGURE8B_HIT_RATES.get(name, (None, None))
        rows.append([
            name,
            Cell(utilisation, paper_values.FIGURE8A_UTILISATION.get(name)),
            Cell(before, paper_before),
            Cell(after, paper_after),
            *data.l2_hit_rates[name],
        ])
    rates = ["utilisation (a)", "L1 hit, no PF (b)", "L1 hit, manual (b)",
             "L2 hit, no PF", "L2 hit, manual"]
    return Table(
        "Figure 8: L1 prefetch utilisation (a) and read hit rates (b)",
        [Column("benchmark"), *(Column(name, RATE) for name in rates)],
        rows,
        notes=["Utilisation is the share of prefetches used before eviction from the "
               "L1. The L2 hit rates serve the paper's G500-List discussion."],
    ).with_paper_error()
