"""Extra memory accesses added by the programmable prefetcher (Section 7.2)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from ..sim.comparison import ComparisonResult
from ..sim.modes import PrefetchMode
from ..workloads import registry
from . import paper_values
from .table import COUNT, PERCENT, Cell, Column, Table


@dataclass
class MemTrafficData:
    """Fractional increase in DRAM accesses with the programmable prefetcher."""

    extra: dict[str, float] = field(default_factory=dict)
    dram_accesses: dict[str, tuple[float, float]] = field(default_factory=dict)


def run_memtraffic(
    *,
    workloads: Optional[Iterable[str]] = None,
    comparison: ComparisonResult,
) -> MemTrafficData:
    names = list(workloads) if workloads is not None else registry.paper_names()
    data = MemTrafficData()
    for name in names:
        baseline = comparison.result(name, PrefetchMode.NONE)
        manual = comparison.result(name, PrefetchMode.MANUAL)
        if baseline is None or manual is None:
            continue
        data.extra[name] = manual.extra_memory_accesses(baseline)
        data.dram_accesses[name] = (baseline.dram_accesses, manual.dram_accesses)
    return data


def memtraffic_table(data: MemTrafficData) -> Table:
    return Table(
        "Section 7.2: extra memory accesses of the programmable prefetcher",
        [Column("benchmark"), Column("DRAM, no PF", COUNT), Column("DRAM, manual", COUNT),
         Column("extra", PERCENT)],
        [
            [name, *data.dram_accesses[name],
             Cell(extra, paper_values.EXTRA_MEMORY_ACCESSES.get(name))]
            for name, extra in data.extra.items()
        ],
        notes=["The paper calls the extra traffic of the other benchmarks negligible."],
    )
