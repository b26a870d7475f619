"""Figure 11: event triggering vs blocking on intermediate loads."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from ..sim.comparison import ComparisonResult
from ..sim.modes import PrefetchMode
from ..workloads import registry
from .paper_values import FIGURE11_BLOCKED_SPEEDUPS
from .table import SPEEDUP, Cell, Column, Table


@dataclass
class Figure11Data:
    """Speedups with events vs with PPUs blocking on intermediate loads."""

    events: dict[str, float] = field(default_factory=dict)
    blocked: dict[str, float] = field(default_factory=dict)


def run_figure11(
    *,
    workloads: Optional[Iterable[str]] = None,
    comparison: ComparisonResult,
) -> Figure11Data:
    names = list(workloads) if workloads is not None else registry.paper_names()
    data = Figure11Data()
    for name in names:
        events = comparison.speedup(name, PrefetchMode.MANUAL)
        blocked = comparison.speedup(name, PrefetchMode.MANUAL_BLOCKED)
        if events is not None:
            data.events[name] = events
        if blocked is not None:
            data.blocked[name] = blocked
    return data


def figure11_table(data: Figure11Data) -> Table:
    return Table(
        "Figure 11: speedup with and without blocking on intermediate loads",
        [Column("benchmark"), Column("blocked", SPEEDUP), Column("events", SPEEDUP)],
        [
            [name, Cell(data.blocked.get(name), FIGURE11_BLOCKED_SPEEDUPS.get(name)), events]
            for name, events in data.events.items()
        ],
    ).with_paper_error()
