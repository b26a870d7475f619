"""Figure 10: how much of the run each PPU spends awake (activity factors)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from ..sim.comparison import ComparisonResult
from ..sim.modes import PrefetchMode
from ..workloads import registry
from .table import RATE, Column, Table


@dataclass
class Figure10Data:
    """Per-benchmark distribution of PPU activity factors (manual mode)."""

    activity: dict[str, list[float]] = field(default_factory=dict)

    def summary(self, workload: str) -> dict[str, float]:
        """Min / quartiles / median / max, as Figure 10's box plot shows."""

        factors = sorted(self.activity.get(workload, []))
        if not factors:
            return {"min": 0.0, "q1": 0.0, "median": 0.0, "q3": 0.0, "max": 0.0}

        def percentile(fraction: float) -> float:
            if len(factors) == 1:
                return factors[0]
            position = fraction * (len(factors) - 1)
            low = int(position)
            high = min(low + 1, len(factors) - 1)
            weight = position - low
            return factors[low] * (1 - weight) + factors[high] * weight

        return {
            "min": factors[0],
            "q1": percentile(0.25),
            "median": percentile(0.5),
            "q3": percentile(0.75),
            "max": factors[-1],
        }

    def unused_ppus(self, workload: str) -> int:
        """PPUs never woken during the run (the paper calls these out)."""

        return sum(1 for factor in self.activity.get(workload, []) if factor == 0.0)


def run_figure10(
    *,
    workloads: Optional[Iterable[str]] = None,
    comparison: ComparisonResult,
) -> Figure10Data:
    names = list(workloads) if workloads is not None else registry.paper_names()
    data = Figure10Data()
    for name in names:
        manual = comparison.result(name, PrefetchMode.MANUAL)
        if manual is None:
            continue
        data.activity[name] = manual.activity_factors
    return data


def figure10_table(data: Figure10Data) -> Table:
    quantiles = ["min", "q1", "median", "q3", "max"]
    return Table(
        "Figure 10: fraction of time each PPU is awake (manual, lowest-free-ID scheduling)",
        [Column("benchmark"), *(Column(name, RATE) for name in quantiles),
         Column("unused PPUs")],
        [
            [name, *(data.summary(name)[q] for q in quantiles), data.unused_ppus(name)]
            for name in data.activity
        ],
    )
