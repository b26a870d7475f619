"""Table 2: the benchmarks, their access patterns and inputs."""

from __future__ import annotations

from typing import Iterable, Optional

from ..workloads import registry
from .table import Column, Table


def run_table2(
    *,
    workloads: Optional[Iterable[str]] = None,
    scale: str = "default",
) -> list[dict[str, str]]:
    """Return one row per benchmark: source, pattern, paper input, scaled input."""

    names = list(workloads) if workloads is not None else registry.paper_names()
    # Description only — no need to build the data structures.
    return [registry.get(name).factory(scale=scale).description() for name in names]


def table2_table(rows: list[dict[str, str]]) -> Table:
    keys = {"name": "benchmark", "pattern": "pattern", "paper_input": "paper input",
            "repro_input": "reproduction input"}
    return Table(
        "Table 2: benchmarks evaluated",
        [Column(name) for name in keys.values()],
        [[row[key] for key in keys] for row in rows],
    )
