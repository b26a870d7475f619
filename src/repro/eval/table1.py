"""Table 1: the simulated system configuration."""

from __future__ import annotations

from typing import Optional

from ..config import SystemConfig
from .table import Column, Table


def run_table1(config: Optional[SystemConfig] = None) -> dict[str, dict[str, object]]:
    """Return the configuration grouped the way Table 1 groups it."""

    system = config if config is not None else SystemConfig.scaled()
    return {
        "Main Core": {
            "Core": f"{system.core.issue_width}-wide, out-of-order, {system.core.frequency_ghz} GHz",
            "ROB": f"{system.core.rob_entries} entries",
            "Load queue": f"{system.core.load_queue_entries} entries",
            "Store queue": f"{system.core.store_queue_entries} entries",
        },
        "Memory & OS": {
            "L1 cache": (
                f"{system.l1.size_bytes // 1024} KB, {system.l1.associativity}-way, "
                f"{system.l1.hit_latency}-cycle hit, {system.l1.mshrs} MSHRs"
            ),
            "L2 cache": (
                f"{system.l2.size_bytes // 1024} KB, {system.l2.associativity}-way, "
                f"{system.l2.hit_latency}-cycle hit, {system.l2.mshrs} MSHRs"
            ),
            "L1 TLB": f"{system.tlb.l1_entries} entries, fully associative",
            "L2 TLB": f"{system.tlb.l2_entries} entries, {system.tlb.l2_hit_latency}-cycle hit",
            "DRAM": (
                f"{system.dram.access_latency_cycles}-cycle access, {system.dram.channels} channels, "
                f"{system.dram.line_service_cycles} cycles/line"
            ),
        },
        "Prefetcher": {
            "Observation queue": f"{system.prefetcher.observation_queue_entries} entries",
            "Prefetch queue": f"{system.prefetcher.prefetch_queue_entries} entries",
            "PPUs": (
                f"{system.prefetcher.num_ppus} in-order units @ "
                f"{system.prefetcher.ppu_frequency_ghz} GHz"
            ),
            "Stride prefetcher": (
                f"reference prediction table, {system.stride.table_entries} entries, "
                f"degree {system.stride.degree}"
            ),
            "GHB prefetcher": (
                f"Markov G/AC, depth {system.ghb.depth}, width {system.ghb.width}, "
                f"index/GHB {system.ghb.index_entries}/{system.ghb.history_entries}"
            ),
        },
    }


def table1_table(data: dict[str, dict[str, object]]) -> Table:
    return Table(
        "Table 1: simulated system configuration",
        [Column("group"), Column("parameter"), Column("value")],
        [[group, key, value] for group, entries in data.items()
         for key, value in entries.items()],
    )
