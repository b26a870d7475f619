"""RandAcc — the HPCC RandomAccess (GUPS) kernel.

RandomAccess applies read-modify-write updates ``Table[v & mask] ^= v`` for a
stream of pseudo-random values.  The look-ahead formulation of the benchmark
materialises the upcoming random values into a small buffer, which is what
gives the *stride-hash-indirect* pattern of Table 2: a sequential walk of the
value buffer followed by a masked indirect access into a table far larger than
any cache.

The paper's input performs 10^8 updates over a multi-GiB table; this
reproduction scales both down while keeping the table much larger than the
scaled L2.  The value buffer is stored at full length rather than as the
128-entry circular window the reference code uses (the window's wrap-around
only changes which few elements the compiler-generated prefetches miss).
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..compiler import ir
from ..cpu.trace import TraceBuilder
from .base import Workload
from .registry import register_workload

SOFTWARE_PREFETCH_DISTANCE = 32


@register_workload(paper_reference=True)
class RandomAccessWorkload(Workload):
    """HPCC RandomAccess table-update kernel."""

    name = "randacc"
    pattern = "Stride-hash-indirect"
    paper_input = "100,000,000 updates"
    repro_input = "20,480 updates over a 65,536-entry table (scaled)"

    def __init__(self, scale: str = "default", seed: int = 42) -> None:
        super().__init__(scale=scale, seed=seed)
        self.num_updates = self.scale.scaled(20480, minimum=512)
        self.table_entries = self.scale.scaled(65536, minimum=2048)
        # The table mask requires a power-of-two table.
        self.table_entries = 1 << (self.table_entries.bit_length() - 1)
        self.table_mask = self.table_entries - 1

    # ------------------------------------------------------------------ data

    def _build_data(self) -> None:
        rng = np.random.default_rng(self.seed)
        values = rng.integers(0, 1 << 62, size=self.num_updates, dtype=np.int64)
        self.ran = self.space.allocate_array("ran", self.num_updates, values=values)
        self.table = self.space.allocate_array(
            "table", self.table_entries, values=np.zeros(self.table_entries, dtype=np.int64)
        )
        self._values = values

    # ----------------------------------------------------------------- trace

    def _emit_trace(self, tb: TraceBuilder, *, software_prefetch: bool) -> None:
        dist = SOFTWARE_PREFETCH_DISTANCE
        mask = self.table_mask
        for i in range(self.num_updates):
            if software_prefetch and i + dist < self.num_updates:
                future = tb.load(self.ran.addr_of(i + dist))
                index_compute = tb.compute(1, deps=[future])
                tb.software_prefetch(
                    self.table.addr_of(int(self._values[i + dist]) & mask),
                    deps=[index_compute],
                )
            ran_load = tb.load(self.ran.addr_of(i))
            mask_compute = tb.compute(4, deps=[ran_load])
            entry = int(self._values[i]) & mask
            table_load = tb.load(self.table.addr_of(entry), deps=[mask_compute])
            update = tb.compute(3, deps=[table_load])
            tb.store(self.table.addr_of(entry), deps=[update])
            tb.branch()

    # -------------------------------------------------------------- compiler

    def _build_loop_ir(self) -> tuple[ir.Loop, Mapping[str, int]]:
        ran_decl = ir.ArrayDecl("ran", "ran_base", length_param="num_updates")
        table_decl = ir.ArrayDecl("table", "table_base", length_param="table_entries")
        loop = ir.Loop(
            "randacc",
            ir.IndexVar("i"),
            trip_count_param="num_updates",
            arrays=[ran_decl, table_decl],
            pragma_prefetch=True,
        )
        i = loop.indvar
        loop.add(
            ir.SoftwarePrefetchStmt(
                table_decl,
                ir.and_(
                    ir.Load(ran_decl, ir.add(i, SOFTWARE_PREFETCH_DISTANCE)),
                    ir.Param("table_mask"),
                ),
                name="swpf_table",
                distance_hint=8,
                stream="ra_ran",
            )
        )
        entry = ir.Load(table_decl, ir.and_(ir.Load(ran_decl, i), ir.Param("table_mask")))
        loop.add(ir.LoadStmt(entry))
        loop.add(ir.StoreStmt(table_decl, ir.and_(ir.Load(ran_decl, i), ir.Param("table_mask"))))
        bindings = {
            "ran_base": self.ran.base_addr,
            "table_base": self.table.base_addr,
            "num_updates": self.num_updates,
            "table_entries": self.table_entries,
            "table_mask": self.table_mask,
        }
        return loop, bindings
