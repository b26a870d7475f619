"""IntSort — the NAS IS integer (counting) sort kernel.

The memory-bound phase of NAS IS histograms a large array of random keys:
``count[key[i]] += 1``.  The key array is read with a perfect stride; the
histogram is indexed by the key value, giving the classic *stride-indirect*
pattern of Table 2.  The paper runs class B (2^25 keys); this reproduction
scales the key count and key space down so that the histogram still dwarfs
the scaled L2 cache.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..compiler import ir
from ..cpu.trace import TraceBuilder
from .base import Workload
from .registry import register_workload
from .data.distributions import random_keys

#: Software prefetch look-ahead distance (loop iterations), as a programmer
#: would choose for this kernel.
SOFTWARE_PREFETCH_DISTANCE = 32


@register_workload(paper_reference=True)
class IntSortWorkload(Workload):
    """NAS IS counting-sort histogram phase."""

    name = "intsort"
    pattern = "Stride-indirect"
    paper_input = "NAS class B"
    repro_input = "24,576 keys over a 32,768-bucket histogram (scaled)"

    def __init__(self, scale: str = "default", seed: int = 42) -> None:
        super().__init__(scale=scale, seed=seed)
        self.num_keys = self.scale.scaled(24576, minimum=512)
        self.key_space = self.scale.scaled(32768, minimum=1024)

    # ------------------------------------------------------------------ data

    def _build_data(self) -> None:
        keys = random_keys(self.num_keys, self.key_space, seed=self.seed)
        self.keys = self.space.allocate_array("keys", self.num_keys, values=keys)
        self.counts = self.space.allocate_array(
            "counts", self.key_space, values=np.zeros(self.key_space, dtype=np.int64)
        )
        self._key_values = keys

    # ----------------------------------------------------------------- trace

    def _emit_trace(self, tb: TraceBuilder, *, software_prefetch: bool) -> None:
        keys = self._key_values
        dist = SOFTWARE_PREFETCH_DISTANCE
        for i in range(self.num_keys):
            if software_prefetch and i + dist < self.num_keys:
                future_key = tb.load(self.keys.addr_of(i + dist))
                tb.software_prefetch(
                    self.counts.addr_of(int(keys[i + dist])), deps=[future_key]
                )
            key_load = tb.load(self.keys.addr_of(i))
            index_compute = tb.compute(3, deps=[key_load])
            count_load = tb.load(self.counts.addr_of(int(keys[i])), deps=[index_compute])
            increment = tb.compute(3, deps=[count_load])
            tb.store(self.counts.addr_of(int(keys[i])), deps=[increment])
            tb.branch()

    # -------------------------------------------------------------- compiler

    def _build_loop_ir(self) -> tuple[ir.Loop, Mapping[str, int]]:
        keys_decl = ir.ArrayDecl("keys", "keys_base", length_param="num_keys")
        counts_decl = ir.ArrayDecl("counts", "counts_base", length_param="key_space")
        loop = ir.Loop(
            "intsort",
            ir.IndexVar("i"),
            trip_count_param="num_keys",
            arrays=[keys_decl, counts_decl],
            pragma_prefetch=True,
        )
        i = loop.indvar
        loop.add(
            ir.SoftwarePrefetchStmt(
                counts_decl,
                ir.Load(keys_decl, ir.add(i, SOFTWARE_PREFETCH_DISTANCE)),
                name="swpf_counts",
                distance_hint=8,
                stream="is_keys",
            )
        )
        current_key = ir.Load(keys_decl, i)
        count_value = ir.Load(counts_decl, current_key)
        loop.add(ir.LoadStmt(count_value))
        loop.add(ir.StoreStmt(counts_decl, current_key, ir.add(count_value, 1)))
        bindings = {
            "keys_base": self.keys.base_addr,
            "counts_base": self.counts.base_addr,
            "num_keys": self.num_keys,
            "key_space": self.key_space,
        }
        return loop, bindings
