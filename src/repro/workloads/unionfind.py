"""Union-find — disjoint-set finds with path halving (off-paper).

A stream of ``find`` queries over a disjoint-set forest stored as a parent
array.  Each query reads its element id from a strided operation buffer and
then chases ``parent[parent[...]]`` to the root — a data-dependent pointer
chase like the hash-join list walks — while *path halving* rewrites every
other parent pointer along the way, so the trace also carries dependent
stores and the structure flattens as the query stream progresses (early
queries chase long chains, later ones hit compressed paths).

The forest is built as scattered chains of a fixed length so the first visit
to a set walks a guaranteed multi-hop chain through non-contiguous memory.
Software prefetching reaches the next query's *first* hop only; the manual
PPU programming chases the whole chain with a self-re-triggering tagged
kernel that stops when it observes a root (``parent[x] == x``).

This workload is not part of the paper's Table 2.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..compiler import ir
from ..compiler.frontend import parse_loop, prefetch
from ..cpu.trace import TraceBuilder
from .base import Workload
from .registry import register_workload

SOFTWARE_PREFETCH_DISTANCE = 16

#: Elements per chain in the initial forest (before any compression).
CHAIN_LENGTH = 12


@register_workload()
class UnionFindWorkload(Workload):
    """Disjoint-set find queries with path halving over a chained forest."""

    name = "unionfind"
    pattern = "Stride-indirect + pointer chasing (path halving)"
    paper_input = "— (off-paper workload)"
    repro_input = "12,288 finds over 32,768 elements in 12-deep chains (scaled)"

    def __init__(self, scale: str = "default", seed: int = 42) -> None:
        super().__init__(scale=scale, seed=seed)
        self.num_elements = self.scale.scaled(32768, minimum=1024)
        self.num_queries = self.scale.scaled(12288, minimum=256)

    # ------------------------------------------------------------------ data

    def _build_data(self) -> None:
        rng = np.random.default_rng(self.seed)

        # Scattered chains: a random permutation is cut into runs of
        # CHAIN_LENGTH; within a run each element points at the next, the
        # last is its own root.  Chasing a chain therefore jumps around the
        # parent array the way a pointer-linked structure jumps around the
        # heap.
        permutation = rng.permutation(self.num_elements).astype(np.int64)
        parent = np.arange(self.num_elements, dtype=np.int64)
        for start in range(0, self.num_elements, CHAIN_LENGTH):
            run = permutation[start : start + CHAIN_LENGTH]
            parent[run[:-1]] = run[1:]

        queries = rng.integers(0, self.num_elements, size=self.num_queries, dtype=np.int64)
        self.parent = self.space.allocate_array("uf_parent", self.num_elements, values=parent)
        self.ops = self.space.allocate_array("uf_ops", self.num_queries, values=queries)
        self.roots = self.space.allocate_array(
            "uf_roots", self.num_queries, values=np.zeros(self.num_queries, dtype=np.int64)
        )
        self._initial_parent = parent
        self._queries = queries
        #: Post-trace forest state (set by the first emission); the simulated
        #: parent array keeps the pristine chains — see :meth:`_emit_trace`.
        self.compressed_parent: np.ndarray | None = None

    # ----------------------------------------------------------------- trace

    def _emit_trace(self, tb: TraceBuilder, *, software_prefetch: bool) -> None:
        # Path halving mutates the forest, so the chase runs on a Python
        # mirror and the simulated parent array keeps the pristine forest:
        # simulated stores are timing-only (replay never mutates the address
        # space), and the walker kernel must see the chains the trace's
        # first-visit queries actually walk.  Re-finds overshoot a little —
        # the kernel re-chases a chain the core has already halved — which
        # is ordinary prefetcher over-fetch.
        parent = self._initial_parent.copy()
        dist = SOFTWARE_PREFETCH_DISTANCE

        for i in range(self.num_queries):
            if software_prefetch and i + dist < self.num_queries:
                future_op = tb.load(self.ops.addr_of(i + dist))
                tb.software_prefetch(
                    self.parent.addr_of(int(self._queries[i + dist])),
                    deps=[future_op],
                )
            op_load = tb.load(self.ops.addr_of(i))
            x = int(self._queries[i])
            previous = op_load
            while True:
                px = int(parent[x])
                parent_load = tb.load(self.parent.addr_of(x), deps=[previous])
                tb.compute(1, deps=[parent_load])
                tb.branch(deps=[parent_load])
                if px == x:
                    break
                grand_load = tb.load(self.parent.addr_of(px), deps=[parent_load])
                ppx = int(parent[px])
                # Path halving: point x at its grandparent and hop there.
                parent[x] = ppx
                tb.store(self.parent.addr_of(x), deps=[grand_load])
                previous = grand_load
                x = ppx
            self.roots[i] = x
            tb.store(self.roots.addr_of(i), deps=[previous])
            tb.branch()
        self.compressed_parent = parent

    # -------------------------------------------------------------- compiler

    def _build_loop_ir(self) -> tuple[ir.Loop, Mapping[str, int]]:
        # Written as a plain traversal function and parsed into the loop IR.
        # Software prefetching reaches the first hop of a future query; the
        # while-chase lowers to a control-dependent load (out of reach of
        # both compiler passes) plus a PointerChaseStmt, which the derivation
        # pipeline turns into the self-re-triggering walker kernel.
        def traversal(i, ops, parent):
            prefetch(
                parent[ops[i + SOFTWARE_PREFETCH_DISTANCE]],
                stream="uf_ops",
                distance=8,
                name="swpf_first_hop",
            )
            x = parent[ops[i]]
            while parent[x] != x:
                x = parent[x]

        loop = parse_loop(
            traversal,
            name="unionfind",
            arrays=[
                ir.ArrayDecl("ops", "ops_base", length_param="num_queries"),
                ir.ArrayDecl("parent", "parent_base", length_param="num_elements"),
            ],
            trip_count_param="num_queries",
            pragma_prefetch=True,
            constants={"SOFTWARE_PREFETCH_DISTANCE": SOFTWARE_PREFETCH_DISTANCE},
        )
        bindings = {
            "ops_base": self.ops.base_addr,
            "parent_base": self.parent.base_addr,
            "num_queries": self.num_queries,
            "num_elements": self.num_elements,
        }
        return loop, bindings
