"""BFS — level-synchronous frontier breadth-first search (off-paper).

A frontier-based BFS over the R-MAT generator: instead of the Graph500 FIFO
work queue (``g500-csr``), each level's frontier is materialised in a flat
array that the next level streams through.  The access pattern is the
"bring your own kernel" cousin of G500-CSR: a perfectly strided read of the
frontier buffer, an indirect gather of each frontier vertex's CSR offsets, a
streamed edge walk, and an indirect check/update of the distance array.

The frontier is stored as one append-only *frontier log*: each discovered
vertex is appended once and never overwritten, with per-level slices
delimited in the traversal loop.  A single prefetcher address range covers
the whole log, and — because simulated stores are timing-only (the address
space is not mutated during replay) — the values the PPU kernels read at
simulation time are exactly the values the trace was emitted against.  The
manual PPU programming is two event chains: frontier reads look ahead along
the log and chase ``frontier → row_offsets``, while demand reads of the
edge array stream it ahead and fetch the distance entries of upcoming
destinations.

This workload is not part of the paper's Table 2; it exists to demonstrate
the registry path for adding new irregular kernels (see docs/workloads.md).
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..compiler import ir
from ..compiler.frontend import parse_loop, prefetch
from ..cpu.trace import TraceBuilder
from .base import Workload
from .data.rmat import generate_rmat_csr
from .registry import register_workload

SOFTWARE_PREFETCH_DISTANCE = 8


@register_workload()
class FrontierBFSWorkload(Workload):
    """Level-synchronous BFS with array frontiers over an R-MAT graph."""

    name = "bfs"
    pattern = "Frontier-stride-indirect + edge walks"
    paper_input = "— (off-paper workload)"
    repro_input = "R-MAT scale 11, edge factor 5, array frontiers (scaled)"

    def __init__(self, scale: str = "default", seed: int = 42) -> None:
        super().__init__(scale=scale, seed=seed)
        if self.scale.factor >= 1.0:
            self.graph_scale = 11
        elif self.scale.factor >= 0.3:
            self.graph_scale = 10
        else:
            self.graph_scale = 8
        self.edge_factor = 5

    # ------------------------------------------------------------------ data

    def _build_data(self) -> None:
        graph = generate_rmat_csr(self.graph_scale, self.edge_factor, seed=self.seed)
        vertices = graph.num_vertices

        self.row_offsets = self.space.allocate_array(
            "bfs2_row_offsets", vertices + 1, values=graph.row_offsets
        )
        self.columns = self.space.allocate_array(
            "bfs2_columns", max(1, graph.num_edges), values=graph.columns
        )
        self.dist = self.space.allocate_array(
            "bfs2_dist", vertices, values=np.zeros(vertices, dtype=np.int64)
        )
        # Append-only frontier log: every vertex enters at most once, so one
        # allocation of |V| entries holds all levels back to back and no
        # entry the trace reads is ever overwritten by a later level.
        self.frontier = self.space.allocate_array(
            "bfs2_frontier", vertices, values=np.zeros(vertices, dtype=np.int64)
        )
        self._graph = graph
        degrees = np.diff(graph.row_offsets)
        self._root = int(np.argmax(degrees))

    # ----------------------------------------------------------------- trace

    def _emit_trace(self, tb: TraceBuilder, *, software_prefetch: bool) -> None:
        graph = self._graph
        dist = np.zeros(graph.num_vertices, dtype=np.int64)
        sp_dist = SOFTWARE_PREFETCH_DISTANCE

        # Seed level 0.  Distance labels are level + 1 so 0 means unvisited.
        self.frontier[0] = self._root
        dist[self._root] = 1
        self.dist[self._root] = 1
        level_start, level_end = 0, 1  # log slice [start, end) of this level
        appended = 1
        level = 0

        while level_start < level_end:
            for i in range(level_start, level_end):
                vertex = int(self.frontier[i])
                if software_prefetch and i + sp_dist < level_end:
                    future_entry = tb.load(self.frontier.addr_of(i + sp_dist))
                    tb.software_prefetch(
                        self.row_offsets.addr_of(int(self.frontier[i + sp_dist])),
                        deps=[future_entry],
                    )
                frontier_load = tb.load(self.frontier.addr_of(i))
                start = int(graph.row_offsets[vertex])
                end = int(graph.row_offsets[vertex + 1])
                offsets_load = tb.load(self.row_offsets.addr_of(vertex), deps=[frontier_load])
                tb.load(self.row_offsets.addr_of(vertex + 1), deps=[frontier_load])

                for edge in range(start, end):
                    dest = int(graph.columns[edge])
                    if software_prefetch and edge + sp_dist < len(self.columns):
                        future_edge = tb.load(self.columns.addr_of(edge + sp_dist))
                        tb.software_prefetch(
                            self.dist.addr_of(int(graph.columns[edge + sp_dist])),
                            deps=[future_edge],
                        )
                    edge_load = tb.load(self.columns.addr_of(edge), deps=[offsets_load])
                    dist_load = tb.load(self.dist.addr_of(dest), deps=[edge_load])
                    tb.compute(2, deps=[dist_load])
                    tb.branch(deps=[dist_load])
                    if dist[dest] == 0:
                        dist[dest] = level + 2
                        self.dist[dest] = level + 2
                        tb.store(self.dist.addr_of(dest), deps=[dist_load])
                        self.frontier[appended] = dest
                        tb.store(self.frontier.addr_of(appended), deps=[dist_load])
                        appended += 1
                tb.branch()
            level_start, level_end = level_end, appended
            level += 1

    # -------------------------------------------------------------- compiler

    def _build_loop_ir(self) -> tuple[ir.Loop, Mapping[str, int]]:
        # The traversal is written as plain Python and *parsed* into the loop
        # IR; the prefetch hints carry the tuned stream names, seed
        # distances and the chain-end choice, which the derivation pipeline
        # turns into the manual-mode configuration.  The per-vertex
        # edge walk is a data-dependent inner loop: its loads are control
        # dependent and out of reach of both compiler passes.
        def traversal(i, frontier, row_offsets, columns, dist):
            prefetch(
                row_offsets[frontier[i + SOFTWARE_PREFETCH_DISTANCE]],
                stream="bfs2_frontier",
                distance=4,
                chain_end=False,
                name="swpf_offsets",
            )
            prefetch(
                dist[columns[i + SOFTWARE_PREFETCH_DISTANCE]],
                stream="bfs2_edges_columns",
                distance=16,
                name="swpf_dist_stream",
            )
            row_offsets[frontier[i]]
            dist[columns[i]]
            for edge in range(row_offsets[frontier[i]], row_offsets[frontier[i] + 1]):
                columns[edge]

        loop = parse_loop(
            traversal,
            name="bfs",
            arrays=[
                ir.ArrayDecl("frontier", "frontier_base", length_param="frontier_len"),
                ir.ArrayDecl("row_offsets", "offsets_base", length_param="num_offsets"),
                ir.ArrayDecl("columns", "columns_base", length_param="num_edges"),
                ir.ArrayDecl("dist", "dist_base", length_param="num_vertices"),
            ],
            trip_count_param="frontier_len",
            pragma_prefetch=True,
            constants={"SOFTWARE_PREFETCH_DISTANCE": SOFTWARE_PREFETCH_DISTANCE},
        )

        bindings = {
            "frontier_base": self.frontier.base_addr,
            "offsets_base": self.row_offsets.base_addr,
            "columns_base": self.columns.base_addr,
            "dist_base": self.dist.base_addr,
            "frontier_len": len(self.frontier),
            "num_offsets": self._graph.num_vertices + 1,
            "num_edges": len(self.columns),
            "num_vertices": self._graph.num_vertices,
        }
        return loop, bindings
