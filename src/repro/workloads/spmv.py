"""SpMV — CSR sparse matrix–vector multiply (off-paper).

``y[r] = Σ_j val[j] * x[col[j]]`` over a CSR matrix whose sparsity pattern
comes from the R-MAT generator: the row-offset, column-index and value
arrays stream sequentially while the source vector ``x`` is gathered through
the column indices — the classic *stride-indirect* pattern of NAS CG
(Table 2) applied to a power-law matrix, so the gathers are cache-hostile.

Software prefetching works (the column index is a plain array read), and
the manual PPU programming is a single stride-indirect event chain
``col_idx → x``, which makes this the smallest possible worked example of
adding a workload through the registry (docs/workloads.md walks through it).

This workload is not part of the paper's Table 2.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..compiler import ir
from ..compiler.frontend import compute, parse_loop, prefetch
from ..cpu.trace import TraceBuilder
from .base import Workload
from .data.rmat import generate_rmat_csr
from .registry import register_workload

SOFTWARE_PREFETCH_DISTANCE = 16


@register_workload()
class SpMVWorkload(Workload):
    """One CSR sparse matrix–vector product over an R-MAT sparsity pattern."""

    name = "spmv"
    pattern = "Stride-indirect gather"
    paper_input = "— (off-paper workload)"
    repro_input = "R-MAT scale 13, edge factor 4, ~20k-nonzero sweep (scaled)"

    def __init__(self, scale: str = "default", seed: int = 42) -> None:
        super().__init__(scale=scale, seed=seed)
        self.matrix_scale = 13 if self.scale.factor >= 1.0 else (11 if self.scale.factor >= 0.3 else 9)
        self.edge_factor = 4
        self.nnz_budget = self.scale.scaled(20000, minimum=512)

    # ------------------------------------------------------------------ data

    def _build_data(self) -> None:
        matrix = generate_rmat_csr(
            self.matrix_scale, self.edge_factor, seed=self.seed, undirected=False
        )
        rows = matrix.num_vertices
        rng = np.random.default_rng(self.seed)

        self.row_offsets = self.space.allocate_array(
            "spmv_row_offsets", rows + 1, values=matrix.row_offsets
        )
        self.col_idx = self.space.allocate_array(
            "spmv_col_idx", max(1, matrix.num_edges), values=matrix.columns
        )
        self.vals = self.space.allocate_array(
            "spmv_vals",
            max(1, matrix.num_edges),
            values=rng.integers(1, 1 << 20, size=max(1, matrix.num_edges), dtype=np.int64),
        )
        self.x = self.space.allocate_array(
            "spmv_x", rows, values=rng.integers(1, 1 << 20, size=rows, dtype=np.int64)
        )
        self.y = self.space.allocate_array(
            "spmv_y", rows, values=np.zeros(rows, dtype=np.int64)
        )
        self._matrix = matrix

    # ----------------------------------------------------------------- trace

    def _emit_trace(self, tb: TraceBuilder, *, software_prefetch: bool) -> None:
        matrix = self._matrix
        dist = SOFTWARE_PREFETCH_DISTANCE
        nnz_done = 0
        for row in range(matrix.num_vertices):
            if nnz_done >= self.nnz_budget:
                break
            start = int(matrix.row_offsets[row])
            end = int(matrix.row_offsets[row + 1])
            if start == end:
                continue
            row_load = tb.load(self.row_offsets.addr_of(row))
            tb.load(self.row_offsets.addr_of(row + 1))
            accumulate = row_load
            for j in range(start, end):
                col = int(matrix.columns[j])
                if software_prefetch and j + dist < len(self.col_idx):
                    future_col = tb.load(self.col_idx.addr_of(j + dist))
                    tb.software_prefetch(
                        self.x.addr_of(int(matrix.columns[j + dist])),
                        deps=[future_col],
                    )
                col_load = tb.load(self.col_idx.addr_of(j), deps=[row_load])
                val_load = tb.load(self.vals.addr_of(j), deps=[row_load])
                x_load = tb.load(self.x.addr_of(col), deps=[col_load])
                accumulate = tb.compute(2, deps=[val_load, x_load, accumulate])
                nnz_done += 1
            tb.store(self.y.addr_of(row), deps=[accumulate])
            tb.branch()

    # -------------------------------------------------------------- compiler

    def _build_loop_ir(self) -> tuple[ir.Loop, Mapping[str, int]]:
        # Written as a plain traversal function and parsed into the loop IR
        # (docs/workloads.md walks through exactly this code); the stream and
        # distance hints tune the derived manual-mode kernels.
        def traversal(j, col_idx, vals, x):
            prefetch(
                x[col_idx[j + SOFTWARE_PREFETCH_DISTANCE]],
                stream="spmv_col_idx",
                distance=8,
                name="swpf_x",
            )
            gather = x[col_idx[j]]
            value = vals[j]
            compute(2, gather, value)

        loop = parse_loop(
            traversal,
            name="spmv",
            arrays=[
                ir.ArrayDecl("col_idx", "col_base", length_param="num_nonzeros"),
                ir.ArrayDecl("vals", "vals_base", length_param="num_nonzeros"),
                ir.ArrayDecl("x", "x_base", length_param="num_rows"),
            ],
            trip_count_param="num_nonzeros",
            pragma_prefetch=True,
            constants={"SOFTWARE_PREFETCH_DISTANCE": SOFTWARE_PREFETCH_DISTANCE},
        )
        bindings = {
            "col_base": self.col_idx.base_addr,
            "vals_base": self.vals.base_addr,
            "x_base": self.x.base_addr,
            "num_nonzeros": len(self.col_idx),
            "num_rows": self._matrix.num_vertices,
        }
        return loop, bindings
