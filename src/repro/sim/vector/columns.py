"""Chunked numpy precomputation over trace columns.

The vectorized replay backend consumes a :class:`~repro.cpu.trace.Trace`
through this module: the five flat ``array`` columns are adopted zero-copy as
numpy views (``np.frombuffer`` over the backing buffers), and every per-op
quantity that is a *pure function of the op* — the L1 set index and tag, the
TLB page number, the front-end fetch increment, the per-op dependence span —
is computed for a whole chunk at once with vectorized integer arithmetic
(``(addrs >> shift) & mask`` over the chunk) instead of once per op in
interpreted Python.

Chunks are materialised as plain Python lists (one ``ndarray.tolist()`` per
derived column, a single C-level conversion) because the replay state
machine that consumes them is still a CPython loop, and CPython iterates
lists of ready ``int``/``float`` objects far faster than it subscripts
ndarrays.  Resident size stays O(chunk), not O(trace): each chunk's derived
columns are dropped before the next chunk is built, which is what lets the
same plan drive paper-scale traces without holding several decoded copies
of the whole trace at once.

What is *not* precomputed here is everything that depends on simulation
state — cache residency, MSHR occupancy, completion times.  Those are
inherently sequential (a line filled at time T changes the outcome of every
later access to its set) and are handled by the fused state machine in
:mod:`repro.sim.vector.replay`, which falls back to exactly the
interpreter's arithmetic, op by op, over these precomputed columns.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

import numpy as np

from ...cpu.trace import OpKind, Trace
from ...errors import VectorBackendUnsupported

#: Ops per precomputed chunk.  Large enough to amortise the numpy kernel
#: launches and ``tolist()`` calls, small enough that a chunk's derived
#: columns stay cache- and memory-friendly at paper scale.
CHUNK_OPS = 1 << 16


class ChunkColumns(NamedTuple):
    """One chunk's derived columns (plain lists)."""

    start: int
    end: int
    kinds: list
    #: Raw op addresses — materialised only when a consumer needs them
    #: (demand snoop, software prefetch); ``None`` otherwise.
    addrs: "object"
    #: Per-op front-end advance: ``count / issue_width`` (float).
    fetch_incr: list
    #: Per-op dependence end offsets, rebased to this chunk's value slice.
    dep_ends: list
    #: This chunk's slice of the packed dependence indices (global op ids).
    dep_values: list
    #: TLB page number of every op's address.
    pages: list
    #: L1 set index of every op's cache line.  The line index itself is not
    #: a column: the replay loop reassembles it from set and tag on the
    #: rare cache miss.
    sets: list
    #: L1 tag of every op's cache line.
    tags: list


class TraceColumnPlan:
    """Zero-copy numpy views over a trace plus chunked derived columns.

    The L1 geometry (``line_shift``, ``set_mask``, ``set_shift``) is fixed
    per plan, so every chunk carries its set and tag columns ready for the
    replay loop.
    """

    def __init__(
        self,
        trace: Trace,
        *,
        page_bytes: int,
        line_shift: int,
        set_mask: int,
        set_shift: int,
        issue_width: int,
        chunk_ops: int = CHUNK_OPS,
    ) -> None:
        if chunk_ops < 1:
            raise VectorBackendUnsupported(f"invalid chunk size {chunk_ops}")
        kinds, addrs, counts, dep_offsets, dep_values = trace.columns()
        self.n = len(kinds)
        # array('b'/'q') expose the buffer protocol, so these views share
        # the trace's storage — adopting a trace costs no copies at all.
        self._kinds = np.frombuffer(kinds, dtype=np.int8)
        self._addrs = np.frombuffer(addrs, dtype=np.int64)
        self._counts = np.frombuffer(counts, dtype=np.int64)
        self._dep_offsets = np.frombuffer(dep_offsets, dtype=np.int64)
        self._dep_values = np.frombuffer(dep_values, dtype=np.int64)
        if self.n and int(self._addrs.min()) < 0:
            raise VectorBackendUnsupported("trace contains negative addresses")
        # The replay loop drops the interpreter's ``previous_issue`` term
        # under the invariant that the front end never moves backwards,
        # which holds exactly when every per-op instruction count is
        # non-negative.
        if self.n and int(self._counts.min()) < 0:
            raise VectorBackendUnsupported("trace contains negative instruction counts")
        self._issue_width = issue_width
        self._line_shift = line_shift
        self._set_mask = set_mask
        self._set_shift = set_shift
        self._page_shift = (
            page_bytes.bit_length() - 1 if page_bytes & (page_bytes - 1) == 0 else None
        )
        self._page_bytes = page_bytes
        self._chunk_ops = chunk_ops

    # ------------------------------------------------------------- summaries

    def kind_counts(self) -> dict[int, int]:
        """Vectorized per-kind op counts (exact, folded into CoreStats once)."""

        return {
            int(kind): int(np.count_nonzero(self._kinds == int(kind)))
            for kind in OpKind
        }

    def total_instructions(self) -> int:
        return int(self._counts.sum(dtype=np.int64))

    # --------------------------------------------------------------- chunks

    def chunks(self, *, want_addrs: bool = True) -> Iterator[ChunkColumns]:
        """Yield the trace as consecutive :class:`ChunkColumns`.

        ``want_addrs=False`` skips materialising the raw address list —
        every ``tolist`` conversion the consumer will not read is measurable
        against the fused loop's own cost.
        """

        issue_width = self._issue_width
        line_shift = self._line_shift
        set_mask = self._set_mask
        set_shift = self._set_shift
        page_shift = self._page_shift
        dep_offsets = self._dep_offsets
        for start in range(0, self.n, self._chunk_ops):
            end = min(start + self._chunk_ops, self.n)
            addrs_np = self._addrs[start:end]
            lines_np = addrs_np >> line_shift
            if page_shift is not None:
                pages_np = addrs_np >> page_shift
            else:
                pages_np = addrs_np // self._page_bytes
            # ``count / issue_width``: both operands are exactly
            # representable in float64, so numpy's elementwise divide is the
            # same correctly-rounded result CPython's int/int produces.
            fetch_incr = (self._counts[start:end] / issue_width).tolist()
            dep_lo = int(dep_offsets[start])
            dep_hi = int(dep_offsets[end])
            yield ChunkColumns(
                start=start,
                end=end,
                kinds=self._kinds[start:end].tolist(),
                addrs=addrs_np.tolist() if want_addrs else None,
                fetch_incr=fetch_incr,
                dep_ends=(dep_offsets[start + 1 : end + 1] - dep_lo).tolist(),
                dep_values=self._dep_values[dep_lo:dep_hi].tolist(),
                pages=pages_np.tolist(),
                sets=(lines_np & set_mask).tolist(),
                tags=(lines_np >> set_shift).tolist(),
            )
