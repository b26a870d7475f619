"""Vectorized numpy replay backend for the non-programmable prefetch modes.

The package replays :class:`~repro.cpu.trace.Trace` columns through the
memory hierarchy with chunked numpy precomputation
(:mod:`~repro.sim.vector.columns`) feeding a fused, bit-identical state
machine (:mod:`~repro.sim.vector.replay`).

Every non-programmable request replays here, and the replay loop issues
that request's stride, GHB and software prefetches itself.  When a specific
request falls outside the supported envelope (programmable modes, negative
addresses or instruction counts), the caller replays through the interpreter
core instead: the backend changes wall-clock time, never results, and the
golden-stats suite pins that equivalence on both paths.
"""

from __future__ import annotations

from .columns import CHUNK_OPS, TraceColumnPlan
from .replay import replay_trace

__all__ = [
    "CHUNK_OPS",
    "TraceColumnPlan",
    "replay_trace",
]
