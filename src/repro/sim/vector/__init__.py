"""Vectorized numpy replay backend for the non-programmable prefetch modes.

The package replays :class:`~repro.cpu.trace.Trace` columns through the
memory hierarchy with chunked numpy precomputation
(:mod:`~repro.sim.vector.columns`) feeding a fused, bit-identical state
machine (:mod:`~repro.sim.vector.replay`), and can drive N cache-geometry
lanes over one trace pass (:func:`replay_trace_batch`).

Every non-programmable request replays here whenever numpy imports.  When
numpy is missing, or a specific request falls outside the supported
envelope (programmable modes, non-power-of-two line sizes, mismatched lane
geometry), the caller replays through the interpreter core instead: the
backend changes wall-clock time, never results, and the golden-stats suite
pins that equivalence with numpy and without it.
"""

from __future__ import annotations

from .columns import CHUNK_OPS, TraceColumnPlan, numpy_available
from .replay import replay_trace, replay_trace_batch

__all__ = [
    "CHUNK_OPS",
    "TraceColumnPlan",
    "numpy_available",
    "replay_trace",
    "replay_trace_batch",
]
