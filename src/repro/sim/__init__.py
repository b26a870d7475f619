"""Simulation driver: assemble a system, run a workload under a prefetch mode.

The batch engine (:mod:`repro.sim.engine`) is the preferred entry point for
anything that runs more than one simulation: declare :class:`SimRequest`
points, collect them in a :class:`SimPlan`, and execute through a
:class:`SimEngine` to get deduplication, optional multiprocessing, and a
persistent result cache.  :func:`simulate` remains the single-point primitive.
"""

from .comparison import ComparisonResult, comparison_plan, run_comparison
from .engine import (
    BatchResult,
    EngineStats,
    MultiprocessRunner,
    ResultCache,
    SerialRunner,
    SimEngine,
    SimPlan,
    SimRequest,
)
from .modes import PrefetchMode, mode_available
from .results import SimulationResult
from .system import simulate, simulate_batch
from .sweeps import (
    cache_geometry_sweep,
    ppu_count_frequency_sweep,
    ppu_frequency_sweep,
)

# Vector replay runs exactly when numpy imports; perfbench/run.py still
# reads that fact under this older name for its provenance line.
from .vector import numpy_available as vector_backend_enabled

__all__ = [
    "PrefetchMode",
    "mode_available",
    "SimulationResult",
    "simulate",
    "simulate_batch",
    "cache_geometry_sweep",
    "run_comparison",
    "comparison_plan",
    "ComparisonResult",
    "ppu_frequency_sweep",
    "ppu_count_frequency_sweep",
    "SimRequest",
    "SimPlan",
    "SimEngine",
    "BatchResult",
    "EngineStats",
    "SerialRunner",
    "MultiprocessRunner",
    "ResultCache",
]
