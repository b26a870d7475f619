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
from .system import simulate
from .sweeps import ppu_count_frequency_sweep, ppu_frequency_sweep


def vector_backend_enabled() -> bool:
    """Always ``True``: numpy is a dependency, so vector replay is always on.

    Kept only because ``perfbench/run.py`` reads it for its provenance
    line; it goes with the next change to the benchmark harness.
    """

    return True


__all__ = [
    "PrefetchMode",
    "mode_available",
    "SimulationResult",
    "simulate",
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
