"""Batch simulation engine: plan → execute → cache.

Every figure, table and sweep in the evaluation reduces to a set of
independent ``(workload, mode, config)`` simulation points.  This package
turns those points into declarative :class:`SimRequest` values, collects them
into a deduplicating :class:`SimPlan`, executes the plan with a pluggable
:class:`Runner`, and memoises results both in-process and in a persistent
content-addressed :class:`ResultCache`, so shared baselines are simulated
exactly once and repeated reproduction runs skip work entirely.

The local drivers run every plan on :class:`MultiprocessRunner`: one
worker process per CPU this process may use
(:func:`~repro.sim.engine.pool.default_workers`), in-process when one
worker or one chunk leaves nothing to spread, and no process at all until
a run has work.  It banks each result as its worker finishes it, so a
killed run keeps every finished simulation.  :class:`SerialRunner` is
:class:`SimEngine`'s own default.

Quickstart::

    from repro.sim.engine import MultiprocessRunner, ResultCache, SimEngine
    from repro.sim.comparison import comparison_plan

    engine = SimEngine(runner=MultiprocessRunner(), cache=ResultCache(".sim-cache"))
    batch = engine.run(comparison_plan(["intsort", "randacc"]))
    print(batch.stats)
"""

from ...trace_store import TraceStore, TraceStoreStats, default_trace_store
from .cache import UNAVAILABLE, ResultCache
from .checkpoint import (
    CHECKPOINT_DIR_ENV,
    ManifestEntry,
    RunManifest,
    default_checkpoint_dir,
    plan_fingerprint,
)
from .core import BatchResult, EngineStats, SimEngine
from .plan import SimPlan
from .request import POLICY_REGISTRY, SimRequest, resolve_policy
from .runner import (
    DEADLINE_FAILURE_TEXT,
    ExecutedRequest,
    MultiprocessRunner,
    ResilienceStats,
    Runner,
    SerialRunner,
    execute_group,
    execute_request,
    group_requests,
)

__all__ = [
    "CHECKPOINT_DIR_ENV",
    "DEADLINE_FAILURE_TEXT",
    "ManifestEntry",
    "ResilienceStats",
    "RunManifest",
    "default_checkpoint_dir",
    "plan_fingerprint",
    "SimRequest",
    "SimPlan",
    "Runner",
    "SerialRunner",
    "MultiprocessRunner",
    "ExecutedRequest",
    "group_requests",
    "execute_group",
    "execute_request",
    "ResultCache",
    "UNAVAILABLE",
    "TraceStore",
    "TraceStoreStats",
    "default_trace_store",
    "SimEngine",
    "BatchResult",
    "EngineStats",
    "POLICY_REGISTRY",
    "resolve_policy",
]
