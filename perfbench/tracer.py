"""Span tracer that times calls into the simulator's layers from outside.

The traced run wraps public functions and methods at each layer boundary
(see ``install``).  Wrappers are set on classes and modules *before* any
simulator object is built, so bound methods and hooks captured at
``attach``/``run`` time are the wrappers.  No file of the simulator changes.

Spans are aggregated in memory per ``(layer, parent layer)`` as count, total
and self time; a layer's self time is its duration minus the time its child
spans cover.  Coarse spans (points, plan passes, builds, cache operations)
are also kept individually, tagged with an id, and written out when the run
ends.  The tracer assumes the traced code runs on one thread, which holds
for the serial runner and the service client.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Optional

#: ``observe(args, result)`` hook run after a boundary call returns.
Observer = Callable[[tuple, Any], None]

_MISSING = object()


class Tracer:
    """In-memory span recorder with install/uninstall of boundary wrappers."""

    def __init__(self) -> None:
        self.clock = time.perf_counter
        #: Open spans, innermost last: ``[layer, child_seconds, span_index]``.
        self.stack: list[list] = []
        #: ``(layer, parent_layer) -> [calls, total_seconds, self_seconds]``.
        self.aggregate: dict[tuple[str, Optional[str]], list] = {}
        #: Coarse spans kept individually (dicts, in completion order).
        self.spans: list[dict[str, Any]] = []
        #: Counts recorded at boundaries (fallbacks, emitted trace ops, ...).
        self.counts: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def fine(self, layer: str, fn: Callable) -> Callable:
        """Wrap a hot-path callable: aggregate only, no per-call record."""

        clock = self.clock
        stack = self.stack
        aggregate = self.aggregate

        def traced(*args, **kwargs):
            frame = [layer, 0.0, stack[-1][2]]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent = stack[-1]
                parent[1] += elapsed
                key = (layer, parent[0])
                record = aggregate.get(key)
                if record is None:
                    aggregate[key] = [1, elapsed, elapsed - frame[1]]
                else:
                    record[0] += 1
                    record[1] += elapsed
                    record[2] += elapsed - frame[1]

        traced.__wrapped__ = fn
        return traced

    def coarse(
        self,
        layer: str,
        fn: Callable,
        span_id: Callable[[tuple], str],
        observe: Optional[Observer] = None,
    ) -> Callable:
        """Wrap an infrequent callable: aggregate and keep each span."""

        def traced(*args, **kwargs):
            with self.span(layer, span_id(args)):
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, layer: str, span_id: str) -> Iterator[dict[str, Any]]:
        """Record one coarse span around the body (also used for passes)."""

        stack = self.stack
        parent = stack[-1] if stack else None
        record: dict[str, Any] = {
            "layer": layer, "id": span_id, "ok": False,
            "parent": parent[2] if parent else None,
            "parent_layer": parent[0] if parent else None,
        }
        frame = [layer, 0.0, len(self.spans)]
        self.spans.append(record)
        stack.append(frame)
        start = record["start"] = self.clock()
        try:
            yield record
            record["ok"] = True
        finally:
            elapsed = self.clock() - start
            stack.pop()
            if parent is not None:
                parent[1] += elapsed
            record["seconds"] = elapsed
            record["self_seconds"] = elapsed - frame[1]
            totals = self.aggregate.setdefault((layer, record["parent_layer"]), [0, 0.0, 0.0])
            totals[0] += 1
            totals[1] += elapsed
            totals[2] += elapsed - frame[1]

    # ------------------------------------------------------------- patching

    def patch(self, owner: object, name: str, replacement: object) -> None:
        """Set ``owner.name``, remembering what ``uninstall`` restores."""

        self._patches.append((owner, name, vars(owner).get(name, _MISSING)))
        setattr(owner, name, replacement)

    def patch_function(self, module_name: str, name: str, make: Callable[[Callable], Callable]) -> None:
        """Replace a module-level function everywhere ``repro`` imported it."""

        original = getattr(importlib.import_module(module_name), name)
        replacement = make(original)
        for module_key, module in list(sys.modules.items()):
            if (module_key == "repro" or module_key.startswith("repro.")) and getattr(
                module, name, None
            ) is original:
                self.patch(module, name, replacement)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""

        while self._patches:
            owner, name, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, original)

    # -------------------------------------------------------------- queries

    def calls(self, layer: str) -> int:
        return sum(rec[0] for (name, _), rec in self.aggregate.items() if name == layer)

    def total_s(self, layer: str) -> float:
        return sum(rec[1] for (name, _), rec in self.aggregate.items() if name == layer)

    def self_s(self, layer: str) -> float:
        return sum(rec[2] for (name, _), rec in self.aggregate.items() if name == layer)

    def self_sum(self) -> float:
        return sum(rec[2] for rec in self.aggregate.values())

    def dump(self) -> dict[str, Any]:
        return {
            "aggregate": [
                {"layer": layer, "parent": parent, "calls": rec[0],
                 "total_s": rec[1], "self_s": rec[2]}
                for (layer, parent), rec in sorted(
                    self.aggregate.items(), key=lambda item: -item[1][2]
                )
            ],
            "counts": dict(self.counts),
            "spans": self.spans,
        }


def _workload_mode_id(args: tuple) -> str:
    return f"{args[0].name}/{args[1].value}"


def _name_id(args: tuple) -> str:
    return getattr(args[0], "name", "?")


def _digest_id(args: tuple) -> str:
    return str(args[1])[:16]


def _request_id(args: tuple) -> str:
    request = args[1]
    return f"{request.workload}/{request.mode}/{request.digest[:12]}"


def _plan_id(args: tuple) -> str:
    return f"plan[{len(args[1])}]"


def _constant_id(value: str) -> Callable[[tuple], str]:
    return lambda _args: value


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are defined on.

    Must run before the traced code builds any simulator object.
    """

    from repro.cpu.core import OutOfOrderCore
    from repro.errors import VectorBackendUnsupported
    from repro.memory.hierarchy import MemoryHierarchy
    from repro.prefetch.ghb import GHBPrefetcher
    from repro.prefetch.stride import StridePrefetcher
    from repro.programmable.prefetcher import EventTriggeredPrefetcher
    from repro.service.client import ServiceEngine
    from repro.sim.engine.cache import ResultCache
    from repro.sim.engine.checkpoint import RunManifest
    from repro.sim.engine.core import SimEngine
    from repro.trace_store.store import TraceStore
    from repro.workloads.base import Workload

    fine, coarse, patch = tracer.fine, tracer.coarse, tracer.patch
    counts = tracer.counts

    def count_ops(args: tuple, trace: Any) -> None:
        counts["cpu.ops"] += len(args[1])

    patch(OutOfOrderCore, "run", coarse(
        "cpu.run", OutOfOrderCore.run, _constant_id("core"), count_ops))
    patch(MemoryHierarchy, "demand_access_time",
          fine("memory.demand", MemoryHierarchy.demand_access_time))
    patch(MemoryHierarchy, "prefetch_access",
          fine("memory.prefetch", MemoryHierarchy.prefetch_access))
    patch(StridePrefetcher, "train", fine("prefetch.stride", StridePrefetcher.train))
    patch(GHBPrefetcher, "train", fine("prefetch.ghb", GHBPrefetcher.train))

    # The programmable prefetcher's hooks are bound methods handed to the
    # hierarchy; wrap them as they are registered.  Stride and GHB register
    # a snoop too, which stays unwrapped (their cost is their ``train``).
    set_advance_hook = MemoryHierarchy.set_advance_hook
    set_demand_snoop = MemoryHierarchy.set_demand_snoop

    def traced_set_advance_hook(self, hook):
        if hook is not None and isinstance(getattr(hook, "__self__", None), EventTriggeredPrefetcher):
            hook = fine("programmable.advance", hook)
        set_advance_hook(self, hook)

    def traced_set_demand_snoop(self, hook):
        if hook is not None and isinstance(getattr(hook, "__self__", None), EventTriggeredPrefetcher):
            hook = fine("programmable.snoop", hook)
        set_demand_snoop(self, hook)

    patch(MemoryHierarchy, "set_advance_hook", traced_set_advance_hook)
    patch(MemoryHierarchy, "set_demand_snoop", traced_set_demand_snoop)

    def make_kernel_executor(original: Callable) -> Callable:
        traced_compile = coarse("programmable.compile", original, lambda args: args[0].name)

        def kernel_executor(program):
            return fine("programmable.kernel", traced_compile(program))

        return kernel_executor

    tracer.patch_function("repro.programmable.prefetcher", "kernel_executor", make_kernel_executor)

    def make_replay(original: Callable) -> Callable:
        def replay_trace(*args, **kwargs):
            try:
                return original(*args, **kwargs)
            except VectorBackendUnsupported:
                counts["vector.fallbacks"] += 1
                raise

        return fine("vector.replay", replay_trace)

    # Only the call site inside ``simulate`` (batched geometry sweeps replay
    # through ``replay_trace_batch`` and stay in their caller's self time).
    import repro.sim.system as system

    patch(system, "replay_trace", make_replay(system.replay_trace))
    tracer.patch_function(
        "repro.sim.system", "simulate",
        lambda original: coarse("sim.simulate", original, _workload_mode_id))

    for method in ("pragma_configuration", "converted_configuration", "manual_configuration_for"):
        patch(Workload, method, coarse("compiler.configure", getattr(Workload, method), _name_id))
    patch(Workload, "build", coarse("workloads.build", Workload.build, _name_id))

    first_seen: dict[int, Any] = {}

    def count_emitted(args: tuple, trace: Any) -> None:
        # A workload returns its cached trace object on every later call;
        # holding each trace keeps its id from being reused.
        if id(trace) not in first_seen:
            first_seen[id(trace)] = trace
            counts["workloads.trace_ops"] += len(trace)

    patch(Workload, "trace", coarse(
        "workloads.emit", Workload.trace, _name_id, count_emitted))

    def count_store_hit(args: tuple, artifact: Any) -> None:
        counts["trace_store.hits"] += artifact is not None

    patch(TraceStore, "get", coarse("trace_store.get", TraceStore.get, _digest_id, count_store_hit))
    patch(TraceStore, "put", coarse(
        "trace_store.put", TraceStore.put, lambda args: f"{args[1].workload}/{args[1].variant}"))

    patch(SimEngine, "run", coarse("engine.run", SimEngine.run, _plan_id))
    patch(ResultCache, "get", coarse("engine.cache_get", ResultCache.get, _digest_id))
    patch(ResultCache, "put", coarse("engine.cache_put", ResultCache.put, _request_id))
    patch(ResultCache, "put_unavailable", coarse(
        "engine.cache_put", ResultCache.put_unavailable, _request_id))
    for method in ("load_prior", "record_batch", "flush"):
        patch(RunManifest, method, fine("engine.checkpoint", getattr(RunManifest, method)))

    tracer.patch_function(
        "repro.eval.report", "run_report",
        lambda original: coarse("eval.report", original, _constant_id("report")))
    tracer.patch_function(
        "repro.eval.report", "render_markdown",
        lambda original: coarse("eval.render", original, _constant_id("markdown")))

    patch(ServiceEngine, "run", coarse("service.run", ServiceEngine.run, _plan_id))
    tracer.patch_function(
        "repro.service.health", "probe_endpoint",
        lambda original: coarse("service.probe", original, lambda args: str(args[0])))
