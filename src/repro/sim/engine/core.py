"""The engine facade: run a plan through memo → cache → runner.

:class:`SimEngine` owns three layers of reuse:

1. the plan itself deduplicates identical requests (shared baselines);
2. an in-process memo carries results across successive ``run`` calls, so
   several figures sharing one engine never re-simulate a point;
3. an optional persistent :class:`ResultCache` carries results across
   sessions.

Everything still pending after those layers goes to the :class:`Runner` —
and, when a checkpoint directory is configured, is recorded in a durable
run manifest *as it completes* (see :mod:`repro.sim.engine.checkpoint`):
each finished request is pushed into the cache and the manifest as soon as
the runner reports it — before the next one runs on the serial path, while
the other requests of its chunk still run on the multiprocess path — so a
killed sweep resumes from exactly where it died.  With ``resume=True`` the
engine replays the prior manifest against the cache and executes only the
missing requests.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Optional, Sequence, Union

from ...resilience import Deadline, DeadlineLike
from ..results import SimulationResult
from .cache import UNAVAILABLE, CachedValue, ResultCache
from .checkpoint import ManifestEntry, RunManifest, default_checkpoint_dir
from .plan import SimPlan
from .request import SimRequest
from .runner import DEADLINE_FAILURE_TEXT, ExecutedRequest, Runner, SerialRunner


@dataclass
class EngineStats:
    """What one ``run`` (or an engine lifetime) did and avoided doing."""

    submitted: int = 0
    unique: int = 0
    deduplicated: int = 0
    memo_hits: int = 0
    cache_hits: int = 0
    executed: int = 0
    unavailable: int = 0
    #: Requests that errored (a :class:`~repro.errors.WorkloadError` that was
    #: *not* mere mode unavailability).  Labelled in :attr:`failures`.
    failed: int = 0
    #: Failure label → occurrence count (``workload/mode: message``).
    failures: dict[str, int] = field(default_factory=dict)
    #: Trace-artifact tier counters: traces warmed from the store, traces
    #: that had to be emitted, and freshly-persisted artifacts.  Hits count
    #: once per executed chunk and trace variant, so a workload group the
    #: multiprocess runner splits into K chunks reads each warm trace K times.
    trace_hits: int = 0
    trace_built: int = 0
    trace_stored: int = 0
    #: Requests a ``resume`` run satisfied from a prior run's checkpoint
    #: manifest (via the cache, or the manifest's unavailable marker)
    #: instead of re-executing them.
    resumed: int = 0
    #: Parallel chunks requeued after their worker hung or crashed.
    requeues: int = 0
    #: Pool workers killed because they stopped heartbeating.
    hung_killed: int = 0
    #: Requests that completed as failures because a deadline expired
    #: (a subset of :attr:`failed`).
    expired: int = 0
    runner: str = "serial"

    @property
    def avoided(self) -> int:
        """Simulations skipped through dedup, memoisation or the disk cache."""

        return self.deduplicated + self.memo_hits + self.cache_hits

    def merge(self, other: "EngineStats") -> None:
        """Add ``other``'s counters and failure labels; take its runner."""

        for spec in fields(self):
            name = spec.name
            if name == "failures":
                for label, count in other.failures.items():
                    self.failures[label] = self.failures.get(label, 0) + count
            elif name == "runner":
                self.runner = other.runner
            else:
                setattr(self, name, getattr(self, name) + getattr(other, name))

    def summary(self) -> str:
        text = (
            f"{self.submitted} submitted → {self.unique} unique "
            f"({self.deduplicated} deduplicated), {self.memo_hits} memo hits, "
            f"{self.cache_hits} cache hits, {self.executed} simulated "
            f"({self.unavailable} unavailable, {self.failed} failed) [{self.runner}]"
        )
        if self.trace_hits or self.trace_built:
            text += f"; traces: {self.trace_hits} warm, {self.trace_built} emitted"
        resilience = []
        if self.resumed:
            resilience.append(f"{self.resumed} resumed")
        if self.requeues:
            resilience.append(f"{self.requeues} requeued")
        if self.hung_killed:
            resilience.append(f"{self.hung_killed} hung workers killed")
        if self.expired:
            resilience.append(f"{self.expired} deadline-expired")
        if resilience:
            text += "; resilience: " + ", ".join(resilience)
        return text


@dataclass
class BatchResult:
    """Results of one executed plan, addressable by request or digest."""

    results: dict[str, SimulationResult] = field(default_factory=dict)
    skipped: set[str] = field(default_factory=set)
    #: Failure text per failed request digest (subset of ``skipped``).
    failures: dict[str, str] = field(default_factory=dict)
    stats: EngineStats = field(default_factory=EngineStats)

    def get(self, request: Union[SimRequest, str]) -> Optional[SimulationResult]:
        digest = request.digest if isinstance(request, SimRequest) else request
        return self.results.get(digest)

    def __getitem__(self, request: Union[SimRequest, str]) -> SimulationResult:
        result = self.get(request)
        if result is None:
            digest = request.digest if isinstance(request, SimRequest) else request
            raise KeyError(f"no result for request {digest}")
        return result

    def __len__(self) -> int:
        return len(self.results)


class SimEngine:
    """Plan executor with in-process memoisation and optional disk cache.

    Args:
        runner: Executes whatever the memo/cache layers cannot answer.
        cache: Optional persistent result cache shared across sessions.
        checkpoint_dir: When set, each run writes a durable manifest of
            completed requests there (incrementally, via atomic renames).
        resume: Replay the prior manifest before executing: requests it
            recorded as done are served from the cache (or skipped, for
            unavailable modes) instead of re-executing.  Implies
            checkpointing; without an explicit ``checkpoint_dir`` the
            default directory (``REPRO_CHECKPOINT_DIR`` or the user cache)
            is used.
        deadline: Per-``run`` execution budget in seconds (or a shared
            :class:`~repro.resilience.Deadline`).  Expired requests fail
            with a retryable label rather than blocking forever.
    """

    def __init__(
        self,
        *,
        runner: Optional[Runner] = None,
        cache: Optional[ResultCache] = None,
        checkpoint_dir: Optional[Union[str, Path]] = None,
        resume: bool = False,
        deadline: DeadlineLike = None,
    ) -> None:
        self.runner = runner if runner is not None else SerialRunner()
        self.cache = cache
        if resume and checkpoint_dir is None:
            checkpoint_dir = default_checkpoint_dir()
        self.checkpoint_dir = Path(checkpoint_dir) if checkpoint_dir is not None else None
        self.resume = resume
        self.deadline = deadline
        #: Cumulative statistics across every ``run``/``simulate`` call.
        self.stats = EngineStats(runner=self.runner.label)
        self._memo: dict[str, CachedValue] = {}

    def run(self, plan: SimPlan) -> BatchResult:
        """Execute ``plan`` through memo → cache → runner.

        Args:
            plan: The deduplicated request set to execute.

        Returns:
            A :class:`BatchResult` mapping request digests to results, with
            unavailable points in ``skipped`` and an :class:`EngineStats`
            describing what this run executed and what it avoided.
        """

        run_stats = EngineStats(
            submitted=plan.submitted,
            unique=len(plan),
            deduplicated=plan.deduplicated,
        )
        batch = BatchResult(stats=run_stats)
        pending: list[SimRequest] = []

        manifest: Optional[RunManifest] = None
        prior: dict[str, ManifestEntry] = {}
        if self.checkpoint_dir is not None:
            manifest = RunManifest(
                self.checkpoint_dir, [digest for digest, _ in plan.items()]
            )
            if self.resume:
                prior = manifest.load_prior()

        for digest, request in plan.items():
            value = self._memo.get(digest)
            if value is not None:
                run_stats.memo_hits += 1
            elif self.cache is not None:
                value = self.cache.get(digest)
                if value is not None:
                    run_stats.cache_hits += 1
                    self._memo[digest] = value
                    if digest in prior and prior[digest].status != "failed":
                        # The prior (killed) run completed this request and
                        # its cache write survived: resume skips it.
                        run_stats.resumed += 1
            if value is None and digest in prior and prior[digest].status == "unavailable":
                # An "unavailable" manifest marker is a complete answer by
                # itself, even without a cache.  An "ok" marker needs the
                # cache to hold the result bytes (it should — both were
                # written in the same completion step — but a pruned cache
                # degrades to re-execution, never to a wrong answer), and
                # "failed" entries always re-execute.
                value = UNAVAILABLE
                run_stats.resumed += 1
                self._memo[digest] = UNAVAILABLE
            if value is None:
                pending.append(request)
            elif value is UNAVAILABLE:
                batch.skipped.add(digest)
                if manifest is not None:
                    manifest.entries[digest] = ManifestEntry("unavailable")
            else:
                batch.results[digest] = value
                if manifest is not None:
                    manifest.entries[digest] = ManifestEntry("ok")

        by_digest = {request.digest: request for request in pending}

        def absorb(executed: Sequence[ExecutedRequest]) -> None:
            """Bank completed requests the moment the runner reports them.

            Cache writes and the manifest flush happen here — per request,
            not after the whole run — so a ``kill -9`` at any point leaves
            every completed request durable.
            """

            records: list[tuple[str, str, Optional[str]]] = []
            for digest, result, failure in executed:
                run_stats.executed += 1
                request = by_digest[digest]
                if result is None:
                    batch.skipped.add(digest)
                    if failure is not None:
                        # A genuine failure: count and label it, but never
                        # tombstone it — a later run should retry, and a
                        # persistent cache must not remember transient errors.
                        run_stats.failed += 1
                        run_stats.failures[failure] = run_stats.failures.get(failure, 0) + 1
                        batch.failures[digest] = failure
                        if DEADLINE_FAILURE_TEXT in failure:
                            run_stats.expired += 1
                        records.append((digest, "failed", failure))
                    else:
                        run_stats.unavailable += 1
                        self._memo[digest] = UNAVAILABLE
                        if self.cache is not None:
                            self.cache.put_unavailable(request)
                        records.append((digest, "unavailable", None))
                else:
                    batch.results[digest] = result
                    self._memo[digest] = result
                    if self.cache is not None:
                        self.cache.put(request, result)
                    records.append((digest, "ok", None))
            if manifest is not None:
                manifest.record_batch(records)

        self.runner.run(
            pending,
            on_executed=absorb,
            deadline=Deadline.after(self.deadline),
        )
        # After the run: a multiprocess runner that ran in-process says so.
        run_stats.runner = self.runner.label

        trace_stats = getattr(self.runner, "trace_stats", None)
        if trace_stats is not None:
            run_stats.trace_hits = trace_stats.hits
            run_stats.trace_built = trace_stats.built
            run_stats.trace_stored = trace_stats.stored
        resilience = getattr(self.runner, "resilience", None)
        if resilience is not None:
            run_stats.requeues = resilience.requeues
            run_stats.hung_killed = resilience.hung_killed
        self.stats.merge(run_stats)
        return batch

    def simulate(self, request: SimRequest) -> Optional[SimulationResult]:
        """Run a single request through the full memo/cache/runner path.

        Args:
            request: The simulation point to run.

        Returns:
            Its :class:`~repro.sim.results.SimulationResult`, or ``None``
            when the requested mode is unavailable for the workload.
        """

        return self.run(SimPlan([request])).get(request)
