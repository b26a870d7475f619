"""Replay workloads and per-group artifact resolution.

:class:`ReplayWorkload` is a :class:`~repro.workloads.base.Workload` stand-in
reconstructed purely from stored :class:`TraceArtifact`\\ s: same name, same
region table (mapped zero-filled, which is all the hierarchy's
unmapped-prefetch check needs), same traces — but no data build, no kernel
builders.  It is sufficient for every mode that does not program the PPUs
(``none``, ``stride``, ``ghb-*``, ``software``); the programmable modes need
the real workload for its kernel configurations and line *contents*, so they
always take the full-build path (with the emission step skipped when the
store already holds the trace).

:class:`GroupResolver` is the shared resolution policy used by the plan
runners: for one request group — one
``(workload, scale, seed)`` — it warms artifacts from the store, falls back
to building the workload when it must, and persists freshly-emitted traces
so the next run, worker or machine boot starts warm.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..cpu.trace import TraceBuilder
from ..errors import WorkloadError
from ..workloads import build_workload
from ..workloads.base import Workload
from .artifact import TraceArtifact
from .store import TraceStore, TraceStoreStats, trace_digest

#: Trace variants, in resolution order (``plain`` also carries the
#: software-support flag, so it is consulted first).
VARIANTS = ("plain", "software")

# NOTE: this module deliberately does not import ``repro.sim`` — the engine
# package imports *us*, and pulling ``sim.modes`` in here would close an
# import cycle through ``repro.sim.__init__``.  Mode objects are therefore
# duck-typed: the helpers below accept any object with the
# ``PrefetchMode.value`` / ``trace_variant`` / ``needs_workload_build``
# surface (or a plain variant string where noted).


def variant_for_mode(mode) -> str:
    """The trace variant ``mode`` replays (only ``software`` differs).

    Accepts a :class:`~repro.sim.modes.PrefetchMode` (whose
    ``trace_variant`` property is the authoritative mapping) or its value
    string.
    """

    variant = getattr(mode, "trace_variant", None)
    if variant is not None:
        return variant
    return "software" if mode == "software" else "plain"


def needs_workload_build(mode) -> bool:
    """Whether ``mode`` requires the real workload (kernels / loop IR).

    ``mode`` must be a :class:`~repro.sim.modes.PrefetchMode` — see its
    ``needs_workload_build`` property for the rationale.
    """

    return bool(getattr(mode, "needs_workload_build", False))


class ReplayWorkload(Workload):
    """A workload reconstructed from trace artifacts (no data build)."""

    def __init__(self, artifact: TraceArtifact) -> None:
        super().__init__(scale=artifact.scale, seed=artifact.seed)
        self.name = artifact.workload
        self._supports_software = artifact.supports_software
        for region in artifact.regions:
            self.space.map_region(region.name, region.base, region.size_bytes)
        self._built = True
        self.attach(artifact)

    def attach(self, artifact: TraceArtifact) -> None:
        """Adopt another variant's trace (same workload identity)."""

        self._traces[artifact.variant] = artifact.trace

    def has_variant(self, variant: str) -> bool:
        return variant in self._traces

    # --------------------------------------------------- Workload interface

    def supports_software_prefetch(self) -> bool:
        return self._supports_software

    def trace(self, variant: str = "plain"):
        if variant not in VARIANTS:
            raise WorkloadError(f"unknown trace variant {variant!r}")
        if variant == "software" and not self._supports_software:
            raise WorkloadError(
                f"{self.name}: software prefetching cannot be expressed "
                "(no direct memory address access)"
            )
        try:
            return self._traces[variant]
        except KeyError:
            raise WorkloadError(
                f"{self.name}: replay artifact set has no {variant!r} trace"
            ) from None

    def _build_data(self) -> None:  # pragma: no cover - _built is preset
        pass

    def _emit_trace(self, tb: TraceBuilder, *, software_prefetch: bool) -> None:
        raise WorkloadError(f"{self.name}: a replay workload cannot re-emit traces")

    def _build_loop_ir(self):
        raise WorkloadError(
            f"{self.name}: replay artifacts carry no loop IR; "
            "programmable modes must build the real workload"
        )


class GroupResolver:
    """Resolve one request group's trace artifacts and workload objects.

    Resolution order per variant: the on-disk store → build the workload
    and emit.  Whatever path wins,
    the artifacts of every *needed* variant end up persisted (when a store
    is attached), so each ``(workload, variant, scale, seed)`` trace is
    emitted once per machine, ever.
    """

    def __init__(
        self,
        workload: str,
        scale: str,
        seed: int,
        *,
        store: Optional[TraceStore] = None,
        prebuilt: Optional[Workload] = None,
    ) -> None:
        self.workload = workload
        self.scale = scale
        self.seed = seed
        self.store = store
        self.stats = TraceStoreStats()
        self._artifacts: dict[str, TraceArtifact] = {}
        self._missing: set[str] = set()
        self._replay: Optional[ReplayWorkload] = None
        self._full: Optional[Workload] = None
        if (
            prebuilt is not None
            and prebuilt.scale.name == scale
            and prebuilt.seed == seed
        ):
            self._full = prebuilt

    # ------------------------------------------------------------ artifacts

    def artifact(self, variant: str) -> Optional[TraceArtifact]:
        """The decoded artifact for ``variant``, warming it if possible."""

        cached = self._artifacts.get(variant)
        if cached is not None:
            return cached
        if variant in self._missing:
            return None
        if self.store is not None:
            artifact = self.store.get(self.digest(variant))
            if artifact is not None and self._identity_matches(artifact, variant):
                self._adopt(variant, artifact)
                return artifact
        self._missing.add(variant)
        return None

    def digest(self, variant: str) -> str:
        return trace_digest(self.workload, variant, self.scale, self.seed)

    def _identity_matches(self, artifact: TraceArtifact, variant: str) -> bool:
        return (
            artifact.workload == self.workload
            and artifact.variant == variant
            and artifact.scale == self.scale
            and artifact.seed == self.seed
        )

    def _adopt(self, variant: str, artifact: TraceArtifact) -> None:
        self._artifacts[variant] = artifact
        self.stats.hits += 1
        if self._replay is not None:
            self._replay.attach(artifact)

    # ------------------------------------------------------------ workloads

    def workload_for_mode(self, mode) -> Workload:
        """A workload object sufficient to simulate ``mode``.

        Replay path when the needed artifact is warm and the mode does not
        program the PPUs; full build otherwise.
        """

        if needs_workload_build(mode):
            return self.full_workload()
        variant = variant_for_mode(mode)
        artifact = self.artifact(variant)
        if artifact is None:
            if variant == "software":
                plain = self.artifact("plain")
                if plain is not None and not plain.supports_software:
                    # Unavailability is knowable from the plain artifact's
                    # flag — no build needed just to discover it.
                    return self._replay_workload(plain)
            return self.full_workload()
        return self._replay_workload(artifact)

    def _replay_workload(self, artifact: TraceArtifact) -> Workload:
        # Prefer an already-built full workload: it answers everything a
        # replay can, without constructing a second address space.  (Its
        # traces are *not* overwritten with decoded ones: emission has
        # address-space side effects — visited flags, result arrays — that
        # the programmable modes' kernels read, so the full path always
        # emits for real and the decoded artifact is simply redundant.)
        if self._full is not None:
            return self._full
        if self._replay is None:
            self._replay = ReplayWorkload(artifact)
            for other in self._artifacts.values():
                self._replay.attach(other)
        return self._replay

    def full_workload(self) -> Workload:
        """The real workload, built (and emitting for itself) at most once.

        Stored traces are deliberately *not* injected here: emitting a trace
        runs the workload's algorithm against the simulated address space,
        and some workloads write results (BFS visited sets, union-find
        roots) that the programmable prefetcher's kernels subsequently read.
        A full workload therefore always reproduces the canonical
        post-emission space, exactly as before the artifact tier existed.
        """

        if self._full is None:
            self._full = build_workload(self.workload, scale=self.scale, seed=self.seed)
        return self._full

    # ------------------------------------------------------------ persisting

    def persist(self, variants: Sequence[str]) -> None:
        """Emit-and-store every needed variant that is not already on disk.

        Called after a group executes: by then either every variant came
        from the store (nothing to do) or the full workload exists and its
        traces are already cached, so "emission" here is a lookup.  With no
        store attached this is a no-op (and the trace statistics stay zero,
        which is how a disabled tier reads in the engine summary).
        """

        if self.store is None:
            return
        for variant in variants:
            if variant not in VARIANTS or self.artifact(variant) is not None:
                continue
            if variant == "software":
                # The plain artifact already knows whether a software trace
                # can exist — never pay a full build just to rediscover
                # unavailability (it would recur on every run, since
                # unsupported variants are never stored).
                plain = self.artifact("plain")
                if plain is not None and not plain.supports_software:
                    continue
            workload = self.full_workload()
            if variant == "software" and not workload.supports_software_prefetch():
                continue
            try:
                artifact = TraceArtifact.from_workload(workload, variant)
            except WorkloadError:
                continue
            self.stats.built += 1
            self._artifacts[variant] = artifact
            self._missing.discard(variant)
            if self.store is not None:
                try:
                    self.store.put(artifact)
                    self.stats.stored += 1
                except OSError:  # pragma: no cover - store on a full/ro disk
                    pass


def variants_needed(modes: Sequence) -> tuple[str, ...]:
    """The trace variants a set of modes (or value strings) replays."""

    wanted = {variant_for_mode(mode) for mode in modes}
    return tuple(variant for variant in VARIANTS if variant in wanted)
