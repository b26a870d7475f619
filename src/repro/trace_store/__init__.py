"""The trace artifact tier: emit each dynamic trace once per machine, ever.

PRs 3–4 made ``simulate()`` fast; what dominates a plan now is everything
*around* it — rebuilding workload data structures and re-emitting identical
dynamic traces in every process, for every run.  This package closes that
gap:

* :mod:`~repro.trace_store.artifact` — :class:`TraceArtifact`: a trace plus
  its replay context (region table, software-support flag);
* :mod:`~repro.trace_store.format` — the compact, checksummed binary
  encoding (struct-packed flat columns, versioned header);
* :mod:`~repro.trace_store.store` — :class:`TraceStore`: the digest-keyed
  on-disk store with atomic writes, corruption-as-miss reads and the
  ``REPRO_TRACE_STORE`` switch;
* :mod:`~repro.trace_store.replay` — :class:`ReplayWorkload` and
  :class:`GroupResolver`: how the engine's runners turn warm artifacts
  into runnable simulations without rebuilding workloads.

See ``docs/trace_store.md`` for the format and invalidation story.
"""

from .artifact import RegionSpec, TraceArtifact
from .format import (
    FORMAT_VERSION,
    decode_artifact,
    decode_header,
    encode_artifact,
    read_header_from_file,
    validate_artifact_bytes,
)
from .replay import (
    GroupResolver,
    ReplayWorkload,
    needs_workload_build,
    variant_for_mode,
    variants_needed,
)
from .store import (
    DISABLED_VALUES,
    TRACE_STORE_ENV,
    StoreEntry,
    TraceStore,
    TraceStoreStats,
    default_trace_store,
    default_trace_store_dir,
    trace_code_fingerprint,
    trace_digest,
    trace_store_from_spec,
)

__all__ = [
    "TraceArtifact",
    "RegionSpec",
    "FORMAT_VERSION",
    "encode_artifact",
    "decode_artifact",
    "decode_header",
    "read_header_from_file",
    "validate_artifact_bytes",
    "TraceStore",
    "TraceStoreStats",
    "StoreEntry",
    "TRACE_STORE_ENV",
    "DISABLED_VALUES",
    "trace_digest",
    "trace_code_fingerprint",
    "default_trace_store",
    "default_trace_store_dir",
    "trace_store_from_spec",
    "GroupResolver",
    "ReplayWorkload",
    "variant_for_mode",
    "needs_workload_build",
    "variants_needed",
]
