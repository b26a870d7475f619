"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so that
callers can distinguish library failures from programming errors in their own
code with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigurationError(ReproError):
    """An invalid system, prefetcher or workload configuration was supplied."""


class AddressSpaceError(ReproError):
    """An invalid operation on the simulated virtual address space."""


class AllocationError(AddressSpaceError):
    """Allocation failed (out of simulated address space or bad size)."""


class AccessError(AddressSpaceError):
    """A read or write touched unmapped simulated memory."""


class TraceError(ReproError):
    """A malformed dynamic trace (bad dependence, unknown op kind, ...)."""


class TraceStoreError(ReproError):
    """A trace-store artifact could not be encoded or decoded.

    Raised by :mod:`repro.trace_store.format` on malformed, truncated or
    checksum-failing artifact bytes.  :meth:`repro.trace_store.TraceStore.get`
    converts it into a cache miss — a corrupt on-disk entry must never
    escape to the engine.
    """


class KernelError(ReproError):
    """An invalid PPU kernel program (bad register, unknown opcode, ...)."""


class KernelRuntimeError(KernelError):
    """A PPU kernel faulted at run time.

    In hardware this simply terminates the prefetch event (Section 5.1 of the
    paper: "any operation that would usually cause a trap or exception
    immediately causes termination of the prefetch event").  The interpreter
    raises this error internally and the PPU model converts it into a silent
    kernel abort.
    """


class CompilationError(ReproError):
    """The compiler pass could not convert the requested loop."""


class SimulationError(ReproError):
    """The simulation reached an inconsistent state."""


class VectorBackendUnsupported(SimulationError):
    """The vectorized replay backend cannot drive this request.

    Raised internally by :mod:`repro.sim.vector` when a trace, hierarchy or
    configuration falls outside what the numpy-backed replay supports (no
    numpy, programmable prefetcher hooks, non-power-of-two line sizes,
    mismatched lane configurations, ...).  Callers catch it and fall back to
    the interpreter path — it never escapes :func:`repro.sim.system.simulate`.
    """


class DuplicateResultError(ReproError):
    """Two simulation results were recorded for the same (workload, mode) key.

    Raised by :meth:`repro.sim.comparison.ComparisonResult.add` so that a
    mis-built plan cannot silently overwrite a prior measurement.
    """


class RegistryError(ReproError):
    """Invalid use of the workload registry.

    Raised when a workload name is registered twice (two kernels cannot share
    a ``SimRequest.workload`` key) or when a lookup names an unregistered
    workload.
    """


class ServiceError(ReproError):
    """A failure in the simulation service tier (``repro serve``).

    Raised by the :mod:`repro.service` client for connection failures that
    survive retry-with-backoff, protocol timeouts, and server-reported
    submission errors.
    """


class ServiceProtocolError(ServiceError):
    """A malformed message crossed the service wire protocol.

    Covers undecodable lines, non-object payloads and messages whose fields
    cannot be mapped back onto :class:`~repro.sim.engine.SimRequest` /
    :class:`~repro.sim.results.SimulationResult` values.
    """


class WorkerCrashedError(ReproError):
    """A pool worker died, or could not start, while executing a chunk.

    Raised by :meth:`repro.sim.engine.pool.WorkerPool.run` once its own
    retries of the unreported requests are exhausted, or when the pool is
    shut down; the multiprocess runner and the service daemon then label
    the requests that were never reported.
    """


class WorkerHungError(WorkerCrashedError):
    """A pool worker sent no heartbeat for the hang timeout and was killed."""


class ChunkFailedError(ReproError):
    """A chunk raised inside its pool worker; a retry would only repeat it."""


class WorkloadError(ReproError):
    """A workload was asked for something it cannot provide.

    For example, requesting a software-prefetch trace for PageRank, which the
    paper notes cannot express software prefetches (Boost iterators hide the
    element addresses).
    """
