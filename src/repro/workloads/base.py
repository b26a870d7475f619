"""Workload framework.

A :class:`Workload` owns a simulated address space, builds its data structures
into it, and can then produce

* dynamic traces for the main core (``plain`` — the unmodified benchmark — and
  ``software`` — the benchmark with software prefetches and their
  address-generation overhead inserted);
* the manual-mode PPU kernel configuration (``manual_configuration``) —
  derived from the loop IR by :mod:`repro.compiler.pipeline` unless the
  workload hand-writes it (and says why in ``derive_note``);
* the loop IR + parameter bindings that the two compiler passes consume
  (``loop_ir``), from which ``converted_configuration`` and
  ``pragma_configuration`` are derived.

Traces and configurations are cached: the data structures are built once and
every prefetch mode simulates exactly the same dynamic instruction stream
(apart from the software-prefetch variant, which legitimately executes more
instructions).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Mapping, Optional

from ..compiler.convert import convert_software_prefetches
from ..compiler.ir import Loop
from ..compiler.pipeline import DerivedKernels, derive_manual_configuration
from ..compiler.pragma import generate_from_pragma
from ..cpu.trace import Trace, TraceBuilder
from ..errors import WorkloadError
from ..memory.address_space import AddressSpace
from ..programmable.config_api import PrefetcherConfiguration

#: Multiplicative hash constant used by the hash-join and RandomAccess
#: workloads (Knuth's 2^32 / phi), also baked into their PPU kernels.
HASH_MULTIPLIER = 2654435761

@dataclass(frozen=True)
class WorkloadScale:
    """Named problem sizes.

    ``tiny`` is for unit tests (hundreds of iterations), ``small`` for quick
    interactive runs, ``default`` for the figure/benchmark reproductions.
    The paper's own inputs (Table 2) are tens of millions of elements and are
    impractical under a pure-Python cycle-level model; EXPERIMENTS.md records
    this substitution.
    """

    name: str
    factor: float

    @classmethod
    def from_name(cls, name: str) -> "WorkloadScale":
        factors = {"tiny": 0.05, "small": 0.35, "default": 1.0, "large": 2.0}
        if name not in factors:
            raise WorkloadError(
                f"unknown scale {name!r}; expected one of {sorted(factors)}"
            )
        return cls(name=name, factor=factors[name])

    def scaled(self, value: int, minimum: int = 16) -> int:
        return max(minimum, int(value * self.factor))


class Workload(ABC):
    """Base class for all benchmark workloads."""

    #: Canonical name (Table 2 row).
    name: str = "workload"
    #: Access pattern description (Table 2).
    pattern: str = ""
    #: The input the paper used (Table 2), recorded for the tables report.
    paper_input: str = ""
    #: The scaled input this reproduction uses.
    repro_input: str = ""
    #: For a workload that hand-writes its manual kernels (overrides
    #: :meth:`_build_manual_configuration`): why the pipeline cannot derive
    #: them.  Registration rejects a hand-written workload without one.
    derive_note: str = ""
    #: Whether the manual kernels are derived from the loop IR — computed
    #: for every subclass from whether it overrides
    #: :meth:`_build_manual_configuration`; never set by hand.
    derives_manual: bool = True

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls.derives_manual = (
            cls._build_manual_configuration is Workload._build_manual_configuration
        )

    def __init__(self, scale: str = "default", seed: int = 42) -> None:
        self.scale = WorkloadScale.from_name(scale)
        self.seed = seed
        self.space = AddressSpace()
        self._built = False
        self._traces: dict[str, Trace] = {}
        self._manual: Optional[PrefetcherConfiguration] = None
        self._converted: Optional[PrefetcherConfiguration] = None
        self._pragma: Optional[PrefetcherConfiguration] = None
        self._derived: Optional[DerivedKernels] = None

    # ----------------------------------------------------------------- build

    def build(self) -> None:
        """Build the workload's data structures (idempotent)."""

        if not self._built:
            self._build_data()
            self._built = True

    def _require_built(self) -> None:
        if not self._built:
            self.build()

    @abstractmethod
    def _build_data(self) -> None:
        """Allocate and initialise data structures in :attr:`space`."""

    # ---------------------------------------------------------------- traces

    def trace(self, variant: str = "plain") -> Trace:
        """Return the (cached) dynamic trace for ``variant``.

        Args:
            variant: ``'plain'`` for the unmodified benchmark or
                ``'software'`` for the software-prefetch version (extra
                prefetch instructions plus their address-generation
                overhead).

        Returns:
            The validated :class:`~repro.cpu.trace.Trace`; emitted once per
            variant and cached, so every prefetch mode simulates the same
            dynamic instruction stream.

        Raises:
            WorkloadError: For an unknown variant, or for ``'software'``
                when :meth:`supports_software_prefetch` is ``False``.
        """

        self._require_built()
        if variant not in ("plain", "software"):
            raise WorkloadError(f"unknown trace variant {variant!r}")
        if variant == "software" and not self.supports_software_prefetch():
            raise WorkloadError(
                f"{self.name}: software prefetching cannot be expressed "
                "(no direct memory address access)"
            )
        if variant not in self._traces:
            builder = TraceBuilder()
            if variant == "plain":
                self._emit_trace(builder, software_prefetch=False)
            else:
                self._emit_trace(builder, software_prefetch=True)
            trace = builder.build()
            trace.validate()
            self._traces[variant] = trace
        return self._traces[variant]

    @abstractmethod
    def _emit_trace(self, tb: TraceBuilder, *, software_prefetch: bool) -> None:
        """Emit the benchmark's dynamic trace into ``tb``."""

    def supports_software_prefetch(self) -> bool:
        """Whether a software-prefetch variant exists (PageRank's does not)."""

        return True

    # ------------------------------------------------------ prefetcher modes

    def manual_configuration(self) -> PrefetcherConfiguration:
        """The PPU kernels and configuration of the paper's 'manual' mode.

        Returns:
            The validated, cached :class:`PrefetcherConfiguration` —
            kernels, tags, filter ranges, streams and global registers —
            that :func:`repro.sim.system.simulate` installs for the
            ``manual`` and ``manual-blocked`` modes.
        """

        self._require_built()
        if self._manual is None:
            self._manual = self._build_manual_configuration()
            self._manual.validate()
        return self._manual

    def _build_manual_configuration(self) -> PrefetcherConfiguration:
        """Derive the manual configuration from the loop IR.

        Workloads whose kernels the pipeline cannot derive override this
        with hand-written kernels and say why in :attr:`derive_note`.

        Raises:
            WorkloadError: When the pipeline derives no kernels.
        """

        derived = self.derived_kernels()
        if not derived.derived:
            reasons = "; ".join(f"{source}: {reason}" for source, reason in derived.failures)
            raise WorkloadError(
                f"{self.name}: the compiler pipeline derived no manual kernels"
                + (f" — {reasons}" if reasons else "")
            )
        return derived.configuration

    def derived_kernels(self) -> DerivedKernels:
        """Run (and cache) the loop-IR → manual-kernel derivation pipeline.

        Returns:
            The full :class:`~repro.compiler.pipeline.DerivedKernels` record
            — every pipeline stage, not just the configuration — which the
            dump tool uses to show intermediates.
        """

        self._require_built()
        if self._derived is None:
            loop, bindings = self.loop_ir()
            self._derived = derive_manual_configuration(
                loop, bindings, kernel_prefix=f"{self._prefix()}_gen"
            )
        return self._derived

    # ``perfbench/workloads.py`` still asks for the manual configuration by
    # source; these two accessors keep it working.

    def resolve_kernel_source(self) -> str:
        """``"compiled"`` for derived manual kernels, ``"hand"`` otherwise."""

        return "compiled" if self.derives_manual else "hand"

    def manual_configuration_for(self, source: str) -> PrefetcherConfiguration:
        """:meth:`manual_configuration`, if ``source`` names where it comes from."""

        if source != self.resolve_kernel_source():
            raise WorkloadError(
                f"{self.name}: manual kernels are {self.resolve_kernel_source()!r}, not {source!r}"
            )
        return self.manual_configuration()

    def loop_ir(self) -> tuple[Loop, Mapping[str, int]]:
        """The loop IR + parameter bindings the compiler passes operate on.

        Returns:
            A ``(loop, bindings)`` pair: the annotated
            :class:`~repro.compiler.ir.Loop` and the concrete values
            (array base addresses, trip counts, masks) the conversion and
            pragma passes substitute for its parameters.
        """

        self._require_built()
        return self._build_loop_ir()

    @abstractmethod
    def _build_loop_ir(self) -> tuple[Loop, Mapping[str, int]]:
        ...

    def converted_configuration(self) -> PrefetcherConfiguration:
        """Configuration produced by the software-prefetch conversion pass."""

        self._require_built()
        if self._converted is None:
            loop, bindings = self.loop_ir()
            result = convert_software_prefetches(loop, bindings, kernel_prefix=f"{self._prefix()}_conv")
            self._converted = result.configuration
        return self._converted

    def pragma_configuration(self) -> PrefetcherConfiguration:
        """Configuration produced by the pragma pass."""

        self._require_built()
        if self._pragma is None:
            loop, bindings = self.loop_ir()
            result = generate_from_pragma(loop, bindings, kernel_prefix=f"{self._prefix()}_pragma")
            self._pragma = result.configuration
        return self._pragma

    def _prefix(self) -> str:
        return self.name.replace("-", "_")

    # ----------------------------------------------------------------- extras

    def config_overhead_ops(self, configuration: PrefetcherConfiguration) -> int:
        """Main-core instructions spent configuring the prefetcher."""

        return configuration.config_instruction_count()

    def description(self) -> dict[str, str]:
        return {
            "name": self.name,
            "pattern": self.pattern,
            "paper_input": self.paper_input,
            "repro_input": self.repro_input,
            "scale": self.scale.name,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(scale={self.scale.name!r}, seed={self.seed})"
