"""System configuration (Table 1 of the paper).

The :class:`SystemConfig` dataclass bundles the core, memory-hierarchy and
prefetcher parameters used by every simulation.  Two presets are provided:

``SystemConfig.paper()``
    The configuration from Table 1 of the paper (3-wide out-of-order core at
    3.2 GHz, 32 KB L1, 1 MB L2, DDR3-1600, 12 PPUs at 1 GHz, 40-entry
    observation queue, 200-entry prefetch queue).

``SystemConfig.scaled()``
    The same structure with caches shrunk so that the scaled-down workload
    inputs used for fast pure-Python simulation still dwarf the last-level
    cache, preserving the "memory bound" property the paper relies on.  All
    relative speedups reported by :mod:`repro.eval` use this preset.

All times inside the simulator are expressed in *main-core cycles*.  Frequency
ratios (e.g. the 1 GHz PPUs against the 3.2 GHz core) are converted into cycle
multipliers here so the rest of the code never deals with wall-clock units.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Optional

from .errors import ConfigurationError

#: Bytes per cache line, fixed across the whole simulated system.
CACHE_LINE_BYTES = 64

#: Bytes per simulated virtual-memory page.
PAGE_BYTES = 4096

#: Bytes per machine word (the paper models a 64-bit ARMv8 system).
WORD_BYTES = 8


@dataclass(frozen=True)
class CoreConfig:
    """Main out-of-order core parameters (Table 1, "Main Core")."""

    frequency_ghz: float = 3.2
    issue_width: int = 3
    rob_entries: int = 40
    load_queue_entries: int = 16
    store_queue_entries: int = 32
    int_alu_latency: int = 1
    mul_latency: int = 3
    div_latency: int = 12
    fp_latency: int = 3
    branch_mispredict_penalty: int = 14
    #: Fraction of branches mispredicted by the tournament predictor; the
    #: interval model charges the penalty probabilistically through the
    #: workload-supplied branch ops rather than simulating the predictor.
    branch_mispredict_rate: float = 0.02

    def validate(self) -> None:
        if self.issue_width < 1:
            raise ConfigurationError("issue_width must be at least 1")
        if self.rob_entries < self.issue_width:
            raise ConfigurationError("rob_entries must be >= issue_width")
        if self.load_queue_entries < 1 or self.store_queue_entries < 1:
            raise ConfigurationError("load/store queue sizes must be positive")
        if not 0.0 <= self.branch_mispredict_rate <= 1.0:
            raise ConfigurationError("branch_mispredict_rate must be in [0, 1]")


@dataclass(frozen=True)
class CacheConfig:
    """A single cache level."""

    name: str
    size_bytes: int
    associativity: int
    hit_latency: int
    mshrs: int
    line_bytes: int = CACHE_LINE_BYTES

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.associativity * self.line_bytes)

    def validate(self) -> None:
        # The prefetchers, the address space and the line reads all compute
        # lines with CACHE_LINE_BYTES, so a cache must agree with them.
        if self.line_bytes != CACHE_LINE_BYTES:
            raise ConfigurationError(
                f"{self.name}: lines are {CACHE_LINE_BYTES} bytes, not {self.line_bytes}"
            )
        if self.size_bytes <= 0 or self.associativity <= 0:
            raise ConfigurationError(f"{self.name}: size and associativity must be positive")
        if self.size_bytes % (self.associativity * self.line_bytes) != 0:
            raise ConfigurationError(
                f"{self.name}: size must be a multiple of associativity * line size"
            )
        if self.num_sets & (self.num_sets - 1):
            raise ConfigurationError(f"{self.name}: number of sets must be a power of two")
        if self.mshrs < 1:
            raise ConfigurationError(f"{self.name}: at least one MSHR is required")


@dataclass(frozen=True)
class TLBConfig:
    """Two-level TLB plus hardware page-table walker (Table 1, "Memory & OS")."""

    l1_entries: int = 64
    l2_entries: int = 4096
    l2_associativity: int = 8
    l2_hit_latency: int = 8
    walk_latency: int = 40
    active_walkers: int = 3
    page_bytes: int = PAGE_BYTES

    def validate(self) -> None:
        if self.l1_entries < 1 or self.l2_entries < 1:
            raise ConfigurationError("TLB levels must have at least one entry")
        if self.active_walkers < 1:
            raise ConfigurationError("at least one page-table walker is required")


@dataclass(frozen=True)
class DRAMConfig:
    """DDR3-1600-like main memory model.

    The model is intentionally simple: a fixed access latency plus a
    bandwidth constraint expressed as a per-channel line service time.  This
    captures the two effects the prefetcher interacts with — long latency to
    hide and finite bandwidth that over-fetching wastes.
    """

    access_latency_cycles: int = 200
    channels: int = 2
    #: Core cycles a channel is occupied transferring one 64-byte line.
    line_service_cycles: int = 16

    def validate(self) -> None:
        if self.access_latency_cycles < 1:
            raise ConfigurationError("DRAM latency must be positive")
        if self.channels < 1 or self.line_service_cycles < 1:
            raise ConfigurationError("DRAM channels and service time must be positive")


@dataclass(frozen=True)
class ProgrammablePrefetcherConfig:
    """Event-triggered programmable prefetcher parameters (Table 1, "Prefetcher")."""

    num_ppus: int = 12
    ppu_frequency_ghz: float = 1.0
    observation_queue_entries: int = 40
    prefetch_queue_entries: int = 200
    #: Maximum number of filter-table (address-range) entries.
    filter_table_entries: int = 16
    #: Maximum number of global prefetcher registers visible to kernels.
    global_registers: int = 32
    #: Shared PPU instruction cache size (bytes); kernels larger than this
    #: incur a one-off fetch penalty, mirroring the paper's 4 KiB cache.
    icache_bytes: int = 4096
    #: EWMA smoothing factor (weight of the newest sample).
    ewma_alpha: float = 0.25
    #: When True, PPUs stall on intermediate loads instead of re-scheduling
    #: follow-on events (the Figure 11 ablation).
    blocking_mode: bool = False

    def validate(self) -> None:
        if self.num_ppus < 1:
            raise ConfigurationError("at least one PPU is required")
        if self.ppu_frequency_ghz <= 0:
            raise ConfigurationError("PPU frequency must be positive")
        if self.observation_queue_entries < 1 or self.prefetch_queue_entries < 1:
            raise ConfigurationError("prefetcher queues must have at least one entry")
        if self.global_registers < 1:
            raise ConfigurationError("at least one global prefetcher register is required")
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ConfigurationError("ewma_alpha must be in (0, 1]")


@dataclass(frozen=True)
class StridePrefetcherConfig:
    """Reference-prediction-table stride prefetcher (Chen & Baer), degree 8."""

    table_entries: int = 256
    degree: int = 8
    #: Accesses with a stable stride required before prefetches are issued.
    confidence_threshold: int = 2


@dataclass(frozen=True)
class GHBPrefetcherConfig:
    """Markov GHB G/AC prefetcher (Nesbit & Smith).

    ``regular`` mirrors the SRAM-sized configuration in Table 1 (2048-entry
    index and history buffer); ``large`` mirrors the 1 GiB in-memory variant
    the paper uses as an upper bound on history-based prefetching, and like
    the paper it is given zero-latency access to its own state.
    """

    index_entries: int = 2048
    history_entries: int = 2048
    depth: int = 16
    width: int = 6

    @classmethod
    def regular(cls) -> "GHBPrefetcherConfig":
        return cls()

    @classmethod
    def large(cls) -> "GHBPrefetcherConfig":
        return cls(index_entries=1 << 26, history_entries=1 << 26)


@dataclass(frozen=True)
class SystemConfig:
    """Complete simulated system configuration."""

    core: CoreConfig = field(default_factory=CoreConfig)
    l1: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            name="L1D", size_bytes=32 * 1024, associativity=2, hit_latency=2, mshrs=12
        )
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            name="L2", size_bytes=1024 * 1024, associativity=16, hit_latency=12, mshrs=16
        )
    )
    tlb: TLBConfig = field(default_factory=TLBConfig)
    dram: DRAMConfig = field(default_factory=DRAMConfig)
    prefetcher: ProgrammablePrefetcherConfig = field(
        default_factory=ProgrammablePrefetcherConfig
    )
    stride: StridePrefetcherConfig = field(default_factory=StridePrefetcherConfig)
    ghb: GHBPrefetcherConfig = field(default_factory=GHBPrefetcherConfig)

    @property
    def ppu_cycle_ratio(self) -> float:
        """Main-core cycles consumed per PPU instruction.

        A 1 GHz PPU attached to a 3.2 GHz core executes one of its
        instructions every 3.2 main-core cycles.
        """

        return self.core.frequency_ghz / self.prefetcher.ppu_frequency_ghz

    def validate(self) -> None:
        self.core.validate()
        self.l1.validate()
        self.l2.validate()
        self.tlb.validate()
        self.dram.validate()
        self.prefetcher.validate()
        if self.l1.size_bytes > self.l2.size_bytes:
            raise ConfigurationError("L1 must not be larger than L2")

    # ------------------------------------------------------------------ presets

    @classmethod
    def paper(cls) -> "SystemConfig":
        """The configuration from Table 1 of the paper."""

        config = cls()
        config.validate()
        return config

    @classmethod
    def scaled(cls) -> "SystemConfig":
        """Scaled-down preset used for fast pure-Python reproduction runs.

        The L1 keeps half its Table 1 capacity (16 KB) so that prefetch
        look-ahead distances of a few tens of lines still fit comfortably,
        while the L2 is shrunk by 16× (64 KB) so that the scaled workload
        inputs (hundreds of thousands of elements rather than tens of
        millions) still exceed the last-level cache by a large factor, which
        is the regime the paper evaluates.  Core, DRAM and prefetcher
        structures keep their Table 1 values.
        """

        config = cls(
            l1=CacheConfig(
                name="L1D", size_bytes=16 * 1024, associativity=2, hit_latency=2, mshrs=12
            ),
            l2=CacheConfig(
                name="L2", size_bytes=64 * 1024, associativity=16, hit_latency=12, mshrs=16
            ),
            # The TLB shrinks with the caches: the paper's inputs dwarf a
            # 4096-entry TLB just as the scaled inputs dwarf a 48-entry one,
            # so demand accesses to the irregular structures pay translation
            # penalties unless the prefetcher has walked the pages ahead.
            tlb=TLBConfig(l1_entries=16, l2_entries=48),
        )
        config.validate()
        return config

    # ---------------------------------------------------------------- mutation

    def with_prefetcher(self, **overrides: Any) -> "SystemConfig":
        """Return a copy with programmable-prefetcher fields replaced.

        Used by the Figure 9 sweeps (PPU count and clock) and the Figure 11
        blocking ablation.
        """

        new = replace(self, prefetcher=replace(self.prefetcher, **overrides))
        new.validate()
        return new

    def with_core(self, **overrides: Any) -> "SystemConfig":
        """Return a copy with main-core fields replaced."""

        new = replace(self, core=replace(self.core, **overrides))
        new.validate()
        return new

    def with_caches(
        self, *, l1: Optional[dict[str, Any]] = None, l2: Optional[dict[str, Any]] = None
    ) -> "SystemConfig":
        """Return a copy with L1 and/or L2 cache fields replaced.

        The mutator behind cache-geometry sweeps, e.g. a smaller L1:

        >>> half = SystemConfig.scaled().with_caches(l1={"size_bytes": 8 * 1024})
        """

        new = replace(
            self,
            l1=replace(self.l1, **l1) if l1 else self.l1,
            l2=replace(self.l2, **l2) if l2 else self.l2,
        )
        new.validate()
        return new
