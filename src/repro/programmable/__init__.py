"""The event-triggered programmable prefetcher (the paper's contribution).

The subpackage models every structure in Figure 3 of the paper:

* :mod:`~repro.programmable.kernel` / :mod:`~repro.programmable.interpreter` —
  the PPU kernel ISA and its functional+timing interpreter (the reference
  semantics the compiled tier is tested against).
* :mod:`~repro.programmable.compiler` — ahead-of-time compilation of kernels
  to specialised Python closures (the engine's execution tier; digest-cached,
  bit-identical to the interpreter).
* :mod:`~repro.programmable.filter` — the address filter and filter table.
* :mod:`~repro.programmable.queues` — the observation queue and the prefetch
  request queue (droppable FIFOs).
* :mod:`~repro.programmable.ppu` / :mod:`~repro.programmable.scheduler` — the
  programmable prefetch units and the observation scheduler.
* :mod:`~repro.programmable.ewma` — the EWMA calculators that derive dynamic
  look-ahead distances.
* :mod:`~repro.programmable.registers` — the global prefetcher registers.
* :mod:`~repro.programmable.config_api` — the configuration the main program
  installs before a loop (address bounds, kernels, tags, globals).
* :mod:`~repro.programmable.prefetcher` — the engine that ties it together and
  plugs into the memory hierarchy.
"""

from .compiler import (
    compile_kernel,
    generate_source,
    kernel_executor,
    program_digest,
    run_compiled,
)
from .config_api import PrefetcherConfiguration, RangeConfig
from .ewma import EWMA, LookaheadCalculator
from .interpreter import KernelExecutionResult, default_lookahead, execute_kernel
from .kernel import KernelBuilder, KernelProgram, Opcode, Reg
from .ppu import PPU
from .prefetcher import EventTriggeredPrefetcher
from .queues import ObservationQueue, PrefetchRequestQueue
from .registers import GlobalRegisterFile
from .scheduler import LowestFreeIdPolicy, RoundRobinPolicy

__all__ = [
    "KernelBuilder",
    "KernelProgram",
    "Opcode",
    "Reg",
    "KernelExecutionResult",
    "execute_kernel",
    "default_lookahead",
    "compile_kernel",
    "generate_source",
    "kernel_executor",
    "program_digest",
    "run_compiled",
    "PrefetcherConfiguration",
    "RangeConfig",
    "EWMA",
    "LookaheadCalculator",
    "PPU",
    "ObservationQueue",
    "PrefetchRequestQueue",
    "GlobalRegisterFile",
    "EventTriggeredPrefetcher",
    "LowestFreeIdPolicy",
    "RoundRobinPolicy",
]
