"""The event-triggered programmable prefetcher (the paper's contribution).

The subpackage models every structure in Figure 3 of the paper:

* :mod:`~repro.programmable.kernel` — the PPU kernel ISA, the event context
  a kernel reads and the result it produces.
* :mod:`~repro.programmable.interpreter` — the functional+timing interpreter
  (the reference semantics the compiled tier is tested against); a test
  oracle, so nothing on the simulation path imports it.
* :mod:`~repro.programmable.compiler` — ahead-of-time compilation of kernels
  to specialised Python closures (the engine's execution tier; digest-cached,
  bit-identical to the interpreter).
* :mod:`~repro.programmable.ppu` / :mod:`~repro.programmable.scheduler` — the
  programmable prefetch units and the observation scheduler.
* :mod:`~repro.programmable.ewma` — the EWMA calculators that derive dynamic
  look-ahead distances.
* :mod:`~repro.programmable.config_api` — the configuration the main program
  installs before a loop (address bounds, kernels, tags, globals).
* :mod:`~repro.programmable.prefetcher` — the engine that ties it together and
  plugs into the memory hierarchy.  It holds the address filter's table, the
  global prefetcher registers, the observation queue and the prefetch
  request queue (drop-oldest deques).
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
from .kernel import (
    KernelBuilder,
    KernelExecutionResult,
    KernelProgram,
    Opcode,
    Reg,
    default_lookahead,
)
from .ppu import PPU
from .prefetcher import EventTriggeredPrefetcher
from .scheduler import LowestFreeIdPolicy, RoundRobinPolicy

__all__ = [
    "KernelBuilder",
    "KernelProgram",
    "Opcode",
    "Reg",
    "KernelExecutionResult",
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
    "EventTriggeredPrefetcher",
    "LowestFreeIdPolicy",
    "RoundRobinPolicy",
]
