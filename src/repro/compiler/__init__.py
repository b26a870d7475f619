"""Compiler assistance (Section 6 of the paper).

The paper implements two LLVM passes: one that converts *software prefetch*
instructions (and the address-generation code feeding them) into PPU event
kernels plus configuration instructions, and one that generates the events
from scratch for loops annotated with ``#pragma prefetch``.  LLVM is not
available here, so the passes operate on a small loop-level IR
(:mod:`repro.compiler.ir`) that the workloads use to describe their kernels —
the same role the paper's source code plus annotations plays.

* :mod:`repro.compiler.analysis` — depth-first dependence search from a
  prefetch back to the loop induction variable, failing exactly where the
  paper's pass fails (multiple non-invariant loads feeding one address,
  values with no induction-variable provenance, control flow).
* :mod:`repro.compiler.split` — ``split_on_loads``: the chain-of-events
  decomposition, one single-load event per step.
* :mod:`repro.compiler.bounds` — array bounds detection for the filter table.
* :mod:`repro.compiler.codegen` — event kernels in the PPU ISA plus the
  prefetcher configuration (address ranges, globals, tags, EWMA streams).
* :mod:`repro.compiler.dce` — dead-code elimination accounting: which main
  program instructions disappear once the software prefetches are removed.
* :mod:`repro.compiler.convert` — the software-prefetch conversion driver
  (Algorithm 1).
* :mod:`repro.compiler.pragma` — the pragma pass, which discovers
  stride-indirect chains without software-prefetch hints.
* :mod:`repro.compiler.frontend` — restricted-Python front end: a plain
  traversal function parsed (never executed) into the loop IR.
* :mod:`repro.compiler.pipeline` — the registry-facing derivation pipeline
  that turns a hinted loop into the ``manual``-mode configuration of every
  workload that does not hand-write its kernels.
"""

from .codegen import CompiledPrefetchProgram
from .convert import convert_software_prefetches
from .frontend import parse_loop
from .ir import (
    ArrayDecl,
    BinOp,
    ComputeStmt,
    Constant,
    IndexVar,
    Load,
    Loop,
    Param,
    PointerChaseStmt,
    SoftwarePrefetchStmt,
    StoreStmt,
    Value,
)
from .pipeline import DerivedKernels, derive_manual_configuration
from .pragma import generate_from_pragma

__all__ = [
    "ArrayDecl",
    "BinOp",
    "ComputeStmt",
    "Constant",
    "IndexVar",
    "Load",
    "Loop",
    "Param",
    "PointerChaseStmt",
    "SoftwarePrefetchStmt",
    "StoreStmt",
    "Value",
    "CompiledPrefetchProgram",
    "DerivedKernels",
    "convert_software_prefetches",
    "derive_manual_configuration",
    "generate_from_pragma",
    "parse_loop",
]
