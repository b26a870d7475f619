"""Registry-facing derivation pipeline: loop IR → manual-mode configuration.

The conversion and pragma passes (:mod:`repro.compiler.convert`,
:mod:`repro.compiler.pragma`) model the paper's *automatic* compiler and are
deliberately limited to what it can prove.  This module produces the
``manual`` mode's kernels: it drives the same stages — dependence analysis,
bounds detection, DCE accounting, code generation — but honours the
programmer hints the loop IR can carry
(:class:`~repro.compiler.ir.SoftwarePrefetchStmt` hint fields and
:class:`~repro.compiler.ir.PointerChaseStmt`).  Every workload's manual
configuration comes from here
(:meth:`repro.workloads.base.Workload.manual_configuration`) unless the
workload hand-writes it and says why in its ``derive_note``.  For the
workloads that once had hand-written kernels, the derived configurations
are pinned behaviour-for-behaviour to those kernels by
``tests/test_derived_kernels.py`` and ``tests/data/manual_kernels.json``.

Stages (each recorded on the returned :class:`DerivedKernels` so
``tools/dump_kernel.py --stage`` can show the intermediates):

1. **Pointer-chase lowering** — every :class:`PointerChaseStmt` becomes a
   self-re-triggering tagged walker kernel registered *before* the chains, so
   its tag claims the low tag numbers exactly as the hand-written
   configurations do.
2. **Dependence analysis** — Algorithm 1's DFS
   (:func:`repro.compiler.analysis.decompose_prefetch`) splits each software
   prefetch into a chain of single-load events; hints are transferred onto
   the resulting :class:`~repro.compiler.split.PrefetchChain`.
3. **DCE accounting** — per-iteration main-core instructions the conversion
   removes (:mod:`repro.compiler.dce`).
4. **Bounds + code generation** —
   :func:`repro.compiler.codegen.generate_configuration` emits the kernels,
   tags, streams, globals and filter ranges into the pre-populated
   configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from ..errors import CompilationError
from ..programmable.config_api import PrefetcherConfiguration
from ..programmable.kernel import KernelBuilder, KernelProgram, Opcode
from .analysis import decompose_prefetch
from .codegen import CompiledPrefetchProgram, _element_shift, generate_configuration
from .dce import prefetch_overhead_instructions
from .ir import (
    ComputeStmt,
    LoadStmt,
    Loop,
    PointerChaseStmt,
    SoftwarePrefetchStmt,
    Statement,
    StoreStmt,
)
from .split import PrefetchChain

#: Seed look-ahead used when a prefetch carries neither a distance hint nor a
#: recoverable constant distance — the same default the hand-written helper
#: :func:`repro.workloads.kernels.add_stride_indirect_chain` uses.
DEFAULT_DISTANCE = 8


@dataclass(frozen=True)
class LoweredChase:
    """A pointer-chase statement lowered to a self-re-triggering walker."""

    statement: PointerChaseStmt
    kernel_name: str
    tag_name: str
    tag: int


@dataclass
class DerivedKernels:
    """Every stage of the loop-IR → manual-configuration derivation."""

    loop: Loop
    bindings: dict[str, int]
    #: Stage 1 output: one walker per pointer chase.
    chases: list[LoweredChase]
    #: Stage 2 output: every successfully decomposed chain (hints attached),
    #: including any that later failed code generation.
    chains: list[PrefetchChain]
    #: Stage 3 output: per-iteration main-core instructions DCE removes.
    removed_main_instructions: int
    #: Stage 4 output: the generated program (kernels + configuration).
    program: CompiledPrefetchProgram

    @property
    def configuration(self) -> PrefetcherConfiguration:
        return self.program.configuration

    @property
    def derived(self) -> bool:
        """True when the pipeline produced at least one kernel."""

        return bool(self.configuration.kernels)

    @property
    def failures(self) -> list[tuple[str, str]]:
        return list(self.program.failures)


def derive_manual_configuration(
    loop: Loop,
    bindings: Mapping[str, int],
    *,
    kernel_prefix: Optional[str] = None,
    default_distance: int = DEFAULT_DISTANCE,
) -> DerivedKernels:
    """Derive a manual-mode prefetcher configuration from ``loop``.

    Unlike the conversion/pragma passes this pipeline honours programmer
    hints (stream names, seed distances, chain-end suppression) and lowers
    pointer chases, so for a faithfully annotated loop the result matches the
    hand-written configuration's observable behaviour exactly.
    """

    prefix = kernel_prefix if kernel_prefix is not None else f"{loop.name}_gen"
    configuration = PrefetcherConfiguration()

    # Stage 1: pointer chases.  Registered first so walker tags take the low
    # numbers, matching the hand-written configuration order.
    chases: list[LoweredChase] = []
    chase_tags: dict[str, int] = {}
    failures: list[tuple[str, str]] = []
    for statement in loop.body:
        if not isinstance(statement, PointerChaseStmt):
            continue
        try:
            lowered = _lower_pointer_chase(
                statement, configuration, bindings, kernel_prefix=prefix
            )
        except CompilationError as error:
            failures.append((statement.name, str(error)))
            continue
        chases.append(lowered)
        chase_tags[statement.array.name] = lowered.tag

    # Stage 2: dependence analysis of each software prefetch, transferring
    # the prefetch's hints onto the resulting chain.  A chain ending at a
    # chased array tags its final prefetch so the walker takes over.
    chains: list[PrefetchChain] = []
    removed = 0
    for prefetch in loop.software_prefetches():
        try:
            chain = decompose_prefetch(loop, prefetch.array, prefetch.index, prefetch.name)
        except CompilationError as error:
            failures.append((prefetch.name, str(error)))
            continue
        chain.stream_name = prefetch.stream
        chain.distance_hint = prefetch.distance_hint
        chain.suppress_chain_end = prefetch.chain_end_range is False
        chain.final_tag = chase_tags.get(chain.steps[-1].array.name)
        chains.append(chain)
        # Stage 3: DCE accounting for the converted prefetch.
        removed += prefetch_overhead_instructions(prefetch)

    # Stage 4: bounds + code generation into the pre-populated configuration.
    program = generate_configuration(
        loop,
        list(chains),
        bindings,
        kernel_prefix=prefix,
        default_distance=default_distance,
        configuration=configuration,
    )
    program.failures = failures + program.failures
    program.removed_main_instructions = removed
    return DerivedKernels(
        loop=loop,
        bindings=dict(bindings),
        chases=chases,
        chains=chains,
        removed_main_instructions=removed,
        program=program,
    )


def _lower_pointer_chase(
    statement: PointerChaseStmt,
    configuration: PrefetcherConfiguration,
    bindings: Mapping[str, int],
    *,
    kernel_prefix: str,
) -> LoweredChase:
    """Lower ``while array[x] != x: x = array[x]`` to a tagged walker kernel.

    The walker runs on every fill of the chased array: it recovers the
    element index from the address, stops if the value equals the index (a
    root), and otherwise prefetches ``array[value]`` tagged with itself so
    the walk re-triggers until the root is observed.
    """

    array = statement.array
    if array.base_param not in bindings:
        raise CompilationError(
            f"{statement.name}: chase array {array.name!r} base parameter "
            f"{array.base_param!r} is not bound to a runtime value"
        )
    shift = _element_shift(array)
    configuration.set_global(array.base_param, int(bindings[array.base_param]))

    kernel_name = f"{kernel_prefix}_{statement.name}_{array.name}"
    tag_name = f"{kernel_name}_fill"
    tag = configuration.add_tag(tag_name, kernel_name, stream=None)

    walker = KernelBuilder(kernel_name)
    base = walker.get_global(configuration.global_index(array.base_param))
    value = walker.get_data()
    index = walker.shr(walker.sub(walker.get_vaddr(), base), shift)
    walker.branch_eq(value, index, "root")
    walker.prefetch(walker.add(base, walker.shl(value, shift)), tag=tag)
    walker.label("root")
    walker.halt()
    configuration.add_kernel(walker.build())
    return LoweredChase(
        statement=statement, kernel_name=kernel_name, tag_name=tag_name, tag=tag
    )


# ------------------------------------------------------------ pretty printing
#
# Textual renderings of the pipeline stages, used by ``tools/dump_kernel.py
# --stage`` and handy in tests and notebooks.


def format_loop(loop: Loop, bindings: Optional[Mapping[str, int]] = None) -> str:
    """Render the raw loop IR (arrays, flags, body statements)."""

    lines = [f"loop {loop.name!r}  indvar={loop.indvar.name}"]
    if loop.trip_count_param is not None:
        lines.append(f"  trip count: {loop.trip_count_param}")
    flags = []
    if loop.pragma_prefetch:
        flags.append("pragma_prefetch")
    if loop.has_irregular_control_flow:
        flags.append("irregular_control_flow")
    if flags:
        lines.append(f"  flags: {', '.join(flags)}")
    lines.append("  arrays:")
    for array in loop.arrays:
        extent = (
            f"length_param={array.length_param}"
            if array.length_param is not None
            else (f"length={array.length}" if array.length is not None else "unbounded")
        )
        lines.append(
            f"    {array.name}: base={array.base_param} {extent} "
            f"element_bytes={array.element_bytes}"
        )
    lines.append("  body:")
    for statement in loop.body:
        lines.append(f"    {_format_statement(statement)}")
    if bindings:
        lines.append("  bindings:")
        for name in sorted(bindings):
            lines.append(f"    {name} = {int(bindings[name]):#x}")
    return "\n".join(lines)


def _format_statement(statement: Statement) -> str:
    if isinstance(statement, SoftwarePrefetchStmt):
        hints = []
        if statement.distance_hint is not None:
            hints.append(f"distance={statement.distance_hint}")
        if statement.stream is not None:
            hints.append(f"stream={statement.stream!r}")
        if statement.chain_end_range is not None:
            hints.append(f"chain_end_range={statement.chain_end_range}")
        suffix = f"  [{', '.join(hints)}]" if hints else ""
        return f"swpf {statement.name}: &{statement.array.name}[{statement.index!r}]{suffix}"
    if isinstance(statement, LoadStmt):
        load = statement.load
        tail = "  [control dependent]" if load.control_dependent else ""
        return f"load {load.array.name}[{load.index!r}]{tail}"
    if isinstance(statement, StoreStmt):
        return f"store {statement.array.name}[{statement.index!r}]"
    if isinstance(statement, ComputeStmt):
        return f"compute x{statement.count} (uses {len(statement.uses)} values)"
    if isinstance(statement, PointerChaseStmt):
        return (
            f"chase {statement.name}: while {statement.array.name}[x] != x "
            f"starting at {statement.start!r}"
        )
    return repr(statement)


def format_chains(derived: DerivedKernels) -> str:
    """Render the post-analysis stage: lowered chases and event chains."""

    lines: list[str] = []
    for chase in derived.chases:
        lines.append(
            f"chase {chase.statement.name} over {chase.statement.array.name}: "
            f"walker kernel {chase.kernel_name!r}, tag {chase.tag} ({chase.tag_name})"
        )
    for chain in derived.chains:
        arrow = " -> ".join(chain.arrays)
        lines.append(f"chain from {chain.source}: {arrow}")
        lines.append(f"  root distance: {chain.root_distance}")
        if chain.stream_name is not None:
            lines.append(f"  stream hint: {chain.stream_name}")
        if chain.distance_hint is not None:
            lines.append(f"  distance hint: {chain.distance_hint}")
        if chain.suppress_chain_end:
            lines.append("  chain-end range: suppressed")
        if chain.final_tag is not None:
            lines.append(f"  final prefetch tag: {chain.final_tag} (pointer-chase walker)")
        for index, step in enumerate(chain.steps):
            kind = "root" if step.is_root else "fill"
            lines.append(f"  step {index} ({kind}): {step.array.name}[{step.index_expr!r}]")
    for source, reason in derived.failures:
        lines.append(f"failed {source}: {reason}")
    if not lines:
        lines.append("(nothing derived)")
    return "\n".join(lines)


def format_bounds(derived: DerivedKernels) -> str:
    """Render the post-DCE/bounds stage: ranges, streams, tags, globals."""

    configuration = derived.configuration
    lines = [
        f"removed main-core instructions per iteration (DCE): "
        f"{derived.removed_main_instructions}"
    ]
    lines.append("filter ranges:")
    for entry in configuration.ranges:
        attributes = []
        if entry.load_kernel:
            attributes.append(f"load_kernel={entry.load_kernel}")
        if entry.stream:
            attributes.append(f"stream={entry.stream}")
        if entry.time_iterations:
            attributes.append("time_iterations")
        if entry.chain_start:
            attributes.append("chain_start")
        if entry.chain_end:
            attributes.append("chain_end")
        lines.append(
            f"  {entry.name}: [{entry.base:#x}, {entry.end:#x})  {' '.join(attributes)}"
        )
    lines.append("streams:")
    for stream in configuration.streams.values():
        lines.append(
            f"  [{stream.index}] {stream.name}: default_distance={stream.default_distance}"
        )
    lines.append("tags:")
    for tag in configuration.tags.values():
        stream = tag.stream if tag.stream is not None else "-"
        lines.append(f"  [{tag.tag}] {tag.name}: kernel={tag.kernel} stream={stream}")
    lines.append("globals:")
    for name, index in configuration.global_names.items():
        lines.append(f"  [{index}] {name} = {configuration.global_values()[index]:#x}")
    lines.append(
        f"configuration instructions: {configuration.config_instruction_count()}"
    )
    return "\n".join(lines)


def format_kernel(program: KernelProgram) -> str:
    """Disassemble one kernel program."""

    lines = [f"kernel {program.name} ({len(program)} instructions, {program.size_bytes} bytes):"]
    for index, instruction in enumerate(program.instructions):
        opcode = instruction.opcode
        parts = [f"  {index:3d}: {opcode.name:<13}"]
        if opcode in (Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE):
            parts.append(
                f"{_operand(instruction.a)}, {_operand(instruction.b)} -> @{instruction.target}"
            )
        elif opcode == Opcode.JUMP:
            parts.append(f"-> @{instruction.target}")
        elif opcode == Opcode.PREFETCH:
            parts.append(f"addr={_operand(instruction.a)} tag={_operand(instruction.b)}")
        elif opcode == Opcode.HALT:
            pass
        else:
            parts.append(
                f"r{instruction.dst} <- {_operand(instruction.a)}, {_operand(instruction.b)}"
            )
        lines.append(" ".join(parts).rstrip())
    return "\n".join(lines)


def format_kernels(configuration: PrefetcherConfiguration) -> str:
    """Disassemble every kernel of a configuration."""

    kernels = configuration.kernels
    if not kernels:
        return "(no kernels)"
    return "\n\n".join(format_kernel(kernels[name]) for name in kernels)


def _operand(operand) -> str:
    return str(operand.value) if operand.is_immediate else f"r{operand.value}"
