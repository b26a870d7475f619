"""Ahead-of-time compilation of PPU kernels to native Python closures.

:func:`~repro.programmable.interpreter.execute_kernel` interprets a decoded
kernel one instruction at a time — a tuple unpack plus a chain of opcode
comparisons per *dynamic* instruction, paid on every PPU event.  Manual-mode
simulations run one kernel per observation and one per interesting fill,
which made the interpreter the hottest loop of the whole simulator
(manual mode ran 5–8× slower than the no-prefetch baseline).

This module removes the per-event dispatch cost by translating each
:class:`~repro.programmable.kernel.KernelProgram` **once** into specialised
Python source:

* local PPU registers become Python locals (``r0`` … ``r15``),
* opcodes are inlined as masked 64-bit integer expressions (immediates are
  constant-folded into the source),
* branches become real control flow — basic blocks inside a dispatch loop;
  kernels without branches compile to straight-line functions,
* the ``MAX_DYNAMIC_INSTRUCTIONS`` watchdog and the interpreter's
  fault/abort semantics are preserved *exactly*: dynamic instruction counts
  feed PPU busy time, so they must stay bit-identical (pinned by the
  golden-stats suite and the differential harness in
  ``tests/test_kernel_compiler.py``).  A kernel with no backward branch
  runs each instruction at most once, so when it has at most
  ``MAX_DYNAMIC_INSTRUCTIONS`` of them its watchdog tests cannot fire and
  are not emitted.

The generated source is ``compile()``d once and cached by **program
digest**, so repeated engine constructions — per-point sweeps, warm caches,
multiprocess workers — reuse the compiled closure instead of paying
interpretation per event or compilation per simulation.

Compiled executors use a flat calling convention so the engine does not
allocate a ``KernelContext`` per event::

    executor(vaddr, line_base, line_words, global_registers, lookahead)
        -> (prefetches, instructions_executed, aborted)

Compiled closures are the engine's only kernel execution tier.  The
interpreter stays as the differential oracle: the tests run random kernels
through both, and the golden-stats suite re-runs every programmable
fingerprint with the engine's executors swapped for interpreter wrappers.
"""

from __future__ import annotations

import hashlib
import re
from typing import Callable, Optional, Sequence

from ..config import WORD_BYTES
from ..errors import KernelRuntimeError
from .kernel import (
    BRANCH_OPCODES,
    MAX_DYNAMIC_INSTRUCTIONS,
    KernelContext,
    KernelExecutionResult,
    KernelProgram,
    Opcode,
    Operand,
)

#: A compiled kernel executor; returns
#: ``(prefetches, instructions_executed, aborted)``.
KernelExecutor = Callable[
    [int, int, Optional[Sequence[int]], Sequence[int], Callable[[int], int]],
    tuple,
]

_U64 = (1 << 64) - 1
_SIGN_BIT = 1 << 63
_WORDS_PER_LINE = 8

_OP_LI = int(Opcode.LI)
_OP_SHR = int(Opcode.SHR)
_OP_GET_DATA = int(Opcode.GET_DATA)
_OP_LINE_WORD = int(Opcode.LINE_WORD)
_OP_GET_GLOBAL = int(Opcode.GET_GLOBAL)
_OP_GET_LOOKAHEAD = int(Opcode.GET_LOOKAHEAD)
_OP_PREFETCH = int(Opcode.PREFETCH)
_OP_BEQ = int(Opcode.BEQ)
_OP_BNE = int(Opcode.BNE)
_OP_BLT = int(Opcode.BLT)
_OP_BGE = int(Opcode.BGE)
_OP_JUMP = int(Opcode.JUMP)
_OP_HALT = int(Opcode.HALT)

#: Opcodes with no side effect and no fault path: their dynamic-instruction
#: increments can be batched between checkpoints (registers are dead after an
#: abort, so executing a few extra pure ops past the watchdog limit is
#: unobservable as long as the reported count is reconciled to the limit).
_PURE_OPCODES = frozenset(
    {
        int(Opcode.LI), int(Opcode.MOV), int(Opcode.ADD), int(Opcode.SUB),
        int(Opcode.MUL), int(Opcode.AND), int(Opcode.OR), int(Opcode.XOR),
        int(Opcode.SHL), int(Opcode.SHR), int(Opcode.GET_VADDR),
    }
)

_ALU_BINOPS = {
    int(Opcode.ADD): "+",
    int(Opcode.SUB): "-",
    int(Opcode.MUL): "*",
    int(Opcode.AND): "&",
    int(Opcode.OR): "|",
    int(Opcode.XOR): "^",
}

_BRANCH_CMP = {_OP_BEQ: "==", _OP_BNE: "!=", _OP_BLT: "<", _OP_BGE: ">="}


# --------------------------------------------------------------------- digest


def program_digest(program: KernelProgram) -> str:
    """Stable content digest of a kernel (the compiled-closure cache key).

    Covers the name (it appears in the generated source) and every
    instruction field, so two programs share a digest exactly when they
    generate identical code.  Stable across processes, unlike ``id()`` —
    multiprocess workers compile each distinct kernel once.
    """

    hasher = hashlib.sha256()
    hasher.update(program.name.encode("utf-8", "replace"))
    for instruction in program.instructions:
        hasher.update(
            repr(
                (
                    int(instruction.opcode),
                    instruction.a.is_immediate,
                    instruction.a.value,
                    instruction.b.is_immediate,
                    instruction.b.value,
                    instruction.dst,
                    instruction.target,
                )
            ).encode("utf-8")
        )
    return hasher.hexdigest()


# -------------------------------------------------------------------- codegen


def _operand_raw(operand: Operand) -> str:
    """The operand exactly as the interpreter reads it (immediates unmasked)."""

    return repr(operand.value) if operand.is_immediate else f"r{operand.value}"


def _operand_masked(operand: Operand) -> str:
    """The operand masked to 64 bits (register values are invariantly masked)."""

    return repr(operand.value & _U64) if operand.is_immediate else f"r{operand.value}"


def _operand_signed(operand: Operand) -> str:
    """The operand as the signed 64-bit value branch comparisons use."""

    if operand.is_immediate:
        value = operand.value & _U64
        return repr(value - (1 << 64) if value & _SIGN_BIT else value)
    name = f"r{operand.value}"
    return f"({name} - {1 << 64} if {name} & {_SIGN_BIT} else {name})"


def _sanitize(name: str) -> str:
    cleaned = re.sub(r"\W", "_", name)
    return cleaned if cleaned and not cleaned[0].isdigit() else f"k_{cleaned}"


def generate_source(program: KernelProgram) -> str:
    """Code-generate the specialised Python source for ``program``.

    The emitted function preserves the interpreter's observable behaviour
    bit-for-bit: prefetches (addresses and tags, in order), the dynamic
    instruction count (including the instruction that faulted, and exactly
    ``MAX_DYNAMIC_INSTRUCTIONS`` on a watchdog abort) and the abort flag.
    Dynamic-instruction accounting is batched across runs of pure ALU
    instructions and reconciled at every *checkpoint* — a faulting or
    side-effecting instruction, a branch, or HALT — which is exactly the
    granularity at which an abort becomes observable.
    """

    program.validate()
    instructions = program.instructions
    count = len(instructions)
    opcode_ints = [int(instruction.opcode) for instruction in instructions]

    uses_data = _OP_GET_DATA in opcode_ints
    uses_globals = _OP_GET_GLOBAL in opcode_ints
    registers: set[int] = set()
    for instruction, opcode in zip(instructions, opcode_ints):
        if not instruction.a.is_immediate:
            registers.add(instruction.a.value)
        if not instruction.b.is_immediate:
            registers.add(instruction.b.value)
        if opcode <= _OP_GET_LOOKAHEAD:  # every register-writing opcode
            registers.add(instruction.dst)

    # Basic blocks: every branch target and every fall-through successor of a
    # branch starts a block.  A program with no branches is one block and
    # compiles to a straight-line function without the dispatch loop.
    leaders = {0}
    for index, instruction in enumerate(instructions):
        if instruction.opcode in BRANCH_OPCODES:
            leaders.add(instruction.target)
            if index + 1 < count:
                leaders.add(index + 1)
    order = sorted(leaders)
    block_of = {start: block for block, start in enumerate(order)}
    multi = len(order) > 1 or any(
        instruction.opcode in BRANCH_OPCODES for instruction in instructions
    )
    watchdog = count > MAX_DYNAMIC_INSTRUCTIONS or any(
        instruction.opcode in BRANCH_OPCODES and instruction.target <= index
        for index, instruction in enumerate(instructions)
    )

    lines: list[str] = []
    fn_name = f"_kernel_{_sanitize(program.name)}"
    lines.append(
        f"def {fn_name}(vaddr, line_base, line_words, global_registers, lookahead):"
    )

    def emit(depth: int, text: str) -> None:
        lines.append("    " * depth + text)

    if registers:
        emit(1, " = ".join(f"r{index}" for index in sorted(registers)) + " = 0")
    emit(1, "prefetches = []")
    if _OP_PREFETCH in opcode_ints:
        emit(1, "_append = prefetches.append")
    emit(1, "executed = 0")
    if uses_data:
        # The data word is a pure function of the event; hoist it out of the
        # (possibly repeated) GET_DATA sites.  ``None`` marks both fault
        # cases — no forwarded line, trigger outside the line — which the
        # GET_DATA site re-raises with the interpreter's timing.
        emit(1, "_data = None")
        emit(1, "if line_words is not None:")
        emit(2, f"_off = (vaddr - line_base) // {WORD_BYTES}")
        emit(2, f"if 0 <= _off < {_WORDS_PER_LINE}:")
        emit(3, f"_data = line_words[_off] & {_U64}")
    if uses_globals:
        emit(1, "_ng = len(global_registers)")
    emit(1, "try:")

    base = 2  # statement depth inside ``try`` (single-block programs)
    if multi:
        emit(2, "_b = 0")
        emit(2, "while True:")
        base = 4  # inside ``if _b == k:`` inside ``while`` inside ``try``

    pending = 0  # pure instructions executed since the last checkpoint

    def checkpoint(depth: int) -> None:
        """Reconcile ``executed`` (including the current instruction) and
        apply the watchdog exactly where the interpreter would."""

        nonlocal pending
        emit(depth, f"executed += {pending + 1}")
        if watchdog:
            emit(depth, f"if executed > {MAX_DYNAMIC_INSTRUCTIONS}:")
            emit(depth + 1, f"return prefetches, {MAX_DYNAMIC_INSTRUCTIONS}, True")
        pending = 0

    for index, (instruction, opcode) in enumerate(zip(instructions, opcode_ints)):
        if multi and index in block_of:
            block = block_of[index]
            if index > 0:
                # Fall-through edge into this block: flush the pure batch so
                # both entry paths agree on ``executed``.
                if pending:
                    emit(base, f"executed += {pending}")
                    pending = 0
                if instructions[index - 1].opcode not in BRANCH_OPCODES and (
                    opcode_ints[index - 1] != _OP_HALT
                ):
                    emit(base, f"_b = {block}")
            emit(3, f"if _b == {block}:")

        a, b, dst = instruction.a, instruction.b, instruction.dst

        if opcode in _PURE_OPCODES:
            pending += 1
            if opcode <= int(Opcode.MOV):  # LI / MOV: dst <- a, masked
                emit(base, f"r{dst} = {_operand_masked(a)}")
            elif opcode in _ALU_BINOPS:
                emit(
                    base,
                    f"r{dst} = ({_operand_raw(a)} {_ALU_BINOPS[opcode]} "
                    f"{_operand_raw(b)}) & {_U64}",
                )
            elif opcode == int(Opcode.SHL):
                shift = repr(b.value & 63) if b.is_immediate else f"(r{b.value} & 63)"
                emit(base, f"r{dst} = ({_operand_raw(a)} << {shift}) & {_U64}")
            elif opcode == _OP_SHR:
                shift = repr(b.value & 63) if b.is_immediate else f"(r{b.value} & 63)"
                emit(base, f"r{dst} = {_operand_masked(a)} >> {shift}")
            else:  # GET_VADDR
                emit(base, f"r{dst} = vaddr & {_U64}")
            continue

        if opcode == _OP_GET_DATA:
            checkpoint(base)
            emit(base, "if _data is None:")
            emit(base + 1, "raise _Fault('no data word for this event')")
            emit(base, f"r{dst} = _data")
            continue

        if opcode == _OP_LINE_WORD:
            checkpoint(base)
            if a.is_immediate:
                if 0 <= a.value < _WORDS_PER_LINE:
                    emit(base, "if line_words is None:")
                    emit(base + 1, "raise _Fault('no cache line was forwarded')")
                    emit(base, f"r{dst} = line_words[{a.value}] & {_U64}")
                else:
                    emit(base, f"raise _Fault('line word index {a.value} out of range')")
            else:
                emit(
                    base,
                    f"if line_words is None or not 0 <= r{a.value} < {_WORDS_PER_LINE}:",
                )
                emit(base + 1, "raise _Fault('bad line word access')")
                emit(base, f"r{dst} = line_words[r{a.value}] & {_U64}")
            continue

        if opcode == _OP_GET_GLOBAL:
            checkpoint(base)
            if a.is_immediate:
                if a.value < 0:
                    emit(base, f"raise _Fault('global register {a.value} out of range')")
                else:
                    emit(base, f"if {a.value} >= _ng:")
                    emit(base + 1, f"raise _Fault('global register {a.value} out of range')")
                    emit(base, f"r{dst} = global_registers[{a.value}] & {_U64}")
            else:
                emit(base, f"if not 0 <= r{a.value} < _ng:")
                emit(base + 1, "raise _Fault('global register out of range')")
                emit(base, f"r{dst} = global_registers[r{a.value}] & {_U64}")
            continue

        if opcode == _OP_GET_LOOKAHEAD:
            checkpoint(base)
            emit(base, f"r{dst} = int(lookahead({_operand_raw(a)})) & {_U64}")
            continue

        if opcode == _OP_PREFETCH:
            checkpoint(base)
            emit(base, f"_append(({_operand_masked(a)}, {_operand_raw(b)}))")
            continue

        if opcode == _OP_HALT:
            checkpoint(base)
            emit(base, "return prefetches, executed, False")
            continue

        # Branches.  Taken edges assign the target block; backward edges
        # re-enter the dispatch loop with ``continue``, forward edges simply
        # fall through the remaining (non-matching) block tests.
        checkpoint(base)
        target_block = block_of[instruction.target]
        backward = target_block <= block_of[max(s for s in order if s <= index)]
        if opcode == _OP_JUMP:
            emit(base, f"_b = {target_block}")
            if backward:
                emit(base, "continue")
            continue
        if opcode in (_OP_BEQ, _OP_BNE):
            condition = f"{_operand_masked(a)} {_BRANCH_CMP[opcode]} {_operand_masked(b)}"
        else:  # BLT / BGE: signed comparison
            condition = f"{_operand_signed(a)} {_BRANCH_CMP[opcode]} {_operand_signed(b)}"
        emit(base, f"if {condition}:")
        emit(base + 1, f"_b = {target_block}")
        if backward:
            emit(base + 1, "continue")
        if index + 1 < count:
            emit(base, "else:")
            emit(base + 1, f"_b = {block_of[index + 1]}")

    emit(1, "except _Fault:")
    emit(2, "return prefetches, executed, True")
    emit(1, "return prefetches, executed, False")
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------------ compiling

#: Compiled executors keyed by program digest.  Bounded like the
#: interpreter's decoded cache: past the cap the whole cache is cleared
#: (kernel sets are tiny; re-compilation is cheap and the clear releases the
#: closures of long-dead sweeps).
_COMPILED_CACHE: dict[str, KernelExecutor] = {}
_COMPILED_CACHE_MAX = 512


def compile_kernel(program: KernelProgram) -> KernelExecutor:
    """Compile ``program`` to a native Python closure (digest-cached)."""

    digest = program_digest(program)
    cached = _COMPILED_CACHE.get(digest)
    if cached is not None:
        return cached
    if len(_COMPILED_CACHE) >= _COMPILED_CACHE_MAX:
        _COMPILED_CACHE.clear()
    source = generate_source(program)
    namespace: dict[str, object] = {"_Fault": KernelRuntimeError}
    code = compile(source, f"<ppu-kernel {program.name}#{digest[:12]}>", "exec")
    exec(code, namespace)
    executor: KernelExecutor = namespace[f"_kernel_{_sanitize(program.name)}"]  # type: ignore[assignment]
    _COMPILED_CACHE[digest] = executor
    return executor


def clear_compiled_cache() -> None:
    """Drop every cached closure (tests, long-lived processes)."""

    _COMPILED_CACHE.clear()


def kernel_executor(program: KernelProgram) -> KernelExecutor:
    """The executor the engine routes ``program``'s events through."""

    return compile_kernel(program)


def run_compiled(program: KernelProgram, context: KernelContext) -> KernelExecutionResult:
    """Run the compiled tier under the interpreter's API (tests, tools)."""

    prefetches, executed, aborted = compile_kernel(program)(
        context.vaddr,
        context.line_base,
        context.line_words,
        context.global_registers,
        context.lookahead,
    )
    result = KernelExecutionResult(prefetches=prefetches, aborted=aborted)
    result.instructions_executed = executed
    return result
