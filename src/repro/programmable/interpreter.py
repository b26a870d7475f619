"""Functional + timing interpreter for PPU kernels.

The interpreter serves two purposes at once:

* *functional*: it computes the prefetch addresses a kernel generates from the
  observation it was handed (triggering address, forwarded cache line, global
  registers, EWMA look-ahead), so the simulation actually chases real indices
  and pointers; and
* *timing*: it counts the dynamic instructions executed, which the PPU model
  converts into busy time at the configured PPU clock.

Faults (unmapped line word, register overflow, runaway loops) terminate the
event silently, exactly as the paper specifies for traps on the PPUs
(Section 5.1).  The caller receives ``aborted=True`` and no prefetches beyond
those already generated.
"""

from __future__ import annotations

from ..errors import KernelRuntimeError
from .kernel import (
    MAX_DYNAMIC_INSTRUCTIONS,
    NUM_LOCAL_REGISTERS,
    KernelContext,
    KernelExecutionResult,
    KernelProgram,
    Opcode,
    Operand,
)

_U64 = (1 << 64) - 1
_SIGN_BIT = 1 << 63


def _read(operand: Operand, registers: list[int]) -> int:
    if operand.is_immediate:
        return operand.value
    return registers[operand.value]


# Plain-int opcode constants: the interpreter loop compares against these
# instead of ``Opcode`` members (IntEnum equality costs a method call).
_OP_LI = int(Opcode.LI)
_OP_MOV = int(Opcode.MOV)
_OP_ADD = int(Opcode.ADD)
_OP_SUB = int(Opcode.SUB)
_OP_MUL = int(Opcode.MUL)
_OP_AND = int(Opcode.AND)
_OP_OR = int(Opcode.OR)
_OP_XOR = int(Opcode.XOR)
_OP_SHL = int(Opcode.SHL)
_OP_SHR = int(Opcode.SHR)
_OP_GET_VADDR = int(Opcode.GET_VADDR)
_OP_GET_DATA = int(Opcode.GET_DATA)
_OP_LINE_WORD = int(Opcode.LINE_WORD)
_OP_GET_GLOBAL = int(Opcode.GET_GLOBAL)
_OP_GET_LOOKAHEAD = int(Opcode.GET_LOOKAHEAD)
_OP_PREFETCH = int(Opcode.PREFETCH)
_OP_BEQ = int(Opcode.BEQ)
_OP_JUMP = int(Opcode.JUMP)
_OP_HALT = int(Opcode.HALT)

#: One decoded instruction: ``(opcode, a_imm, a_val, b_imm, b_val, dst, target)``.
_Decoded = tuple[int, bool, int, bool, int, int, int]

#: Decoded programs, keyed by ``id``; the program reference is kept so ids
#: can never be recycled.  Kernel sets are tiny (a handful per workload), but
#: long sweeps rebuild workloads — and thus programs — per point, so the
#: cache is bounded: past the cap it is simply cleared (entries are cheap to
#: re-derive and the clear also releases the pinned program references).
_DECODED_CACHE: dict[int, tuple[KernelProgram, list[_Decoded]]] = {}
_DECODED_CACHE_MAX = 256


def _decode(program: KernelProgram) -> list[_Decoded]:
    """Flatten a program into tuples the execution loop can unpack cheaply."""

    cached = _DECODED_CACHE.get(id(program))
    if cached is not None and cached[0] is program:
        return cached[1]
    if len(_DECODED_CACHE) >= _DECODED_CACHE_MAX:
        _DECODED_CACHE.clear()
    decoded = [
        (
            int(instruction.opcode),
            instruction.a.is_immediate,
            instruction.a.value,
            instruction.b.is_immediate,
            instruction.b.value,
            instruction.dst,
            instruction.target,
        )
        for instruction in program.instructions
    ]
    _DECODED_CACHE[id(program)] = (program, decoded)
    return decoded


def execute_kernel(program: KernelProgram, context: KernelContext) -> KernelExecutionResult:
    """Run ``program`` against ``context`` and return its prefetches and cost.

    The loop runs on a decoded (flat-tuple) form of the program with all hot
    state in locals; it is executed once per prefetcher event, which makes it
    one of the simulator's innermost loops.  Semantics — instruction costs,
    abort behaviour, masking — are identical to the original interpreter and
    are pinned by the golden-stats suite.
    """

    registers = [0] * NUM_LOCAL_REGISTERS
    result = KernelExecutionResult()
    prefetches = result.prefetches
    executed = 0
    pc = 0
    decoded = _decode(program)
    length = len(decoded)
    global_registers = context.global_registers
    num_globals = len(global_registers)

    try:
        while pc < length:
            if executed >= MAX_DYNAMIC_INSTRUCTIONS:
                raise KernelRuntimeError(
                    f"kernel {program.name!r} exceeded {MAX_DYNAMIC_INSTRUCTIONS} instructions"
                )
            opcode, a_imm, a_val, b_imm, b_val, dst, target = decoded[pc]
            executed += 1

            if opcode < _OP_GET_VADDR:  # plain ALU: LI..SHR
                a = a_val if a_imm else registers[a_val]
                if opcode <= _OP_MOV:  # LI / MOV
                    value = a
                else:
                    b = b_val if b_imm else registers[b_val]
                    if opcode == _OP_ADD:
                        value = a + b
                    elif opcode == _OP_SUB:
                        value = a - b
                    elif opcode == _OP_MUL:
                        value = a * b
                    elif opcode == _OP_AND:
                        value = a & b
                    elif opcode == _OP_OR:
                        value = a | b
                    elif opcode == _OP_XOR:
                        value = a ^ b
                    elif opcode == _OP_SHL:
                        value = a << (b & 63)
                    else:  # SHR
                        value = (a & _U64) >> (b & 63)
                registers[dst] = value & _U64
                pc += 1
                continue

            if opcode == _OP_HALT:
                break

            if opcode == _OP_PREFETCH:
                addr = (a_val if a_imm else registers[a_val]) & _U64
                tag = b_val if b_imm else registers[b_val]
                prefetches.append((addr, tag))
                pc += 1
                continue

            if opcode >= _OP_BEQ:  # BEQ / BNE / BLT / BGE / JUMP
                taken = True
                if opcode != _OP_JUMP:
                    a = (a_val if a_imm else registers[a_val]) & _U64
                    if a & _SIGN_BIT:
                        a -= 1 << 64
                    b = (b_val if b_imm else registers[b_val]) & _U64
                    if b & _SIGN_BIT:
                        b -= 1 << 64
                    branch = opcode - _OP_BEQ
                    if branch == 0:  # BEQ
                        taken = a == b
                    elif branch == 1:  # BNE
                        taken = a != b
                    elif branch == 2:  # BLT
                        taken = a < b
                    else:  # BGE
                        taken = a >= b
                pc = target if taken else pc + 1
                continue

            # Context reads: GET_VADDR .. GET_LOOKAHEAD.
            a = a_val if a_imm else registers[a_val]
            if opcode == _OP_GET_VADDR:
                value = context.vaddr
            elif opcode == _OP_GET_DATA:
                value = context.data_word()
            elif opcode == _OP_LINE_WORD:
                value = context.word(a)
            elif opcode == _OP_GET_GLOBAL:
                if not 0 <= a < num_globals:
                    raise KernelRuntimeError(f"global register {a} out of range")
                value = global_registers[a]
            elif opcode == _OP_GET_LOOKAHEAD:
                value = int(context.lookahead(a))
            else:  # pragma: no cover - exhaustive over the ISA
                raise KernelRuntimeError(f"unknown opcode {opcode!r}")

            registers[dst] = value & _U64
            pc += 1
    except KernelRuntimeError:
        result.aborted = True

    result.instructions_executed = executed
    return result
