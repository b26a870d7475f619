"""PPU kernel ISA.

A *kernel* is the small program a programmable prefetch unit runs in response
to one observation (a snooped demand load or a returned prefetch).  Kernels in
the paper are tiny C-like procedures compiled for the in-order PPU cores
(Figure 4(b)); here they are expressed in a small register-based ISA so that

* manual kernels and compiler-generated kernels share one representation,
* the interpreter can both *execute* them (to compute prefetch addresses from
  real data values) and *time* them (dynamic instruction count scaled by the
  PPU/core clock ratio — the quantity behind the Figure 9 sweeps), and
* the paper's PPU restrictions fall out naturally: there are no loads or
  stores to memory, no stack, no calls — only the forwarded cache line, the
  triggering address, local registers, global prefetcher registers and the
  ``prefetch`` instruction.

Programs are built with :class:`KernelBuilder`, which allocates registers and
resolves branch labels::

    k = KernelBuilder("on_A_prefetch")
    data = k.get_data()                       # value of the observed word
    addr = k.add(k.get_global(BASE_B), k.shl(data, 3))
    k.prefetch(addr, tag=TAG_B)
    program = k.build()
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import Callable, Iterable, NamedTuple, Optional, Sequence, Union

from ..config import WORD_BYTES
from ..errors import KernelError, KernelRuntimeError

#: Number of local registers available to a kernel (the paper's PPUs are
#: microcontroller-class cores; 16 general-purpose registers matches the
#: Cortex-M0+ register file).
NUM_LOCAL_REGISTERS = 16

#: Encoded size of one kernel instruction in bytes (for instruction-cache
#: footprint accounting only).
INSTRUCTION_BYTES = 4

#: Hard bound on dynamically executed instructions per event.  Prefetch
#: kernels are "typically only a few lines of code" (Section 4.4); the bound
#: exists to terminate buggy kernels the way a watchdog would.
MAX_DYNAMIC_INSTRUCTIONS = 4096

_WORDS_PER_LINE = 8


class Opcode(IntEnum):
    """Kernel instruction opcodes."""

    LI = 0          # dst <- imm
    MOV = 1         # dst <- a
    ADD = 2         # dst <- a + b
    SUB = 3         # dst <- a - b
    MUL = 4         # dst <- a * b
    AND = 5         # dst <- a & b
    OR = 6          # dst <- a | b
    XOR = 7         # dst <- a ^ b
    SHL = 8         # dst <- a << b
    SHR = 9         # dst <- a >> b (logical)
    GET_VADDR = 10  # dst <- triggering virtual address
    GET_DATA = 11   # dst <- word of the forwarded line at the trigger address
    LINE_WORD = 12  # dst <- word `a` (0..7) of the forwarded cache line
    GET_GLOBAL = 13 # dst <- global prefetcher register `a`
    GET_LOOKAHEAD = 14  # dst <- EWMA look-ahead (elements) for stream `a`
    PREFETCH = 15   # issue prefetch to address in `a`, with tag `b` (-1: none)
    BEQ = 16        # if a == b goto target
    BNE = 17        # if a != b goto target
    BLT = 18        # if a < b goto target (signed)
    BGE = 19        # if a >= b goto target (signed)
    JUMP = 20       # goto target
    HALT = 21       # finish the event


#: Opcodes that write a destination register.
_WRITING_OPCODES = frozenset(
    {
        Opcode.LI,
        Opcode.MOV,
        Opcode.ADD,
        Opcode.SUB,
        Opcode.MUL,
        Opcode.AND,
        Opcode.OR,
        Opcode.XOR,
        Opcode.SHL,
        Opcode.SHR,
        Opcode.GET_VADDR,
        Opcode.GET_DATA,
        Opcode.LINE_WORD,
        Opcode.GET_GLOBAL,
        Opcode.GET_LOOKAHEAD,
    }
)

#: Branch opcodes (their ``target`` field is an instruction index).
BRANCH_OPCODES = frozenset({Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE, Opcode.JUMP})


@dataclass(frozen=True)
class Reg:
    """A handle to a local PPU register, returned by :class:`KernelBuilder`."""

    index: int

    def __post_init__(self) -> None:
        if not 0 <= self.index < NUM_LOCAL_REGISTERS:
            raise KernelError(f"register index {self.index} out of range")


@dataclass(frozen=True)
class Operand:
    """Either a register or an immediate."""

    is_immediate: bool
    value: int

    @classmethod
    def reg(cls, reg: Reg) -> "Operand":
        return cls(False, reg.index)

    @classmethod
    def imm(cls, value: int) -> "Operand":
        return cls(True, int(value))


#: Anything a builder method accepts as a source operand.
OperandLike = Union[Reg, int]


def _to_operand(value: OperandLike) -> Operand:
    if isinstance(value, Reg):
        return Operand.reg(value)
    if isinstance(value, int):
        return Operand.imm(value)
    raise KernelError(f"invalid operand: {value!r}")


@dataclass(frozen=True)
class Instruction:
    """One kernel instruction."""

    opcode: Opcode
    dst: int = 0
    a: Operand = field(default_factory=lambda: Operand.imm(0))
    b: Operand = field(default_factory=lambda: Operand.imm(0))
    target: int = 0


@dataclass(frozen=True)
class KernelProgram:
    """An immutable, validated kernel."""

    name: str
    instructions: tuple[Instruction, ...]

    def __len__(self) -> int:
        return len(self.instructions)

    @property
    def size_bytes(self) -> int:
        """Encoded size, used for instruction-cache footprint accounting."""

        return len(self.instructions) * INSTRUCTION_BYTES

    def validate(self) -> None:
        if not self.instructions:
            raise KernelError(f"kernel {self.name!r} is empty")
        limit = len(self.instructions)
        for index, instruction in enumerate(self.instructions):
            if instruction.opcode in BRANCH_OPCODES:
                if not 0 <= instruction.target < limit:
                    raise KernelError(
                        f"kernel {self.name!r}: instruction {index} branches to "
                        f"{instruction.target}, outside the program"
                    )
            if instruction.opcode in _WRITING_OPCODES:
                if not 0 <= instruction.dst < NUM_LOCAL_REGISTERS:
                    raise KernelError(
                        f"kernel {self.name!r}: instruction {index} writes register "
                        f"{instruction.dst}, out of range"
                    )
        if self.instructions[-1].opcode not in (Opcode.HALT, Opcode.JUMP):
            raise KernelError(
                f"kernel {self.name!r} must end with HALT (or an unconditional JUMP)"
            )


class KernelBuilder:
    """Builds :class:`KernelProgram` objects with automatic register allocation."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._instructions: list[Instruction] = []
        self._next_register = 0
        self._labels: dict[str, int] = {}
        self._fixups: list[tuple[int, str]] = []

    # --------------------------------------------------------------- registers

    def _alloc(self) -> Reg:
        if self._next_register >= NUM_LOCAL_REGISTERS:
            raise KernelError(
                f"kernel {self.name!r} needs more than {NUM_LOCAL_REGISTERS} registers; "
                "PPUs have no stack to spill to"
            )
        reg = Reg(self._next_register)
        self._next_register += 1
        return reg

    def _emit(self, instruction: Instruction) -> None:
        self._instructions.append(instruction)

    def _emit_writing(
        self,
        opcode: Opcode,
        a: OperandLike = 0,
        b: OperandLike = 0,
        dst: Optional[Reg] = None,
    ) -> Reg:
        """Emit a register-writing instruction.

        ``dst`` reuses an existing register instead of allocating a fresh one;
        kernels with loops (edge walks, list walks) need this so the loop body
        updates the same registers on every trip.
        """

        if dst is None:
            dst = self._alloc()
        self._emit(Instruction(opcode, dst=dst.index, a=_to_operand(a), b=_to_operand(b)))
        return dst

    # ------------------------------------------------------------ value sources

    def imm(self, value: int, *, dst: Optional[Reg] = None) -> Reg:
        """Load an immediate into a fresh register."""

        return self._emit_writing(Opcode.LI, value, dst=dst)

    def get_vaddr(self, *, dst: Optional[Reg] = None) -> Reg:
        """The virtual address that triggered this event (``get_vaddr()``)."""

        return self._emit_writing(Opcode.GET_VADDR, dst=dst)

    def get_data(self, *, dst: Optional[Reg] = None) -> Reg:
        """The observed 64-bit word at the triggering address (``get_data()``)."""

        return self._emit_writing(Opcode.GET_DATA, dst=dst)

    def line_word(self, index: OperandLike, *, dst: Optional[Reg] = None) -> Reg:
        """Word ``index`` (0-7) of the forwarded cache line."""

        return self._emit_writing(Opcode.LINE_WORD, index, dst=dst)

    def get_global(self, index: OperandLike, *, dst: Optional[Reg] = None) -> Reg:
        """Global prefetcher register ``index`` (``get_base()`` and friends)."""

        return self._emit_writing(Opcode.GET_GLOBAL, index, dst=dst)

    def get_lookahead(self, stream: OperandLike, *, dst: Optional[Reg] = None) -> Reg:
        """The EWMA-derived look-ahead distance (in elements) for ``stream``."""

        return self._emit_writing(Opcode.GET_LOOKAHEAD, stream, dst=dst)

    # ------------------------------------------------------------------- ALU

    def mov(self, a: OperandLike, *, dst: Optional[Reg] = None) -> Reg:
        return self._emit_writing(Opcode.MOV, a, dst=dst)

    def add(self, a: OperandLike, b: OperandLike, *, dst: Optional[Reg] = None) -> Reg:
        return self._emit_writing(Opcode.ADD, a, b, dst=dst)

    def sub(self, a: OperandLike, b: OperandLike, *, dst: Optional[Reg] = None) -> Reg:
        return self._emit_writing(Opcode.SUB, a, b, dst=dst)

    def mul(self, a: OperandLike, b: OperandLike, *, dst: Optional[Reg] = None) -> Reg:
        return self._emit_writing(Opcode.MUL, a, b, dst=dst)

    def and_(self, a: OperandLike, b: OperandLike, *, dst: Optional[Reg] = None) -> Reg:
        return self._emit_writing(Opcode.AND, a, b, dst=dst)

    def or_(self, a: OperandLike, b: OperandLike, *, dst: Optional[Reg] = None) -> Reg:
        return self._emit_writing(Opcode.OR, a, b, dst=dst)

    def xor(self, a: OperandLike, b: OperandLike, *, dst: Optional[Reg] = None) -> Reg:
        return self._emit_writing(Opcode.XOR, a, b, dst=dst)

    def shl(self, a: OperandLike, b: OperandLike, *, dst: Optional[Reg] = None) -> Reg:
        return self._emit_writing(Opcode.SHL, a, b, dst=dst)

    def shr(self, a: OperandLike, b: OperandLike, *, dst: Optional[Reg] = None) -> Reg:
        return self._emit_writing(Opcode.SHR, a, b, dst=dst)

    # -------------------------------------------------------------- prefetch

    def prefetch(self, addr: OperandLike, tag: int = -1) -> None:
        """Issue a prefetch for the address in ``addr``.

        ``tag`` identifies the memory-request tag (Section 4.7) so the
        returned line triggers the registered follow-on kernel; ``-1`` means
        no follow-on event.
        """

        self._emit(
            Instruction(Opcode.PREFETCH, a=_to_operand(addr), b=Operand.imm(tag))
        )

    # ------------------------------------------------------------ control flow

    def label(self, name: str) -> None:
        """Define a branch target at the current position."""

        if name in self._labels:
            raise KernelError(f"kernel {self.name!r}: duplicate label {name!r}")
        self._labels[name] = len(self._instructions)

    def _emit_branch(self, opcode: Opcode, a: OperandLike, b: OperandLike, label: str) -> None:
        self._fixups.append((len(self._instructions), label))
        self._emit(Instruction(opcode, a=_to_operand(a), b=_to_operand(b), target=-1))

    def branch_eq(self, a: OperandLike, b: OperandLike, label: str) -> None:
        self._emit_branch(Opcode.BEQ, a, b, label)

    def branch_ne(self, a: OperandLike, b: OperandLike, label: str) -> None:
        self._emit_branch(Opcode.BNE, a, b, label)

    def branch_lt(self, a: OperandLike, b: OperandLike, label: str) -> None:
        self._emit_branch(Opcode.BLT, a, b, label)

    def branch_ge(self, a: OperandLike, b: OperandLike, label: str) -> None:
        self._emit_branch(Opcode.BGE, a, b, label)

    def jump(self, label: str) -> None:
        self._fixups.append((len(self._instructions), label))
        self._emit(Instruction(Opcode.JUMP, target=-1))

    def halt(self) -> None:
        self._emit(Instruction(Opcode.HALT))

    # ----------------------------------------------------------------- build

    def build(self) -> KernelProgram:
        """Resolve labels, append a final HALT if needed, and validate."""

        if not self._instructions or self._instructions[-1].opcode not in (
            Opcode.HALT,
            Opcode.JUMP,
        ):
            self.halt()

        instructions = list(self._instructions)
        for position, label in self._fixups:
            if label not in self._labels:
                raise KernelError(f"kernel {self.name!r}: undefined label {label!r}")
            old = instructions[position]
            instructions[position] = Instruction(
                old.opcode, dst=old.dst, a=old.a, b=old.b, target=self._labels[label]
            )

        program = KernelProgram(self.name, tuple(instructions))
        program.validate()
        return program


def default_lookahead(stream: int) -> int:
    """Default look-ahead when no EWMA stream is wired up: one element ahead.

    A module-level named function rather than a lambda default so that
    contexts pickle cleanly (multiprocess paths) and tracebacks through the
    look-ahead callback name something greppable.
    """

    del stream
    return 1


class KernelContext(NamedTuple):
    """Everything a kernel can read while it runs.

    A ``NamedTuple``: one context is built per prefetcher event, and tuple
    construction is markedly cheaper than a frozen dataclass's.
    """

    vaddr: int
    line_base: int
    line_words: Optional[Sequence[int]]
    global_registers: Sequence[int]
    lookahead: Callable[[int], int] = default_lookahead

    def data_word(self) -> int:
        """The word at the triggering address within the forwarded line."""

        if self.line_words is None:
            raise KernelRuntimeError("no cache line was forwarded with this event")
        offset = (self.vaddr - self.line_base) // WORD_BYTES
        if not 0 <= offset < _WORDS_PER_LINE:
            raise KernelRuntimeError("triggering address lies outside the forwarded line")
        return self.line_words[offset]

    def word(self, index: int) -> int:
        if self.line_words is None:
            raise KernelRuntimeError("no cache line was forwarded with this event")
        if not 0 <= index < _WORDS_PER_LINE:
            raise KernelRuntimeError(f"line word index {index} out of range")
        return self.line_words[index]


@dataclass
class KernelExecutionResult:
    """Outcome of running one kernel for one observation."""

    prefetches: list[tuple[int, int]] = field(default_factory=list)
    instructions_executed: int = 0
    aborted: bool = False

    @property
    def prefetch_addresses(self) -> list[int]:
        return [addr for addr, _tag in self.prefetches]


def total_code_bytes(programs: Iterable[KernelProgram]) -> int:
    """Total encoded size of a set of kernels (instruction-cache footprint)."""

    return sum(program.size_bytes for program in programs)
