"""Differential tests: compiled kernels must match the interpreter exactly.

The compiler (``repro.programmable.compiler``) translates each kernel once
into specialised Python; its contract is *bit-identical observable behaviour*
with :func:`repro.programmable.interpreter.execute_kernel` — the same
prefetches (addresses and tags, in order), the same dynamic instruction
count (which feeds PPU busy time), the same abort flag, and no mutation of
the global register file.  This harness generates random-but-valid kernels
with hypothesis (the same setup as ``tests/test_registry.py``) and asserts
the two tiers agree on randomised contexts, including faulting and
watchdog-looping programs.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import KernelRuntimeError
from repro.programmable.compiler import (
    compile_kernel,
    generate_source,
    kernel_executor,
    program_digest,
    run_compiled,
)
from repro.programmable.interpreter import execute_kernel
from repro.programmable.kernel import (
    MAX_DYNAMIC_INSTRUCTIONS,
    NUM_LOCAL_REGISTERS,
    Instruction,
    KernelBuilder,
    KernelContext,
    KernelProgram,
    Opcode,
    Operand,
    default_lookahead,
)
from repro.workloads import build_workload, registry

from kernel_oracle import interpreter_executor

_U64 = (1 << 64) - 1

# --------------------------------------------------------------- strategies

_REGISTER = st.integers(min_value=0, max_value=NUM_LOCAL_REGISTERS - 1)
#: Immediates span negatives, zero, and >64-bit values so masking rules and
#: signed branch comparisons are exercised at their edges.
_IMMEDIATE = st.one_of(
    st.integers(min_value=-4, max_value=12),
    st.integers(min_value=-(1 << 65), max_value=1 << 65),
    st.sampled_from([0, 1, 7, 8, 63, 64, _U64, 1 << 63, -(1 << 63), -1]),
)
_OPERAND = st.one_of(
    st.builds(Operand.imm, _IMMEDIATE),
    st.builds(lambda r: Operand(False, r), _REGISTER),
)

_GENERATED_OPCODES = [
    opcode for opcode in Opcode if opcode not in (Opcode.HALT, Opcode.JUMP)
]


@st.composite
def kernel_programs(draw) -> KernelProgram:
    """A random, valid kernel: any ISA mix, branch targets in range, HALT last."""

    body_length = draw(st.integers(min_value=0, max_value=14))
    total = body_length + 1
    instructions = []
    for _ in range(body_length):
        opcode = draw(st.sampled_from(_GENERATED_OPCODES + [Opcode.JUMP]))
        instructions.append(
            Instruction(
                opcode,
                dst=draw(_REGISTER),
                a=draw(_OPERAND),
                b=draw(_OPERAND),
                target=draw(st.integers(min_value=0, max_value=total - 1)),
            )
        )
    instructions.append(Instruction(Opcode.HALT))
    program = KernelProgram("hyp_kernel", tuple(instructions))
    program.validate()
    return program


def _raising_lookahead(stream: int) -> int:
    raise KernelRuntimeError("lookahead fault for testing")


@st.composite
def kernel_contexts(draw) -> KernelContext:
    vaddr = draw(st.integers(min_value=0, max_value=1 << 40)) * 8
    line_base = vaddr - (vaddr % 64)
    if draw(st.booleans()):
        line_words = tuple(
            draw(
                st.lists(
                    st.integers(min_value=-(1 << 63), max_value=_U64),
                    min_size=8,
                    max_size=8,
                )
            )
        )
    else:
        line_words = None
    global_registers = draw(
        st.lists(st.integers(min_value=0, max_value=_U64), min_size=0, max_size=4)
    )
    lookahead = draw(
        st.sampled_from(
            [default_lookahead, lambda stream: (stream * 7 + 3) % 101, _raising_lookahead]
        )
    )
    return KernelContext(
        vaddr=vaddr,
        line_base=line_base,
        line_words=line_words,
        global_registers=global_registers,
        lookahead=lookahead,
    )


# ------------------------------------------------------------- differential


class TestDifferential:
    @settings(max_examples=120, deadline=None)
    @given(program=kernel_programs(), context=kernel_contexts())
    def test_compiled_matches_interpreter(self, program, context):
        globals_before = list(context.global_registers)
        interpreted = execute_kernel(program, context)
        compiled = run_compiled(program, context)
        assert compiled.prefetches == interpreted.prefetches
        assert compiled.instructions_executed == interpreted.instructions_executed
        assert compiled.aborted == interpreted.aborted
        # Kernels have no opcode that writes a global register; neither tier
        # may mutate the shared register list.
        assert list(context.global_registers) == globals_before

    @settings(max_examples=30, deadline=None)
    @given(program=kernel_programs(), context=kernel_contexts())
    def test_interpreter_executor_wrapper_matches(self, program, context):
        expected = execute_kernel(program, context)
        prefetches, executed, aborted = interpreter_executor(program)(
            context.vaddr,
            context.line_base,
            context.line_words,
            context.global_registers,
            context.lookahead,
        )
        assert (prefetches, executed, aborted) == (
            expected.prefetches,
            expected.instructions_executed,
            expected.aborted,
        )

    def test_watchdog_abort_is_identical(self):
        # A one-instruction infinite loop: JUMP 0.
        program = KernelProgram(
            "spin", (Instruction(Opcode.JUMP, target=0),)
        )
        program.validate()
        context = KernelContext(
            vaddr=0, line_base=0, line_words=None, global_registers=[]
        )
        interpreted = execute_kernel(program, context)
        compiled = run_compiled(program, context)
        assert interpreted.aborted and compiled.aborted
        assert (
            compiled.instructions_executed
            == interpreted.instructions_executed
            == MAX_DYNAMIC_INSTRUCTIONS
        )

    def test_watchdog_is_emitted_only_where_it_can_fire(self):
        straight = KernelBuilder("straight")
        straight.prefetch(straight.get_vaddr())
        spin = KernelProgram("spin", (Instruction(Opcode.JUMP, target=0),))
        limit = f"> {MAX_DYNAMIC_INSTRUCTIONS}"
        assert limit not in generate_source(straight.build())
        assert limit in generate_source(spin)

    def test_loop_free_kernel_past_the_limit_keeps_the_watchdog(self):
        # One more straight-line instruction than the watchdog allows.
        program = KernelProgram(
            "long",
            tuple(
                Instruction(Opcode.LI, dst=0, a=Operand.imm(1))
                for _ in range(MAX_DYNAMIC_INSTRUCTIONS)
            )
            + (Instruction(Opcode.HALT),),
        )
        program.validate()
        context = KernelContext(
            vaddr=0, line_base=0, line_words=None, global_registers=[]
        )
        interpreted = execute_kernel(program, context)
        compiled = run_compiled(program, context)
        assert (compiled.aborted, compiled.instructions_executed) == (
            interpreted.aborted,
            interpreted.instructions_executed,
        )
        assert compiled.aborted

    def test_fault_count_includes_faulting_instruction(self):
        k = KernelBuilder("faulty")
        k.imm(1)
        k.get_data()  # faults: no line forwarded
        k.prefetch(0)
        program = k.build()
        context = KernelContext(
            vaddr=0, line_base=0, line_words=None, global_registers=[]
        )
        interpreted = execute_kernel(program, context)
        compiled = run_compiled(program, context)
        assert interpreted.aborted and compiled.aborted
        assert compiled.instructions_executed == interpreted.instructions_executed == 2
        assert compiled.prefetches == interpreted.prefetches == []

    def test_registered_workload_kernels_agree(self, tiny_workloads):
        context = KernelContext(
            vaddr=0x4000,
            line_base=0x4000,
            line_words=tuple(range(8)),
            global_registers=[0x10000, 8, 3, 0xFFFF],
        )
        checked = 0
        for name in registry.names():
            configuration = tiny_workloads.get(name).manual_configuration()
            for program in configuration.kernels.values():
                interpreted = execute_kernel(program, context)
                compiled = run_compiled(program, context)
                assert compiled.prefetches == interpreted.prefetches, program.name
                assert (
                    compiled.instructions_executed == interpreted.instructions_executed
                ), program.name
                assert compiled.aborted == interpreted.aborted, program.name
                checked += 1
        assert checked >= 20


# ------------------------------------------------------------------ tooling


class TestCompilerMachinery:
    def test_digest_is_stable_and_content_keyed(self):
        k1 = KernelBuilder("dig")
        k1.prefetch(k1.imm(64))
        program = k1.build()
        k2 = KernelBuilder("dig")
        k2.prefetch(k2.imm(64))
        same = k2.build()
        k3 = KernelBuilder("dig")
        k3.prefetch(k3.imm(128))
        different = k3.build()
        assert program_digest(program) == program_digest(same)
        assert program_digest(program) != program_digest(different)
        assert len(program_digest(program)) == 64

    def test_compiled_closure_is_cached_by_digest(self):
        k1 = KernelBuilder("cache_me")
        k1.prefetch(k1.imm(4096))
        k2 = KernelBuilder("cache_me")
        k2.prefetch(k2.imm(4096))
        assert compile_kernel(k1.build()) is compile_kernel(k2.build())

    def test_generated_source_is_printable_python(self):
        workload = build_workload("randacc", scale="tiny")
        for program in workload.manual_configuration().kernels.values():
            source = generate_source(program)
            assert source.startswith("def _kernel_")
            compile(source, "<test>", "exec")  # must be valid Python

    def test_engine_executor_is_the_compiled_closure(self):
        k = KernelBuilder("engine_tier")
        k.prefetch(k.imm(64))
        program = k.build()
        assert kernel_executor(program) is compile_kernel(program)

    def test_interpreter_stays_off_the_production_import_path(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        probe = (
            "import sys\n"
            "import repro.sim, repro.eval.report, repro.service\n"
            "print('repro.programmable.interpreter' in sys.modules)\n"
        )
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "False"


class TestLookaheadDefault:
    def test_default_is_module_level_named_function(self):
        context = KernelContext(
            vaddr=0, line_base=0, line_words=None, global_registers=[]
        )
        assert context.lookahead is default_lookahead
        assert default_lookahead(0) == 1
        assert default_lookahead(17) == 1

    def test_context_with_default_lookahead_pickles(self):
        context = KernelContext(
            vaddr=64, line_base=64, line_words=(1, 2, 3, 4, 5, 6, 7, 8),
            global_registers=[9, 9],
        )
        clone = pickle.loads(pickle.dumps(context))
        assert clone == context
        assert clone.lookahead is default_lookahead
