"""The kernel interpreter in the engine's executor calling convention.

Compiled closures (:mod:`repro.programmable.compiler`) are the engine's only
kernel execution tier; the interpreter is the differential oracle they are
tested against.  :func:`interpreter_executor` lets a test swap the oracle in
for whole simulations::

    monkeypatch.setattr(
        repro.programmable.prefetcher, "kernel_executor", interpreter_executor
    )
"""

from __future__ import annotations

from repro.programmable.interpreter import KernelContext, execute_kernel
from repro.programmable.kernel import KernelProgram


def interpreter_executor(program: KernelProgram):
    """Wrap :func:`execute_kernel` in the flat executor calling convention."""

    def run(vaddr, line_base, line_words, global_registers, lookahead):
        result = execute_kernel(
            program,
            KernelContext(
                vaddr=vaddr,
                line_base=line_base,
                line_words=line_words,
                global_registers=global_registers,
                lookahead=lookahead,
            ),
        )
        return result.prefetches, result.instructions_executed, result.aborted

    return run
