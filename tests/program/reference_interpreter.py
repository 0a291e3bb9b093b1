"""The per-instruction interpreter loop, kept as a differential oracle.

This is the loop :class:`repro.program.interpreter.Interpreter` ran before
it compiled each basic block into straight-line Python: it walks every
instruction through an opcode if-chain and reads and writes registers
through :class:`~repro.isa.registers.RegisterFile` methods.  It is slow
and obviously faithful, which is the point: the block-compiled
interpreter must reproduce its traces record for record, its trace
counters, and its final register file and memory
(``tests/program/test_interpreter_differential.py``).

It lives only under ``tests/``; nothing in ``src/`` imports it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.isa.instructions import Instruction, Opcode, evaluate_condition
from repro.isa.registers import RegisterFile
from repro.program.interpreter import ExecutionLimitExceeded, Interpreter
from repro.program.memory import Memory
from repro.program.program import ENTRY_FUNCTION, Program
from repro.program.trace import BlockExec, Trace

_MASK = (1 << 64) - 1

_COUNTERS = (
    "instruction_count", "branch_count", "taken_count",
    "load_count", "store_count",
)


def run_both(
    program: Program,
    words: Optional[Dict[int, int]] = None,
    snapshot: Optional[Sequence[int]] = None,
    max_instructions: int = 50_000_000,
) -> Tuple[Interpreter, Trace]:
    """Run :class:`Interpreter` and the oracle on private copies of the
    memory ``words`` (and, if given, a preloaded register ``snapshot``).
    Assert that they leave the same trace records (function, block
    identity, outcome object, addresses), trace counters, register file
    and memory; return the block-compiled interpreter and its trace."""
    runs = []
    for cls in (Interpreter, ReferenceInterpreter):
        memory = Memory()
        memory._words = dict(words or {})
        interp = cls(program, memory=memory, max_instructions=max_instructions)
        if snapshot is not None:
            interp.registers.load_snapshot(snapshot)
        runs.append((interp, interp.run()))
    (new, new_trace), (ref, ref_trace) = runs
    assert [
        (r.function, r.block, r.taken, r.mem_addrs) for r in new_trace
    ] == [(r.function, r.block, r.taken, r.mem_addrs) for r in ref_trace]
    assert all(a.taken is b.taken for a, b in zip(new_trace, ref_trace))
    assert new_trace.program_name == ref_trace.program_name
    for counter in _COUNTERS:
        assert getattr(new_trace, counter) == getattr(ref_trace, counter), (
            counter
        )
    assert new.registers.snapshot() == ref.registers.snapshot()
    assert new.memory._words == ref.memory._words
    return new, new_trace


class ReferenceInterpreter:
    """Runs a program to completion (HALT) or to an instruction budget,
    one instruction at a time."""

    def __init__(
        self,
        program: Program,
        memory: Optional[Memory] = None,
        max_instructions: int = 50_000_000,
    ) -> None:
        if not program.sealed:
            raise ValueError("program must be sealed")
        self.program = program
        self.registers = RegisterFile()
        self.memory = memory if memory is not None else Memory()
        self.max_instructions = max_instructions
        self._call_stack: List[Tuple[str, str]] = []  # (function, return block)

    def run(self) -> Trace:
        """Execute from ``main``'s entry block until HALT."""
        trace = Trace(self.program.name)
        function = ENTRY_FUNCTION
        cfg = self.program.function(function)
        block = cfg.entry
        executed = 0
        while True:
            taken: Optional[bool] = None
            mem_addrs: List[int] = []
            next_function = function
            next_block_name: Optional[str] = None
            halted = False
            for instr in block.instructions:
                executed += 1
                op = instr.opcode
                if op == Opcode.BR:
                    taken = self._branch_taken(instr)
                    next_block_name = (
                        instr.target if taken else block.fallthrough
                    )
                elif op == Opcode.JMP:
                    next_block_name = instr.target
                elif op == Opcode.CALL:
                    self._call_stack.append((function, block.fallthrough))
                    next_function = instr.target
                    next_block_name = self.program.function(
                        next_function
                    ).entry.name
                elif op == Opcode.RET:
                    if not self._call_stack:
                        halted = True  # returning from main ends the program
                    else:
                        next_function, next_block_name = self._call_stack.pop()
                elif op == Opcode.HALT:
                    halted = True
                else:
                    self._execute_datapath(instr, mem_addrs)
            trace.append(
                BlockExec(function, block, taken, tuple(mem_addrs))
            )
            if halted:
                return trace
            if executed > self.max_instructions:
                raise ExecutionLimitExceeded(
                    f"{self.program.name} exceeded "
                    f"{self.max_instructions} instructions"
                )
            if next_block_name is None:
                next_block_name = block.fallthrough
            if next_block_name is None:
                raise RuntimeError(
                    f"fell off block {block.name!r} in {function!r}"
                )
            function = next_function
            cfg = self.program.function(function)
            block = cfg.block(next_block_name)

    # -- per-instruction semantics ------------------------------------------

    def _branch_taken(self, instr: Instruction) -> bool:
        regs = self.registers
        lhs = regs.read(instr.srcs[0])
        rhs = regs.read(instr.srcs[1]) if len(instr.srcs) == 2 else instr.imm
        return evaluate_condition(instr.cond, lhs, rhs)

    def _execute_datapath(self, instr: Instruction, mem_addrs: List[int]) -> None:
        regs = self.registers
        op = instr.opcode
        if op == Opcode.ADD:
            value = regs.read(instr.srcs[0]) + regs.read(instr.srcs[1])
        elif op == Opcode.SUB:
            value = regs.read(instr.srcs[0]) - regs.read(instr.srcs[1])
        elif op == Opcode.AND:
            value = regs.read(instr.srcs[0]) & regs.read(instr.srcs[1])
        elif op == Opcode.OR:
            value = regs.read(instr.srcs[0]) | regs.read(instr.srcs[1])
        elif op == Opcode.XOR:
            value = regs.read(instr.srcs[0]) ^ regs.read(instr.srcs[1])
        elif op == Opcode.SHL:
            value = regs.read(instr.srcs[0]) << (regs.read(instr.srcs[1]) & 63)
        elif op == Opcode.SHR:
            value = regs.read(instr.srcs[0]) >> (regs.read(instr.srcs[1]) & 63)
        elif op in (Opcode.MUL, Opcode.FMUL):
            value = regs.read(instr.srcs[0]) * regs.read(instr.srcs[1])
        elif op == Opcode.FADD:
            value = regs.read(instr.srcs[0]) + regs.read(instr.srcs[1])
        elif op == Opcode.FDIV:
            divisor = regs.read(instr.srcs[1])
            value = regs.read(instr.srcs[0]) // divisor if divisor else 0
        elif op == Opcode.ADDI:
            value = regs.read(instr.srcs[0]) + instr.imm
        elif op == Opcode.ANDI:
            value = regs.read(instr.srcs[0]) & instr.imm
        elif op == Opcode.XORI:
            value = regs.read(instr.srcs[0]) ^ instr.imm
        elif op == Opcode.MOVI:
            value = instr.imm
        elif op == Opcode.LOAD:
            address = (regs.read(instr.srcs[0]) + instr.imm) & _MASK
            mem_addrs.append(address)
            value = self.memory.load(address)
        elif op == Opcode.STORE:
            address = (regs.read(instr.srcs[1]) + instr.imm) & _MASK
            mem_addrs.append(address)
            self.memory.store(address, regs.read(instr.srcs[0]))
            return
        elif op == Opcode.NOP:
            return
        else:  # pragma: no cover - guarded by Instruction validation
            raise RuntimeError(f"unhandled opcode {op!r}")
        regs.write(instr.dest, value)
