"""Instruction definitions for the mini-ISA.

Instructions are *static*: they live inside basic blocks of a control-flow
graph and are shared by every dynamic execution of that block.  Control-flow
targets are therefore expressed as CFG block names, not literal addresses;
concrete PCs are assigned when a :class:`~repro.program.program.Program` is
sealed (each instruction occupies :data:`INSTRUCTION_BYTES` bytes).
"""

from __future__ import annotations

import enum
from typing import Optional, Tuple

INSTRUCTION_BYTES = 4


class Opcode(enum.IntEnum):
    """Mini-ISA opcodes.

    The integer ALU group, loads/stores and the control-flow group cover
    everything the SPEC-int-like workloads need; the FP group exists so that
    the three floating-point benchmarks of the paper (mesa, ammp, fma3d) get
    a distinct instruction mix with longer latencies.
    """

    # Integer ALU
    ADD = enum.auto()
    SUB = enum.auto()
    AND = enum.auto()
    OR = enum.auto()
    XOR = enum.auto()
    SHL = enum.auto()
    SHR = enum.auto()
    MUL = enum.auto()
    ADDI = enum.auto()
    ANDI = enum.auto()
    XORI = enum.auto()
    MOVI = enum.auto()
    # Memory
    LOAD = enum.auto()
    STORE = enum.auto()
    # Control flow
    BR = enum.auto()      # conditional branch
    JMP = enum.auto()     # unconditional direct jump
    CALL = enum.auto()    # direct call (pushes return address)
    RET = enum.auto()     # indirect return (pops return address)
    # Floating point (operates on the integer register file; the FP-ness
    # only matters for latency and instruction-mix statistics)
    FADD = enum.auto()
    FMUL = enum.auto()
    FDIV = enum.auto()
    # Misc
    NOP = enum.auto()
    HALT = enum.auto()    # terminates the program


class Condition(enum.IntEnum):
    """Comparison kinds for conditional branches: ``src0 <cond> src1``."""

    EQ = enum.auto()
    NE = enum.auto()
    LT = enum.auto()
    GE = enum.auto()
    LE = enum.auto()
    GT = enum.auto()


_CONTROL = frozenset({Opcode.BR, Opcode.JMP, Opcode.CALL, Opcode.RET})
_FP = frozenset({Opcode.FADD, Opcode.FMUL, Opcode.FDIV})

#: Execution latency (cycles) by opcode, used by the timing model.
EXECUTION_LATENCY = {
    Opcode.MUL: 3,
    Opcode.FADD: 4,
    Opcode.FMUL: 4,
    Opcode.FDIV: 12,
    Opcode.LOAD: 0,  # latency comes from the cache hierarchy
}
_DEFAULT_LATENCY = 1


class Instruction:
    """A single static instruction.

    Parameters
    ----------
    opcode:
        The operation.
    dest:
        Destination architectural register index, or ``None`` when the
        instruction writes no register (stores, branches, nop).
    srcs:
        Tuple of source architectural register indices.
    imm:
        Immediate operand (ALU immediate, or load/store displacement).
    cond:
        Comparison kind; only meaningful for :attr:`Opcode.BR`.
    target:
        CFG-level control target: the taken-successor block name for ``BR``
        and ``JMP``, or the callee function name for ``CALL``.
    """

    __slots__ = (
        "opcode", "dest", "srcs", "imm", "cond", "target", "pc",
        # Static facts derived from the fields above by _derive().
        "is_control", "is_cond_branch", "is_load", "is_store", "is_fp",
        "writes_register", "latency",
    )

    def __init__(
        self,
        opcode: Opcode,
        dest: Optional[int] = None,
        srcs: Tuple[int, ...] = (),
        imm: int = 0,
        cond: Optional[Condition] = None,
        target: Optional[str] = None,
    ) -> None:
        self.opcode = opcode
        self.dest = dest
        self.srcs = tuple(srcs)
        self.imm = imm
        self.cond = cond
        self.target = target
        self.pc: Optional[int] = None  # assigned at Program.seal()
        self._validate()
        self._derive()

    def _validate(self) -> None:
        op = self.opcode
        if op == Opcode.BR:
            if self.cond is None:
                raise ValueError("BR requires a condition")
            if self.target is None:
                raise ValueError("BR requires a taken target")
            if len(self.srcs) not in (1, 2):
                raise ValueError("BR takes one or two source registers")
        elif op in (Opcode.JMP, Opcode.CALL):
            if self.target is None:
                raise ValueError(f"{op.name} requires a target")
        elif op == Opcode.LOAD:
            if self.dest is None or len(self.srcs) != 1:
                raise ValueError("LOAD needs a dest and one address register")
        elif op == Opcode.STORE:
            if len(self.srcs) != 2:
                raise ValueError("STORE needs (value, address) registers")

    def _derive(self) -> None:
        """Set the classification slots the timing model reads on every
        dynamic instance; ``latency`` is 0 for loads, which defer to the
        caches."""
        op = self.opcode
        self.is_control = op in _CONTROL
        self.is_cond_branch = op == Opcode.BR
        self.is_load = op == Opcode.LOAD
        self.is_store = op == Opcode.STORE
        self.is_fp = op in _FP
        self.writes_register = self.dest is not None
        self.latency = EXECUTION_LATENCY.get(op, _DEFAULT_LATENCY)

    # -- pickling ----------------------------------------------------------
    # Only the seven fields travel; the derived slots are rebuilt on load,
    # which keeps cached traces as small as before the slots existed.

    def __getstate__(self):
        return (self.opcode, self.dest, self.srcs, self.imm, self.cond,
                self.target, self.pc)

    def __setstate__(self, state) -> None:
        (self.opcode, self.dest, self.srcs, self.imm, self.cond,
         self.target, self.pc) = state
        self._derive()

    def __repr__(self) -> str:
        parts = [self.opcode.name.lower()]
        if self.dest is not None:
            parts.append(f"r{self.dest}")
        parts.extend(f"r{s}" for s in self.srcs)
        if self.imm:
            parts.append(f"#{self.imm}")
        if self.cond is not None:
            parts.append(self.cond.name.lower())
        if self.target is not None:
            parts.append(f"->{self.target}")
        pc = f"@{self.pc:#x}" if self.pc is not None else "@?"
        return f"<{' '.join(parts)} {pc}>"


def evaluate_condition(cond: Condition, lhs: int, rhs: int) -> bool:
    """Evaluate a branch condition on two *signed* 64-bit values."""
    lhs = _to_signed(lhs)
    rhs = _to_signed(rhs)
    if cond == Condition.EQ:
        return lhs == rhs
    if cond == Condition.NE:
        return lhs != rhs
    if cond == Condition.LT:
        return lhs < rhs
    if cond == Condition.GE:
        return lhs >= rhs
    if cond == Condition.LE:
        return lhs <= rhs
    if cond == Condition.GT:
        return lhs > rhs
    raise ValueError(f"unknown condition {cond!r}")


def _to_signed(value: int) -> int:
    value &= (1 << 64) - 1
    if value >= 1 << 63:
        value -= 1 << 64
    return value
