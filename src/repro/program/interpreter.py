"""Architectural interpreter for the mini-ISA.

Executes a sealed :class:`~repro.program.program.Program` with real register
and memory semantics, producing the block-granular dynamic
:class:`~repro.program.trace.Trace`.  No timing is modelled here; timing is
the job of :mod:`repro.uarch.timing`.

Execution is block-compiled.  Each static :class:`BasicBlock` is decoded
once into a small Python function (generated source, ``exec``-compiled and
memoized on the block) that runs the block's datapath as straight-line
statements over the raw register list and the memory word dict, and
returns ``(taken, mem_addrs)``.  Successor links are resolved once per run
into :class:`_Node` objects, so the run loop does a handful of attribute
reads per dynamic block and never looks at an opcode.

The FP opcodes operate on the integer register file (FADD adds, FMUL
multiplies, FDIV floor-divides with divide-by-zero reading as zero).  Their
FP-ness matters only for latency and instruction-mix statistics, which is
all the paper's mechanisms ever observe.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Dict, List, Optional, Tuple

from repro.cfg.graph import BasicBlock
from repro.isa.instructions import Condition, Instruction, Opcode
from repro.isa.registers import RegisterFile
from repro.program.memory import Memory
from repro.program.program import ENTRY_FUNCTION, Program
from repro.program.trace import BlockExec, Trace

_MASK = (1 << 64) - 1
#: XOR-ing both operands with the sign bit turns a signed 64-bit compare
#: into an unsigned one, so a folded branch is one XOR and one compare.
_SIGN = 1 << 63

#: ``f(registers, memory_words) -> (taken, mem_addrs)``
BlockFunction = Callable[
    [List[int], Dict[int, int]], Tuple[Optional[bool], Tuple[int, ...]]
]


class ExecutionLimitExceeded(RuntimeError):
    """The program ran past the interpreter's instruction budget."""


# -- block codegen -----------------------------------------------------------
# Code generation is the only place opcodes are inspected.  The generated
# source relies on two invariants the rest of the package keeps: register
# values are always in [0, 2**64) (RegisterFile masks every write) and so
# are memory words (Memory.store masks).  Masks are therefore emitted only
# where an operation can leave that range.

_M = str(_MASK)

#: Two-source datapath templates over operand expressions ``a`` and ``b``.
_BINARY = {
    Opcode.ADD: "({a} + {b}) & " + _M,
    Opcode.FADD: "({a} + {b}) & " + _M,
    Opcode.SUB: "({a} - {b}) & " + _M,
    Opcode.AND: "{a} & {b}",
    Opcode.OR: "{a} | {b}",
    Opcode.XOR: "{a} ^ {b}",
    Opcode.SHL: "({a} << ({b} & 63)) & " + _M,
    Opcode.SHR: "{a} >> ({b} & 63)",
    Opcode.MUL: "({a} * {b}) & " + _M,
    Opcode.FMUL: "({a} * {b}) & " + _M,
    Opcode.FDIV: "({a} // {b} if {b} else 0)",
}

_COMPARE = {
    Condition.EQ: "==", Condition.NE: "!=",
    Condition.LT: "<", Condition.GE: ">=",
    Condition.LE: "<=", Condition.GT: ">",
}

_CONTROL = frozenset({Opcode.BR, Opcode.JMP, Opcode.CALL, Opcode.RET})


def _reg(index: int) -> str:
    """Operand expression for a register read (``r0`` reads as ``0``)."""
    return f"R[{index}]" if index else "0"


def _datapath(instr: Instruction) -> str:
    """Value expression of a non-memory datapath instruction."""
    op = instr.opcode
    if op in _BINARY:
        return _BINARY[op].format(a=_reg(instr.srcs[0]), b=_reg(instr.srcs[1]))
    if op == Opcode.ADDI:
        return f"({_reg(instr.srcs[0])} + {instr.imm & _MASK}) & {_M}"
    if op == Opcode.ANDI:
        return f"{_reg(instr.srcs[0])} & {instr.imm & _MASK}"
    if op == Opcode.XORI:
        return f"{_reg(instr.srcs[0])} ^ {instr.imm & _MASK}"
    if op == Opcode.MOVI:
        return str(instr.imm & _MASK)
    raise RuntimeError(f"unhandled opcode {op!r}")  # pragma: no cover


def _condition(instr: Instruction) -> str:
    """Boolean expression of a BR.  Equality compares the raw bits; an
    ordered compare is signed, folded to unsigned by flipping both sign
    bits (an immediate's at codegen)."""
    lhs = _reg(instr.srcs[0])
    symbol = _COMPARE[instr.cond]
    ordered = instr.cond not in (Condition.EQ, Condition.NE)
    if len(instr.srcs) == 1:
        imm = instr.imm & _MASK
        if ordered:
            return f"({lhs} ^ {_SIGN}) {symbol} {imm ^ _SIGN}"
        return f"{lhs} {symbol} {imm}"
    rhs = _reg(instr.srcs[1])
    if ordered:
        return f"({lhs} ^ {_SIGN}) {symbol} ({rhs} ^ {_SIGN})"
    return f"{lhs} {symbol} {rhs}"


def block_source(block: BasicBlock) -> str:
    """Python source of ``block``'s compiled datapath function.

    Writes to ``r0`` are dropped, immediates are masked at codegen, and
    only the final instruction may transfer control (the CFG builder
    enforces this; a hand-built block that breaks it is rejected)."""
    body: List[str] = []
    addrs: List[str] = []
    condition: Optional[str] = None
    last = len(block.instructions) - 1
    for index, instr in enumerate(block.instructions):
        op = instr.opcode
        if op in _CONTROL:
            if index != last:
                raise ValueError(
                    f"block {block.name!r}: {op.name} at position {index} "
                    "is not the block's terminator"
                )
            if op == Opcode.BR:
                condition = _condition(instr)
            continue
        if op in (Opcode.NOP, Opcode.HALT):
            continue
        if op in (Opcode.LOAD, Opcode.STORE):
            addr = f"a{len(addrs)}"
            addrs.append(addr)
            base = instr.srcs[0] if op == Opcode.LOAD else instr.srcs[1]
            body.append(f"{addr} = ({_reg(base)} + {instr.imm & _MASK}) & {_M}")
            if op == Opcode.STORE:
                body.append(f"W[{addr}] = {_reg(instr.srcs[0])}")
                continue
            value = f"W.get({addr}, 0)"
        else:
            value = _datapath(instr)
        if instr.dest:
            body.append(f"R[{instr.dest}] = {value}")
    mem = "(" + "".join(f"{a}, " for a in addrs) + ")"
    if condition is None:
        body.append(f"return None, {mem}")
    elif addrs:
        body.append(f"return {condition}, {mem}")
    else:
        body += [f"if {condition}:", "    return True, ()", "return False, ()"]
    return "def run(R, W):\n" + "".join(f"    {line}\n" for line in body)


@lru_cache(maxsize=2048)
def _function(source: str) -> BlockFunction:
    """Compile one block function.  Many blocks share a source (the same
    filler or loop shape over the same registers, within and across
    programs), and the functions are pure in ``(R, W)``, so equal sources
    share one function and are compiled once."""
    namespace: Dict[str, BlockFunction] = {}
    exec(compile(source, "<block>", "exec"), namespace)
    return namespace["run"]


def compile_block(block: BasicBlock) -> BlockFunction:
    """``block``'s datapath function, generated on first use and memoized
    on the block (a derived slot that is never pickled)."""
    function = block._exec
    if function is None:
        function = block._exec = _function(block_source(block))
    return function


# -- successor linking -------------------------------------------------------

_STEP, _CALL, _RET, _HALT = range(4)


class _Node:
    """One static block with its successors resolved for one run.

    ``kind`` is ``_STEP`` for blocks whose next node is ``taken`` when the
    returned outcome is true and ``next`` otherwise (a block with no
    conditional branch returns ``None`` and always goes to ``next``).
    ``_CALL`` blocks go to ``next`` (the callee's entry) and push
    ``taken`` (the return point); ``_RET`` blocks pop, halting when the
    call stack is empty; ``_HALT`` blocks end the run.

    ``records`` maps each outcome of a block that touches no memory to
    the one :class:`BlockExec` every such execution shares: records are
    never mutated, and sharing them saves the allocation (and the memory)
    on most dynamic blocks."""

    __slots__ = ("run", "function", "block", "size", "kind", "taken", "next",
                 "records")

    def __init__(
        self, function: str, block: BasicBlock, run: BlockFunction
    ) -> None:
        self.run = run
        self.function = function
        self.block = block
        self.size = len(block.instructions)
        self.kind = _STEP
        self.taken: Optional[_Node] = None
        self.next: Optional[_Node] = None
        if block.load_count or block.store_count:
            self.records = None
        else:
            outcomes = (True, False) if block.ends_in_branch else (None,)
            self.records = {
                taken: BlockExec(function, block, taken, ())
                for taken in outcomes
            }


def _fell_off(function: str, block: BasicBlock) -> _Node:
    """A successor stand-in that raises when control reaches it, i.e.
    after the budget check of the block that has no successor."""

    def run(R, W):
        raise RuntimeError(f"fell off block {block.name!r} in {function!r}")

    return _Node(function, block, run)


def _link(program: Program) -> _Node:
    """Build every block's node, resolve its successors, return ``main``'s
    entry node."""
    nodes: Dict[Tuple[str, str], _Node] = {
        (cfg.name, block.name): _Node(cfg.name, block, compile_block(block))
        for cfg in program.functions()
        for block in cfg
    }

    def resolve(function: str, block: BasicBlock, name: Optional[str]) -> _Node:
        if name is None:
            return _fell_off(function, block)
        return nodes[function, name]

    for (function, _), node in nodes.items():
        block = node.block
        term = block.instructions[-1] if block.instructions else None
        op = term.opcode if term is not None else None
        if any(i.opcode == Opcode.HALT for i in block.instructions):
            node.kind = _HALT
        elif op == Opcode.RET:
            node.kind = _RET
        elif op == Opcode.CALL:
            node.kind = _CALL
            callee = program.function(term.target)
            node.next = nodes[callee.name, callee.entry.name]
            node.taken = resolve(function, block, block.fallthrough)
        elif op == Opcode.JMP:
            node.next = resolve(function, block, term.target)
        else:
            node.next = resolve(function, block, block.fallthrough)
            if op == Opcode.BR:
                node.taken = resolve(function, block, term.target)
    return nodes[ENTRY_FUNCTION, program.entry_function.entry.name]


class Interpreter:
    """Runs a program to completion (HALT) or to an instruction budget."""

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

    def run(self) -> Trace:
        """Execute from ``main``'s entry block until HALT."""
        node = _link(self.program)
        R = self.registers._regs
        W = self.memory._words
        limit = self.max_instructions
        stack: List[_Node] = []
        records: List[BlockExec] = []
        append = records.append
        executed = 0
        while True:
            taken, addrs = node.run(R, W)
            if addrs:
                append(BlockExec(node.function, node.block, taken, addrs))
            else:
                append(node.records[taken])
            executed += node.size
            kind = node.kind
            if kind == _STEP:
                if executed > limit:
                    self._exceeded()
                node = node.taken if taken else node.next
                continue
            if kind == _HALT or (kind == _RET and not stack):
                break  # returning from main ends the program
            if executed > limit:
                self._exceeded()
            if kind == _CALL:
                stack.append(node.taken)
                node = node.next
            else:
                node = stack.pop()
        return Trace.from_records(self.program.name, records)

    def _exceeded(self) -> None:
        raise ExecutionLimitExceeded(
            f"{self.program.name} exceeded {self.max_instructions} instructions"
        )
