"""Basic blocks and per-function control-flow graphs."""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.isa.instructions import Instruction, Opcode


class BasicBlock:
    """A straight-line sequence of instructions with a single terminator.

    Control flow out of a block is defined by its last instruction:

    ========= =====================================================
    ``BR``    two successors: ``taken`` (the branch target) and
              ``fallthrough``
    ``JMP``   one successor: the jump target
    ``CALL``  one *intra-function* successor (``fallthrough``, the
              return point); the callee is a separate function
    ``RET``   no intra-function successors (function exit)
    ``HALT``  no successors (program exit)
    other     one successor: ``fallthrough``
    ========= =====================================================
    """

    __slots__ = ("name", "instructions", "fallthrough", "_preds",
                 "terminator", "ends_in_branch", "ends_in_halt", "first_pc",
                 "load_count", "store_count", "_plan", "_exec")

    def __init__(self, name: str) -> None:
        self.name = name
        self.instructions: List[Instruction] = []
        #: Name of the textually-next block, or ``None`` for exit blocks.
        self.fallthrough: Optional[str] = None
        self._preds: Tuple[str, ...] = ()
        #: Static facts, set by :meth:`_derive` when the CFG is sealed:
        #: the control-flow instruction ending the block (if any), whether
        #: it ends in a ``BR`` or a ``HALT``, the PC of its first
        #: instruction (``None`` until the program assigns PCs) and its
        #: load and store counts.
        self.terminator: Optional[Instruction] = None
        self.ends_in_branch = False
        self.ends_in_halt = False
        self.first_pc: Optional[int] = None
        self.load_count = 0
        self.store_count = 0
        #: Derived caches (never pickled): the fast engine's decoded
        #: :class:`~repro.uarch.plan.BlockPlan` and the interpreter's
        #: compiled datapath function
        #: (:func:`repro.program.interpreter.compile_block`).
        self._plan = None
        self._exec = None

    def _derive(self) -> None:
        """Set the static-fact slots from the instructions."""
        instructions = self.instructions
        last = instructions[-1] if instructions else None
        self.terminator = last if last is not None and last.is_control else None
        self.ends_in_branch = last is not None and last.is_cond_branch
        self.ends_in_halt = last is not None and last.opcode == Opcode.HALT
        self.first_pc = instructions[0].pc if instructions else None
        self.load_count = sum(instr.is_load for instr in instructions)
        self.store_count = sum(instr.is_store for instr in instructions)

    # -- pickling ----------------------------------------------------------
    # Derived caches are excluded: a plan holds references into one
    # program's CFG and must never leak through a pickled trace, and a
    # compiled function cannot be pickled at all.  The static facts are
    # derived again on load.  Every artifact-cache key folds in the code
    # digest, so only pickles of this exact layout are ever loaded.

    def __getstate__(self):
        return {
            "name": self.name,
            "instructions": self.instructions,
            "fallthrough": self.fallthrough,
            "_preds": self._preds,
        }

    def __setstate__(self, state) -> None:
        self.name = state["name"]
        self.instructions = state["instructions"]
        self.fallthrough = state["fallthrough"]
        self._preds = state["_preds"]
        self._plan = None
        self._exec = None
        self._derive()

    # -- structure queries -------------------------------------------------

    @property
    def ends_in_call(self) -> bool:
        term = self.terminator
        return term is not None and term.opcode == Opcode.CALL

    @property
    def ends_in_return(self) -> bool:
        term = self.terminator
        return term is not None and term.opcode == Opcode.RET

    def successors(self) -> Tuple[str, ...]:
        """Intra-function successor block names (taken target first)."""
        term = self.terminator
        if term is None:
            if self.ends_in_halt or self.fallthrough is None:
                return ()
            return (self.fallthrough,)
        if term.opcode == Opcode.BR:
            succs = [term.target]
            if self.fallthrough is not None:
                succs.append(self.fallthrough)
            return tuple(succs)
        if term.opcode == Opcode.JMP:
            return (term.target,)
        if term.opcode == Opcode.CALL:
            return (self.fallthrough,) if self.fallthrough is not None else ()
        return ()  # RET

    @property
    def predecessors(self) -> Tuple[str, ...]:
        return self._preds

    def __len__(self) -> int:
        return len(self.instructions)

    def __repr__(self) -> str:
        return f"<BasicBlock {self.name} ({len(self.instructions)} insts)>"


class ControlFlowGraph:
    """The CFG of one function.

    Blocks are stored in insertion order, which is also the layout order used
    for PC assignment and for implicit fall-through edges.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._blocks: Dict[str, BasicBlock] = {}
        self._sealed = False

    # -- construction -------------------------------------------------------

    def add_block(self, block: BasicBlock) -> BasicBlock:
        if self._sealed:
            raise RuntimeError("CFG is sealed")
        if block.name in self._blocks:
            raise ValueError(f"duplicate block name {block.name!r}")
        self._blocks[block.name] = block
        return block

    def seal(self) -> None:
        """Wire implicit fall-throughs, compute predecessors and validate."""
        if self._sealed:
            return
        order = list(self._blocks.values())
        for i, block in enumerate(order):
            block._derive()
            needs_fallthrough = not (
                block.ends_in_halt
                or block.ends_in_return
                or (block.terminator is not None
                    and block.terminator.opcode == Opcode.JMP)
            )
            if needs_fallthrough and block.fallthrough is None:
                if i + 1 >= len(order):
                    raise ValueError(
                        f"block {block.name!r} falls off the end of "
                        f"function {self.name!r}"
                    )
                block.fallthrough = order[i + 1].name
        preds: Dict[str, List[str]] = {name: [] for name in self._blocks}
        for block in order:
            for succ in block.successors():
                if succ not in self._blocks:
                    raise ValueError(
                        f"block {block.name!r} targets unknown block {succ!r}"
                    )
                preds[succ].append(block.name)
        for name, block in self._blocks.items():
            block._preds = tuple(preds[name])
        self._sealed = True

    # -- queries -------------------------------------------------------------

    @property
    def entry(self) -> BasicBlock:
        if not self._blocks:
            raise ValueError(f"function {self.name!r} has no blocks")
        return next(iter(self._blocks.values()))

    def block(self, name: str) -> BasicBlock:
        return self._blocks[name]

    def __contains__(self, name: str) -> bool:
        return name in self._blocks

    def __iter__(self) -> Iterator[BasicBlock]:
        return iter(self._blocks.values())

    def __len__(self) -> int:
        return len(self._blocks)

    def instruction_count(self) -> int:
        return sum(len(b) for b in self._blocks.values())

    def conditional_branches(self) -> Iterator[Tuple[str, Instruction]]:
        """Yield ``(block_name, branch_instruction)`` for every BR."""
        for block in self._blocks.values():
            if block.ends_in_branch:
                yield block.name, block.instructions[-1]

    def __repr__(self) -> str:
        return (
            f"<ControlFlowGraph {self.name} ({len(self._blocks)} blocks, "
            f"{self.instruction_count()} insts)>"
        )
