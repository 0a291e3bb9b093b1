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
                 "_plan", "_mem_profile", "_exec")

    def __init__(self, name: str) -> None:
        self.name = name
        self.instructions: List[Instruction] = []
        #: Name of the textually-next block, or ``None`` for exit blocks.
        self.fallthrough: Optional[str] = None
        self._preds: Tuple[str, ...] = ()
        #: Derived caches (never pickled): the fast engine's decoded
        #: :class:`~repro.uarch.plan.BlockPlan`, the (loads, stores)
        #: count pair used by :meth:`repro.program.trace.Trace.append`,
        #: and the interpreter's compiled datapath function
        #: (:func:`repro.program.interpreter.compile_block`).
        self._plan = None
        self._mem_profile: Optional[Tuple[int, int]] = None
        self._exec = None

    # -- pickling ----------------------------------------------------------
    # Derived caches are excluded: a plan holds references into one
    # program's CFG and must never leak through a pickled trace, and a
    # compiled function cannot be pickled at all.  The legacy slot-tuple
    # state produced before these caches existed is still accepted.

    def __getstate__(self):
        return {
            "name": self.name,
            "instructions": self.instructions,
            "fallthrough": self.fallthrough,
            "_preds": self._preds,
        }

    def __setstate__(self, state) -> None:
        if isinstance(state, tuple):  # legacy (dict_state, slots_dict) form
            state = state[1] or {}
        self.name = state["name"]
        self.instructions = state["instructions"]
        self.fallthrough = state["fallthrough"]
        self._preds = state.get("_preds", ())
        self._plan = None
        self._mem_profile = None
        self._exec = None

    # -- structure queries -------------------------------------------------

    @property
    def terminator(self) -> Optional[Instruction]:
        """The control-flow instruction ending this block, if any."""
        if self.instructions and self.instructions[-1].is_control:
            return self.instructions[-1]
        return None

    @property
    def ends_in_branch(self) -> bool:
        term = self.terminator
        return term is not None and term.opcode == Opcode.BR

    @property
    def ends_in_call(self) -> bool:
        term = self.terminator
        return term is not None and term.opcode == Opcode.CALL

    @property
    def ends_in_return(self) -> bool:
        term = self.terminator
        return term is not None and term.opcode == Opcode.RET

    @property
    def ends_in_halt(self) -> bool:
        return bool(self.instructions) and self.instructions[-1].opcode == Opcode.HALT

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

    def mem_profile(self) -> Tuple[int, int]:
        """``(load_count, store_count)``, computed once per block."""
        profile = self._mem_profile
        if profile is None:
            loads = stores = 0
            for instr in self.instructions:
                if instr.opcode == Opcode.LOAD:
                    loads += 1
                elif instr.opcode == Opcode.STORE:
                    stores += 1
            profile = self._mem_profile = (loads, stores)
        return profile

    @property
    def load_count(self) -> int:
        return self.mem_profile()[0]

    @property
    def store_count(self) -> int:
        return self.mem_profile()[1]

    @property
    def first_pc(self) -> int:
        if not self.instructions or self.instructions[0].pc is None:
            raise RuntimeError(f"block {self.name!r} has no sealed PC")
        return self.instructions[0].pc

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
