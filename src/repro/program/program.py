"""Whole-program container: multiple function CFGs with assigned PCs."""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

from repro.cfg.graph import BasicBlock, ControlFlowGraph
from repro.isa.instructions import INSTRUCTION_BYTES

ENTRY_FUNCTION = "main"


class Program:
    """One or more function CFGs laid out in a single PC space.

    ``seal()`` lays functions out in insertion order (blocks in their own
    insertion order), assigns each instruction a PC, and builds the reverse
    maps used throughout the simulator.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._functions: Dict[str, ControlFlowGraph] = {}
        self._sealed = False
        self._block_of_pc: Dict[int, Tuple[str, BasicBlock, int]] = {}
        self._function_of_block: Dict[Tuple[str, str], ControlFlowGraph] = {}

    # -- construction ----------------------------------------------------

    def add_function(self, cfg: ControlFlowGraph) -> None:
        if self._sealed:
            raise RuntimeError("program is sealed")
        if cfg.name in self._functions:
            raise ValueError(f"duplicate function {cfg.name!r}")
        self._functions[cfg.name] = cfg

    def seal(self) -> "Program":
        """Assign PCs, validate cross-function references, freeze."""
        if self._sealed:
            return self
        if ENTRY_FUNCTION not in self._functions:
            raise ValueError(f"program needs a {ENTRY_FUNCTION!r} function")
        pc = 0x1000  # a conventional text-segment base
        for cfg in self._functions.values():
            cfg.seal()
            for block in cfg:
                block.first_pc = pc if block.instructions else None
                for index, instr in enumerate(block.instructions):
                    instr.pc = pc
                    self._block_of_pc[pc] = (cfg.name, block, index)
                    pc += INSTRUCTION_BYTES
        # Validate that every CALL targets a known function.
        for cfg in self._functions.values():
            for block in cfg:
                term = block.terminator
                if term is not None and term.opcode.name == "CALL":
                    if term.target not in self._functions:
                        raise ValueError(
                            f"call to unknown function {term.target!r} "
                            f"in {cfg.name}/{block.name}"
                        )
        self._sealed = True
        return self

    # -- queries ------------------------------------------------------------

    @property
    def sealed(self) -> bool:
        return self._sealed

    @property
    def entry_function(self) -> ControlFlowGraph:
        return self._functions[ENTRY_FUNCTION]

    def function(self, name: str) -> ControlFlowGraph:
        return self._functions[name]

    def functions(self) -> Iterator[ControlFlowGraph]:
        return iter(self._functions.values())

    def __contains__(self, function_name: str) -> bool:
        return function_name in self._functions

    def locate(self, pc: int) -> Tuple[str, BasicBlock, int]:
        """Return ``(function_name, block, index_within_block)`` for a PC."""
        self._require_sealed()
        return self._block_of_pc[pc]

    def block_starting_at(self, pc: int) -> Optional[Tuple[str, BasicBlock]]:
        """The block whose *first* instruction is at ``pc``, if any."""
        entry = self._block_of_pc.get(pc)
        if entry is None or entry[2] != 0:
            return None
        return entry[0], entry[1]

    def instruction_count(self) -> int:
        return sum(cfg.instruction_count() for cfg in self._functions.values())

    def _require_sealed(self) -> None:
        if not self._sealed:
            raise RuntimeError("program must be sealed first")

    def __repr__(self) -> str:
        return (
            f"<Program {self.name} ({len(self._functions)} functions, "
            f"{self.instruction_count()} insts)>"
        )
