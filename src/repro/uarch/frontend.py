"""Fetch-stream helpers for the timing model.

Two kinds of instruction streams feed the front end:

* :class:`TraceCursor` — the architecturally-correct path, replayed from
  the functional trace (block-granular, with real branch outcomes and
  memory addresses);
* :class:`StaticWalker` — any *wrong* path: fetch follows the branch
  predictor through the static CFG exactly as a real front end does after
  a misprediction or down the false side of a dynamically predicated
  branch.  Wrong-path register/memory *values* are unknowable in a
  trace-driven model, but no statistic the paper reports consumes them —
  only instruction identity, block shape and fetch timing matter.

The walker keeps a shadow return-address stack so wrong paths can flow
through calls and returns; it reports itself ``exhausted`` when it runs
off the program (HALT, or RET with an empty shadow stack).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.cfg.graph import BasicBlock
from repro.isa.instructions import Opcode
from repro.program.program import Program
from repro.program.trace import Trace


class TraceCursor:
    """A movable position in the functional trace."""

    __slots__ = ("trace", "index")

    def __init__(self, trace: Trace, index: int = 0) -> None:
        self.trace = trace
        self.index = index

    @property
    def exhausted(self) -> bool:
        return self.index >= len(self.trace.records)

    @property
    def record(self):
        return self.trace.records[self.index]

    def advance(self) -> None:
        self.index += 1

    def save(self) -> int:
        return self.index

    def restore(self, position: int) -> None:
        self.index = position


class StaticWalker:
    """Predictor-guided walk of the static program from a given block.

    The caller fetches ``walker.block``, then calls :meth:`step` with the
    predicted direction for the block's terminating conditional branch (or
    ``None`` when the block does not end in one).  ``predict_needed``
    tells the caller whether a direction is required.
    """

    def __init__(
        self,
        program: Program,
        function: str,
        block: BasicBlock,
        call_stack: Optional[List[Tuple[str, str]]] = None,
    ) -> None:
        self.program = program
        self.function = function
        self.block: Optional[BasicBlock] = block
        self._call_stack: List[Tuple[str, str]] = list(call_stack or [])

    @property
    def exhausted(self) -> bool:
        return self.block is None

    @property
    def predict_needed(self) -> bool:
        return self.block is not None and self.block.ends_in_branch

    def step(self, predicted_taken: Optional[bool] = None) -> None:
        """Move to the next block given the predicted branch direction."""
        if self.block is None:
            raise RuntimeError("walker is exhausted")
        block = self.block
        cfg = self.program.function(self.function)
        term = block.terminator
        if term is None:
            if block.ends_in_halt or block.fallthrough is None:
                self.block = None
            else:
                self.block = cfg.block(block.fallthrough)
            return
        op = term.opcode
        if op == Opcode.BR:
            if predicted_taken is None:
                raise ValueError("conditional branch needs a direction")
            if predicted_taken:
                self.block = cfg.block(term.target)
            elif block.fallthrough is not None:
                self.block = cfg.block(block.fallthrough)
            else:
                self.block = None
            return
        if op == Opcode.JMP:
            self.block = cfg.block(term.target)
            return
        if op == Opcode.CALL:
            if block.fallthrough is not None:
                self._call_stack.append((self.function, block.fallthrough))
            self.function = term.target
            self.block = self.program.function(term.target).entry
            return
        if op == Opcode.RET:
            if not self._call_stack:
                self.block = None  # walked off the program
                return
            self.function, return_block = self._call_stack.pop()
            self.block = self.program.function(self.function).block(
                return_block
            )
            return
        raise RuntimeError(f"unexpected terminator {term!r}")
