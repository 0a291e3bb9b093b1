"""Return address stack (Table 2: 64 entries)."""

from __future__ import annotations

from typing import List, Optional, Tuple


class ReturnAddressStack:
    """A fixed-depth circular return-address predictor stack.

    On overflow the oldest entry is overwritten (standard hardware
    behaviour); on underflow prediction fails (``None``).  Supports
    checkpointing so speculation down wrong paths can be repaired.
    """

    def __init__(self, depth: int = 64) -> None:
        if depth <= 0:
            raise ValueError("depth must be positive")
        self.depth = depth
        self._stack: List[int] = []

    def push(self, return_pc: int) -> None:
        if len(self._stack) >= self.depth:
            del self._stack[0]
        self._stack.append(return_pc)

    def pop(self) -> Optional[int]:
        if not self._stack:
            return None
        return self._stack.pop()

    def snapshot(self) -> Tuple[int, ...]:
        return tuple(self._stack)

    def restore(self, snap: Tuple[int, ...]) -> None:
        self._stack = list(snap[-self.depth:])
