"""Post-branch observation windows: the statistic every merge-point
learner is built on.

Profile run 2 (Section 3.2) picks CFM points from the block-start PCs
that follow both directions of a branch within 120 dynamic
instructions, and the hint-free machine (Collins et al., Section 5.4;
Pruett & Patt's dynamic merge-point prediction) learns the same
statistic from the retired stream.  The rule, stated once:

* a window opens when a conditional branch retires;
* it records each later block-start PC at the distance (dynamic
  instructions after the branch) where that PC first appears;
* it closes when the branch's own block runs again — a later "merge"
  would be loop-carried, and the paper's mainline compiler leaves loop
  diverge branches to future work (Section 2.7.4) — unless the windows
  allow loop-carried merges, or once it has recorded the block that
  uses up its instruction budget.

On close a window calls its sink's ``record_instance(side, first_seen)``
with ``side`` 0 (not taken) or 1 (taken) and ``first_seen`` mapping
each recorded PC to its distance.  :meth:`ObservationWindows.flush`
closes every window still open (a trace that ends mid-window).
"""

from __future__ import annotations

from typing import Dict, List


class _OpenWindow:
    __slots__ = ("sink", "side", "own_pc", "left", "first_seen")

    def __init__(self, sink, side: int, own_pc: int, budget: int) -> None:
        self.sink = sink
        self.side = side
        self.own_pc = own_pc
        #: Instructions left in the budget.
        self.left = budget
        self.first_seen: Dict[int, int] = {}


class ObservationWindows:
    """The open windows over one retired block stream, all sharing one
    instruction budget."""

    __slots__ = ("budget", "allow_loop_carried", "_open")

    def __init__(self, budget: int, allow_loop_carried: bool = False) -> None:
        self.budget = budget
        self.allow_loop_carried = allow_loop_carried
        self._open: List[_OpenWindow] = []

    def open(self, sink, side: int, own_pc: int) -> None:
        """A branch whose block starts at ``own_pc`` retired in direction
        ``side``: start recording for ``sink``."""
        self._open.append(_OpenWindow(sink, side, own_pc, self.budget))

    def observe(self, block_pc: int, size: int) -> None:
        """A ``size``-instruction block starting at ``block_pc`` retired:
        feed it to every open window, closing the ones it ends."""
        windows = self._open
        if not windows:
            return
        budget = self.budget
        loop_carried = self.allow_loop_carried
        closed = False
        for window in windows:
            if block_pc == window.own_pc and not loop_carried:
                window.left = 0  # any later merge would be loop-carried
            else:
                first_seen = window.first_seen
                if block_pc not in first_seen:
                    first_seen[block_pc] = budget - window.left
                window.left -= size
            if window.left <= 0:
                window.sink.record_instance(window.side, window.first_seen)
                closed = True
        if closed:
            self._open = [w for w in windows if w.left > 0]

    def flush(self) -> None:
        """Close every window still open, oldest first."""
        for window in self._open:
            window.sink.record_instance(window.side, window.first_seen)
        self._open = []
