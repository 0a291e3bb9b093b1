"""Natural-loop detection.

Standard dominator-based analysis: a *back edge* is a CFG edge ``u -> v``
where ``v`` dominates ``u``; the *natural loop* of that back edge is ``v``
(the header) plus every block that can reach ``u`` without passing through
``v``.  Loops sharing a header are merged.

Used by the diverge-loop-branch compiler pass to find loop-exit branches
(a branch inside a loop with exactly one successor outside it), and
available as general CFG substrate.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.cfg.dominators import compute_dominators
from repro.cfg.graph import ControlFlowGraph


class NaturalLoop:
    """One natural loop: header block + the set of member blocks."""

    __slots__ = ("header", "blocks")

    def __init__(self, header: str, blocks: Set[str]) -> None:
        self.header = header
        self.blocks = blocks

    def __contains__(self, block_name: str) -> bool:
        return block_name in self.blocks

    def __repr__(self) -> str:
        return f"<NaturalLoop {self.header} ({len(self.blocks)} blocks)>"


def _dominates(idom: Dict[str, str], a: str, b: str) -> bool:
    """Does ``a`` dominate ``b``?  (idom maps each block to its immediate
    dominator, entry to None.)"""
    node = b
    while node is not None:
        if node == a:
            return True
        node = idom.get(node)
    return False


def natural_loops(cfg: ControlFlowGraph) -> List[NaturalLoop]:
    """All natural loops of the function, loops sharing a header merged."""
    idom = compute_dominators(cfg)
    bodies: Dict[str, Set[str]] = {}
    for block in cfg:
        for succ in block.successors():
            if succ in idom and _dominates(idom, succ, block.name):
                # back edge block -> succ: collect the loop body.
                header = succ
                body = bodies.setdefault(header, {header})
                stack = [block.name]
                while stack:
                    node = stack.pop()
                    if node in body:
                        continue
                    body.add(node)
                    stack.extend(cfg.block(node).predecessors)
    return [
        NaturalLoop(header, blocks)
        for header, blocks in sorted(bodies.items())
    ]


def loop_exit_branches(
    cfg: ControlFlowGraph,
) -> List[Tuple[str, int, str]]:
    """Conditional branches that exit a natural loop.

    Returns ``(block_name, branch_pc, exit_successor)`` for every branch
    inside a loop with exactly one successor outside the *innermost* loop
    containing it.
    """
    loops = natural_loops(cfg)
    out = []
    for block_name, instr in cfg.conditional_branches():
        containing = [loop for loop in loops if block_name in loop]
        if not containing:
            continue
        innermost = min(containing, key=lambda loop: len(loop.blocks))
        successors = cfg.block(block_name).successors()
        outside = [s for s in successors if s not in innermost]
        if len(outside) == 1:
            out.append((block_name, instr.pc, outside[0]))
    return out
