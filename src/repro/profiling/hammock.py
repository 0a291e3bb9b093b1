"""Static detection of simple hammocks (the DHP-predicable shapes).

Dynamic Hammock Predication (Klauser et al.) can only predicate *simple
hammock* branches: ``if`` or ``if-else`` structures with no other control
flow inside.  Concretely, a branch ending block ``A`` with taken successor
``T`` and fall-through successor ``F`` is a simple hammock when either:

* **if-else**: ``T`` and ``F`` are straight-line blocks (no conditional
  branch, call or return inside) whose single successor is the same merge
  block ``M``; or
* **if**: one of ``T``/``F`` *is* the merge block ``M`` and the other is a
  straight-line block whose single successor is ``M``.

The resulting :class:`~repro.isa.encoding.HintTable` marks the merge block
as the (single) CFM point, which for these shapes coincides with the
immediate post-dominator.
"""

from __future__ import annotations

from typing import Optional

from repro.cfg.graph import BasicBlock, ControlFlowGraph
from repro.isa.encoding import DivergeHint, HintTable
from repro.isa.instructions import Opcode
from repro.program.program import Program


def _is_straight_line_side(block: BasicBlock) -> bool:
    """A hammock side may contain no control flow other than an optional
    terminating JMP to the merge point."""
    for instr in block.instructions[:-1]:
        if instr.is_control:
            return False
    term = block.terminator
    return term is None or term.opcode == Opcode.JMP


def _single_successor(block: BasicBlock) -> Optional[str]:
    succs = block.successors()
    return succs[0] if len(succs) == 1 else None


def classify_hammock(
    cfg: ControlFlowGraph, block_name: str
) -> Optional[str]:
    """If the branch ending ``block_name`` forms a simple hammock, return
    the merge block's name; otherwise None."""
    block = cfg.block(block_name)
    if not block.ends_in_branch:
        return None
    taken_name, fall_name = block.successors()
    taken = cfg.block(taken_name)
    fall = cfg.block(fall_name)
    # if-else shape
    if _is_straight_line_side(taken) and _is_straight_line_side(fall):
        taken_merge = _single_successor(taken)
        fall_merge = _single_successor(fall)
        if (
            taken_merge is not None
            and taken_merge == fall_merge
            and taken_merge not in (taken_name, fall_name, block_name)
        ):
            return taken_merge
    # if shape: one side is the merge itself
    for side, merge_candidate in ((taken, fall_name), (fall, taken_name)):
        if side.name == merge_candidate:
            continue
        if (
            _is_straight_line_side(side)
            and _single_successor(side) == merge_candidate
            and merge_candidate != block_name
        ):
            return merge_candidate
    return None


def find_simple_hammocks(
    program: Program,
    min_mispredictions: int = 0,
    profile=None,
    min_misprediction_rate: float = 0.0,
) -> HintTable:
    """Build a DHP hint table from every simple hammock in the program.

    When a :class:`~repro.profiling.profiler.ProgramProfile` is supplied,
    only branches with at least ``min_mispredictions`` profiled
    mispredictions and at least ``min_misprediction_rate`` are marked
    (DHP, like DMP, targets the branches worth predicating)."""
    table = HintTable()
    for cfg in program.functions():
        for block_name, instr in cfg.conditional_branches():
            merge = classify_hammock(cfg, block_name)
            if merge is None:
                continue
            if profile is not None:
                stats = profile.branches.get(instr.pc)
                if stats is None or stats.mispredictions < min_mispredictions:
                    continue
                if stats.misprediction_rate < min_misprediction_rate:
                    continue
            merge_pc = cfg.block(merge).first_pc
            table.add(instr.pc, DivergeHint((merge_pc,)))
    return table

