"""Wish-branch selection (the Section 5.2 comparison point).

Wish branches (Kim et al., MICRO 2005) are the closest prior work the
paper compares against qualitatively: the compiler *if-converts* the code
between a branch and its join point into predicated code, and the
hardware chooses at run time — per dynamic instance — between predicated
execution and normal branch prediction.  The paper lists three advantages
DMP keeps over wish branches:

1. wish branches cannot predicate regions containing **function calls**
   (full if-conversion required);
2. predicated execution fetches **every basic block** between the branch
   and the join point, while DMP fetches only the two predictor-guided
   paths;
3. a wish branch has a **single, statically chosen** join point — the
   immediate post-dominator — where DMP picks frequent-path CFM points
   (and, enhanced, several of them).

This module implements the wish-branch *compiler*: it marks exactly the
branches a real if-converter could handle — an acyclic, call-free,
return-free region from the branch to its immediate post-dominator,
small enough to predicate — so the ``wish`` machine mode
(:class:`repro.uarch.config.MachineConfig`) gives the comparison teeth.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.cfg.dominators import immediate_postdominators
from repro.cfg.graph import ControlFlowGraph
from repro.isa.encoding import DivergeHint, HintTable
from repro.profiling.profiler import ProgramProfile
from repro.program.program import Program


def wish_region(
    cfg: ControlFlowGraph, block_name: str, merge_name: str
) -> Optional[List[str]]:
    """The blocks strictly between a branch and its join point, or None
    if the region is not if-convertible (contains calls, returns, cycles,
    or escapes the merge)."""
    region: List[str] = []
    seen: Set[str] = set()
    stack = [
        succ
        for succ in cfg.block(block_name).successors()
        if succ != merge_name
    ]
    while stack:
        name = stack.pop()
        if name in seen or name == merge_name:
            continue
        if name == block_name:
            return None  # cyclic region: not if-convertible
        seen.add(name)
        region.append(name)
        block = cfg.block(name)
        if block.ends_in_call or block.ends_in_return or block.ends_in_halt:
            return None  # calls/returns cannot be predicated
        successors = block.successors()
        if not successors:
            return None  # falls off the region without merging
        stack.extend(s for s in successors if s != merge_name)
    return region


def select_wish_branches(
    program: Program,
    max_region_instructions: int = 120,
    profile: Optional[ProgramProfile] = None,
    min_misprediction_rate: float = 0.0,
) -> Tuple[HintTable, Dict[int, List[str]]]:
    """Mark every if-convertible branch as a wish branch.

    Returns the hint table (join point as the single CFM entry) plus the
    per-branch region map the wish machine predicates from.  An optional
    profile applies the same hard-to-predict filter the DMP selection
    uses, for apples-to-apples machine comparisons.
    """
    table = HintTable()
    regions: Dict[int, List[str]] = {}
    for cfg in program.functions():
        ipostdom = immediate_postdominators(cfg)
        for block_name, instr in cfg.conditional_branches():
            merge = ipostdom.get(block_name)
            if merge is None:
                continue
            region = wish_region(cfg, block_name, merge)
            if region is None:
                continue
            size = sum(len(cfg.block(name)) for name in region)
            if size > max_region_instructions:
                continue
            if profile is not None:
                stats = profile.branches.get(instr.pc)
                if stats is None:
                    continue
                if stats.misprediction_rate < min_misprediction_rate:
                    continue
            table.add(
                instr.pc,
                DivergeHint((cfg.block(merge).first_pc,)),
            )
            regions[instr.pc] = region
    return table, regions
