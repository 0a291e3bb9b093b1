"""Frequently-executed-path utilities.

The CFM-point selection heuristic (Section 3.2) works on "frequently
executed paths" collected by profiling.  This module provides the profile
container (:class:`EdgeProfile`) and the graph walks the selection heuristic
and the enhanced mechanisms use:

* :func:`frequent_successors` — the successors of a block whose edges carry
  at least a given fraction of the block's outgoing executions;
* :func:`walk_frequent_path` — follow the single most frequent edge from a
  starting block, enumerating the blocks on the hot path;
* :func:`reachable_within` — blocks reachable from a block within a dynamic
  instruction budget (the paper caps CFM points at 120 instructions).
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Dict, Iterator, List, Set, Tuple

from repro.cfg.graph import ControlFlowGraph


class EdgeProfile:
    """Execution counts for CFG edges of one function.

    Edges are ``(src_block, dst_block)`` name pairs.  Counts are accumulated
    by the profiler while replaying a functional trace.
    """

    def __init__(self, function: str) -> None:
        self.function = function
        self._counts: Dict[Tuple[str, str], int] = defaultdict(int)

    def record_edge(self, src: str, dst: str, count: int = 1) -> None:
        self._counts[(src, dst)] += count

    def edge_count(self, src: str, dst: str) -> int:
        return self._counts.get((src, dst), 0)

    def edges(self) -> Iterator[Tuple[str, str, int]]:
        for (src, dst), count in sorted(self._counts.items()):
            yield src, dst, count

    def __repr__(self) -> str:
        return (
            f"<EdgeProfile {self.function} ({len(self._counts)} edges, "
            f"{sum(self._counts.values())} executions)>"
        )


def frequent_successors(
    cfg: ControlFlowGraph,
    profile: EdgeProfile,
    block_name: str,
    min_fraction: float = 0.1,
) -> List[str]:
    """Successors of ``block_name`` reached by at least ``min_fraction`` of
    its profiled outgoing executions.  Falls back to all static successors
    when the block was never profiled (cold code).
    """
    succs = cfg.block(block_name).successors()
    total = sum(profile.edge_count(block_name, s) for s in succs)
    if total == 0:
        return list(succs)
    return [
        s
        for s in succs
        if profile.edge_count(block_name, s) / total >= min_fraction
    ]


def walk_frequent_path(
    cfg: ControlFlowGraph,
    profile: EdgeProfile,
    start: str,
    max_blocks: int = 64,
) -> List[str]:
    """Follow the most frequent outgoing edge from ``start`` until an exit
    block, a revisited block, or ``max_blocks`` steps.  Returns the block
    names on the path, starting with ``start``.
    """
    path = [start]
    seen: Set[str] = {start}
    current = start
    while len(path) < max_blocks:
        succs = cfg.block(current).successors()
        if not succs:
            break
        best = max(succs, key=lambda s: profile.edge_count(current, s))
        if best in seen:
            break
        path.append(best)
        seen.add(best)
        current = best
    return path


def reachable_within(
    cfg: ControlFlowGraph,
    start: str,
    max_instructions: int,
    restrict_to: Set[str] = None,
) -> Dict[str, int]:
    """Blocks reachable from ``start`` within ``max_instructions`` dynamic
    instructions, mapped to the *minimum* instruction distance at which each
    block's first instruction is reached.

    ``start`` itself is included at distance 0.  ``restrict_to`` optionally
    limits the walk to a subset of blocks (e.g., the frequently-executed
    subgraph).
    """
    dist: Dict[str, int] = {start: 0}
    queue = deque([start])
    while queue:
        name = queue.popleft()
        block = cfg.block(name)
        next_dist = dist[name] + len(block)
        if next_dist > max_instructions:
            continue
        for succ in block.successors():
            if restrict_to is not None and succ not in restrict_to:
                continue
            if succ not in dist or next_dist < dist[succ]:
                dist[succ] = next_dist
                queue.append(succ)
    return dist
