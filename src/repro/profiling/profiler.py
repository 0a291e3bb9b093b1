"""Trace-driven profiling: edge counts, branch behaviour, reconvergence.

Two passes mirror the paper's two profile runs:

1. :func:`profile_trace` replays the functional trace once, accumulating
   CFG edge counts and per-branch statistics.  Branch mispredictions are
   measured by running a software model of the baseline predictor over the
   trace (the paper profiles on the train input with the real predictor).
2. :func:`collect_reconvergence` replays the trace again, tracking — for
   each candidate branch — which block-start PCs appear within the next
   *N* dynamic instructions after taken and after not-taken instances.
   A PC seen on **both** sides frequently enough is a CFM candidate.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Optional

from repro.branch import make_predictor
from repro.cfg.paths import EdgeProfile
from repro.profiling.windows import ObservationWindows
from repro.program.program import Program
from repro.program.trace import Trace


class BranchStats:
    """Profile of one static conditional branch."""

    __slots__ = (
        "pc",
        "function",
        "block",
        "executions",
        "taken",
        "mispredictions",
    )

    def __init__(self, pc: int, function: str, block: str) -> None:
        self.pc = pc
        self.function = function
        self.block = block
        self.executions = 0
        self.taken = 0
        self.mispredictions = 0

    @property
    def taken_rate(self) -> float:
        return self.taken / self.executions if self.executions else 0.0

    @property
    def misprediction_rate(self) -> float:
        if not self.executions:
            return 0.0
        return self.mispredictions / self.executions

    def __repr__(self) -> str:
        return (
            f"<BranchStats {self.pc:#x} {self.function}/{self.block} "
            f"exec={self.executions} misp={self.mispredictions}>"
        )


class ProgramProfile:
    """Everything profile run 1 learns about one program execution."""

    def __init__(self, program_name: str) -> None:
        self.program_name = program_name
        self.edges: Dict[str, EdgeProfile] = {}
        self.branches: Dict[int, BranchStats] = {}
        self.total_instructions = 0
        self.total_mispredictions = 0

    def edge_profile(self, function: str) -> EdgeProfile:
        if function not in self.edges:
            self.edges[function] = EdgeProfile(function)
        return self.edges[function]

    def mispredicting_branches(self) -> List[BranchStats]:
        """Branches sorted by misprediction count, worst first."""
        return sorted(
            (b for b in self.branches.values() if b.mispredictions),
            key=lambda b: b.mispredictions,
            reverse=True,
        )


def profile_trace(
    program: Program,
    trace: Trace,
    predictor_kind: str = "perceptron",
    predictor_args: Optional[dict] = None,
) -> ProgramProfile:
    """Profile run 1: edge counts + per-branch misprediction counts."""
    profile = ProgramProfile(trace.program_name)
    profile.total_instructions = trace.instruction_count
    predictor = make_predictor(predictor_kind, **(predictor_args or {}))
    prev_function: Optional[str] = None
    prev_block = None
    for record in trace:
        block = record.block
        edges = profile.edge_profile(record.function)
        if prev_block is not None and prev_function == record.function:
            edges.record_edge(prev_block.name, block.name)
        if record.taken is not None:
            instr = block.instructions[-1]
            stats = profile.branches.get(instr.pc)
            if stats is None:
                stats = BranchStats(instr.pc, record.function, block.name)
                profile.branches[instr.pc] = stats
            stats.executions += 1
            if record.taken:
                stats.taken += 1
            prediction = predictor.predict(instr.pc)
            predictor.spec_update(prediction.taken)
            predictor.train(prediction, record.taken)
            if prediction.taken != record.taken:
                stats.mispredictions += 1
                profile.total_mispredictions += 1
                predictor.repair(prediction, record.taken)
        prev_function = record.function
        prev_block = block
    return profile


class ReconvergenceStats:
    """Profile run 2's data for one candidate branch.

    For each direction (taken / not-taken) and each block-start PC seen
    within the window: how many dynamic instances saw it, and the summed
    distance (in dynamic instructions) of its first appearance.
    """

    __slots__ = ("pc", "instances", "seen_count", "distance_sum")

    def __init__(self, pc: int) -> None:
        self.pc = pc
        self.instances = [0, 0]  # [not-taken, taken]
        self.seen_count = [defaultdict(int), defaultdict(int)]
        self.distance_sum = [defaultdict(int), defaultdict(int)]

    def record_instance(self, side: int, first_seen: Dict[int, int]) -> None:
        """One closed observation window (``side`` 1 = taken); see
        :mod:`repro.profiling.windows`."""
        self.instances[side] += 1
        seen = self.seen_count[side]
        dist = self.distance_sum[side]
        for pc, distance in first_seen.items():
            seen[pc] += 1
            dist[pc] += distance

    def fraction(self, taken: bool, pc: int) -> float:
        side = int(taken)
        if not self.instances[side]:
            return 0.0
        return self.seen_count[side][pc] / self.instances[side]

    def mean_distance(self, taken: bool, pc: int) -> float:
        side = int(taken)
        count = self.seen_count[side][pc]
        if not count:
            return float("inf")
        return self.distance_sum[side][pc] / count

    def common_pcs(self) -> Iterable[int]:
        """PCs observed after both directions at least once."""
        return set(self.seen_count[0]) & set(self.seen_count[1])


def collect_reconvergence(
    program: Program,
    trace: Trace,
    candidate_pcs: Iterable[int],
    max_distance: int = 120,
    max_instances_per_branch: int = 4000,
    allow_loop_carried: bool = False,
) -> Dict[int, ReconvergenceStats]:
    """Profile run 2: post-branch block-start observation windows.

    For every sampled dynamic instance of a candidate branch, record the
    block-start PCs fetched within the next ``max_distance`` dynamic
    instructions (the paper's CFM distance cap), split by branch direction.

    With ``allow_loop_carried`` the window stays open when the branch's
    own block re-executes — required when hunting CFM points for *diverge
    loop branches* (the Section 2.7.4 extension), whose not-taken side
    reaches the loop exit only by iterating.
    """
    candidates = set(candidate_pcs)
    stats: Dict[int, ReconvergenceStats] = {
        pc: ReconvergenceStats(pc) for pc in candidates
    }
    sampled: Dict[int, int] = {pc: 0 for pc in candidates}
    windows = ObservationWindows(max_distance, allow_loop_carried)
    observe = windows.observe
    for record in trace:
        block = record.block
        observe(block.first_pc, len(block.instructions))
        if record.taken is not None:
            pc = block.instructions[-1].pc
            if pc in candidates and sampled[pc] < max_instances_per_branch:
                sampled[pc] += 1
                windows.open(stats[pc], int(record.taken), block.first_pc)
    windows.flush()  # windows cut off by program end
    return stats
