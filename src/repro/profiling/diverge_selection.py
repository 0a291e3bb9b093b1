"""Diverge-branch and CFM-point selection (Section 3.2 of the paper).

The paper's heuristics, verbatim:

* a branch is a *diverge branch candidate* if it causes at least 0.1% of
  the program's total mispredictions;
* a PC is a *CFM point* for a candidate if it shows up as a reconvergence
  point on **both** paths of the branch for at least 20% of its dynamic
  instances, within 120 dynamic instructions of the branch;
* candidates with no qualifying CFM point are dropped;
* the basic machine gets only the most frequent CFM point; the enhanced
  multiple-CFM machine gets all qualifying points.

We additionally compute a per-branch early-exit threshold for the
Section 2.7.2 enhancement (the compiler-selected variant the paper says
works slightly better than a static threshold): 1.5 times the mean
dynamic distance to the primary CFM point, rounded down, plus 8
instructions.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from repro.isa.encoding import DivergeHint, HintTable
from repro.profiling.profiler import (
    ProgramProfile,
    ReconvergenceStats,
)


@dataclasses.dataclass(frozen=True)
class SelectionThresholds:
    """Knobs of the Section 3.2 heuristics (defaults are the paper's)."""

    #: Minimum share of total mispredictions to become a candidate.
    min_misprediction_share: float = 0.001
    #: Minimum per-branch misprediction *rate*.  The paper's share filter
    #: alone assumes SPEC-scale misprediction counts; at synthetic scale it
    #: would mark every branch ever mispredicted, so easy branches would
    #: pay predication overhead.  A rate floor keeps "diverge branch"
    #: meaning *hard-to-predict* branch.
    min_misprediction_rate: float = 0.08
    #: Minimum dynamic executions before a branch is considered (noise floor).
    min_executions: int = 32
    #: Minimum fraction of dynamic instances reaching the CFM point, per
    #: branch direction.
    min_reconvergence_fraction: float = 0.20
    #: Maximum dynamic distance (instructions) from branch to CFM point.
    max_cfm_distance: int = 120
    #: How many CFM points the enhanced machine may carry per branch.
    max_cfm_points: int = 4
    #: Early-exit threshold = int(this factor times the primary CFM
    #: point's mean distance) + 8 instructions.
    early_exit_distance_factor: float = 1.5


@dataclasses.dataclass
class CfmCandidate:
    pc: int
    fraction_taken: float
    fraction_not_taken: float
    mean_distance: float

    @property
    def score(self) -> float:
        """Ranking score: how reliably both paths merge here."""
        return min(self.fraction_taken, self.fraction_not_taken)


@dataclasses.dataclass
class DivergeBranchSelection:
    pc: int
    mispredictions: int
    cfm_points: List[CfmCandidate]

    @property
    def primary(self) -> CfmCandidate:
        return self.cfm_points[0]


def candidate_branch_pcs(
    profile: ProgramProfile,
    thresholds: SelectionThresholds = SelectionThresholds(),
) -> Tuple[int, ...]:
    """Diverge-branch candidates: the 0.1%-of-mispredictions filter."""
    total = profile.total_mispredictions
    if total == 0:
        return ()
    cutoff = thresholds.min_misprediction_share * total
    return tuple(
        stats.pc
        for stats in profile.mispredicting_branches()
        if stats.mispredictions >= cutoff
        and stats.executions >= thresholds.min_executions
        and stats.misprediction_rate >= thresholds.min_misprediction_rate
    )


def qualifying_cfm_points(
    recon: ReconvergenceStats,
    thresholds: SelectionThresholds,
) -> List[CfmCandidate]:
    """CFM candidates for one branch, best first."""
    out = []
    for pc in recon.common_pcs():
        frac_t = recon.fraction(True, pc)
        frac_nt = recon.fraction(False, pc)
        if (
            frac_t < thresholds.min_reconvergence_fraction
            or frac_nt < thresholds.min_reconvergence_fraction
        ):
            continue
        mean_distance = max(
            recon.mean_distance(True, pc), recon.mean_distance(False, pc)
        )
        if mean_distance > thresholds.max_cfm_distance:
            continue
        out.append(CfmCandidate(pc, frac_t, frac_nt, mean_distance))
    # Most reliable merge first; break ties toward the nearest point.
    out.sort(key=lambda c: (-c.score, c.mean_distance, c.pc))
    return out[: thresholds.max_cfm_points]


def select_diverge_branches(
    profile: ProgramProfile,
    reconvergence: Dict[int, ReconvergenceStats],
    thresholds: SelectionThresholds = SelectionThresholds(),
) -> List[DivergeBranchSelection]:
    """Apply the full Section 3.2 pipeline; returns selections sorted by
    misprediction count (worst branch first)."""
    selections = []
    for pc in candidate_branch_pcs(profile, thresholds):
        recon = reconvergence.get(pc)
        if recon is None:
            continue
        cfm_points = qualifying_cfm_points(recon, thresholds)
        if not cfm_points:
            continue
        selections.append(
            DivergeBranchSelection(
                pc, profile.branches[pc].mispredictions, cfm_points
            )
        )
    return selections


def build_hint_table(
    selections: List[DivergeBranchSelection],
    thresholds: SelectionThresholds = SelectionThresholds(),
    multiple_cfm: bool = True,
) -> HintTable:
    """Turn selections into the ISA-level hint table.

    ``multiple_cfm=False`` keeps only the primary CFM point (the basic
    machine ignores the extras anyway, but a binary for the basic machine
    would only encode one)."""
    table = HintTable()
    for selection in selections:
        points = selection.cfm_points if multiple_cfm else [selection.primary]
        early_exit = int(
            thresholds.early_exit_distance_factor
            * selection.primary.mean_distance
        ) + 8
        table.add(
            selection.pc,
            DivergeHint(
                tuple(candidate.pc for candidate in points),
                early_exit_threshold=early_exit,
            ),
        )
    return table
