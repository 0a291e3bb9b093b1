"""The compiler side of the diverge-merge processor.

The paper's compiler identifies diverge branches and their CFM points from
two profile runs (Section 3.2).  This package reproduces that pipeline:

* :mod:`repro.profiling.profiler` — replay the functional trace to collect
  edge profiles and per-branch misprediction counts (profile run 1), and
  the per-branch reconvergence statistics (profile run 2);
* :mod:`repro.profiling.windows` — the post-branch observation window
  rule behind profile run 2, shared with the hint-free machine's
  run-time learner (:mod:`repro.core.mergepoint`, which also derives
  hint tables offline via ``learn_hints_from_trace``);
* :mod:`repro.profiling.hammock` — static detection of *simple hammocks*
  (if / if-else with no other control flow inside), the only shapes DHP
  can predicate;
* :mod:`repro.profiling.diverge_selection` — the paper's selection
  heuristics (0.1% of total mispredictions; CFM point on both paths for at
  least 20% of dynamic instances; at most 120 dynamic instructions away),
  producing the :class:`~repro.isa.encoding.HintTable` the hardware
  consumes.
"""

from repro.profiling.profiler import (
    BranchStats,
    ProgramProfile,
    ReconvergenceStats,
    collect_reconvergence,
    profile_trace,
)
from repro.profiling.hammock import find_simple_hammocks
from repro.profiling.diverge_selection import (
    SelectionThresholds,
    candidate_branch_pcs,
    select_diverge_branches,
    build_hint_table,
)
from repro.profiling.loop_selection import (
    find_loop_exit_branches,
    merge_hint_tables,
    select_diverge_loop_branches,
)
from repro.profiling.static_selection import select_diverge_branches_static

__all__ = [
    "BranchStats",
    "ProgramProfile",
    "ReconvergenceStats",
    "collect_reconvergence",
    "profile_trace",
    "find_simple_hammocks",
    "SelectionThresholds",
    "candidate_branch_pcs",
    "select_diverge_branches",
    "build_hint_table",
    "find_loop_exit_branches",
    "merge_hint_tables",
    "select_diverge_loop_branches",
    "select_diverge_branches_static",
]
