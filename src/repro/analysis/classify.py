"""Figure 6: classification of mispredicted conditional branches.

Every mispredicted dynamic branch falls into one of three classes:

* **simple hammock diverge** — a diverge branch whose shape is a simple
  hammock (DHP could predicate it too);
* **complex diverge** — a diverge branch with complex control flow
  (only DMP can predicate it);
* **other complex** — a mispredicting branch for which the compiler found
  no usable CFM point (neither mechanism helps).

The paper reports each class in mispredictions per thousand instructions.
"""

from __future__ import annotations

import dataclasses

from repro.isa.encoding import HintTable
from repro.profiling.profiler import ProgramProfile


@dataclasses.dataclass(frozen=True)
class MispredictionClassification:
    benchmark: str
    total_instructions: int
    simple_hammock_diverge: int
    complex_diverge: int
    other: int

    @property
    def total_mispredictions(self) -> int:
        return self.simple_hammock_diverge + self.complex_diverge + self.other

    def _mpki(self, count: int) -> float:
        if not self.total_instructions:
            return 0.0
        return 1000.0 * count / self.total_instructions

    @property
    def mpki_simple_hammock(self) -> float:
        return self._mpki(self.simple_hammock_diverge)

    @property
    def mpki_complex_diverge(self) -> float:
        return self._mpki(self.complex_diverge)

    @property
    def mpki_other(self) -> float:
        return self._mpki(self.other)

    @property
    def diverge_share(self) -> float:
        """Fraction of mispredictions due to diverge branches (simple or
        complex) — the paper reports 57% on average."""
        if not self.total_mispredictions:
            return 0.0
        diverge = self.simple_hammock_diverge + self.complex_diverge
        return diverge / self.total_mispredictions


def classify_mispredictions(
    benchmark: str,
    profile: ProgramProfile,
    diverge_hints: HintTable,
    hammock_hints: HintTable,
) -> MispredictionClassification:
    """Split profiled mispredictions into the three Figure 6 classes."""
    simple = 0
    complex_diverge = 0
    other = 0
    for pc, stats in profile.branches.items():
        if not stats.mispredictions:
            continue
        if diverge_hints.is_diverge_branch(pc):
            if hammock_hints.is_diverge_branch(pc):
                simple += stats.mispredictions
            else:
                complex_diverge += stats.mispredictions
        else:
            other += stats.mispredictions
    return MispredictionClassification(
        benchmark=benchmark,
        total_instructions=profile.total_instructions,
        simple_hammock_diverge=simple,
        complex_diverge=complex_diverge,
        other=other,
    )
