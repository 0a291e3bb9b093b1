"""Figure 1: wrong-path instruction breakdown on the baseline machine.

The paper measures, for the baseline processor, what fraction of all
fetched instructions are wrong-path, and how much of the wrong path is
control-*independent* (would be refetched identically after the flush).
The timing model collects both counters during its wrong-path walks; this
module just packages them.
"""

from __future__ import annotations

import dataclasses

from repro.uarch.stats import SimStats


@dataclasses.dataclass(frozen=True)
class WrongPathBreakdown:
    benchmark: str
    fetched_total: int
    wrong_control_dependent: int
    wrong_control_independent: int

    @property
    def pct_wrong(self) -> float:
        if not self.fetched_total:
            return 0.0
        wrong = self.wrong_control_dependent + self.wrong_control_independent
        return 100.0 * wrong / self.fetched_total

    @property
    def pct_wrong_cd(self) -> float:
        if not self.fetched_total:
            return 0.0
        return 100.0 * self.wrong_control_dependent / self.fetched_total

    @property
    def pct_wrong_ci(self) -> float:
        if not self.fetched_total:
            return 0.0
        return 100.0 * self.wrong_control_independent / self.fetched_total


def wrong_path_breakdown(stats: SimStats) -> WrongPathBreakdown:
    """Package a baseline run's fetch counters as the Figure 1 data point."""
    return WrongPathBreakdown(
        benchmark=stats.benchmark,
        fetched_total=stats.fetched_total,
        wrong_control_dependent=stats.fetched_wrong_cd,
        wrong_control_independent=stats.fetched_wrong_ci,
    )
