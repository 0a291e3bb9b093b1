"""Unit tests for the Figure 1 and Figure 6 analyses."""

from repro.analysis.classify import (
    MispredictionClassification,
    classify_mispredictions,
)
from repro.analysis.wrongpath import WrongPathBreakdown, wrong_path_breakdown
from repro.isa.encoding import DivergeHint, HintTable
from repro.profiling.profiler import BranchStats, ProgramProfile
from repro.uarch.stats import SimStats


class TestWrongPathBreakdown:
    def test_percentages(self):
        stats = SimStats(benchmark="x")
        stats.fetched_correct = 50
        stats.fetched_wrong_cd = 30
        stats.fetched_wrong_ci = 20
        b = wrong_path_breakdown(stats)
        assert b.fetched_total == 100
        assert b.pct_wrong_cd == 30.0
        assert b.pct_wrong_ci == 20.0
        assert b.pct_wrong == 50.0

    def test_zero_safe(self):
        b = WrongPathBreakdown("x", 0, 0, 0)
        assert b.pct_wrong == 0.0


def make_profile(branch_defs):
    """branch_defs: list of (pc, executions, mispredictions)."""
    profile = ProgramProfile("x")
    profile.total_instructions = 10_000
    for pc, executions, mispredictions in branch_defs:
        stats = BranchStats(pc, "main", f"b{pc}")
        stats.executions = executions
        stats.mispredictions = mispredictions
        profile.branches[pc] = stats
        profile.total_mispredictions += mispredictions
    return profile


class TestClassification:
    def test_three_way_split(self):
        profile = make_profile(
            [(0x10, 100, 40), (0x20, 100, 30), (0x30, 100, 20)]
        )
        diverge = HintTable()
        diverge.add(0x10, DivergeHint((1,)))
        diverge.add(0x20, DivergeHint((2,)))
        hammocks = HintTable()
        hammocks.add(0x10, DivergeHint((1,)))
        result = classify_mispredictions("x", profile, diverge, hammocks)
        assert result.simple_hammock_diverge == 40
        assert result.complex_diverge == 30
        assert result.other == 20
        assert result.total_mispredictions == 90

    def test_mpki_values(self):
        profile = make_profile([(0x10, 100, 50)])
        diverge = HintTable()
        diverge.add(0x10, DivergeHint((1,)))
        result = classify_mispredictions(
            "x", profile, diverge, HintTable()
        )
        assert result.mpki_complex_diverge == 5.0
        assert result.mpki_simple_hammock == 0.0

    def test_shares(self):
        profile = make_profile([(0x10, 100, 60), (0x20, 100, 40)])
        diverge = HintTable()
        diverge.add(0x10, DivergeHint((1,)))
        hammocks = HintTable()
        hammocks.add(0x10, DivergeHint((1,)))
        result = classify_mispredictions("x", profile, diverge, hammocks)
        assert result.diverge_share == 0.6

    def test_zero_mispredictions(self):
        result = MispredictionClassification("x", 1000, 0, 0, 0)
        assert result.diverge_share == 0.0
        assert result.mpki_other == 0.0

    def test_never_mispredicted_branches_ignored(self):
        profile = make_profile([(0x10, 100, 0), (0x20, 100, 10)])
        result = classify_mispredictions(
            "x", profile, HintTable(), HintTable()
        )
        assert result.other == 10
