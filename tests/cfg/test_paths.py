"""Unit tests for frequently-executed-path utilities."""

from repro.cfg.builder import CFGBuilder
from repro.cfg.paths import (
    EdgeProfile,
    frequent_successors,
    reachable_within,
    walk_frequent_path,
)
from repro.isa.instructions import Condition


def chain_cfg():
    """A -> {B, C}; B -> D; C -> D; D -> E."""
    b = CFGBuilder("f")
    b.block("A").br(Condition.EQ, 1, imm=0, taken="C")
    b.block("B").nop(3).jmp("D")
    b.block("C").nop(5)
    b.block("D").nop(2)
    b.block("E").halt()
    return b.build()


class TestEdgeProfile:
    def test_counts_accumulate(self):
        p = EdgeProfile("f")
        p.record_edge("A", "B")
        p.record_edge("A", "B", count=4)
        p.record_edge("A", "C")
        assert p.edge_count("A", "B") == 5
        assert p.edge_count("A", "C") == 1
        assert p.edge_count("A", "Z") == 0

    def test_edges_iteration_sorted(self):
        p = EdgeProfile("f")
        p.record_edge("B", "C", 2)
        p.record_edge("A", "B", 1)
        assert list(p.edges()) == [("A", "B", 1), ("B", "C", 2)]


class TestFrequentSuccessors:
    def test_filters_rare_edges(self):
        cfg = chain_cfg()
        p = EdgeProfile("f")
        p.record_edge("A", "B", 95)
        p.record_edge("A", "C", 5)
        assert frequent_successors(cfg, p, "A", min_fraction=0.1) == ["B"]
        assert set(frequent_successors(cfg, p, "A", min_fraction=0.01)) == {
            "B",
            "C",
        }

    def test_cold_block_falls_back_to_static(self):
        cfg = chain_cfg()
        p = EdgeProfile("f")
        assert set(frequent_successors(cfg, p, "A")) == {"B", "C"}


class TestWalkFrequentPath:
    def test_follows_hot_edges(self):
        cfg = chain_cfg()
        p = EdgeProfile("f")
        p.record_edge("A", "B", 90)
        p.record_edge("A", "C", 10)
        p.record_edge("B", "D", 90)
        p.record_edge("D", "E", 100)
        assert walk_frequent_path(cfg, p, "A") == ["A", "B", "D", "E"]

    def test_stops_at_revisit(self):
        b = CFGBuilder("loop")
        b.block("H").br(Condition.GE, 1, imm=10, taken="X")
        b.block("B").jmp("H")
        b.block("X").halt()
        cfg = b.build()
        p = EdgeProfile("loop")
        p.record_edge("H", "B", 99)
        p.record_edge("B", "H", 99)
        p.record_edge("H", "X", 1)
        assert walk_frequent_path(cfg, p, "H") == ["H", "B"]

    def test_respects_max_blocks(self):
        cfg = chain_cfg()
        p = EdgeProfile("f")
        p.record_edge("A", "B", 1)
        p.record_edge("B", "D", 1)
        p.record_edge("D", "E", 1)
        assert walk_frequent_path(cfg, p, "A", max_blocks=2) == ["A", "B"]


class TestReachableWithin:
    def test_distances_count_instructions(self):
        cfg = chain_cfg()
        # A has 1 instruction, B has 4 (3 nops + jmp), C has 5.
        dist = reachable_within(cfg, "A", max_instructions=100)
        assert dist["A"] == 0
        assert dist["B"] == 1
        assert dist["C"] == 1
        assert dist["D"] == 5  # min(1+4, 1+5)
        assert dist["E"] == 7

    def test_budget_cuts_off(self):
        cfg = chain_cfg()
        dist = reachable_within(cfg, "A", max_instructions=4)
        assert "D" not in dist
        assert "B" in dist

    def test_restriction(self):
        cfg = chain_cfg()
        dist = reachable_within(
            cfg, "A", max_instructions=100, restrict_to={"B", "D", "E"}
        )
        assert "C" not in dist
        assert dist["D"] == 5
