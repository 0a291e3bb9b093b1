"""Unit tests for natural-loop detection."""

from repro.cfg.builder import CFGBuilder
from repro.cfg.loops import loop_exit_branches, natural_loops
from repro.isa.instructions import Condition


def simple_loop():
    b = CFGBuilder("f")
    b.block("entry").movi(1, 0)
    b.block("head").br(Condition.GE, 1, imm=10, taken="exit")
    b.block("body").addi(1, 1, 1).jmp("head")
    b.block("exit").halt()
    return b.build()


def nested_loops():
    b = CFGBuilder("f")
    b.block("entry").movi(1, 0)
    b.block("ohead").br(Condition.GE, 1, imm=10, taken="done")
    b.block("osetup").movi(2, 0)
    b.block("ihead").br(Condition.GE, 2, imm=3, taken="after")
    b.block("ibody").addi(2, 2, 1).jmp("ihead")
    b.block("after").addi(1, 1, 1).jmp("ohead")
    b.block("done").halt()
    return b.build()


def no_loops():
    b = CFGBuilder("f")
    b.block("a").br(Condition.EQ, 1, imm=0, taken="c")
    b.block("b").jmp("d")
    b.block("c").nop()
    b.block("d").halt()
    return b.build()


class TestNaturalLoops:
    def test_simple_loop_found(self):
        loops = natural_loops(simple_loop())
        assert len(loops) == 1
        loop = loops[0]
        assert loop.header == "head"
        assert loop.blocks == {"head", "body"}

    def test_nested_loops_found(self):
        loops = natural_loops(nested_loops())
        by_header = {loop.header: loop for loop in loops}
        assert set(by_header) == {"ohead", "ihead"}
        assert by_header["ihead"].blocks == {"ihead", "ibody"}
        assert "ihead" in by_header["ohead"].blocks
        assert "after" in by_header["ohead"].blocks
        assert "done" not in by_header["ohead"].blocks

    def test_acyclic_cfg_has_none(self):
        assert natural_loops(no_loops()) == []


class TestLoopExitBranches:
    def test_simple_loop_exit(self):
        cfg = simple_loop()
        exits = loop_exit_branches(cfg)
        assert len(exits) == 1
        block, pc, exit_side = exits[0]
        assert block == "head"
        assert exit_side == "exit"

    def test_innermost_loop_wins(self):
        cfg = nested_loops()
        exits = {block: exit_side for block, _, exit_side in
                 loop_exit_branches(cfg)}
        # ihead exits the INNER loop to 'after' (even though 'after' is
        # still inside the outer loop).
        assert exits["ihead"] == "after"
        assert exits["ohead"] == "done"

    def test_branch_outside_loops_ignored(self):
        assert loop_exit_branches(no_loops()) == []
