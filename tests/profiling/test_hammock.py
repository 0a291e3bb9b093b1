"""Unit tests for simple-hammock detection."""

from repro.cfg.builder import CFGBuilder
from repro.isa.instructions import Condition
from repro.profiling.hammock import (
    classify_hammock,
    find_simple_hammocks,
)
from repro.program.program import Program


def build(*cfgs):
    program = Program("t")
    for cfg in cfgs:
        program.add_function(cfg)
    return program.seal()


def if_else_cfg():
    b = CFGBuilder("main")
    b.block("A").br(Condition.EQ, 1, imm=0, taken="C")
    b.block("B").addi(2, 2, 1).jmp("M")
    b.block("C").addi(3, 3, 1)
    b.block("M").halt()
    return b.build()


def if_only_cfg():
    b = CFGBuilder("main")
    b.block("A").br(Condition.EQ, 1, imm=0, taken="M")
    b.block("B").addi(2, 2, 1)
    b.block("M").halt()
    return b.build()


def nested_cfg():
    """Taken side contains another branch: NOT a simple hammock."""
    b = CFGBuilder("main")
    b.block("A").br(Condition.EQ, 1, imm=0, taken="C")
    b.block("B").br(Condition.NE, 2, imm=0, taken="M")
    b.block("B2").addi(2, 2, 1).jmp("M")
    b.block("C").addi(3, 3, 1)
    b.block("M").halt()
    return b.build()


def call_inside_cfg():
    b = CFGBuilder("main")
    b.block("A").br(Condition.EQ, 1, imm=0, taken="C")
    b.block("B").call("helper")
    b.block("B2").jmp("M")
    b.block("C").addi(3, 3, 1)
    b.block("M").halt()
    h = CFGBuilder("helper")
    h.block("h").ret()
    return b.build(), h.build()


class TestClassifyHammock:
    def test_if_else_detected(self):
        cfg = if_else_cfg()
        assert classify_hammock(cfg, "A") == "M"

    def test_if_only_detected(self):
        cfg = if_only_cfg()
        assert classify_hammock(cfg, "A") == "M"

    def test_nested_rejected(self):
        cfg = nested_cfg()
        assert classify_hammock(cfg, "A") is None

    def test_call_inside_rejected(self):
        main_cfg, helper_cfg = call_inside_cfg()
        assert classify_hammock(main_cfg, "A") is None

    def test_non_branch_block(self):
        cfg = if_else_cfg()
        assert classify_hammock(cfg, "B") is None


class TestFindSimpleHammocks:
    def test_hint_table_built(self):
        program = build(if_else_cfg())
        table = find_simple_hammocks(program)
        assert len(table) == 1
        branch_pc = next(iter(table))[0]
        cfg = program.entry_function
        assert table.get(branch_pc).primary_cfm == cfg.block("M").first_pc

    def test_nested_excluded(self):
        program = build(nested_cfg())
        # Only the inner branch (B -> {B2, M}) is a simple if-hammock.
        table = find_simple_hammocks(program)
        cfg = program.entry_function
        inner_pc = cfg.block("B").instructions[-1].pc
        outer_pc = cfg.block("A").instructions[-1].pc
        assert table.is_diverge_branch(inner_pc)
        assert not table.is_diverge_branch(outer_pc)
