"""Unit tests for basic blocks and CFG construction."""

import pytest

from repro.cfg.builder import CFGBuilder
from repro.cfg.graph import BasicBlock, ControlFlowGraph
from repro.isa.instructions import Condition, Instruction, Opcode
from repro.program.program import Program


def diamond_cfg():
    """A -> {B, C} -> D (classic hammock)."""
    b = CFGBuilder("f")
    a = b.block("A")
    a.movi(1, 1)
    a.br(Condition.EQ, 1, imm=0, taken="C")
    b.block("B").addi(2, 2, 1).jmp("D")
    b.block("C").addi(3, 3, 1)
    b.block("D").halt()
    return b.build()


class TestSuccessors:
    def test_branch_successors_taken_first(self):
        cfg = diamond_cfg()
        assert cfg.block("A").successors() == ("C", "B")

    def test_jmp_successor(self):
        cfg = diamond_cfg()
        assert cfg.block("B").successors() == ("D",)

    def test_implicit_fallthrough(self):
        cfg = diamond_cfg()
        assert cfg.block("C").successors() == ("D",)

    def test_halt_has_no_successors(self):
        cfg = diamond_cfg()
        assert cfg.block("D").successors() == ()

    def test_ret_has_no_successors(self):
        b = CFGBuilder("g")
        b.block("entry").addi(1, 1, 1).ret()
        cfg = b.build()
        assert cfg.block("entry").successors() == ()


class TestPredecessors:
    def test_merge_block_predecessors(self):
        cfg = diamond_cfg()
        assert set(cfg.block("D").predecessors) == {"B", "C"}

    def test_entry_has_no_predecessors(self):
        cfg = diamond_cfg()
        assert cfg.block("A").predecessors == ()


class TestValidation:
    def test_duplicate_block_rejected(self):
        b = CFGBuilder("f")
        b.block("A").halt()
        with pytest.raises(ValueError):
            b.block("A")

    def test_unknown_target_rejected(self):
        b = CFGBuilder("f")
        blk = b.block("A")
        blk.br(Condition.EQ, 1, imm=0, taken="nowhere")
        b.block("B").halt()
        with pytest.raises(ValueError):
            b.build()

    def test_falling_off_the_end_rejected(self):
        b = CFGBuilder("f")
        b.block("A").addi(1, 1, 1)  # no terminator, no next block
        with pytest.raises(ValueError):
            b.build()

    def test_instructions_after_terminator_rejected(self):
        b = CFGBuilder("f")
        blk = b.block("A")
        blk.jmp("A")
        with pytest.raises(ValueError):
            blk.addi(1, 1, 1)

    def test_sealed_cfg_rejects_new_blocks(self):
        cfg = diamond_cfg()
        with pytest.raises(RuntimeError):
            cfg.add_block(BasicBlock("E"))


class TestQueries:
    def test_instruction_count(self):
        cfg = diamond_cfg()
        assert cfg.instruction_count() == 2 + 2 + 1 + 1

    def test_conditional_branches(self):
        cfg = diamond_cfg()
        branches = list(cfg.conditional_branches())
        assert len(branches) == 1
        assert branches[0][0] == "A"

    def test_first_pc_is_none_until_the_program_assigns_pcs(self):
        unsealed = BasicBlock("E")
        unsealed.instructions.append(Instruction(Opcode.HALT))
        unsealed.instructions[0].pc = 0x1000
        assert unsealed.first_pc is None
        b = CFGBuilder("main")
        b.block("A").movi(1, 1).br(Condition.EQ, 1, imm=0, taken="A")
        b.block("B").halt()
        cfg = b.build()
        assert cfg.block("A").first_pc is None  # sealed, no PCs yet
        program = Program("p")
        program.add_function(cfg)
        program.seal()
        assert cfg.block("A").first_pc == 0x1000
        assert cfg.block("B").first_pc == 0x1008

    def test_entry_is_first_block(self):
        cfg = diamond_cfg()
        assert cfg.entry.name == "A"

    def test_empty_cfg_entry_raises(self):
        cfg = ControlFlowGraph("empty")
        with pytest.raises(ValueError):
            _ = cfg.entry

    def test_block_names_in_insertion_order(self):
        cfg = diamond_cfg()
        assert [block.name for block in cfg] == ["A", "B", "C", "D"]
