"""Unit tests for the Program container and PC assignment."""

import pytest

from repro.cfg.builder import CFGBuilder
from repro.isa.instructions import INSTRUCTION_BYTES
from repro.program.program import ENTRY_FUNCTION, Program


def two_function_program():
    main = CFGBuilder("main")
    main.block("entry").movi(1, 1).call("helper")
    main.block("end").halt()
    helper = CFGBuilder("helper")
    helper.block("h").addi(1, 1, 1).ret()
    program = Program("p")
    program.add_function(main.build())
    program.add_function(helper.build())
    return program.seal()


class TestConstruction:
    def test_requires_main(self):
        program = Program("p")
        b = CFGBuilder("not_main")
        b.block("x").halt()
        program.add_function(b.build())
        with pytest.raises(ValueError):
            program.seal()

    def test_duplicate_function_rejected(self):
        program = Program("p")
        b = CFGBuilder("main")
        b.block("x").halt()
        program.add_function(b.build())
        b2 = CFGBuilder("main")
        b2.block("y").halt()
        with pytest.raises(ValueError):
            program.add_function(b2.build())

    def test_unknown_call_target_rejected(self):
        program = Program("p")
        b = CFGBuilder("main")
        b.block("entry").call("ghost")
        b.block("end").halt()
        program.add_function(b.build())
        with pytest.raises(ValueError):
            program.seal()

    def test_sealed_rejects_new_functions(self):
        program = two_function_program()
        extra = CFGBuilder("extra")
        extra.block("x").halt()
        with pytest.raises(RuntimeError):
            program.add_function(extra.build())

    def test_seal_is_idempotent(self):
        program = two_function_program()
        assert program.seal() is program


class TestPcAssignment:
    def test_pcs_contiguous_and_unique(self):
        program = two_function_program()
        pcs = [
            instr.pc
            for cfg in program.functions()
            for block in cfg
            for instr in block.instructions
        ]
        assert len(pcs) == len(set(pcs))
        assert sorted(pcs) == pcs
        deltas = {b - a for a, b in zip(pcs, pcs[1:])}
        assert deltas == {INSTRUCTION_BYTES}

    def test_locate_roundtrip(self):
        program = two_function_program()
        for cfg in program.functions():
            for block in cfg:
                for index, instr in enumerate(block.instructions):
                    function, found_block, found_index = program.locate(
                        instr.pc
                    )
                    assert function == cfg.name
                    assert found_block is block
                    assert found_index == index

    def test_block_starting_at(self):
        program = two_function_program()
        entry = program.entry_function.entry
        assert program.block_starting_at(entry.first_pc) == ("main", entry)
        # Second instruction of a block is not a block start.
        second_pc = entry.instructions[1].pc
        assert program.block_starting_at(second_pc) is None
        assert program.block_starting_at(0xDEAD0000) is None

    def test_unsealed_queries_rejected(self):
        program = Program("p")
        b = CFGBuilder("main")
        b.block("x").halt()
        program.add_function(b.build())
        with pytest.raises(RuntimeError):
            program.locate(0x1000)


class TestQueries:
    def test_entry_function(self):
        program = two_function_program()
        assert program.entry_function.name == ENTRY_FUNCTION

    def test_contains(self):
        program = two_function_program()
        assert "helper" in program
        assert "ghost" not in program

    def test_instruction_count(self):
        program = two_function_program()
        assert program.instruction_count() == 5
