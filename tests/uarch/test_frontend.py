"""Unit tests for the fetch-stream helpers (TraceCursor / StaticWalker)."""

import pytest

from repro.cfg.builder import CFGBuilder
from repro.isa.instructions import Condition
from repro.program.interpreter import Interpreter
from repro.program.program import Program
from repro.uarch.frontend import StaticWalker, TraceCursor


def build_program(*cfgs):
    program = Program("t")
    for cfg in cfgs:
        program.add_function(cfg)
    return program.seal()


def diamond_with_call():
    main = CFGBuilder("main")
    main.block("A").movi(1, 1).br(Condition.EQ, 1, imm=1, taken="C")
    main.block("B").addi(2, 2, 1).jmp("D")
    main.block("C").call("helper")
    main.block("CD").nop()
    main.block("D").halt()
    helper = CFGBuilder("helper")
    helper.block("h").addi(3, 3, 1).ret()
    return build_program(main.build(), helper.build())


class TestTraceCursor:
    def test_walks_trace(self):
        program = diamond_with_call()
        trace = Interpreter(program).run()
        cursor = TraceCursor(trace)
        names = []
        while not cursor.exhausted:
            names.append(cursor.record.block.name)
            cursor.advance()
        assert names == ["A", "C", "h", "CD", "D"]

    def test_save_restore(self):
        program = diamond_with_call()
        trace = Interpreter(program).run()
        cursor = TraceCursor(trace)
        cursor.advance()
        saved = cursor.save()
        cursor.advance()
        cursor.restore(saved)
        assert cursor.record.block.name == "C"

    def test_exhausted_only_past_last_record(self):
        program = diamond_with_call()
        trace = Interpreter(program).run()
        cursor = TraceCursor(trace, index=len(trace.records) - 1)
        assert not cursor.exhausted
        assert cursor.record.block.name == "D"
        cursor.advance()
        assert cursor.exhausted


class TestStaticWalker:
    def test_follows_predictions(self):
        program = diamond_with_call()
        cfg = program.entry_function
        walker = StaticWalker(program, "main", cfg.block("A"))
        assert walker.predict_needed
        walker.step(predicted_taken=False)
        assert walker.block.name == "B"
        walker.step()  # jmp
        assert walker.block.name == "D"
        walker.step()  # halt
        assert walker.exhausted

    def test_walks_through_calls_and_returns(self):
        program = diamond_with_call()
        cfg = program.entry_function
        walker = StaticWalker(program, "main", cfg.block("C"))
        walker.step()  # call -> helper entry
        assert walker.function == "helper"
        assert walker.block.name == "h"
        walker.step()  # ret -> back to CD
        assert walker.function == "main"
        assert walker.block.name == "CD"

    def test_ret_with_empty_stack_exhausts(self):
        program = diamond_with_call()
        walker = StaticWalker(
            program, "helper", program.function("helper").block("h")
        )
        walker.step()
        assert walker.exhausted

    def test_seeded_call_stack_allows_return(self):
        program = diamond_with_call()
        walker = StaticWalker(
            program,
            "helper",
            program.function("helper").block("h"),
            call_stack=[("main", "CD")],
        )
        walker.step()
        assert not walker.exhausted
        assert walker.block.name == "CD"

    def test_branch_requires_direction(self):
        program = diamond_with_call()
        walker = StaticWalker(
            program, "main", program.entry_function.block("A")
        )
        with pytest.raises(ValueError):
            walker.step()

    def test_exhausted_walker_rejects_step(self):
        program = diamond_with_call()
        walker = StaticWalker(
            program, "main", program.entry_function.block("D")
        )
        walker.step()
        with pytest.raises(RuntimeError):
            walker.step()
