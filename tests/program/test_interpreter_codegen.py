"""Edge cases of the interpreter's block codegen.

Each program here is run by both the block-compiled interpreter and the
per-instruction reference loop; beyond the hand-checked values, the two
must agree on the trace, the register file and memory.
"""

import pickle

import pytest

from repro.cfg.builder import CFGBuilder
from repro.cfg.graph import BasicBlock
from repro.isa.instructions import (
    Condition,
    Instruction,
    Opcode,
    evaluate_condition,
)
from repro.program.interpreter import (
    ExecutionLimitExceeded,
    Interpreter,
    block_source,
    compile_block,
)
from repro.program.program import Program

from tests.program.reference_interpreter import ReferenceInterpreter, run_both

_MASK = (1 << 64) - 1


def _program(*cfgs):
    program = Program("codegen")
    for cfg in cfgs:
        program.add_function(cfg)
    return program.seal()


def _single(emit):
    """A one-block ``main`` whose body ``emit`` writes, then HALT."""
    b = CFGBuilder("main")
    blk = b.block("entry")
    emit(blk)
    blk.halt()
    return _program(b.build())


class TestZeroRegister:
    def test_writes_to_r0_are_dropped(self):
        def emit(blk):
            blk.movi(0, 99).addi(0, 0, 5).movi(1, 3).add(0, 1, 1)
            blk.addi(2, 0, 7)  # r0 still reads as zero
        interp = run_both(_single(emit))[0]
        assert interp.registers.read(0) == 0
        assert interp.registers.read(2) == 7

    def test_load_into_r0_still_records_its_address(self):
        def emit(blk):
            blk.movi(1, 40).load(0, 1, offset=2).load(3, 1, offset=2)
        interp = run_both(_single(emit), words={42: 11})[0]
        assert interp.registers.read(0) == 0
        assert interp.registers.read(3) == 11

    def test_r0_write_emits_no_statement(self):
        b = CFGBuilder("main")
        b.block("entry").movi(0, 1).addi(0, 0, 2).halt()
        source = block_source(b.build().block("entry"))
        assert "R[0]" not in source


class TestImmediates:
    @pytest.mark.parametrize("imm", (-1, -5, 1 << 63, (1 << 64) - 3, 1 << 70))
    def test_alu_immediates_wrap_like_the_reference(self, imm):
        def emit(blk):
            blk.movi(1, 0x0F0F_0F0F_0F0F_0F0F)
            blk.addi(2, 1, imm).andi(3, 1, imm).xori(4, 1, imm).movi(5, imm)
            blk.addi(6, 0, imm)  # constant source
        regs = run_both(_single(emit))[0].registers
        base = 0x0F0F_0F0F_0F0F_0F0F
        assert regs.read(2) == (base + imm) & _MASK
        assert regs.read(3) == base & imm & _MASK
        assert regs.read(4) == (base ^ imm) & _MASK
        assert regs.read(5) == imm & _MASK

    @pytest.mark.parametrize("cond", list(Condition))
    @pytest.mark.parametrize("imm", (0, 7, -1, -7, 1 << 63, (1 << 64) - 1))
    @pytest.mark.parametrize("value", (0, 7, (1 << 64) - 1, (1 << 63) - 1, 1 << 63))
    def test_one_source_branch_compares_signed(self, cond, imm, value):
        b = CFGBuilder("main")
        b.block("entry").movi(1, value).br(cond, 1, imm=imm, taken="T")
        b.block("F").halt()
        b.block("T").halt()
        interp = Interpreter(_program(b.build()))
        trace = interp.run()
        assert trace.records[0].taken is evaluate_condition(cond, value, imm)
        assert trace.records[1].block.name == ("T" if trace.records[0].taken else "F")

    @pytest.mark.parametrize("cond", list(Condition))
    @pytest.mark.parametrize("rhs", (0, 1, (1 << 64) - 1, 1 << 63))
    @pytest.mark.parametrize("lhs", (0, 1, (1 << 64) - 1, 1 << 63))
    def test_two_source_branch_compares_signed(self, cond, lhs, rhs):
        b = CFGBuilder("main")
        b.block("entry").movi(1, lhs).movi(2, rhs).br(cond, 1, 2, taken="T")
        b.block("F").halt()
        b.block("T").halt()
        _, trace = run_both(_program(b.build()))
        assert trace.records[0].taken is evaluate_condition(cond, lhs, rhs)


class TestWrapAndShift:
    def test_add_mul_shl_wrap_at_64_bits(self):
        def emit(blk):
            blk.movi(1, _MASK).movi(2, 2).movi(3, 1 << 63)
            blk.add(4, 1, 2).mul(5, 1, 1).shl(6, 3, 2).sub(7, 0, 2)
            blk.fadd(8, 1, 1).fmul(9, 3, 2)
        regs = run_both(_single(emit))[0].registers
        assert regs.read(4) == 1
        assert regs.read(5) == 1
        assert regs.read(6) == 0
        assert regs.read(7) == _MASK - 1
        assert regs.read(8) == _MASK - 1
        assert regs.read(9) == 0

    @pytest.mark.parametrize("count", (63, 64, 65, 127, 200))
    def test_shift_counts_are_masked_to_six_bits(self, count):
        def emit(blk):
            blk.movi(1, 0xF0).movi(2, count)
            blk.shl(3, 1, 2).shr(4, 1, 2)
        regs = run_both(_single(emit))[0].registers
        assert regs.read(3) == (0xF0 << (count & 63)) & _MASK
        assert regs.read(4) == 0xF0 >> (count & 63)

    def test_fdiv_by_zero_reads_zero(self):
        def emit(blk):
            blk.movi(1, 10).movi(2, 3)
            blk.fdiv(3, 1, 0).fdiv(4, 1, 2).fdiv(5, 0, 0)
        regs = run_both(_single(emit))[0].registers
        assert (regs.read(3), regs.read(4), regs.read(5)) == (0, 3, 0)


class TestControl:
    def test_ret_from_main_after_a_call_halts(self):
        main = CFGBuilder("main")
        main.block("entry").movi(1, 1).call("leaf")
        main.block("after").addi(1, 1, 1).ret()
        main.block("unreached").movi(1, 99).halt()
        leaf = CFGBuilder("leaf")
        leaf.block("body").addi(1, 1, 10).ret()
        interp, trace = run_both(_program(main.build(), leaf.build()))
        assert [r.block.name for r in trace] == ["entry", "body", "after"]
        assert interp.registers.read(1) == 12

    def test_halt_mid_block_runs_the_rest_of_the_block(self):
        b = CFGBuilder("main")
        b.block("entry").movi(1, 1).halt().movi(2, 2)  # HALT is not control
        b.block("next").movi(3, 3).halt()
        interp, _ = run_both(_program(b.build()))
        assert interp.registers.read(2) == 2
        assert interp.registers.read(3) == 0

    def test_missing_successor_raises_after_the_budget_check(self):
        b = CFGBuilder("main")
        b.block("entry").movi(1, 1)
        b.block("end").halt()
        program = _program(b.build())
        program.function("main").block("entry").fallthrough = None
        for cls in (Interpreter, ReferenceInterpreter):
            with pytest.raises(RuntimeError, match="fell off block 'entry'"):
                cls(program).run()
            with pytest.raises(ExecutionLimitExceeded):
                cls(program, max_instructions=0).run()

    def test_control_before_the_terminator_is_rejected(self):
        block = BasicBlock("bad")
        block.instructions = [
            Instruction(Opcode.JMP, target="x"),
            Instruction(Opcode.NOP),
        ]
        with pytest.raises(ValueError, match="terminator"):
            block_source(block)


class TestRunState:
    def test_preloaded_register_file(self):
        b = CFGBuilder("main")
        b.block("head").addi(1, 1, -1).br(Condition.GT, 1, imm=0, taken="head")
        b.block("exit").add(3, 2, 2).halt()
        snapshot = [0] * 32
        snapshot[1], snapshot[2] = 5, 21
        interp, _ = run_both(_program(b.build()), snapshot=snapshot)
        assert interp.registers.read(1) == 0
        assert interp.registers.read(3) == 42

    @pytest.mark.parametrize("budget", (0, 1, 5, 6, 7, 100))
    def test_budget_trips_on_the_same_block(self, budget):
        b = CFGBuilder("main")
        b.block("init").movi(1, 0)
        b.block("loop").addi(1, 1, 1).store(1, 1, offset=100).jmp("loop")
        program = _program(b.build())
        left = []
        for cls in (Interpreter, ReferenceInterpreter):
            interp = cls(program, max_instructions=budget)
            with pytest.raises(ExecutionLimitExceeded, match="exceeded"):
                interp.run()
            left.append((interp.registers.snapshot(), interp.memory._words))
        assert left[0] == left[1]

    def test_halt_within_budget_is_not_an_overrun(self):
        b = CFGBuilder("main")
        b.block("entry").movi(1, 1).movi(2, 2).halt()
        trace = Interpreter(_program(b.build()), max_instructions=1).run()
        assert trace.instruction_count == 3

    def test_rerun_continues_from_the_left_state(self):
        b = CFGBuilder("main")
        b.block("entry").addi(1, 1, 1).halt()
        interp = Interpreter(_program(b.build()))
        interp.run()
        interp.run()
        assert interp.registers.read(1) == 2


class TestMemoization:
    def test_block_compiles_once(self):
        b = CFGBuilder("main")
        b.block("entry").movi(1, 1).halt()
        block = b.build().block("entry")
        assert block._exec is None
        function = compile_block(block)
        assert block._exec is function
        assert compile_block(block) is function

    def test_pickled_trace_drops_the_compiled_slot(self):
        b = CFGBuilder("main")
        b.block("entry").movi(1, 1).store(1, 0, offset=8).halt()
        program = _program(b.build())
        trace = Interpreter(program).run()
        block = trace.records[0].block
        assert block._exec is not None
        assert "_exec" not in block.__getstate__()
        loaded = pickle.loads(pickle.dumps(trace))
        copy = loaded.records[0].block
        assert copy._exec is None
        assert copy.name == "entry" and copy.fallthrough == block.fallthrough
        assert loaded.records[0].mem_addrs == (8,)
        assert compile_block(copy) is compile_block(block)  # same source

    def test_address_free_records_are_shared_and_round_trip(self):
        b = CFGBuilder("main")
        b.block("init").movi(1, 0)
        b.block("head").br(Condition.GE, 1, imm=3, taken="exit")
        b.block("body").addi(1, 1, 1).store(1, 0, offset=9).jmp("head")
        b.block("exit").halt()
        trace = Interpreter(_program(b.build())).run()
        heads = [r for r in trace if r.block.name == "head"]
        bodies = [r for r in trace if r.block.name == "body"]
        assert heads[0] is heads[1] and heads[0].taken is False
        assert bodies[0] is not bodies[1]  # carries its own addresses
        loaded = pickle.loads(pickle.dumps(trace))
        assert [
            (r.function, r.block.name, r.taken, r.mem_addrs) for r in loaded
        ] == [(r.function, r.block.name, r.taken, r.mem_addrs) for r in trace]
        assert loaded.taken_count == 1 and loaded.store_count == 3
