"""Unit tests for the mini-ISA instruction definitions."""

import pickle

import pytest

from repro.isa.instructions import (
    Condition,
    Instruction,
    Opcode,
    evaluate_condition,
)


def one_of_each():
    """One valid instruction of every opcode; each one that may write a
    register does."""
    for op in Opcode:
        if op == Opcode.BR:
            yield Instruction(op, srcs=(1, 2), cond=Condition.LT, target="B")
        elif op in (Opcode.JMP, Opcode.CALL):
            yield Instruction(op, target="B")
        elif op == Opcode.STORE:
            yield Instruction(op, srcs=(1, 2), imm=8)
        elif op in (Opcode.RET, Opcode.NOP, Opcode.HALT):
            yield Instruction(op)
        elif op == Opcode.LOAD:
            yield Instruction(op, dest=1, srcs=(2,), imm=8)
        else:
            yield Instruction(op, dest=1, srcs=(2, 3), imm=5)


class TestInstructionValidation:
    def test_branch_requires_condition(self):
        with pytest.raises(ValueError):
            Instruction(Opcode.BR, srcs=(1,), target="B")

    def test_branch_requires_target(self):
        with pytest.raises(ValueError):
            Instruction(Opcode.BR, srcs=(1,), cond=Condition.EQ)

    def test_branch_source_arity(self):
        with pytest.raises(ValueError):
            Instruction(Opcode.BR, srcs=(), cond=Condition.EQ, target="B")
        with pytest.raises(ValueError):
            Instruction(
                Opcode.BR, srcs=(1, 2, 3), cond=Condition.EQ, target="B"
            )

    def test_jump_requires_target(self):
        with pytest.raises(ValueError):
            Instruction(Opcode.JMP)

    def test_load_shape(self):
        with pytest.raises(ValueError):
            Instruction(Opcode.LOAD, dest=None, srcs=(1,))
        with pytest.raises(ValueError):
            Instruction(Opcode.LOAD, dest=2, srcs=(1, 3))
        instr = Instruction(Opcode.LOAD, dest=2, srcs=(1,), imm=8)
        assert instr.is_load

    def test_store_shape(self):
        with pytest.raises(ValueError):
            Instruction(Opcode.STORE, srcs=(1,))
        instr = Instruction(Opcode.STORE, srcs=(1, 2))
        assert instr.is_store


class TestInstructionClassification:
    def test_one_of_each_covers_every_opcode(self):
        assert [instr.opcode for instr in one_of_each()] == list(Opcode)

    def test_control_flags(self):
        control = {Opcode.BR, Opcode.JMP, Opcode.CALL, Opcode.RET}
        for instr in one_of_each():
            assert instr.is_control == (instr.opcode in control)
            assert instr.is_cond_branch == (instr.opcode == Opcode.BR)

    def test_memory_flags(self):
        for instr in one_of_each():
            assert instr.is_load == (instr.opcode == Opcode.LOAD)
            assert instr.is_store == (instr.opcode == Opcode.STORE)

    def test_fp_classification(self):
        fp = {Opcode.FADD, Opcode.FMUL, Opcode.FDIV}
        for instr in one_of_each():
            assert instr.is_fp == (instr.opcode in fp)

    def test_writes_register(self):
        no_dest = {
            Opcode.STORE, Opcode.BR, Opcode.JMP, Opcode.CALL, Opcode.RET,
            Opcode.NOP, Opcode.HALT,
        }
        for instr in one_of_each():
            assert instr.writes_register == (instr.opcode not in no_dest)
        assert Instruction(Opcode.MOVI, dest=4, imm=1).writes_register
        assert not Instruction(Opcode.MOVI, imm=1).writes_register

    def test_latencies(self):
        # Loads report 0: they defer to the cache hierarchy.
        expected = {
            Opcode.MUL: 3, Opcode.FADD: 4, Opcode.FMUL: 4, Opcode.FDIV: 12,
            Opcode.LOAD: 0,
        }
        for instr in one_of_each():
            assert instr.latency == expected.get(instr.opcode, 1)


class TestInstructionPickling:
    def test_state_is_the_seven_fields(self):
        instr = Instruction(
            Opcode.BR, srcs=(1, 2), imm=5, cond=Condition.LT, target="B"
        )
        instr.pc = 0x1004
        assert instr.__getstate__() == (
            Opcode.BR, None, (1, 2), 5, Condition.LT, "B", 0x1004
        )

    def test_round_trip_rederives_every_fact(self):
        for pc, instr in enumerate(one_of_each()):
            instr.pc = 0x1000 + 4 * pc
            copy = pickle.loads(pickle.dumps(instr, protocol=4))
            assert copy is not instr
            for name in Instruction.__slots__:
                assert getattr(copy, name) == getattr(instr, name), name


class TestConditionEvaluation:
    @pytest.mark.parametrize(
        "cond,lhs,rhs,expected",
        [
            (Condition.EQ, 5, 5, True),
            (Condition.EQ, 5, 6, False),
            (Condition.NE, 5, 6, True),
            (Condition.LT, -1 & ((1 << 64) - 1), 0, True),  # signed compare
            (Condition.GE, 0, 0, True),
            (Condition.LE, 3, 2, False),
            (Condition.GT, 3, 2, True),
        ],
    )
    def test_conditions(self, cond, lhs, rhs, expected):
        assert evaluate_condition(cond, lhs, rhs) is expected

    def test_signed_wraparound(self):
        big = (1 << 63)  # most negative value in two's complement
        assert evaluate_condition(Condition.LT, big, 0)
        assert evaluate_condition(Condition.GT, (1 << 63) - 1, 0)
