"""Block execution plans: the decoded tables must mirror the block, and
the block's static-fact slots must mirror its instructions."""

import pytest

from repro.cfg.analysis import ProgramAnalysis
from repro.fuzz import build_fuzz_workload, draw_spec
from repro.harness.cache import ArtifactCache
from repro.isa.instructions import Opcode
from repro.uarch.plan import (
    KIND_ALU,
    KIND_LOAD,
    KIND_STORE,
    TERM_BR,
    TERM_CALL,
    TERM_JMP,
    TERM_NONE,
    TERM_RET,
    build_block_plan,
    BlockPlan,
)
from repro.workloads.suite import BENCHMARK_NAMES, build_benchmark


def _program():
    return build_benchmark("gzip", 50, 0).program


def _plans(program):
    for cfg in program.functions():
        function = cfg.name
        for block in cfg:
            yield function, cfg, block, build_block_plan(
                program, function, block
            )


class TestRowLayout:
    def test_one_row_per_instruction(self):
        program = _program()
        for _function, _cfg, block, plan in _plans(program):
            assert plan.n == len(block.instructions)
            assert len(plan.rows) == plan.n
            assert plan.first_pc == block.first_pc

    def test_rows_mirror_instructions(self):
        program = _program()
        for _function, _cfg, block, plan in _plans(program):
            for instr, row in zip(block.instructions, plan.rows):
                is_cond, kind, latency, latency1, dest, srcs = row
                assert is_cond == instr.is_cond_branch
                assert latency == instr.latency
                assert latency1 == max(instr.latency, 1)
                assert dest == (-1 if instr.dest is None else instr.dest)
                assert srcs == tuple(instr.srcs)
                if instr.opcode == Opcode.LOAD:
                    assert kind == KIND_LOAD
                elif instr.opcode == Opcode.STORE:
                    assert kind == KIND_STORE
                else:
                    assert kind == KIND_ALU


class TestTerminators:
    def test_terminator_kind_and_targets(self):
        program = _program()
        saw = set()
        for function, cfg, block, plan in _plans(program):
            term = block.terminator
            if term is None or term.opcode not in (
                Opcode.BR, Opcode.JMP, Opcode.CALL, Opcode.RET
            ):
                assert plan.term_kind == TERM_NONE
                saw.add(TERM_NONE)
                continue
            saw.add(plan.term_kind)
            assert plan.term_pc == term.pc
            if term.opcode == Opcode.BR:
                assert plan.term_kind == TERM_BR
                assert plan.taken_block is cfg.block(term.target)
                assert plan.taken_pc == plan.taken_block.first_pc
                # body_rows excludes the branch, which is fetched by the
                # branch-handling path.
                assert len(plan.body_rows) == plan.n - 1
            elif term.opcode == Opcode.JMP:
                assert plan.term_kind == TERM_JMP
                assert plan.target_block is cfg.block(term.target)
                assert plan.target_pc == plan.target_block.first_pc
            elif term.opcode == Opcode.CALL:
                assert plan.term_kind == TERM_CALL
                callee = program.function(term.target)
                assert plan.callee_block is callee.entry
                assert plan.callee_pc == callee.entry.first_pc
                if block.fallthrough is not None:
                    assert plan.fallthrough_name == block.fallthrough
                    assert plan.return_pc == cfg.block(
                        block.fallthrough
                    ).first_pc
            else:
                assert plan.term_kind == TERM_RET
        # The workload generator emits every terminator kind.
        assert {TERM_NONE, TERM_BR, TERM_JMP, TERM_CALL, TERM_RET} <= saw

    def test_fallthrough_successor(self):
        program = _program()
        for _function, cfg, block, plan in _plans(program):
            if block.terminator is not None and (
                block.terminator.opcode == Opcode.BR
            ):
                if block.fallthrough is not None:
                    assert plan.fall_block is cfg.block(block.fallthrough)
                else:
                    assert plan.fall_block is None


class TestSharing:
    def test_analysis_attaches_and_memoizes(self):
        program = _program()
        analysis = ProgramAnalysis.of(program)
        cfg = next(program.functions())
        block = next(iter(cfg))
        plan = analysis.block_plan(block)
        assert isinstance(plan, BlockPlan)
        assert block._plan is plan
        assert analysis.block_plan(block) is plan

    def test_reset_detaches_plans(self):
        program = _program()
        analysis = ProgramAnalysis.of(program)
        cfg = next(program.functions())
        block = next(iter(cfg))
        analysis.block_plan(block)
        ProgramAnalysis.reset(program)
        assert block._plan is None
        assert ProgramAnalysis.of(program) is not analysis


def _derived_facts(block):
    """The block's six static facts, derived from its instructions."""
    instructions = block.instructions
    last = instructions[-1] if instructions else None
    control = (Opcode.BR, Opcode.JMP, Opcode.CALL, Opcode.RET)
    return (
        last if last is not None and last.opcode in control else None,
        last is not None and last.opcode == Opcode.BR,
        last is not None and last.opcode == Opcode.HALT,
        instructions[0].pc if instructions else None,
        sum(instr.opcode == Opcode.LOAD for instr in instructions),
        sum(instr.opcode == Opcode.STORE for instr in instructions),
    )


def _slot_facts(block):
    return (
        block.terminator,
        block.ends_in_branch,
        block.ends_in_halt,
        block.first_pc,
        block.load_count,
        block.store_count,
    )


class TestBlockFactSlots:
    """``BasicBlock`` keeps its static facts in slots set at seal time and
    on unpickling; each must equal what its instructions say."""

    @pytest.mark.parametrize("source", [*BENCHMARK_NAMES, *range(10)])
    def test_program_and_cached_trace_blocks(self, source, tmp_path):
        if isinstance(source, str):
            workload = build_benchmark(source, 8, 0)
        else:
            workload = build_fuzz_workload(draw_spec(source))
        program = workload.program
        for cfg in program.functions():
            for block in cfg:
                assert block.first_pc is not None
                assert _slot_facts(block) == _derived_facts(block)
        cache = ArtifactCache(tmp_path)
        cache.store_pickle("trace", "t", workload.run())
        copies = {
            id(record.block): (record.function, record.block)
            for record in cache.load_pickle("trace", "t")
        }
        assert copies
        for function, block in copies.values():
            own = program.function(function).block(block.name)
            assert block is not own
            assert _slot_facts(block) == _derived_facts(block)
            assert block.first_pc == own.first_pc
