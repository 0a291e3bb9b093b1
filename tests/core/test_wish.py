"""Tests for the wish-branch machine (Section 5.2 comparison)."""

import random

import pytest

from repro.cfg.builder import CFGBuilder
from repro.core.dpred import PredicationAwareSimulator
from repro.core.modes import ExitCase
from repro.core.processors import simulate
from repro.isa.instructions import Condition
from repro.profiling.wish_selection import (
    select_wish_branches,
    wish_region,
)
from repro.program.interpreter import Interpreter
from repro.program.memory import Memory
from repro.program.program import Program
from repro.uarch.config import MachineConfig
from repro.uarch.timing import TimingSimulator

_WARM = range(1000, 1600)


def build_program(*cfgs):
    program = Program("t")
    for cfg in cfgs:
        program.add_function(cfg)
    return program.seal()


def hammock_loop(values):
    memory = Memory()
    memory.fill_array(1000, values)
    b = CFGBuilder("main")
    b.block("init").movi(1, 0)
    b.block("head").br(Condition.GE, 1, imm=len(values), taken="exit")
    body = b.block("body")
    body.load(4, 1, offset=1000)
    body.br(Condition.GE, 4, imm=1, taken="tk")
    b.block("nt").addi(20, 20, 1).xor(23, 20, 4).jmp("merge")
    b.block("tk").addi(21, 21, 1).add(24, 21, 4)
    b.block("merge").addi(22, 20, 5)
    b.block("step").addi(1, 1, 1).jmp("head")
    b.block("exit").halt()
    return build_program(b.build()), memory


def call_hammock():
    """A hammock with a call inside: DMP-predicable, NOT wish-predicable."""
    b = CFGBuilder("main")
    b.block("entry").br(Condition.GE, 4, imm=1, taken="tk")
    b.block("nt").call("helper")
    b.block("ntc").jmp("merge")
    b.block("tk").addi(21, 21, 1)
    b.block("merge").halt()
    h = CFGBuilder("helper")
    h.block("h").addi(20, 20, 1).ret()
    return build_program(b.build(), h.build())


class TestWishRegion:
    def test_simple_hammock_region(self):
        program, _ = hammock_loop([0, 1])
        cfg = program.entry_function
        region = wish_region(cfg, "body", "merge")
        assert set(region) == {"nt", "tk"}

    def test_call_inside_rejected(self):
        program = call_hammock()
        cfg = program.entry_function
        assert wish_region(cfg, "entry", "merge") is None

    def test_cyclic_region_rejected(self):
        program, _ = hammock_loop([0, 1])
        cfg = program.entry_function
        # The outer loop branch's "region" loops back through head.
        assert wish_region(cfg, "head", "exit") is None


class TestWishSelection:
    def test_hammock_selected(self):
        program, _ = hammock_loop([0, 1])
        table, regions = select_wish_branches(program)
        branch_pc = program.entry_function.block("body").instructions[-1].pc
        assert table.is_diverge_branch(branch_pc)
        assert set(regions[branch_pc]) == {"nt", "tk"}

    def test_call_hammock_not_selected(self):
        program = call_hammock()
        table, _ = select_wish_branches(program)
        entry_pc = program.entry_function.block("entry").instructions[-1].pc
        assert not table.is_diverge_branch(entry_pc)

    def test_size_cap(self):
        b = CFGBuilder("main")
        b.block("entry").br(Condition.GE, 4, imm=1, taken="tk")
        b.block("nt").nop(200).jmp("merge")
        b.block("tk").nop(5)
        b.block("merge").halt()
        program = build_program(b.build())
        table, _ = select_wish_branches(program, max_region_instructions=120)
        assert len(table) == 0


class TestWishMachine:
    def _run(self, values, confidence="never"):
        program, memory = hammock_loop(values)
        trace = Interpreter(program, memory=memory).run()
        table, _ = select_wish_branches(program)
        config = MachineConfig.wish(confidence_kind=confidence)
        sim = PredicationAwareSimulator(
            program, trace, config, hints=table, warm_words=_WARM
        )
        return sim.run(), program, trace

    def test_predicated_mode_eliminates_flushes(self):
        rng = random.Random(7)
        values = [rng.randrange(2) for _ in range(300)]
        stats, program, trace = self._run(values)
        base = TimingSimulator(
            program, trace, MachineConfig(), warm_words=_WARM
        ).run()
        assert stats.pipeline_flushes < base.pipeline_flushes / 2
        assert stats.exit_cases[ExitCase.NORMAL_MISPREDICTED] > 50

    def test_fetches_whole_region(self):
        """Wish predication fetches BOTH sides every time (paper point 2:
        DMP fetches only the two predictor-followed paths — here the same,
        but wish pays it on every low-confidence instance by design)."""
        stats, _, _ = self._run([0] * 200)
        # All-not-taken data: the taken side (2 instructions) is fetched
        # as predicated-FALSE work on every predicated instance.
        assert stats.predicated_false_instructions >= (
            2 * stats.dpred_entries * 0.9
        )

    def test_always_on_predication_is_software_predication(self):
        """confidence='never' ⇒ every instance predicated: the classic
        compile-time predication baseline, which loses on easy branches.
        Compared under a perfect predictor so warmup mispredictions cannot
        mask the pure predication overhead."""
        program, memory = hammock_loop([0] * 300)
        trace = Interpreter(program, memory=memory).run()
        base = TimingSimulator(
            program, trace, MachineConfig(predictor_kind="perfect"),
            warm_words=_WARM,
        ).run()
        table, _ = select_wish_branches(program)
        sim = PredicationAwareSimulator(
            program, trace,
            MachineConfig.wish(
                predictor_kind="perfect", confidence_kind="never"
            ),
            hints=table, warm_words=_WARM,
        )
        easy = sim.run()
        assert base.pipeline_flushes == 0
        # Predicating a perfectly-predictable branch costs cycles.
        assert easy.cycles >= base.cycles

    def test_simulate_dispatches_wish(self):
        rng = random.Random(7)
        values = [rng.randrange(2) for _ in range(100)]
        program, memory = hammock_loop(values)
        trace = Interpreter(program, memory=memory).run()
        table, _ = select_wish_branches(program)
        stats = simulate(
            program, trace, MachineConfig.wish(), hints=table
        )
        assert stats.config_description.startswith("wish")
        assert stats.retired_instructions == trace.instruction_count

    def test_wish_requires_hints(self):
        program, memory = hammock_loop([0] * 10)
        trace = Interpreter(program, memory=memory).run()
        with pytest.raises(ValueError):
            simulate(program, trace, MachineConfig.wish())


class TestDmpVsWish:
    def test_dmp_covers_call_regions_wish_cannot(self):
        """The paper's point 1: DMP predicates regions with calls."""
        from repro.isa.encoding import DivergeHint, HintTable

        program = call_hammock()
        trace = Interpreter(program).run()
        wish_table, _ = select_wish_branches(program)
        assert len(wish_table) == 0
        cfg = program.entry_function
        dmp_table = HintTable()
        dmp_table.add(
            cfg.block("entry").instructions[-1].pc,
            DivergeHint((cfg.block("merge").first_pc,)),
        )
        stats = simulate(
            program, trace,
            MachineConfig.dmp(confidence_kind="never"),
            hints=dmp_table,
        )
        assert stats.dpred_entries == 1
