"""Tests for the static and hardware-learned hint-generation paths."""

import random

from repro.cfg.builder import CFGBuilder
from repro.core.mergepoint import MergePointPredictor, learn_hints_from_trace
from repro.isa.instructions import Condition
from repro.profiling.profiler import profile_trace
from repro.profiling.static_selection import select_diverge_branches_static
from repro.program.interpreter import Interpreter
from repro.program.memory import Memory
from repro.program.program import Program


def build_program(*cfgs):
    program = Program("t")
    for cfg in cfgs:
        program.add_function(cfg)
    return program.seal()


def hammock_loop_program(values):
    memory = Memory()
    memory.fill_array(1000, values)
    b = CFGBuilder("main")
    b.block("init").movi(1, 0)
    b.block("head").br(Condition.GE, 1, imm=len(values), taken="exit")
    body = b.block("body")
    body.load(4, 1, offset=1000)
    body.br(Condition.GE, 4, imm=1, taken="tk")
    b.block("nt").addi(20, 20, 1).jmp("merge")
    b.block("tk").addi(21, 21, 1)
    b.block("merge").addi(22, 20, 5)
    b.block("step").addi(1, 1, 1).jmp("head")
    b.block("exit").halt()
    return build_program(b.build()), memory


def early_return_program():
    """A branch whose taken side returns: no post-dominator."""
    b = CFGBuilder("main")
    b.block("entry").br(Condition.GE, 1, imm=1, taken="bail")
    b.block("work").addi(20, 20, 1)
    b.block("done").halt()
    b.block("bail").ret()
    return build_program(b.build())


class TestStaticSelection:
    def test_hammock_marked_with_postdominator(self):
        program, _ = hammock_loop_program([0, 1])
        table = select_diverge_branches_static(program)
        cfg = program.entry_function
        branch_pc = cfg.block("body").instructions[-1].pc
        assert table.is_diverge_branch(branch_pc)
        assert table.get(branch_pc).primary_cfm == (
            cfg.block("merge").first_pc
        )

    def test_loop_exit_branches_excluded(self):
        program, _ = hammock_loop_program([0, 1])
        table = select_diverge_branches_static(program)
        head_pc = program.entry_function.block("head").instructions[-1].pc
        assert not table.is_diverge_branch(head_pc)

    def test_no_postdominator_excluded(self):
        program = early_return_program()
        table = select_diverge_branches_static(program)
        assert len(table) == 0

    def test_distance_cap(self):
        b = CFGBuilder("main")
        b.block("entry").br(Condition.GE, 1, imm=1, taken="far")
        b.block("near").nop(5).jmp("merge")
        b.block("far").nop(300)
        b.block("merge").halt()
        program = build_program(b.build())
        table = select_diverge_branches_static(program, max_cfm_distance=120)
        # Shortest path (via 'near') is short, so the branch still
        # qualifies; with a tiny cap it must not.
        entry_pc = program.entry_function.block("entry").instructions[-1].pc
        assert table.is_diverge_branch(entry_pc)
        tight = select_diverge_branches_static(program, max_cfm_distance=2)
        assert not tight.is_diverge_branch(entry_pc)

    def test_profile_filter(self):
        program, memory = hammock_loop_program([0] * 300)  # easy branch
        trace = Interpreter(program, memory=memory).run()
        profile = profile_trace(program, trace)
        table = select_diverge_branches_static(
            program, profile=profile, min_misprediction_rate=0.08
        )
        branch_pc = program.entry_function.block("body").instructions[-1].pc
        assert not table.is_diverge_branch(branch_pc)

    def test_static_marks_more_than_profile_guided(self):
        """Static selection cannot tell hard branches from easy ones."""
        rng = random.Random(2)
        program, memory = hammock_loop_program(
            [rng.randrange(2) for _ in range(300)]
        )
        static = select_diverge_branches_static(program)
        assert len(static) >= 1


class TestOfflineLearning:
    """The merge-point predictor run offline over a whole trace."""

    def _trained_predictor(self, values):
        program, memory = hammock_loop_program(values)
        trace = Interpreter(program, memory=memory).run()
        predictor = MergePointPredictor(min_instances=8)
        predictor.observe_to(trace.records, len(trace.records))
        return program, predictor

    def test_learns_hammock_merge(self):
        rng = random.Random(2)
        values = [rng.randrange(2) for _ in range(300)]
        program, predictor = self._trained_predictor(values)
        cfg = program.entry_function
        branch_pc = cfg.block("body").instructions[-1].pc
        # Every later block on the way back to the loop head also merges;
        # the closest one is the hammock's own merge block.
        assert predictor.predict(branch_pc)[0] == cfg.block("merge").first_pc

    def test_loop_head_learns_nothing_loop_carried(self):
        rng = random.Random(2)
        values = [rng.randrange(2) for _ in range(300)]
        program, predictor = self._trained_predictor(values)
        head_pc = program.entry_function.block("head").instructions[-1].pc
        # The head's window closes at its own re-execution, and the taken
        # (exit) side fires once: not enough instances on both sides.
        assert predictor.predict(head_pc) == ()

    def test_untrained_branch_predicts_nothing(self):
        predictor = MergePointPredictor()
        assert predictor.predict(0x1234) == ()

    def test_learn_hints_from_trace(self):
        rng = random.Random(2)
        values = [rng.randrange(2) for _ in range(400)]
        program, memory = hammock_loop_program(values)
        trace = Interpreter(program, memory=memory).run()
        table = learn_hints_from_trace(trace, warmup_fraction=0.5)
        cfg = program.entry_function
        branch_pc = cfg.block("body").instructions[-1].pc
        assert table.is_diverge_branch(branch_pc)
        assert table.get(branch_pc).primary_cfm == (
            cfg.block("merge").first_pc
        )

    def test_hint_free_dmp_end_to_end(self):
        """A diverge-merge processor driven purely by hardware-learned
        reconvergence points still eliminates flushes."""
        from repro.core.dpred import PredicationAwareSimulator
        from repro.uarch.config import MachineConfig
        from repro.uarch.timing import TimingSimulator

        rng = random.Random(2)
        values = [rng.randrange(2) for _ in range(400)]
        program, memory = hammock_loop_program(values)
        trace = Interpreter(program, memory=memory).run()
        hints = learn_hints_from_trace(trace, warmup_fraction=0.25)
        base = TimingSimulator(
            program, trace, MachineConfig(), warm_words=range(1000, 1400)
        ).run()
        dmp = PredicationAwareSimulator(
            program, trace,
            MachineConfig.dmp(),
            hints=hints,
            warm_words=range(1000, 1400),
        ).run()
        assert dmp.dpred_entries > 0
        assert dmp.pipeline_flushes < base.pipeline_flushes
