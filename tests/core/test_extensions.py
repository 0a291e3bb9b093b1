"""Tests for the Section 2.7.4 extensions: diverge loop branches, the
nested multiple-diverge policy, and the selective predictor update."""

import dataclasses
import random

import pytest

from repro.cfg.builder import CFGBuilder
from repro.core.dpred import PredicationAwareSimulator
from repro.core.modes import ExitCase
from repro.isa.encoding import DivergeHint, HintTable
from repro.isa.instructions import Condition
from repro.profiling.loop_selection import (
    find_loop_exit_branches,
    merge_hint_tables,
    select_diverge_loop_branches,
)
from repro.profiling.profiler import profile_trace
from repro.program.interpreter import Interpreter
from repro.program.memory import Memory
from repro.program.program import Program
from repro.uarch.config import MachineConfig
from repro.uarch.timing import TimingSimulator


def build_program(*cfgs):
    program = Program("t")
    for cfg in cfgs:
        program.add_function(cfg)
    return program.seal()


def hard_loop_program(trip_counts):
    """An outer loop whose inner loop's trip count is data-dependent:
    the inner loop-exit branch mispredicts on most exits."""
    memory = Memory()
    memory.fill_array(1000, trip_counts)
    b = CFGBuilder("main")
    b.block("init").movi(1, 0)
    b.block("ohead").br(Condition.GE, 1, imm=len(trip_counts), taken="exit")
    setup = b.block("setup")
    setup.load(4, 1, offset=1000)   # r4 = trips for this outer iteration
    setup.movi(5, 0)                # inner counter
    inner = b.block("inner")        # the loop-exit (diverge loop) branch
    inner.br(Condition.GE, 5, 4, taken="after")
    body = b.block("ibody")
    body.addi(20, 20, 3)
    body.xor(21, 20, 5)
    body.addi(5, 5, 1)
    body.jmp("inner")
    after = b.block("after")        # the loop's exit block == CFM
    after.add(22, 20, 21)
    b.block("step").addi(1, 1, 1).jmp("ohead")
    b.block("exit").halt()
    return build_program(b.build()), memory


def run_loop_case(trip_counts, loop_predication, hints=None):
    program, memory = hard_loop_program(trip_counts)
    trace = Interpreter(program, memory=memory).run()
    if hints is None:
        cfg = program.entry_function
        hints = HintTable()
        hints.add(
            cfg.block("inner").instructions[-1].pc,
            DivergeHint((cfg.block("after").first_pc,), is_loop=True),
        )
    config = MachineConfig.dmp(
        confidence_kind="never", loop_predication=loop_predication
    )
    sim = PredicationAwareSimulator(
        program, trace, config, hints=hints, warm_words=range(1000, 1600)
    )
    return sim.run(), program, trace


def random_trips(n, seed=3):
    rng = random.Random(seed)
    return [rng.randrange(1, 5) for _ in range(n)]


class TestLoopExitDiscovery:
    def test_inner_loop_branch_found(self):
        program, _ = hard_loop_program([1, 2, 3])
        exits = find_loop_exit_branches(program)
        found = {(fn, block) for fn, block, _, _ in exits}
        assert ("main", "inner") in found
        assert ("main", "ohead") in found
        inner = [e for e in exits if e[1] == "inner"][0]
        assert inner[3] == "after"  # the exit side

    def test_selection_marks_hard_loop(self):
        program, memory = hard_loop_program(random_trips(400))
        trace = Interpreter(program, memory=memory).run()
        profile = profile_trace(program, trace)
        table = select_diverge_loop_branches(program, trace, profile)
        inner_pc = program.entry_function.block("inner").instructions[-1].pc
        assert table.is_diverge_branch(inner_pc)
        hint = table.get(inner_pc)
        assert hint.is_loop
        after_pc = program.entry_function.block("after").first_pc
        assert hint.primary_cfm == after_pc

    def test_predictable_loop_not_marked(self):
        program, memory = hard_loop_program([3] * 400)  # constant trips
        trace = Interpreter(program, memory=memory).run()
        profile = profile_trace(program, trace)
        table = select_diverge_loop_branches(program, trace, profile)
        assert len(table) == 0

    def test_merge_hint_tables(self):
        a, b = HintTable(), HintTable()
        a.add(0x10, DivergeHint((1,)))
        b.add(0x10, DivergeHint((2,), is_loop=True))
        b.add(0x20, DivergeHint((3,), is_loop=True))
        merged = merge_hint_tables(a, b)
        assert merged.get(0x10).primary_cfm == 1  # first table wins
        assert merged.get(0x20).is_loop


class TestLoopPredication:
    def test_disabled_by_default(self):
        stats, _, _ = run_loop_case(
            random_trips(300), loop_predication=False
        )
        assert stats.dpred_entries == 0
        assert stats.loop_iteration_saves == 0

    def test_saves_loop_exit_mispredictions(self):
        stats, _, _ = run_loop_case(random_trips(300), loop_predication=True)
        assert stats.dpred_entries > 0
        assert stats.loop_iteration_saves > 50

    def test_reduces_flushes(self):
        trips = random_trips(300)
        off, program, trace = run_loop_case(trips, loop_predication=False)
        on, _, _ = run_loop_case(trips, loop_predication=True)
        assert on.pipeline_flushes < off.pipeline_flushes

    def test_improves_performance_on_hard_loop(self):
        trips = random_trips(300)
        off, _, _ = run_loop_case(trips, loop_predication=False)
        on, _, _ = run_loop_case(trips, loop_predication=True)
        assert on.cycles < off.cycles

    def test_charges_false_iteration_work(self):
        stats, _, _ = run_loop_case(random_trips(300), loop_predication=True)
        assert stats.predicated_false_instructions > 0

    def test_retired_work_unchanged(self):
        trips = random_trips(200)
        off, _, trace = run_loop_case(trips, loop_predication=False)
        on, _, _ = run_loop_case(trips, loop_predication=True)
        assert on.retired_instructions == off.retired_instructions

    def test_exit_cases_recorded(self):
        stats, _, _ = run_loop_case(random_trips(300), loop_predication=True)
        normal = (
            stats.exit_cases[ExitCase.NORMAL_CORRECT]
            + stats.exit_cases[ExitCase.NORMAL_MISPREDICTED]
        )
        assert normal > 0


def nested_hammocks_program(values_outer, values_inner):
    """Two hammocks where the second sits on the first's predicted path
    before the first's (distant) merge point."""
    memory = Memory()
    memory.fill_array(1000, values_outer)
    memory.fill_array(3000, values_inner)
    b = CFGBuilder("main")
    b.block("init").movi(1, 0)
    b.block("head").br(Condition.GE, 1, imm=len(values_outer), taken="exit")
    outer = b.block("outer")
    outer.load(4, 1, offset=1000)
    outer.br(Condition.GE, 4, imm=1, taken="o_tk")
    o_nt = b.block("o_nt")
    o_nt.addi(20, 20, 1)
    o_nt.addi(26, 20, 2)
    o_nt.xor(27, 26, 20)
    o_nt.addi(26, 26, 1)
    o_nt.add(27, 27, 26)
    # The inner diverge branch lives on the outer's not-taken side, far
    # enough along the path to clear the restart progress gate.
    inner_blk = b.block("o_nt2")
    inner_blk.load(5, 1, offset=3000)
    inner_blk.br(Condition.GE, 5, imm=1, taken="i_tk")
    b.block("i_nt").addi(21, 21, 1).jmp("i_merge")
    b.block("i_tk").addi(22, 22, 1)
    b.block("i_merge").addi(23, 21, 2).jmp("o_merge")
    b.block("o_tk").addi(24, 24, 1)
    b.block("o_merge").addi(25, 20, 3)
    b.block("step").addi(1, 1, 1).jmp("head")
    b.block("exit").halt()
    return build_program(b.build()), memory


class TestNestedMultipleDiverge:
    def _run(self, policy, engine="fast", hardened=False):
        rng = random.Random(5)
        outer = [1 if rng.random() < 0.10 else 0 for _ in range(400)]
        inner = [rng.randrange(2) for _ in range(400)]
        program, memory = nested_hammocks_program(outer, inner)
        trace = Interpreter(program, memory=memory).run()
        cfg = program.entry_function
        hints = HintTable()
        hints.add(
            cfg.block("outer").instructions[-1].pc,
            DivergeHint((cfg.block("o_merge").first_pc,),
                        early_exit_threshold=2),
        )
        hints.add(
            cfg.block("o_nt2").instructions[-1].pc,
            DivergeHint((cfg.block("i_merge").first_pc,),
                        early_exit_threshold=2),
        )
        config = MachineConfig.dmp(
            confidence_kind="never",
            multiple_diverge=True,
            multiple_diverge_policy=policy,
            engine=engine,
        )
        if hardened:
            config = config.hardened()
        sim = PredicationAwareSimulator(
            program, trace, config, hints=hints,
            warm_words=list(range(1000, 1400)) + list(range(3000, 3400)),
        )
        return sim.run()

    def test_nested_policy_runs_inner_episodes(self):
        stats = self._run("nested")
        assert stats.nested_episodes > 0
        assert stats.dpred_restarts == 0

    def test_restart_policy_restarts(self):
        stats = self._run("restart")
        assert stats.dpred_restarts > 0
        assert stats.nested_episodes == 0

    def test_both_policies_save_inner_mispredictions(self):
        for policy in ("nested", "restart"):
            stats = self._run(policy)
            saved = (
                stats.exit_cases[ExitCase.NORMAL_MISPREDICTED]
                + stats.exit_cases[ExitCase.CONTINUE_ALTERNATE]
            )
            assert saved > 0, policy

    @pytest.mark.parametrize("policy", ("nested", "restart"))
    def test_engines_agree_hardened(self, policy):
        """No benchmark opens a nested episode, so this program is the
        only differential coverage of nesting and restarts: the fast
        engine must match the reference with the oracle armed."""
        ref = self._run(policy, engine="reference", hardened=True)
        fast = self._run(policy, engine="fast", hardened=True)
        assert ref.oracle_checks > 0
        if policy == "nested":
            assert ref.nested_episodes > 0
        else:
            assert ref.dpred_restarts > 0
        assert dataclasses.asdict(fast) == dataclasses.asdict(ref)

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            MachineConfig.dmp(multiple_diverge_policy="sideways")


class TestSelectivePredictorUpdate:
    def test_flag_accepted_and_runs(self):
        rng = random.Random(7)
        values = [rng.randrange(2) for _ in range(300)]
        program, memory = nested_hammocks_program(values, values)
        trace = Interpreter(program, memory=memory).run()
        cfg = program.entry_function
        hints = HintTable()
        hints.add(
            cfg.block("outer").instructions[-1].pc,
            DivergeHint((cfg.block("o_merge").first_pc,)),
        )
        for selective in (False, True):
            config = MachineConfig.dmp(
                confidence_kind="never",
                selective_predictor_update=selective,
            )
            sim = PredicationAwareSimulator(
                program, trace, config, hints=hints
            )
            stats = sim.run()
            assert stats.dpred_entries > 0
