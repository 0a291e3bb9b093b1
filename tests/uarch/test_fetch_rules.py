"""Directed micro-tests of the Table 2 fetch-engine rules."""

import dataclasses

import pytest

from repro.cfg.builder import CFGBuilder
from repro.isa.instructions import Condition
from repro.program.interpreter import Interpreter
from repro.program.program import Program
from repro.uarch.config import MachineConfig
from repro.uarch.timing import TimingSimulator


def build_program(cfg):
    program = Program("t")
    program.add_function(cfg)
    return program.seal()


def run(program, **config_overrides):
    """Run with an ideal memory system and oracle prediction so only the
    fetch rule under test contributes cycles."""
    config_overrides.setdefault("memory_latency", 0)
    config_overrides.setdefault("predictor_kind", "perfect")
    trace = Interpreter(program).run()
    config = MachineConfig(**config_overrides)
    sim = TimingSimulator(program, trace, config)
    return sim.run()


def straightline(n_instructions):
    b = CFGBuilder("main")
    blk = b.block("only")
    for i in range(n_instructions):
        blk.addi(10 + (i % 8), 0, i)
    blk.halt()
    return build_program(b.build())


def jump_chain(n_blocks):
    """Blocks connected by unconditional taken jumps."""
    b = CFGBuilder("main")
    for i in range(n_blocks):
        blk = b.block(f"b{i}")
        blk.addi(10, 0, i)
        if i + 1 < n_blocks:
            blk.jmp(f"b{i + 1}")
        else:
            blk.halt()
    return build_program(b.build())


class TestFetchWidth:
    def test_straightline_fetch_bound(self):
        """160 independent instructions at 8-wide: about 20 fetch cycles
        plus the drain."""
        program = straightline(160)
        stats = run(program)
        # The fetch engine itself takes ceil(161/8) cycles; total runtime
        # adds the pipeline drain and the (ideal-memory) I-cache fills.
        assert stats.cycles < 161 / 8 + 80

    def test_narrow_fetch_scales(self):
        program = straightline(160)
        wide = run(program, fetch_width=8)
        narrow = run(program, fetch_width=2)
        assert narrow.cycles > wide.cycles + 40  # ~4x the fetch cycles


class TestTakenBranchBreaks:
    def test_taken_jumps_end_fetch_cycles(self):
        """A chain of 40 two-instruction blocks joined by taken jumps
        cannot be fetched faster than one block per cycle."""
        program = jump_chain(40)
        stats = run(program)
        assert stats.cycles >= 40

    def test_fallthrough_blocks_pack_into_wide_fetch(self):
        """The same instructions without taken transfers fetch much
        faster."""
        chain = run(jump_chain(40))
        flat = run(straightline(80))
        assert flat.cycles < chain.cycles


class TestBranchesPerCycle:
    def _branchy_program(self, n):
        """n not-taken conditional branches in a row."""
        b = CFGBuilder("main")
        for i in range(n):
            blk = b.block(f"b{i}")
            # r0 is always 0: GE 1 is never true -> never taken.
            blk.br(Condition.GE, 0, imm=1, taken=f"b{i}")
        b.block("end").halt()
        return build_program(b.build())

    def test_three_branch_limit(self):
        program = self._branchy_program(30)
        stats = run(program, max_branches_per_cycle=3)
        # 30 branches at <=3/cycle: at least 10 fetch cycles.
        assert stats.cycles >= 10

    def test_single_branch_per_cycle_slower(self):
        program = self._branchy_program(30)
        three = run(program, max_branches_per_cycle=3)
        one = run(program, max_branches_per_cycle=1)
        assert one.cycles > three.cycles


class TestICache:
    def test_cold_icache_misses_stall_fetch(self):
        """A large code footprint pays I-cache miss bubbles on first
        touch."""
        program = jump_chain(60)
        trace = Interpreter(program).run()
        cold = TimingSimulator(program, trace, MachineConfig())
        cold_stats = cold.run()
        assert cold.hierarchy.l1i.misses > 0
        # Second pass over the same static code is mostly warm.
        trace2 = Interpreter(program).run()
        warm = TimingSimulator(program, trace2, MachineConfig())
        warm.hierarchy.l1i = cold.hierarchy.l1i
        warm_stats = warm.run()
        assert warm_stats.cycles <= cold_stats.cycles


class TestRetireBandwidth:
    def test_retire_width_bounds_throughput(self):
        program = straightline(400)
        wide = run(program, retire_width=8)
        narrow = run(program, retire_width=1)
        # 400 instructions at 1/cycle retire: at least 400 cycles.
        assert narrow.cycles >= 400
        assert wide.cycles < narrow.cycles


class TestBtb:
    def test_taken_transfers_warm_the_btb(self):
        program = jump_chain(30)
        trace = Interpreter(program).run()
        sim = TimingSimulator(program, trace, MachineConfig())
        sim.run()
        # Every jump missed once and left its target behind.
        main = program.function("main")
        for i in range(29):
            jump = main.block(f"b{i}").terminator
            assert sim.btb.lookup(jump.pc) == main.block(f"b{i + 1}").first_pc


class TestWholeBranchBlockFetch:
    """Wish episodes fetch BR-terminated region blocks whole
    (``skip_terminator=False``), so the branch row reaches the trace-row
    fetch and must take the per-cycle branch budget in both engines."""

    @pytest.mark.parametrize("predicate_id", [None, 3])
    def test_fast_twin_matches_reference(self, predicate_id):
        b = CFGBuilder("main")
        b.block("init").movi(1, 5).movi(2, 700)
        work = b.block("work")
        work.load(3, 2).addi(4, 3, 1).store(4, 2, offset=8)
        work.br(Condition.GE, 1, imm=3, taken="done")
        b.block("mid").addi(5, 5, 1)
        b.block("done").halt()
        program = build_program(b.build())
        trace = Interpreter(program).run()
        record = next(r for r in trace.records if r.block.name == "work")
        assert record.block.terminator.is_cond_branch
        seen = {}
        for engine in ("reference", "fast"):
            sim = TimingSimulator(
                program, trace, MachineConfig(engine=engine)
            )
            # Slots to spare, but this cycle's branch budget is spent.
            sim.cycle, sim.slots, sim.branches_left = 7, 8, 0
            completion = sim._fetch_trace_block(
                record, skip_terminator=False,
                predicate_id=predicate_id, predicate_ready=40,
            )
            seen[engine] = (
                completion, sim.cycle, sim.slots, sim.branches_left,
                sim.seq, sim.last_retire_cycle, sim.retire_count,
                list(sim.retire_ring), list(sim.reg_ready),
                dataclasses.asdict(sim.stats),
            )
        assert seen["fast"] == seen["reference"]
        # Only the branch row opened cycle 8, and spent one branch of it.
        _, cycle, slots, branches_left = seen["fast"][:4]
        assert (cycle, slots) == (8, 7)
        assert branches_left == MachineConfig().max_branches_per_cycle - 1
