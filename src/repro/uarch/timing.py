"""One-pass trace-driven timing model of the baseline out-of-order machine.

The simulator makes a single in-order pass over the functional trace,
accounting cycles with the first-order structures the paper's evaluation
depends on:

* a fetch engine with the Table 2 rules (8-wide, at most 3 conditional
  branches per cycle, fetch ends at the first predicted-taken branch,
  I-cache misses stall fetch, BTB misses on taken transfers cost a bubble);
* a dependence scoreboard: each instruction completes at
  ``max(fetch + pipeline_depth, sources ready) + latency``, with load
  latency from the cache hierarchy and the predicate-aware store buffer;
* in-order retirement bounded by ``retire_width``, with a reorder-buffer
  ring that stalls fetch when the window fills;
* full misprediction modelling: on a mispredicted branch the front end
  keeps fetching down the *wrong* path (a predictor-guided walk of the
  static CFG) until the branch resolves, classifying wrong-path fetches as
  control-dependent or control-independent against the branch's
  reconvergence point (Figure 1), then flushes and refetches.

Policies: this base class implements ``baseline`` and ``dualpath``
(selective dual-path execution).  The dynamic-predication policies (DMP
and DHP) live in :class:`repro.core.dpred.PredicationAwareSimulator`,
which subclasses this and overrides :meth:`_maybe_enter_dpred`.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.branch import make_predictor
from repro.branch.btb import BranchTargetBuffer
from repro.branch.perfect import PerfectPredictor
from repro.branch.ras import ReturnAddressStack
from repro.confidence import make_estimator
from repro.confidence.perfect import PerfectConfidenceEstimator
from repro.cfg.analysis import ProgramAnalysis
from repro.isa.encoding import HintTable
from repro.isa.instructions import Instruction, Opcode
from repro.isa.registers import NUM_ARCH_REGS
from repro.memsys.hierarchy import CacheHierarchy, MainMemory
from repro.program.program import Program
from repro.program.trace import Trace
from repro.uarch.config import MachineConfig
from repro.uarch.frontend import StaticWalker, TraceCursor
from repro.uarch.plan import (
    KIND_LOAD,
    TERM_BR,
    TERM_CALL,
    TERM_JMP,
    TERM_NONE,
    TERM_RET,
)
from repro.uarch.rat import RegisterAliasTable
from repro.uarch.stats import SimStats
from repro.uarch.storebuffer import ForwardDecision, StoreBuffer


class BranchContext:
    """Everything known about an on-trace conditional branch at fetch."""

    __slots__ = (
        "instr",
        "record",
        "prediction",
        "actual",
        "resolution",
        "history_snapshot",
    )

    def __init__(self, instr, record, prediction, actual, resolution,
                 history_snapshot):
        self.instr = instr
        self.record = record
        self.prediction = prediction
        self.actual = actual
        self.resolution = resolution
        self.history_snapshot = history_snapshot

    @property
    def mispredicted(self) -> bool:
        return self.prediction.taken != self.actual


def build_hierarchy(config: MachineConfig, warm_words=None) -> CacheHierarchy:
    """The cache hierarchy a simulator of ``config`` starts from.

    ``warm_words`` pre-loads the benchmark's initialized data into the
    L2: SPEC working sets are largely cache-resident after warmup, and
    the paper's runs skip initialization.  Footprints larger than the
    L2 (the pointer-chasing benchmarks) still miss by capacity.  The
    warm-up accesses are not counted."""
    hierarchy = CacheHierarchy(
        memory=MainMemory(latency=config.memory_latency),
        prefetch_lines=config.prefetch_lines,
    )
    if warm_words is not None:
        for address in warm_words:
            hierarchy.l2.access(address)
        hierarchy.l2.hits = 0
        hierarchy.l2.misses = 0
    return hierarchy


class TimingSimulator:
    """Drives one benchmark trace through one machine configuration."""

    def __init__(
        self,
        program: Program,
        trace: Trace,
        config: MachineConfig = None,
        hints: Optional[HintTable] = None,
        benchmark: str = "",
        warm_words=None,
        tracer=None,
    ) -> None:
        self.program = program
        self.trace = trace
        self.config = config or MachineConfig()
        self.hints = hints or HintTable()
        # Observability (docs/observability.md).  The tracer is duck-typed
        # and injected by the caller — the simulator never imports
        # repro.obs — and every hook site below is a single ``is None``
        # test when tracing is off.
        self.tracer = tracer
        self.stats = SimStats(
            benchmark=benchmark or trace.program_name,
            config_description=self.config.describe(),
        )
        # Predictors and estimators
        self.predictor = make_predictor(
            self.config.predictor_kind, **self.config.predictor_args
        )
        self.confidence = make_estimator(
            self.config.confidence_kind, **self.config.confidence_args
        )
        self.btb = BranchTargetBuffer(self.config.btb_entries)
        self.ras = ReturnAddressStack(self.config.ras_depth)
        # Oracle components need per-branch hand-feeding; predictors are
        # never swapped after construction, so test once here instead of
        # isinstance-checking on every branch.
        self._predictor_is_perfect = isinstance(self.predictor, PerfectPredictor)
        self._confidence_is_perfect = isinstance(
            self.confidence, PerfectConfidenceEstimator
        )
        self._is_dualpath = self.config.mode == "dualpath"
        if tracer is not None:
            tracer.machine(
                mode=self.config.mode,
                engine=self.config.engine,
                benchmark=self.stats.benchmark,
                predictor=self.config.predictor_kind,
                confidence=self.confidence.describe(),
            )
        # Memory system
        self.hierarchy = build_hierarchy(self.config, warm_words)
        # Renaming / dependence state
        self.rat = RegisterAliasTable()
        self.reg_ready: List[int] = [0] * NUM_ARCH_REGS
        self.store_buffer = StoreBuffer(self.config.store_buffer_size)
        # Invariant configuration, hoisted out of the per-instruction
        # loops (the config is frozen for the lifetime of a simulator).
        self._pipeline_depth = self.config.pipeline_depth
        self._fetch_width = self.config.fetch_width
        self._half_width = max(1, self.config.fetch_width // 2)
        self._max_branches = self.config.max_branches_per_cycle
        self._retire_width = self.config.retire_width
        self._rob_size = self.config.rob_size
        # Fetch state
        self.cycle = 0
        self.slots = self.config.fetch_width
        self.branches_left = self.config.max_branches_per_cycle
        self.seq = 0  # dispatch sequence number (ROB allocation order)
        # Retirement state
        self.retire_ring = [0] * self.config.rob_size
        self.last_retire_cycle = 0
        self.retire_count = 0
        # Dual-path state
        self.dual_until = -1
        # Architectural call context at the current fetch point: the
        # static walkers seed their shadow return-address stacks from it so
        # wrong paths can flow through RETs the way a real RAS allows.
        self.call_context: List[Tuple[str, str]] = []
        # Derived structures, shared by every simulator of this program
        # (postdominators, reconvergence PCs, decoded block plans).
        self.analysis = ProgramAnalysis.of(program)
        self._trace_pcs: Optional[Tuple[int, ...]] = None
        # Engine selection: the fast engine rebinds the hot inner loops
        # to their pre-decoded block-plan implementations; "reference"
        # keeps the original per-instruction loops for differential
        # checking (both produce bit-identical SimStats).
        if self.config.engine == "fast":
            self._fetch_trace_block = self._fetch_trace_block_fast
            self._walk_wrong_path = self._walk_wrong_path_fast
            self._handle_trace_branch = self._handle_trace_branch_fast
        # Robustness instrumentation (docs/robustness.md).  Imported
        # lazily: the validation package pulls in the fault harness,
        # which must not load during ordinary simulator imports.
        self._dpred_depth = 0
        if self.config.oracle_checks:
            from repro.validation.oracle import OracleChecker

            self.oracle: Optional[OracleChecker] = OracleChecker(
                self.trace, self.stats
            )
        else:
            self.oracle = None
        if self.config.watchdog:
            from repro.validation.watchdog import Watchdog

            self.watchdog: Optional[Watchdog] = Watchdog(self)
        else:
            self.watchdog = None

    # ------------------------------------------------------------------
    # Top level
    # ------------------------------------------------------------------

    def run(self) -> SimStats:
        if self.config.engine == "fast":
            return self._run_fast()
        cursor = TraceCursor(self.trace)
        oracle = self.oracle
        watchdog = self.watchdog
        while not cursor.exhausted:
            before = cursor.index
            record = cursor.record
            block = record.block
            self._icache_fetch(block.first_pc)
            terminator = block.terminator
            if terminator is not None and terminator.opcode == Opcode.BR:
                self._fetch_trace_block(record, skip_terminator=True)
                self._handle_trace_branch(cursor, record)
            else:
                self._fetch_trace_block(record)
                self._handle_nonbranch_transfer(block)
                cursor.advance()
            if oracle is not None:
                oracle.note_advance(before, cursor.index)
            if watchdog is not None:
                watchdog.check(self, where="main-fetch", pc=block.first_pc)
        self.stats.cycles = max(self.last_retire_cycle, self.cycle)
        self.stats.retired_instructions = self.trace.instruction_count
        if oracle is not None:
            oracle.finalize(self.stats, self.trace)
        if self.tracer is not None:
            self.tracer.finish(self.stats)
        return self.stats

    def _run_fast(self) -> SimStats:
        """The ``run`` loop over pre-decoded block plans.

        Same structure, same call sequence into every stateful component
        (caches, predictors, store buffer, oracle, watchdog) as the
        reference loop above — only the static-fact lookups differ."""
        cursor = TraceCursor(self.trace)
        records = self.trace.records
        n_records = len(records)
        oracle = self.oracle
        watchdog = self.watchdog
        block_plan = self.analysis.block_plan
        fetch_trace_block = self._fetch_trace_block
        inst_access = self.hierarchy.inst_access
        l1i_latency = self.hierarchy.l1i.latency
        while cursor.index < n_records:
            before = cursor.index
            record = records[before]
            block = record.block
            plan = block._plan
            if plan is None:
                plan = block_plan(block, record.function)
            first_pc = plan.first_pc
            # _icache_fetch, inlined (the hit path adds no cycles).
            extra = inst_access(first_pc // 8) - l1i_latency
            if extra > 0:
                self._advance_fetch_cycle(self.cycle + extra)
            if plan.term_kind == TERM_BR:
                fetch_trace_block(record, skip_terminator=True)
                self._handle_trace_branch(cursor, record)
            else:
                fetch_trace_block(record)
                self._transfer_fast(plan)
                cursor.index = before + 1
            if oracle is not None:
                oracle.note_advance(before, cursor.index)
            if watchdog is not None:
                watchdog.check(self, where="main-fetch", pc=first_pc)
        self.stats.cycles = max(self.last_retire_cycle, self.cycle)
        self.stats.retired_instructions = self.trace.instruction_count
        if oracle is not None:
            oracle.finalize(self.stats, self.trace)
        if self.tracer is not None:
            self.tracer.finish(self.stats)
        return self.stats

    # ------------------------------------------------------------------
    # Fetch engine
    # ------------------------------------------------------------------

    def _advance_fetch_cycle(self, to_cycle: Optional[int] = None) -> None:
        if to_cycle is None:
            self.cycle += 1
        else:
            self.cycle = max(self.cycle + 1, to_cycle)
        self.slots = (
            self._half_width
            if self.cycle <= self.dual_until
            else self._fetch_width
        )
        self.branches_left = self._max_branches

    def _fetch_slot(self, is_cond_branch: bool, occupies_rob: bool = True) -> int:
        """Allocate one fetch slot, advancing the fetch cycle as required.

        Returns the fetch cycle.  ``occupies_rob`` gates the window-full
        stall (wrong-path instructions are squashed before they can block
        the window for long, so their walk skips the check)."""
        if occupies_rob and self.seq >= self._rob_size:
            oldest_retire = self.retire_ring[self.seq % self._rob_size]
            if self.cycle < oldest_retire:
                self._advance_fetch_cycle(oldest_retire)
        if self.slots <= 0 or (is_cond_branch and self.branches_left <= 0):
            self._advance_fetch_cycle()
        self.slots -= 1
        if is_cond_branch:
            self.branches_left -= 1
        return self.cycle

    def _icache_fetch(self, pc: int) -> None:
        latency = self.hierarchy.inst_access(pc // 8)
        extra = latency - self.hierarchy.l1i.latency
        if extra > 0:
            self._advance_fetch_cycle(self.cycle + extra)

    def _taken_redirect(self, pc: int, target_pc: int) -> None:
        """A predicted-taken transfer ends the fetch cycle (Table 2); a
        BTB miss adds a bubble while the target is computed."""
        if self.btb.lookup(pc) != target_pc:
            self.btb.insert(pc, target_pc)
            self._advance_fetch_cycle()  # bubble
        self._advance_fetch_cycle()

    # ------------------------------------------------------------------
    # Execution / retirement accounting
    # ------------------------------------------------------------------

    def _sources_ready(self, instr: Instruction) -> int:
        ready = 0
        for src in instr.srcs:
            if self.reg_ready[src] > ready:
                ready = self.reg_ready[src]
        return ready

    def _retire(self, completion: int) -> int:
        cycle = completion + 1
        if cycle < self.last_retire_cycle:
            cycle = self.last_retire_cycle
        if cycle == self.last_retire_cycle:
            if self.retire_count >= self._retire_width:
                cycle += 1
                self.retire_count = 0
        else:
            self.retire_count = 0
        self.last_retire_cycle = cycle
        self.retire_count += 1
        self.retire_ring[self.seq % self._rob_size] = cycle
        self.seq += 1
        return cycle

    def _dispatch_uop(self, sources_ready: int, latency: int = 1) -> int:
        """Account one front-end-inserted uop.  Returns its completion.

        Uops consume no fetch slot, and deliberately no reorder-buffer ring
        slot either: dynamic-predication bookkeeping is checkpoint-based
        and predicated-FALSE work frees its resources the moment the
        predicate resolves (Section 2.5), while this trace-driven model
        cannot credit the matching MLP *benefit* DMP gets from not
        flushing in-flight control-independent loads (wrong-path loads
        carry no addresses here).  Charging the occupancy without the
        benefit would double-penalize predication — see DESIGN.md."""
        completion = max(self.cycle + self._pipeline_depth,
                         sources_ready) + latency
        return completion

    # ------------------------------------------------------------------
    # On-trace block fetch
    # ------------------------------------------------------------------

    def _fetch_trace_block(
        self,
        record,
        skip_terminator: bool = False,
        predicate_id: Optional[int] = None,
        predicate_ready: Optional[int] = None,
    ) -> int:
        """Fetch, execute and retire one on-trace block's instructions.

        Returns the completion cycle of the last fetched instruction.
        When ``skip_terminator`` is set the terminating branch is *not*
        processed here (the caller predicts it first and then calls
        :meth:`_fetch_branch_instruction`)."""
        block = record.block
        instructions = block.instructions
        if skip_terminator:
            instructions = instructions[:-1]
        mem_addrs = record.mem_addrs
        mem_pos = 0
        last_completion = 0
        depth = self._pipeline_depth
        for instr in instructions:
            fetch_cycle = self._fetch_slot(instr.is_cond_branch)
            self.stats.fetched_correct += 1
            base = max(fetch_cycle + depth, self._sources_ready(instr))
            if instr.is_load:
                address = mem_addrs[mem_pos]
                mem_pos += 1
                completion = self._execute_load(
                    instr, address, base, predicate_id
                )
            elif instr.is_store:
                completion = base + 1
                address = mem_addrs[mem_pos]
                mem_pos += 1
                self.store_buffer.insert(
                    address,
                    self.seq,
                    completion,
                    predicate_id=predicate_id,
                    predicate_ready_cycle=predicate_ready,
                    # On-trace work is the predicate-TRUE path.
                    predicate_value=None if predicate_id is None else True,
                )
            else:
                completion = base + instr.latency
            if instr.writes_register:
                self.rat.rename_dest(instr.dest)
                self.reg_ready[instr.dest] = completion
            self._retire(completion)
            self.stats.executed_instructions += 1
            last_completion = completion
        return last_completion

    def _fetch_trace_block_fast(
        self,
        record,
        skip_terminator: bool = False,
        predicate_id: Optional[int] = None,
        predicate_ready: Optional[int] = None,
    ) -> int:
        """:meth:`_fetch_trace_block` over the block's pre-decoded plan.

        Identical arithmetic and identical call sequence into every
        stateful component (store buffer, cache hierarchy, RAT); the
        fetch/retire bookkeeping runs on locals and is written back once
        at the end, and the per-instruction stats increments are batched
        into per-block adds."""
        block = record.block
        plan = block._plan
        if plan is None:
            plan = self.analysis.block_plan(block, record.function)
        rows = plan.body_rows if skip_terminator else plan.rows
        if not rows:
            return 0
        # Hot state, bound to locals for the duration of the block.
        cycle = self.cycle
        slots = self.slots
        branches_left = self.branches_left
        seq = self.seq
        last_retire = self.last_retire_cycle
        retire_count = self.retire_count
        dual_until = self.dual_until
        retire_ring = self.retire_ring
        reg_ready = self.reg_ready
        depth = self._pipeline_depth
        rob_size = self._rob_size
        fetch_width = self._fetch_width
        half_width = self._half_width
        max_branches = self._max_branches
        retire_width = self._retire_width
        # rat.rename_dest, inlined: nothing inside a block fetch rebinds
        # the RAT's lists (only dpred control code between blocks does),
        # so the list references stay valid for the whole loop.
        rat = self.rat
        rat_mapping = rat._mapping
        rat_modified = rat._modified
        next_tag = rat._next_tag
        sb_lookup = self.store_buffer.lookup
        sb_insert = self.store_buffer.insert
        data_access = self.hierarchy.data_access
        l1d_latency = self.hierarchy.l1d.latency
        forward_code = ForwardDecision.FORWARD
        wait_code = ForwardDecision.WAIT
        mem_addrs = record.mem_addrs
        mem_pos = 0
        pred_value = None if predicate_id is None else True  # on-trace
        load_waits = 0
        completion = 0
        # seq advances by one per row, so the ROB ring position does too.
        ring_pos = seq % rob_size
        for cond, kind, latency, _lat1, dest, srcs in rows:
            # _fetch_slot, inlined.
            if seq >= rob_size:
                oldest = retire_ring[ring_pos]
                if cycle < oldest:
                    cycle = cycle + 1 if cycle >= oldest else oldest
                    slots = (
                        half_width if cycle <= dual_until else fetch_width
                    )
                    branches_left = max_branches
            if cond:
                if slots <= 0 or branches_left <= 0:
                    cycle += 1
                    slots = (
                        half_width if cycle <= dual_until else fetch_width
                    )
                    branches_left = max_branches
                branches_left -= 1
            elif slots <= 0:
                cycle += 1
                slots = half_width if cycle <= dual_until else fetch_width
                branches_left = max_branches
            slots -= 1
            # _sources_ready, inlined.
            base = cycle + depth
            for src in srcs:
                ready = reg_ready[src]
                if ready > base:
                    base = ready
            if kind == 0:  # KIND_ALU
                completion = base + latency
            elif kind == KIND_LOAD:
                address = mem_addrs[mem_pos]
                mem_pos += 1
                # _execute_load, inlined.
                forward = sb_lookup(
                    address, seq, predicate_id, current_cycle=base
                )
                decision = forward.decision
                if decision == forward_code:
                    ready = forward.entry.data_ready_cycle
                    completion = (ready if ready > base else base) + 1
                elif decision == wait_code:
                    load_waits += 1
                    ready = forward.wait_until
                    completion = (
                        ready if ready > base else base
                    ) + l1d_latency
                else:
                    completion = base + data_access(address)
            else:  # KIND_STORE
                completion = base + 1
                address = mem_addrs[mem_pos]
                mem_pos += 1
                sb_insert(
                    address,
                    seq,
                    completion,
                    predicate_id=predicate_id,
                    predicate_ready_cycle=predicate_ready,
                    predicate_value=pred_value,
                )
            if dest >= 0:
                rat_mapping[dest] = next_tag
                rat_modified[dest] = True
                next_tag += 1
                reg_ready[dest] = completion
            # _retire, inlined.
            rcycle = completion + 1
            if rcycle < last_retire:
                rcycle = last_retire
            if rcycle == last_retire:
                if retire_count >= retire_width:
                    rcycle += 1
                    retire_count = 0
            else:
                retire_count = 0
            last_retire = rcycle
            retire_count += 1
            retire_ring[ring_pos] = rcycle
            seq += 1
            ring_pos += 1
            if ring_pos == rob_size:
                ring_pos = 0
        executed = len(rows)
        self.cycle = cycle
        self.slots = slots
        self.branches_left = branches_left
        self.seq = seq
        self.last_retire_cycle = last_retire
        self.retire_count = retire_count
        rat._next_tag = next_tag
        stats = self.stats
        stats.fetched_correct += executed
        stats.executed_instructions += executed
        if load_waits:
            stats.load_wait_on_predicate += load_waits
        return completion

    def _execute_load(
        self,
        instr: Instruction,
        address: int,
        base: int,
        predicate_id: Optional[int],
    ) -> int:
        forward = self.store_buffer.lookup(
            address, self.seq, predicate_id, current_cycle=base
        )
        if forward.decision == ForwardDecision.FORWARD:
            return max(base, forward.entry.data_ready_cycle) + 1
        if forward.decision == ForwardDecision.WAIT:
            self.stats.load_wait_on_predicate += 1
            return max(base, forward.wait_until) + self.hierarchy.l1d.latency
        return base + self.hierarchy.data_access(address)

    def _fetch_branch_instruction(self, instr: Instruction) -> Tuple[int, int]:
        """Fetch the terminating conditional branch itself; returns
        ``(fetch_cycle, completion)`` — completion is its resolution."""
        fetch_cycle = self._fetch_slot(True)
        self.stats.fetched_correct += 1
        completion = (
            max(fetch_cycle + self._pipeline_depth,
                self._sources_ready(instr))
            + instr.latency
        )
        self._retire(completion)
        self.stats.executed_instructions += 1
        return fetch_cycle, completion

    # ------------------------------------------------------------------
    # Control transfers
    # ------------------------------------------------------------------

    def _handle_nonbranch_transfer(self, block) -> None:
        term = block.terminator
        if term is None:
            return
        pc = term.pc
        if term.opcode == Opcode.JMP:
            target = self._block_pc(self._block_function(block), term.target)
            self._taken_redirect(pc, target)
        elif term.opcode == Opcode.CALL:
            callee_pc = self.program.function(term.target).entry.first_pc
            if block.fallthrough is not None:
                function = self._block_function(block)
                return_pc = self._block_pc(function, block.fallthrough)
                self.ras.push(return_pc)
                self.call_context.append((function, block.fallthrough))
            self._taken_redirect(pc, callee_pc)
        elif term.opcode == Opcode.RET:
            if self.call_context:
                self.call_context.pop()
            predicted = self.ras.pop()
            self._advance_fetch_cycle()  # returns end the fetch cycle
            if predicted is None:
                # RAS underflow: the target is unknown until the return
                # executes — a full pipeline refill.
                self._advance_fetch_cycle(
                    self.cycle + self._pipeline_depth
                )

    def _transfer_fast(self, plan) -> None:
        """:meth:`_handle_nonbranch_transfer` driven by the block plan's
        precomputed terminator kind and target PCs."""
        kind = plan.term_kind
        if kind == TERM_NONE:
            return
        if kind == TERM_JMP:
            self._taken_redirect(plan.term_pc, plan.target_pc)
        elif kind == TERM_CALL:
            if plan.fall_block is not None:
                self.ras.push(plan.return_pc)
                self.call_context.append(
                    (plan.function, plan.fallthrough_name)
                )
            self._taken_redirect(plan.term_pc, plan.callee_pc)
        elif kind == TERM_RET:
            if self.call_context:
                self.call_context.pop()
            predicted = self.ras.pop()
            self._advance_fetch_cycle()  # returns end the fetch cycle
            if predicted is None:
                self._advance_fetch_cycle(
                    self.cycle + self._pipeline_depth
                )

    def _handle_trace_branch(self, cursor: TraceCursor, record) -> None:
        """Predict, possibly predicate, and account the block's branch."""
        instr = record.block.instructions[-1]
        actual = record.taken
        if self._predictor_is_perfect:
            self.predictor.set_oracle(actual)
        history_snapshot = self.predictor.snapshot()
        prediction = self.predictor.predict(instr.pc)
        fetch_cycle, resolution = self._fetch_branch_instruction(instr)
        context = BranchContext(
            instr, record, prediction, actual, resolution, history_snapshot
        )
        self.stats.retired_branches += 1

        if self._maybe_enter_dpred(cursor, context):
            return

        # Normal predicted branch.
        self.predictor.spec_update(prediction.taken)
        if self._confidence_is_perfect:
            self.confidence.set_oracle(not context.mispredicted)
        low_confidence = not self.confidence.is_confident(
            instr.pc, history_snapshot
        )
        if self.tracer is not None:
            self.tracer.note_confidence(instr.pc, not low_confidence, "branch")
        self._train_branch(context)

        if (
            self._is_dualpath
            and low_confidence
            and self.cycle > self.dual_until
            and self._fork_worthwhile(context)
        ):
            self._fork_dual_path(cursor, context)
            return

        if context.mispredicted:
            self.stats.mispredictions += 1
            self._mispredict_flush(context, cursor)
            self.predictor.repair(prediction, actual)
        else:
            if prediction.taken:
                taken_target = self._branch_taken_pc(record.block, instr)
                self._taken_redirect(instr.pc, taken_target)
        cursor.advance()

    def _handle_trace_branch_fast(self, cursor: TraceCursor, record) -> None:
        """:meth:`_handle_trace_branch` over the pre-decoded block plan:
        the branch's own fetch/execute accounting is inlined against the
        plan's terminator row, and the taken target comes from the plan
        instead of a name lookup.  Same call sequence into the predictor,
        confidence estimator, retirement ring, and dpred hook."""
        block = record.block
        plan = block._plan
        if plan is None:
            plan = self.analysis.block_plan(block, record.function)
        instr = block.instructions[-1]
        actual = record.taken
        predictor = self.predictor
        if self._predictor_is_perfect:
            predictor.set_oracle(actual)
        history_snapshot = predictor.snapshot()
        prediction = predictor.predict(instr.pc)
        # _fetch_branch_instruction, inlined over the terminator row.
        fetch_cycle = self._fetch_slot(True)
        stats = self.stats
        stats.fetched_correct += 1
        reg_ready = self.reg_ready
        base = 0
        for src in plan.rows[-1][5]:
            ready = reg_ready[src]
            if ready > base:
                base = ready
        depth_cycle = fetch_cycle + self._pipeline_depth
        if depth_cycle > base:
            base = depth_cycle
        resolution = base + plan.rows[-1][2]
        self._retire(resolution)
        stats.executed_instructions += 1
        context = BranchContext(
            instr, record, prediction, actual, resolution, history_snapshot
        )
        stats.retired_branches += 1

        if self._maybe_enter_dpred(cursor, context):
            return

        predictor.spec_update(prediction.taken)
        mispredicted = prediction.taken != actual
        if self._confidence_is_perfect:
            self.confidence.set_oracle(not mispredicted)
        low_confidence = not self.confidence.is_confident(
            instr.pc, history_snapshot
        )
        if self.tracer is not None:
            self.tracer.note_confidence(instr.pc, not low_confidence, "branch")
        predictor.train(prediction, actual)
        self.confidence.update(
            instr.pc, history_snapshot, was_correct=not mispredicted
        )

        if (
            self._is_dualpath
            and low_confidence
            and self.cycle > self.dual_until
            and self._fork_worthwhile(context)
        ):
            self._fork_dual_path(cursor, context)
            return

        if mispredicted:
            stats.mispredictions += 1
            self._mispredict_flush(context, cursor)
            predictor.repair(prediction, actual)
        elif prediction.taken:
            self._taken_redirect(instr.pc, plan.taken_pc)
        cursor.advance()

    def _train_branch(self, context: BranchContext) -> None:
        self.predictor.train(context.prediction, context.actual)
        self.confidence.update(
            context.instr.pc,
            context.history_snapshot,
            was_correct=not context.mispredicted,
        )

    # Hook overridden by the dynamic-predication subclass.
    def _maybe_enter_dpred(self, cursor: TraceCursor, context) -> bool:
        return False

    # ------------------------------------------------------------------
    # Misprediction handling
    # ------------------------------------------------------------------

    def _mispredict_flush(
        self, context: BranchContext, cursor: Optional[TraceCursor] = None
    ) -> None:
        """Fetch the wrong path until resolution, then flush and redirect."""
        self.stats.pipeline_flushes += 1
        if self.tracer is not None:
            self.tracer.note_flush(
                "mispredict", self.cycle, pc=context.instr.pc
            )
        self._walk_wrong_path(
            context.record,
            context.prediction.taken,
            until_cycle=context.resolution,
            cursor=cursor,
        )
        # Flush: fetch restarts at the correct target after resolution.
        self._advance_fetch_cycle(context.resolution + 1)

    _CI_LOOKAHEAD_BLOCKS = 32

    def _upcoming_correct_pcs(self, cursor: Optional[TraceCursor]) -> frozenset:
        """Block-start PCs the correct path visits soon after the branch —
        the wrong path is control-independent once it rejoins them."""
        if cursor is None:
            return frozenset()
        pcs = self._trace_pcs
        if pcs is None:
            pcs = self._trace_pcs = tuple(
                record.block.first_pc for record in self.trace.records
            )
        stop = min(len(pcs), cursor.index + 1 + self._CI_LOOKAHEAD_BLOCKS)
        return frozenset(pcs[cursor.index + 1: stop])

    def _walk_wrong_path(
        self,
        record,
        wrong_taken: bool,
        until_cycle: int,
        cursor: Optional[TraceCursor] = None,
    ) -> int:
        """Predictor-guided wrong-path fetch from the wrong target of the
        branch ending ``record.block``.  Instructions are classified
        control-dependent until the walk reaches a point the correct path
        also goes through (the branch's reconvergence point, or any block
        the correct path visits within the lookahead window — the dynamic
        notion Figure 1 measures), control-independent after.  Returns
        instructions fetched."""
        function = record.function
        block = record.block
        start = self._wrong_target_block(function, block, wrong_taken)
        if start is None:
            return 0
        reconv_pc = self._reconvergence_pc(function, block.name)
        upcoming = self._upcoming_correct_pcs(cursor)
        walker = StaticWalker(
            self.program, function, start, call_stack=self.call_context
        )
        fetched = 0
        reached_ci = False
        guard = 0
        while not walker.exhausted and self.cycle < until_cycle:
            guard += 1
            if guard > 10_000:
                break
            if self.watchdog is not None:
                self.watchdog.check(
                    self, where="wrong-path-walk", pc=record.block.first_pc
                )
            current = walker.block
            if not reached_ci and (
                current.first_pc == reconv_pc
                or current.first_pc in upcoming
            ):
                reached_ci = True
            for instr in current.instructions:
                if self.cycle >= until_cycle:
                    break
                self._fetch_slot(instr.is_cond_branch, occupies_rob=False)
                fetched += 1
                if reached_ci:
                    self.stats.fetched_wrong_ci += 1
                else:
                    self.stats.fetched_wrong_cd += 1
            self._step_walker(walker)
        return fetched

    def _step_walker(self, walker: StaticWalker) -> None:
        """Advance a static walker one block, predicting its branch."""
        if walker.exhausted:
            return
        block = walker.block
        if walker.predict_needed:
            instr = block.instructions[-1]
            prediction = self.predictor.predict(instr.pc)
            self.predictor.spec_update(prediction.taken)
            if prediction.taken:
                self._advance_fetch_cycle()  # taken ends the fetch cycle
            walker.step(prediction.taken)
        else:
            term = block.terminator
            if term is not None:
                self._advance_fetch_cycle()  # jmp/call/ret redirect
            walker.step()

    def _walk_wrong_path_fast(
        self,
        record,
        wrong_taken: bool,
        until_cycle: int,
        cursor: Optional[TraceCursor] = None,
    ) -> int:
        """:meth:`_walk_wrong_path` over block plans: the static walk
        follows the plans' precomputed successor references (the
        ``StaticWalker`` transition rules, inlined) and the per-
        instruction fetch-slot accounting runs on locals.  Wrong-path
        instructions never occupy the reorder buffer, so the whole walk
        touches only ``cycle``/``slots``/``branches_left`` — written
        back before every watchdog check and at the end."""
        analysis = self.analysis
        block_plan = analysis.block_plan
        function = record.function
        plan = block_plan(record.block, function)
        start = plan.taken_block if wrong_taken else plan.fall_block
        if start is None:
            return 0
        reconv_pc = analysis.reconvergence_pc(function, record.block.name)
        upcoming = self._upcoming_correct_pcs(cursor)
        origin_pc = plan.first_pc
        watchdog = self.watchdog
        predictor = self.predictor
        predict = predictor.predict
        spec_update = predictor.spec_update
        program = self.program
        stats = self.stats
        fetch_width = self._fetch_width
        half_width = self._half_width
        max_branches = self._max_branches
        dual_until = self.dual_until
        cycle = self.cycle
        slots = self.slots
        branches_left = self.branches_left
        call_stack = list(self.call_context)
        current = start
        fetched = 0
        reached_ci = False
        guard = 0
        while current is not None and cycle < until_cycle:
            guard += 1
            if guard > 10_000:
                break
            if watchdog is not None:
                self.cycle = cycle
                self.slots = slots
                self.branches_left = branches_left
                watchdog.check(self, where="wrong-path-walk", pc=origin_pc)
            plan = current._plan
            if plan is None:
                plan = block_plan(current, function)
            function = plan.function
            if not reached_ci and (
                plan.first_pc == reconv_pc or plan.first_pc in upcoming
            ):
                reached_ci = True
            took = 0
            for cond in plan.cond_flags:
                if cycle >= until_cycle:
                    break
                # _fetch_slot(cond, occupies_rob=False), inlined.
                if cond:
                    if slots <= 0 or branches_left <= 0:
                        cycle += 1
                        slots = (
                            half_width
                            if cycle <= dual_until
                            else fetch_width
                        )
                        branches_left = max_branches
                    branches_left -= 1
                elif slots <= 0:
                    cycle += 1
                    slots = (
                        half_width if cycle <= dual_until else fetch_width
                    )
                    branches_left = max_branches
                slots -= 1
                took += 1
            fetched += took
            if reached_ci:
                stats.fetched_wrong_ci += took
            else:
                stats.fetched_wrong_cd += took
            # _step_walker, inlined over the plan's successor references.
            kind = plan.term_kind
            if kind == TERM_BR:
                prediction = predict(plan.term_pc)
                spec_update(prediction.taken)
                if prediction.taken:
                    cycle += 1
                    slots = (
                        half_width if cycle <= dual_until else fetch_width
                    )
                    branches_left = max_branches
                    current = plan.taken_block
                else:
                    current = plan.fall_block
            elif kind == TERM_NONE:
                current = plan.fall_block
            else:
                # JMP / CALL / RET all end the fetch cycle.
                cycle += 1
                slots = half_width if cycle <= dual_until else fetch_width
                branches_left = max_branches
                if kind == TERM_JMP:
                    current = plan.target_block
                elif kind == TERM_CALL:
                    if plan.fall_block is not None:
                        call_stack.append(
                            (function, plan.fallthrough_name)
                        )
                    function = plan.callee_name
                    current = plan.callee_block
                else:  # TERM_RET
                    if call_stack:
                        function, return_block = call_stack.pop()
                        current = program.function(function).block(
                            return_block
                        )
                    else:
                        current = None  # walked off the program
        self.cycle = cycle
        self.slots = slots
        self.branches_left = branches_left
        return fetched

    # ------------------------------------------------------------------
    # Dual-path execution (Heil & Smith)
    # ------------------------------------------------------------------

    def _fork_worthwhile(self, context: BranchContext) -> bool:
        """Forking halves fetch bandwidth for the whole resolution window,
        so it only pays on near-coin-flip predictions.  With a perceptron
        predictor the output magnitude is itself a confidence measure
        (Jiménez & Lin): require a weak output on top of low JRS
        confidence before forking."""
        theta = getattr(self.predictor, "theta", None)
        if theta is None:
            return True
        return abs(context.prediction.output) <= theta // 4

    def _fork_dual_path(self, cursor: TraceCursor, context: BranchContext) -> None:
        """Fetch both paths at half bandwidth until the branch resolves.

        The correct path keeps streaming through the main loop (the
        ``dual_until`` window halves its effective fetch width); the wrong
        path's consumption is accounted by a cycle-neutral walk so the two
        "concurrent" fetch streams are not serialized."""
        self.stats.dualpath_forks += 1
        if self.tracer is not None:
            self.tracer.note_fork(context.instr.pc, self.cycle)
        self.dual_until = context.resolution
        if context.mispredicted:
            self.stats.mispredictions += 1
            # The correct path is already in the pipeline: no flush.
        saved = (self.cycle, self.slots, self.branches_left,
                 self.predictor.snapshot())
        self._walk_wrong_path(
            context.record,
            not context.actual,
            until_cycle=context.resolution,
        )
        self.cycle, self.slots, self.branches_left = saved[:3]
        self.predictor.restore(saved[3])
        if context.mispredicted:
            self.predictor.repair(context.prediction, context.actual)
        elif context.prediction.taken:
            taken_target = self._branch_taken_pc(context.record.block,
                                                 context.instr)
            self._taken_redirect(context.instr.pc, taken_target)
        cursor.advance()

    # ------------------------------------------------------------------
    # CFG helpers
    # ------------------------------------------------------------------

    def _block_function(self, block) -> str:
        function, _, _ = self.program.locate(block.first_pc)
        return function

    def _block_pc(self, function: str, block_name: str) -> int:
        return self.program.function(function).block(block_name).first_pc

    def _branch_taken_pc(self, block, instr: Instruction) -> int:
        return self._block_pc(self._block_function(block), instr.target)

    def _wrong_target_block(self, function: str, block, wrong_taken: bool):
        """The block the wrong path starts at (None if it falls off)."""
        cfg = self.program.function(function)
        instr = block.instructions[-1]
        if wrong_taken:
            return cfg.block(instr.target)
        if block.fallthrough is None:
            return None
        return cfg.block(block.fallthrough)

    def _reconvergence_pc(self, function: str, block_name: str) -> Optional[int]:
        # Memoized at program scope (shared across every simulator of
        # this program), not per instance — see repro.cfg.analysis.
        return self.analysis.reconvergence_pc(function, block_name)
