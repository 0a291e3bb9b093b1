"""The dynamic-predication engine (Sections 2.2–2.7 of the paper).

:class:`PredicationAwareSimulator` extends the baseline timing model with
the diverge-merge fetch/rename state machine:

* on fetching a low-confidence diverge branch, enter dynamic-predication
  mode: insert ``enter.pred.path``, checkpoint the RAT (CP1) and clear the
  M bits;
* fetch the *predicted path*, guided by the branch predictor, until the
  next fetch address hits a CFM point (the CFM CAM locks onto the first
  one seen);
* checkpoint the RAT again (CP2), restore CP1, insert
  ``enter.alternate.path``, and fetch the *alternate path* to the same CFM
  point;
* insert ``exit.pred`` plus one select-uop per architectural register
  whose mapping differs between CP2 and the active RAT (M-bit OR), merging
  the data flow of the two paths;
* resolve the episode into one of Table 1's six exit cases when a path
  fails to reach the CFM point before the diverge branch resolves.

The enhanced mechanisms (Section 2.7) are config flags: multiple CFM
points, early exit from the alternate path, and re-entering
dynamic-predication mode for a newer low-confidence diverge branch found
on the predicted path.

Both DMP and DHP run on this engine — DHP is simply driven by a hint table
restricted to simple hammocks (see :mod:`repro.profiling.hammock`).

Trace-driven specifics: the path that matches the branch's *actual*
direction replays the functional trace (predicate-TRUE); the other path is
a predictor-guided static-CFG walk (predicate-FALSE).  Nested branch
mispredictions are detectable only on trace-backed paths; wrong-path
register values are unknowable, so false-path loads are charged an L1 hit
and false-path stores do not enter the store buffer (their predicate would
drop them anyway).  These substitutions are documented in DESIGN.md.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.cfm import CfmCam
from repro.core.mergepoint import LearnedHintTable, MergePointPredictor
from repro.core.modes import ExitCase, PathOutcome
from repro.isa.instructions import Opcode
from repro.uarch.frontend import StaticWalker, TraceCursor
from repro.uarch.plan import (
    TERM_BR,
    TERM_CALL,
    TERM_JMP,
    TERM_NONE,
)
from repro.uarch.timing import BranchContext, TimingSimulator


class PathResult:
    """Outcome of fetching one dynamically predicated path."""

    __slots__ = (
        "outcome",
        "instructions",
        "cfm_pc",
        "trace_position",
        "stopped_position",
        "new_context",
        "new_hint",
        "new_position",
    )

    def __init__(
        self,
        outcome: PathOutcome,
        instructions: int = 0,
        cfm_pc: Optional[int] = None,
        trace_position: Optional[int] = None,
        stopped_position: Optional[int] = None,
        new_context: Optional[BranchContext] = None,
        new_hint=None,
        new_position: Optional[int] = None,
    ) -> None:
        self.outcome = outcome
        self.instructions = instructions
        self.cfm_pc = cfm_pc
        self.trace_position = trace_position
        self.stopped_position = stopped_position
        self.new_context = new_context
        self.new_hint = new_hint
        self.new_position = new_position


class _EpisodeEnd:
    """Where the main fetch loop resumes after a dpred episode."""

    __slots__ = ("continuation", "restart")

    def __init__(self, continuation=None, restart=None):
        self.continuation = continuation
        self.restart = restart


class PredicationAwareSimulator(TimingSimulator):
    """Timing simulator with the DMP/DHP dynamic-predication front end."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._predicate_counter = 0
        # Hint-free DMP (mode "mpp"): replace the (empty) compiler hint
        # table with a learned one over the dynamic merge-point
        # predictor.  Every hint lookup below goes through the same
        # ``self.hints`` attribute either way.
        self._merge_predictor: Optional[MergePointPredictor] = None
        if self.config.mode == "mpp":
            self._merge_predictor = MergePointPredictor.from_config(
                self.config
            )
            self.hints = LearnedHintTable(self._merge_predictor)
        # Same engine dispatch as the base class: the predicate-FALSE
        # static fetch loop and the two per-path episode loops have
        # block-plan implementations too.
        if self.config.engine == "fast":
            self._fetch_static_dpred_block = (
                self._fetch_static_dpred_block_fast
            )
            self._fetch_dpred_trace_path = self._fetch_dpred_trace_path_fast
            self._fetch_dpred_static_path = (
                self._fetch_dpred_static_path_fast
            )

    # ------------------------------------------------------------------
    # Entry hook
    # ------------------------------------------------------------------

    def _usable_hint(self, pc: int):
        """Hint lookup with the deterministic no-episode fallback.

        A degenerate hint — an empty or self-referential CFM set, which
        the learned path (and a corrupted table) can produce — could
        never merge: opening an episode with it would burn checkpoints
        and uops for a guaranteed case-5/6 exit.  Such hints are treated
        as "no hint" so the branch is handled as a normal predicted
        branch.  Every lookup site in the episode machinery (entry,
        nested trace branches, static-path diverge watching) routes
        through here, and the method is shared by both engines, so the
        fallback is mirrored by construction.
        """
        hint = self.hints.get(pc)
        if hint is None:
            return None
        if not hint.cfm_pcs or pc in hint.cfm_pcs:
            return None
        return hint

    def _maybe_enter_dpred(self, cursor: TraceCursor, context) -> bool:
        if self.config.mode not in ("dmp", "dhp", "wish", "mpp"):
            return False
        if self._merge_predictor is not None:
            # Catch-up observation: learn from every trace record
            # retired since the previous diverge-branch lookup.  Both
            # engines reach this hook at the same cursor positions in
            # the same order, so the learned table is bit-identical at
            # every lookup no matter which engine runs.
            self._merge_predictor.observe_to(
                self.trace.records, cursor.index
            )
        hint = self._usable_hint(context.instr.pc)
        if hint is None:
            return False
        if hint.is_loop and not self.config.loop_predication:
            return False  # diverge loop branches are an opt-in extension
        if self._confidence_is_perfect:
            self.confidence.set_oracle(not context.mispredicted)
        confident = self.confidence.is_confident(
            context.instr.pc, context.history_snapshot
        )
        if self.tracer is not None:
            self.tracer.note_confidence(
                context.instr.pc, confident, "diverge"
            )
        if confident:
            return False
        if self._merge_predictor is not None:
            self.stats.mpp_predictions += 1
            if self.tracer is not None:
                self.tracer.note_merge(
                    "predict", context.instr.pc, cfm=hint.primary_cfm
                )
        if self.config.mode == "wish":
            self._run_wish_episode(cursor, context, hint)
        elif hint.is_loop:
            self._run_loop_episode(cursor, context, hint)
        else:
            self._run_dpred_episode(cursor, context, hint)
        return True

    def _run_dpred_episode(self, cursor, context, hint) -> None:
        diverge_pos = cursor.index
        while True:
            end = self._dpred_once(diverge_pos, context, hint, depth=0)
            if end.restart is not None:
                self.stats.dpred_restarts += 1
                if self.watchdog is not None:
                    self.watchdog.check(
                        self, where="dpred-restart", pc=context.instr.pc
                    )
                diverge_pos, context, hint = end.restart
                continue
            cursor.restore(end.continuation)
            return

    # ------------------------------------------------------------------
    # One dynamic-predication episode
    # ------------------------------------------------------------------


    def _record_exit(self, case) -> None:
        """Record a Table 1 exit case, charging it to the innermost open
        traced episode when tracing is on."""
        self.stats.record_exit_case(case)
        if self.tracer is not None:
            self.tracer.note_exit_case(case)

    def _train_diverge_branch(self, context) -> None:
        """Train the tables with a dynamically predicated diverge-branch
        instance.  Under the selective-update policy (Section 2.7.4,
        after Klauser et al.) the direction predictor's counters are NOT
        updated for predicated instances — removing their destructive
        interference — while the confidence estimator still learns."""
        if self.config.selective_predictor_update:
            self.confidence.update(
                context.instr.pc,
                context.history_snapshot,
                was_correct=not context.mispredicted,
            )
        else:
            self._train_branch(context)

    def _alloc_predicates(self) -> Tuple[int, int]:
        p1 = self._predicate_counter
        self._predicate_counter += 2
        return p1, p1 + 1

    def _dpred_once(
        self, diverge_pos: int, context, hint, depth: int = 0
    ) -> _EpisodeEnd:
        """One episode, wrapped with the robustness instrumentation: the
        oracle tracks episode entry/exit balance (predicate state must be
        released) and episodes that end in a Section 2.7.3 restart (which
        record no Table 1 exit case)."""
        self._dpred_depth += 1
        tracer = self.tracer
        if tracer is not None:
            tracer.episode_enter(
                "dpred",
                pc=context.instr.pc,
                pos=diverge_pos,
                depth=self._dpred_depth,
                cycle=self.cycle,
                mispredicted=context.mispredicted,
            )
        if self.oracle is not None:
            self.oracle.note_dpred_enter()
        try:
            end = self._dpred_once_impl(diverge_pos, context, hint, depth)
        finally:
            self._dpred_depth -= 1
            if self.oracle is not None:
                self.oracle.note_dpred_exit()
        if end.restart is not None and self.oracle is not None:
            self.oracle.note_restarted_episode()
        if tracer is not None:
            # Mirrors the oracle's accounting: a propagated inner restart
            # flags BOTH the inner and the outer episode as restarted.
            tracer.episode_exit(
                restart=end.restart is not None, cycle=self.cycle
            )
        return end

    def _dpred_once_impl(
        self, diverge_pos: int, context, hint, depth: int = 0
    ) -> _EpisodeEnd:
        stats = self.stats
        config = self.config
        stats.dpred_entries += 1
        self._train_diverge_branch(context)

        mispredicted = context.mispredicted
        resolution = context.resolution
        pred_taken = context.prediction.taken
        record = context.record
        block = record.block
        function = record.function
        ghr1 = context.history_snapshot

        cfm_pcs = hint.cfm_pcs if config.multiple_cfm else (hint.primary_cfm,)
        cam = CfmCam(cfm_pcs)
        p1, p2 = self._alloc_predicates()
        # Section 2.7.3/2.7.4: re-enter dynamic predication for a newer
        # low-confidence diverge branch, but only once the current path has
        # run past the distance at which the compiler expected the CFM
        # point -- the signal that this episode is unlikely to merge.  (The
        # paper observes CFM reach is unlikely exactly when a new diverge
        # branch is encountered, and suggests using additional information
        # to choose between exiting and continuing.)
        expected = (
            hint.early_exit_threshold
            if hint.early_exit_threshold is not None
            else config.early_exit_default_threshold
        )
        restart_after = max(expected // 2, 4)

        # enter.pred.path: defines p1 from the branch condition + direction.
        stats.extra_uops += 1
        self._dispatch_uop(0)
        cp1_rat = self.rat.checkpoint()
        cp1_ready = list(self.reg_ready)
        self.rat.clear_modified()

        # --- predicted path -------------------------------------------------
        self.predictor.restore(ghr1)
        self.predictor.spec_update(pred_taken)
        if pred_taken:
            self._taken_redirect(
                context.instr.pc, self._branch_taken_pc(block, context.instr)
            )
        if mispredicted:
            start = self._successor_block(function, block, pred_taken)
            pred_result = self._fetch_dpred_static_path(
                function,
                start,
                cam,
                resolution,
                limit=config.dpred_path_limit,
                watch_diverge=config.multiple_diverge,
                restart_after=restart_after,
            )
        else:
            start_pos = diverge_pos + 1
            while True:
                pred_result = self._fetch_dpred_trace_path(
                    start_pos,
                    cam,
                    resolution,
                    predicate_id=p1,
                    limit=config.dpred_path_limit,
                    watch_diverge=config.multiple_diverge,
                    restart_after=restart_after,
                )
                if (
                    pred_result.outcome == PathOutcome.NEW_DIVERGE
                    and config.multiple_diverge_policy == "nested"
                    and depth < config.max_nested_diverge
                ):
                    # Section 2.7.4's nested alternative: predicate the
                    # newer diverge branch too (its predicates AND with
                    # ours), then resume our predicted path where the
                    # inner episode left off.
                    stats.nested_episodes += 1
                    inner = self._dpred_once(
                        pred_result.new_position,
                        pred_result.new_context,
                        pred_result.new_hint,
                        depth=depth + 1,
                    )
                    if inner.restart is not None:
                        return inner
                    start_pos = inner.continuation
                    continue
                break

        if self.tracer is not None:
            self.tracer.note_path(
                "predicted",
                pred_result.outcome.value,
                pred_result.instructions,
                cfm_pc=pred_result.cfm_pc,
            )

        if pred_result.outcome == PathOutcome.NEW_DIVERGE:
            return self._handle_new_diverge(
                diverge_pos, context, mispredicted, resolution,
                ghr1, cp1_rat, cp1_ready, pred_result,
            )

        if pred_result.outcome != PathOutcome.REACHED_CFM:
            return self._exit_without_predicted_cfm(
                diverge_pos, context, mispredicted, resolution,
                ghr1, cp1_rat, cp1_ready, pred_result,
            )

        # --- alternate path -------------------------------------------------
        predicted_ghr = self.predictor.snapshot()
        cp2_rat = self.rat.checkpoint()
        cp2_ready = list(self.reg_ready)
        self.rat.restore(cp1_rat)
        self.reg_ready = list(cp1_ready)
        stats.extra_uops += 1  # enter.alternate.path (defines p2 = !p1)
        self._dispatch_uop(0)
        self.predictor.restore(ghr1)
        self.predictor.spec_update(not pred_taken)
        # The redirect back to the diverge branch's other target shares the
        # fetch boundary that the predicted path's last taken transfer (or
        # the walker's first step) already created — no extra bubble.

        if config.early_exit:
            alt_limit = (
                hint.early_exit_threshold
                if hint.early_exit_threshold is not None
                else config.early_exit_default_threshold
            )
        else:
            alt_limit = config.dpred_path_limit

        if mispredicted:
            alt_result = self._fetch_dpred_trace_path(
                diverge_pos + 1,
                cam,
                resolution,
                predicate_id=p2,
                limit=alt_limit,
                watch_diverge=False,
            )
        else:
            start = self._successor_block(function, block, not pred_taken)
            alt_result = self._fetch_dpred_static_path(
                function,
                start,
                cam,
                resolution,
                limit=alt_limit,
                watch_diverge=False,
            )

        if self.tracer is not None:
            self.tracer.note_path(
                "alternate",
                alt_result.outcome.value,
                alt_result.instructions,
                cfm_pc=alt_result.cfm_pc,
            )

        return self._exit_after_alternate(
            diverge_pos, context, mispredicted, resolution, ghr1,
            cp1_rat, cp1_ready, cp2_rat, cp2_ready,
            pred_result, alt_result, predicted_ghr,
        )

    # ------------------------------------------------------------------
    # Exit handling
    # ------------------------------------------------------------------

    def _note_merge_outcome(self, pc: int, outcome, flushed: bool) -> None:
        """Train the merge-point predictor with an episode's outcome.

        ``REACHED_CFM`` reinforces the learned merge point.  A path that
        provably never reached it (``EXHAUSTED`` ran off the function,
        ``LIMIT`` burnt the whole budget) decays the entry's confidence;
        hitting zero retrains it.  ``RESOLVED`` is neutral — the episode
        was truncated by timing (the branch resolved first), which says
        nothing about whether the merge point was right.  ``flushed``
        marks the mispredicted-merge recovery path: the wrong-path work
        was pipeline-flushed AND the table decays, so the next instance
        of the branch is handled by plain prediction while the entry
        re-learns.
        """
        if outcome == PathOutcome.RESOLVED:
            return
        stats = self.stats
        if outcome == PathOutcome.REACHED_CFM:
            stats.mpp_merge_hits += 1
            self._merge_predictor.feedback(pc, hit=True)
            if self.tracer is not None:
                self.tracer.note_merge("hit", pc)
            return
        stats.mpp_merge_misses += 1
        if flushed:
            stats.mpp_recoveries += 1
        if self.tracer is not None:
            self.tracer.note_merge("recovery" if flushed else "miss", pc)
        if self._merge_predictor.feedback(pc, hit=False):
            stats.mpp_retrains += 1
            if self.tracer is not None:
                self.tracer.note_merge("retrain", pc)

    def _flush_diverge_branch(
        self, diverge_pos, context, ghr1, cp1_rat, cp1_ready
    ) -> _EpisodeEnd:
        """The diverge branch was mispredicted and dynamic predication did
        not save it: flush as a normal misprediction (restore pre-branch
        state, resume on the actual path after resolution)."""
        self.stats.mispredictions += 1
        self.stats.pipeline_flushes += 1
        if self.tracer is not None:
            self.tracer.note_flush(
                "dpred-exit", self.cycle, pc=context.instr.pc
            )
        self.rat.restore(cp1_rat)
        self.reg_ready = list(cp1_ready)
        self._advance_fetch_cycle(context.resolution + 1)
        self.predictor.restore(ghr1)
        self.predictor.spec_update(context.actual)
        return _EpisodeEnd(continuation=diverge_pos + 1)

    def _exit_without_predicted_cfm(
        self, diverge_pos, context, mispredicted, resolution,
        ghr1, cp1_rat, cp1_ready, pred_result,
    ) -> _EpisodeEnd:
        """Cases 5 and 6: the predicted path never reached a CFM point."""
        if self._merge_predictor is not None:
            self._note_merge_outcome(
                context.instr.pc, pred_result.outcome, flushed=mispredicted
            )
        if (
            pred_result.outcome
            in (PathOutcome.EXHAUSTED, PathOutcome.LIMIT)
            and self.cycle < resolution
        ):
            # Fetch has nowhere to go (or predication resources ran out):
            # stall until the diverge branch resolves.
            self._advance_fetch_cycle(resolution)
        if mispredicted:
            self._record_exit(ExitCase.FLUSH)
            return self._flush_diverge_branch(
                diverge_pos, context, ghr1, cp1_rat, cp1_ready
            )
        self._record_exit(ExitCase.CONTINUE_PREDICTED)
        # Correct prediction, on-trace path: just keep fetching it.
        return _EpisodeEnd(continuation=pred_result.stopped_position)

    def _exit_after_alternate(
        self, diverge_pos, context, mispredicted, resolution, ghr1,
        cp1_rat, cp1_ready, cp2_rat, cp2_ready, pred_result, alt_result,
        predicted_ghr,
    ) -> _EpisodeEnd:
        stats = self.stats
        outcome = alt_result.outcome
        keep_predicted_ghr = self.config.dpred_ghr_policy == "predicted"

        if self._merge_predictor is not None:
            # The only flush out of this handler is early-exit on a
            # mispredicted diverge branch (the LIMIT branch below).
            self._note_merge_outcome(
                context.instr.pc,
                outcome,
                flushed=(
                    mispredicted
                    and outcome == PathOutcome.LIMIT
                    and self.config.early_exit
                ),
            )

        if outcome == PathOutcome.REACHED_CFM:
            # Cases 1 / 2: normal exit with select-uops.
            stats.extra_uops += 1  # exit.pred
            self._dispatch_uop(0)
            selects = self.rat.compute_selects(cp2_rat)
            if self.oracle is not None:
                self.oracle.note_selects(len(selects))
            if self.tracer is not None:
                self.tracer.note_selects(len(selects))
            for request in selects:
                stats.select_uops += 1
                sources_ready = max(
                    cp2_ready[request.arch],
                    self.reg_ready[request.arch],
                    resolution,
                )
                completion = self._dispatch_uop(sources_ready)
                self.reg_ready[request.arch] = completion
            self.rat.apply_selects(selects)
            if keep_predicted_ghr:
                self.predictor.restore(predicted_ghr)
            if mispredicted:
                self._record_exit(ExitCase.NORMAL_MISPREDICTED)
                stats.mispredictions += 1  # eliminated: no flush
                return _EpisodeEnd(continuation=alt_result.trace_position)
            self._record_exit(ExitCase.NORMAL_CORRECT)
            return _EpisodeEnd(continuation=pred_result.trace_position)

        if outcome == PathOutcome.LIMIT and self.config.early_exit:
            # Early exit (Section 2.7.2): predict the alternate path will
            # never merge; revert to the baseline prediction.
            stats.early_exits += 1
            self.rat.restore(cp2_rat)
            self.reg_ready = list(cp2_ready)
            self.predictor.restore(predicted_ghr)
            self._advance_fetch_cycle()  # redirect to the CFM point
            if mispredicted:
                self._record_exit(ExitCase.FLUSH)
                return self._flush_diverge_branch(
                    diverge_pos, context, ghr1, cp1_rat, cp1_ready
                )
            self._record_exit(ExitCase.REDIRECT_TO_CFM)
            return _EpisodeEnd(continuation=pred_result.trace_position)

        # RESOLVED / EXHAUSTED / LIMIT-without-early-exit: wait for the
        # diverge branch if fetch stalled before it resolved.
        if self.cycle < resolution:
            self._advance_fetch_cycle(resolution)

        if mispredicted:
            # Case 4: the alternate path IS the correct path; keep going.
            self._record_exit(ExitCase.CONTINUE_ALTERNATE)
            stats.mispredictions += 1  # eliminated: no flush
            return _EpisodeEnd(continuation=alt_result.stopped_position)

        # Case 3: the alternate path was wrong-path work; restore the
        # predicted path's end-of-path state and redirect fetch to the CFM.
        self._record_exit(ExitCase.REDIRECT_TO_CFM)
        self.rat.restore(cp2_rat)
        self.reg_ready = list(cp2_ready)
        self.predictor.restore(predicted_ghr)
        self._advance_fetch_cycle()
        return _EpisodeEnd(continuation=pred_result.trace_position)

    def _handle_new_diverge(
        self, diverge_pos, context, mispredicted, resolution,
        ghr1, cp1_rat, cp1_ready, pred_result,
    ) -> _EpisodeEnd:
        """Section 2.7.3: a newer low-confidence diverge branch was fetched
        on the predicted path.  The current diverge branch reverts to a
        normal predicted branch and dynamic predication re-enters for the
        new one."""
        if mispredicted:
            # The predicted path is the wrong path; the restarted episode
            # would be squashed when the old branch resolves — flush now.
            self._record_exit(ExitCase.FLUSH)
            return self._flush_diverge_branch(
                diverge_pos, context, ghr1, cp1_rat, cp1_ready
            )
        return _EpisodeEnd(
            restart=(
                pred_result.new_position,
                pred_result.new_context,
                pred_result.new_hint,
            )
        )



    # ------------------------------------------------------------------
    # Wish branches (Section 5.2 comparison: compile-time predication
    # with a run-time choice)
    # ------------------------------------------------------------------

    def _wish_region_blocks(self, context, hint):
        """The if-converted region for a wish branch (cached per PC)."""
        cache = getattr(self, "_wish_regions", None)
        if cache is None:
            cache = self._wish_regions = {}
        pc = context.instr.pc
        if pc not in cache:
            from repro.profiling.wish_selection import wish_region

            function = context.record.function
            cfg = self.program.function(function)
            try:
                # A corrupted hint can point outside the program or at a
                # mid-block PC; treat it as an empty if-converted region
                # (the episode then degrades to trace-path-only fetch).
                _, merge_block, index = self.program.locate(hint.primary_cfm)
                if index != 0:
                    raise KeyError(hint.primary_cfm)
                region = wish_region(
                    cfg, context.record.block.name, merge_block.name
                )
            except KeyError:
                region = []
            cache[pc] = (cfg, region or [])
        return cache[pc]

    def _run_wish_episode(self, cursor: TraceCursor, context, hint) -> None:
        self._dpred_depth += 1
        tracer = self.tracer
        if tracer is not None:
            tracer.episode_enter(
                "wish",
                pc=context.instr.pc,
                pos=cursor.index,
                depth=self._dpred_depth,
                cycle=self.cycle,
                mispredicted=context.mispredicted,
            )
        if self.oracle is not None:
            self.oracle.note_dpred_enter()
        try:
            self._run_wish_episode_impl(cursor, context, hint)
        finally:
            self._dpred_depth -= 1
            if self.oracle is not None:
                self.oracle.note_dpred_exit()
        if tracer is not None:
            tracer.episode_exit(restart=False, cycle=self.cycle)

    def _run_wish_episode_impl(
        self, cursor: TraceCursor, context, hint
    ) -> None:
        """Execute one wish branch in predicated mode.

        Unlike DMP, compile-time predication fetches EVERY basic block of
        the if-converted region (the paper's point 2), the join point is
        the static post-dominator (point 3), and there are no inner
        branch mispredictions — the whole region is predicate-defined
        straight-line code.  Register writes inside the region behave as
        conditional moves: consumers wait for the predicate (the wish
        branch's resolution).
        """
        stats = self.stats
        stats.dpred_entries += 1
        self._train_diverge_branch(context)
        cfg, region = self._wish_region_blocks(context, hint)
        cfm_pc = hint.primary_cfm
        resolution = context.resolution
        predicate_id, _ = self._alloc_predicates()
        records = self.trace.records

        # Fetch the architecturally-true path from the trace.  Inner
        # branches are if-converted: no prediction, no flush.
        pos = cursor.index + 1
        true_blocks = set()
        region_budget = 4 * self.config.dpred_path_limit
        while pos < len(records):
            record = records[pos]
            block = record.block
            if block.first_pc == cfm_pc:
                break
            self._icache_fetch(block.first_pc)
            self._fetch_trace_block(
                record,
                predicate_id=predicate_id,
                predicate_ready=resolution,
            )
            self._handle_nonbranch_transfer(block)
            true_blocks.add(block.name)
            region_budget -= len(block)
            if region_budget <= 0:
                break
            pos += 1

        # Fetch the rest of the region as predicated-FALSE work.
        written = set()
        for name in region:
            block = cfg.block(name)
            for instr in block.instructions:
                if instr.writes_register:
                    written.add(instr.dest)
            if name not in true_blocks:
                self._fetch_static_dpred_block(block)

        # cmov semantics: every register the region writes is not
        # architecturally selected until the predicate resolves.
        for arch in written:
            if self.reg_ready[arch] < resolution:
                self.reg_ready[arch] = resolution + 1

        if context.mispredicted:
            stats.mispredictions += 1  # eliminated: no flush
            self._record_exit(ExitCase.NORMAL_MISPREDICTED)
        else:
            self._record_exit(ExitCase.NORMAL_CORRECT)
        cursor.restore(pos)

    # ------------------------------------------------------------------
    # Diverge loop branches (Section 2.7.4 extension, wish-loop style)
    # ------------------------------------------------------------------

    def _run_loop_episode(self, cursor: TraceCursor, context, hint) -> None:
        self._dpred_depth += 1
        tracer = self.tracer
        if tracer is not None:
            tracer.episode_enter(
                "loop",
                pc=context.instr.pc,
                pos=cursor.index,
                depth=self._dpred_depth,
                cycle=self.cycle,
                mispredicted=context.mispredicted,
            )
        if self.oracle is not None:
            self.oracle.note_dpred_enter()
        try:
            self._run_loop_episode_impl(cursor, context, hint)
        finally:
            self._dpred_depth -= 1
            if self.oracle is not None:
                self.oracle.note_dpred_exit()
        if tracer is not None:
            tracer.episode_exit(restart=False, cycle=self.cycle)

    def _run_loop_episode_impl(
        self, cursor: TraceCursor, context, hint
    ) -> None:
        """Dynamically predicate trailing loop iterations.

        On a low-confidence *loop-exit* branch the processor enters a loop
        predication mode: it keeps fetching the (trace) path, giving every
        further instance of the same branch its own predicate — like wish
        loops, a mispredicted exit iteration turns into predicated-FALSE
        work instead of a pipeline flush.  The mode ends when fetch
        reaches the loop's exit block (the hint's CFM point), where
        select-uops merge the state of the predicated iterations, or when
        the hardware's path budget runs out.
        """
        stats = self.stats
        config = self.config
        stats.dpred_entries += 1
        self._train_diverge_branch(context)
        loop_pc = context.instr.pc
        cfm_pc = hint.primary_cfm
        deadline = context.resolution
        saved_any = False

        stats.extra_uops += 1  # enter.pred.path
        self._dispatch_uop(0)
        entry_rat = self.rat.checkpoint()
        self.rat.clear_modified()
        predicate_id, _ = self._alloc_predicates()

        # The first instance was already fetched by the caller; if it was
        # itself the mispredicted exit, the very next trace record is the
        # exit block and the save happens immediately below.
        if context.mispredicted:
            saved_any = True
            stats.mispredictions += 1
            stats.loop_iteration_saves += 1
            self._fetch_false_loop_iteration(context.record)

        records = self.trace.records
        pos = cursor.index + 1
        fetched = 0
        while True:
            if self.watchdog is not None:
                self.watchdog.check(self, where="loop-episode", pc=loop_pc)
            if pos >= len(records):
                self._record_exit(ExitCase.CONTINUE_PREDICTED)
                cursor.restore(pos)
                return
            record = records[pos]
            block = record.block
            if block.first_pc == cfm_pc:
                self._finish_loop_episode(entry_rat, deadline, saved_any)
                cursor.restore(pos)
                return
            if fetched + len(block) > config.dpred_path_limit:
                # Checkpoint/predicate resources exhausted: fall back to
                # normal prediction from here on.
                self._record_exit(ExitCase.CONTINUE_PREDICTED)
                cursor.restore(pos)
                return
            self._icache_fetch(block.first_pc)
            terminator = block.terminator
            if terminator is not None and terminator.opcode == Opcode.BR:
                self._fetch_trace_block(
                    record,
                    skip_terminator=True,
                    predicate_id=predicate_id,
                    predicate_ready=deadline,
                )
                completion = self._handle_loop_nested_branch(record)
                if completion is not None:
                    deadline = max(deadline, completion[0])
                    if completion[1]:  # a saved loop-exit misprediction
                        saved_any = True
            else:
                self._fetch_trace_block(
                    record,
                    predicate_id=predicate_id,
                    predicate_ready=deadline,
                )
                self._handle_nonbranch_transfer(block)
            fetched += len(block)
            pos += 1

    def _handle_loop_nested_branch(self, record):
        """Handle a branch inside loop-predication mode.

        Returns ``(completion, was_loop_save)`` for instances of the
        predicated loop branch, or ``None`` after handling any other
        branch the ordinary way (including footnote-11 nested flushes).
        """
        block = record.block
        instr = block.instructions[-1]
        loop_hint = self._usable_hint(instr.pc)
        loop_instance = loop_hint is not None and loop_hint.is_loop
        actual = record.taken
        if self._predictor_is_perfect:
            self.predictor.set_oracle(actual)
        history = self.predictor.snapshot()
        prediction = self.predictor.predict(instr.pc)
        _, completion = self._fetch_branch_instruction(instr)
        self.stats.retired_branches += 1
        context = BranchContext(
            instr, record, prediction, actual, completion, history
        )
        self.predictor.spec_update(prediction.taken)
        self._train_branch(context)
        if not context.mispredicted:
            if prediction.taken:
                self._taken_redirect(
                    instr.pc, self._branch_taken_pc(block, instr)
                )
            return (completion, False) if loop_instance else None
        if loop_instance:
            # The mispredicted (usually exit) iteration is predicated:
            # the machine fetched one extra false iteration's worth of
            # work, but the flush is eliminated.
            self.stats.mispredictions += 1
            self.stats.loop_iteration_saves += 1
            self._fetch_false_loop_iteration(record)
            return (completion, True)
        # Any other branch: normal nested misprediction flush.
        self.stats.mispredictions += 1
        self.stats.pipeline_flushes += 1
        if self.tracer is not None:
            self.tracer.note_flush("loop-nested", self.cycle, pc=instr.pc)
        self._advance_fetch_cycle(completion + 1)
        self.predictor.repair(prediction, actual)
        return None

    def _fetch_false_loop_iteration(self, record) -> None:
        """Charge the predicated-FALSE over-iteration a wish-loop fetches
        past the actual loop exit: one static walk around the loop body,
        bounded, ending when the loop branch's block would re-execute."""
        block = record.block
        function = record.function
        instr = block.instructions[-1]
        # The false path continues in the NOT-actual direction (the
        # predicted, not-exit side); walk it for at most one iteration.
        start = self._successor_block(function, block, not record.taken)
        walker = StaticWalker(
            self.program, function, start, call_stack=self.call_context
        )
        budget = 64
        while not walker.exhausted and budget > 0:
            current = walker.block
            if current.first_pc == block.first_pc:
                break  # back at the loop branch: one iteration done
            for wrong_instr in current.instructions[: budget]:
                self._fetch_slot(wrong_instr.is_cond_branch)
                self.stats.fetched_wrong_cd += 1
                self.stats.executed_instructions += 1
                self.stats.predicated_false_instructions += 1
            budget -= len(current)
            self._step_walker(walker)

    def _finish_loop_episode(self, entry_rat, deadline, saved_any) -> None:
        """Merge the predicated iterations' state at the loop exit."""
        stats = self.stats
        stats.extra_uops += 1  # exit.pred
        self._dispatch_uop(0)
        selects = self.rat.compute_selects(entry_rat)
        if self.oracle is not None:
            self.oracle.note_selects(len(selects))
        if self.tracer is not None:
            self.tracer.note_selects(len(selects))
        for request in selects:
            stats.select_uops += 1
            ready = max(self.reg_ready[request.arch], deadline)
            completion = self._dispatch_uop(ready)
            self.reg_ready[request.arch] = completion
        self.rat.apply_selects(selects)
        self._record_exit(
            ExitCase.NORMAL_MISPREDICTED if saved_any
            else ExitCase.NORMAL_CORRECT
        )

    # ------------------------------------------------------------------
    # Predicated path fetching
    # ------------------------------------------------------------------

    def _fetch_dpred_trace_path(
        self,
        start_pos: int,
        cam: CfmCam,
        resolution: int,
        predicate_id: int,
        limit: int,
        watch_diverge: bool,
        restart_after: int = 0,
    ) -> PathResult:
        """Fetch a trace-backed (predicate-TRUE) path until a CFM point,
        the diverge branch's resolution, or the instruction budget."""
        records = self.trace.records
        pos = start_pos
        fetched = 0
        while True:
            if self.watchdog is not None:
                self.watchdog.check(self, where="dpred-trace-path")
            if pos >= len(records):
                return PathResult(
                    PathOutcome.EXHAUSTED,
                    instructions=fetched,
                    stopped_position=pos,
                )
            record = records[pos]
            block = record.block
            if cam.matches(block.first_pc):
                cam.lock(block.first_pc)
                return PathResult(
                    PathOutcome.REACHED_CFM,
                    instructions=fetched,
                    cfm_pc=block.first_pc,
                    trace_position=pos,
                )
            if self.cycle >= resolution:
                return PathResult(
                    PathOutcome.RESOLVED,
                    instructions=fetched,
                    stopped_position=pos,
                )
            if fetched + len(block) > limit:
                return PathResult(
                    PathOutcome.LIMIT,
                    instructions=fetched,
                    stopped_position=pos,
                )
            self._icache_fetch(block.first_pc)
            terminator = block.terminator
            if terminator is not None and terminator.opcode == Opcode.BR:
                self._fetch_trace_block(
                    record,
                    skip_terminator=True,
                    predicate_id=predicate_id,
                    predicate_ready=resolution,
                )
                result = self._handle_nested_trace_branch(
                    record,
                    pos,
                    fetched,
                    watch_diverge and fetched >= restart_after,
                )
                if result is not None:
                    return result
            else:
                self._fetch_trace_block(
                    record,
                    predicate_id=predicate_id,
                    predicate_ready=resolution,
                )
                self._handle_nonbranch_transfer(block)
            fetched += len(block)
            pos += 1

    def _handle_nested_trace_branch(
        self, record, pos: int, fetched: int, watch_diverge: bool
    ) -> Optional[PathResult]:
        """Predict/train a branch nested inside a predicated path.  Returns
        a NEW_DIVERGE result when the multiple-diverge-branch enhancement
        takes over; otherwise handles the branch inline (including nested
        misprediction flushes per footnote 11) and returns None."""
        block = record.block
        instr = block.instructions[-1]
        actual = record.taken
        if self._predictor_is_perfect:
            self.predictor.set_oracle(actual)
        history = self.predictor.snapshot()
        prediction = self.predictor.predict(instr.pc)
        _, completion = self._fetch_branch_instruction(instr)
        self.stats.retired_branches += 1
        context = BranchContext(
            instr, record, prediction, actual, completion, history
        )
        if watch_diverge:
            hint = self._usable_hint(instr.pc)
            if hint is not None:
                if self._confidence_is_perfect:
                    self.confidence.set_oracle(not context.mispredicted)
                if not self.confidence.is_confident(instr.pc, history):
                    return PathResult(
                        PathOutcome.NEW_DIVERGE,
                        instructions=fetched,
                        new_context=context,
                        new_hint=hint,
                        new_position=pos,
                    )
        self.predictor.spec_update(prediction.taken)
        self._train_branch(context)
        if context.mispredicted:
            # Footnote 11: flush the younger instructions and restart fetch
            # *in dynamic-predication mode* from the branch's correct path
            # (which is exactly where the trace continues).
            self.stats.mispredictions += 1
            self.stats.pipeline_flushes += 1
            if self.tracer is not None:
                self.tracer.note_flush("nested", self.cycle, pc=instr.pc)
            self._advance_fetch_cycle(completion + 1)
            self.predictor.repair(prediction, actual)
        elif prediction.taken:
            self._taken_redirect(
                instr.pc, self._branch_taken_pc(block, instr)
            )
        return None

    def _fetch_dpred_trace_path_fast(
        self,
        start_pos: int,
        cam: CfmCam,
        resolution: int,
        predicate_id: int,
        limit: int,
        watch_diverge: bool,
        restart_after: int = 0,
    ) -> PathResult:
        """:meth:`_fetch_dpred_trace_path` over block plans: identical
        control flow and call sequence, with the per-block static-fact
        lookups (first PC, length, terminator kind) read from the plan
        and the L1I hit path inlined."""
        records = self.trace.records
        n_records = len(records)
        watchdog = self.watchdog
        cam_matches = cam.matches
        block_plan = self.analysis.block_plan
        fetch_trace_block = self._fetch_trace_block
        inst_access = self.hierarchy.inst_access
        l1i_latency = self.hierarchy.l1i.latency
        pos = start_pos
        fetched = 0
        while True:
            if watchdog is not None:
                watchdog.check(self, where="dpred-trace-path")
            if pos >= n_records:
                return PathResult(
                    PathOutcome.EXHAUSTED,
                    instructions=fetched,
                    stopped_position=pos,
                )
            record = records[pos]
            block = record.block
            plan = block._plan
            if plan is None:
                plan = block_plan(block, record.function)
            first_pc = plan.first_pc
            if cam_matches(first_pc):
                cam.lock(first_pc)
                return PathResult(
                    PathOutcome.REACHED_CFM,
                    instructions=fetched,
                    cfm_pc=first_pc,
                    trace_position=pos,
                )
            if self.cycle >= resolution:
                return PathResult(
                    PathOutcome.RESOLVED,
                    instructions=fetched,
                    stopped_position=pos,
                )
            if fetched + plan.n > limit:
                return PathResult(
                    PathOutcome.LIMIT,
                    instructions=fetched,
                    stopped_position=pos,
                )
            extra = inst_access(first_pc // 8) - l1i_latency
            if extra > 0:
                self._advance_fetch_cycle(self.cycle + extra)
            if plan.term_kind == TERM_BR:
                fetch_trace_block(
                    record,
                    skip_terminator=True,
                    predicate_id=predicate_id,
                    predicate_ready=resolution,
                )
                result = self._handle_nested_trace_branch(
                    record,
                    pos,
                    fetched,
                    watch_diverge and fetched >= restart_after,
                )
                if result is not None:
                    return result
            else:
                fetch_trace_block(
                    record,
                    predicate_id=predicate_id,
                    predicate_ready=resolution,
                )
                self._transfer_fast(plan)
            fetched += plan.n
            pos += 1

    def _fetch_dpred_static_path(
        self,
        function: str,
        start_block,
        cam: CfmCam,
        resolution: int,
        limit: int,
        watch_diverge: bool,
        restart_after: int = 0,
    ) -> PathResult:
        """Fetch a wrong-path (predicate-FALSE) path by walking the static
        CFG behind the branch predictor."""
        if start_block is None:
            return PathResult(PathOutcome.EXHAUSTED)
        walker = StaticWalker(
            self.program, function, start_block,
            call_stack=self.call_context,
        )
        fetched = 0
        while True:
            if self.watchdog is not None:
                self.watchdog.check(self, where="dpred-static-path")
            if walker.exhausted:
                return PathResult(
                    PathOutcome.EXHAUSTED, instructions=fetched
                )
            block = walker.block
            if cam.matches(block.first_pc):
                cam.lock(block.first_pc)
                return PathResult(
                    PathOutcome.REACHED_CFM,
                    instructions=fetched,
                    cfm_pc=block.first_pc,
                )
            if self.cycle >= resolution:
                return PathResult(
                    PathOutcome.RESOLVED, instructions=fetched
                )
            if fetched + len(block) > limit:
                return PathResult(PathOutcome.LIMIT, instructions=fetched)
            self._fetch_static_dpred_block(block)
            if (
                watch_diverge
                and fetched >= restart_after
                and block.ends_in_branch
            ):
                instr = block.instructions[-1]
                if self._usable_hint(instr.pc) is not None:
                    confident = (
                        self._confidence_is_perfect
                        or self.confidence.is_confident(
                            instr.pc, self.predictor.snapshot()
                        )
                    )
                    if not confident:
                        return PathResult(
                            PathOutcome.NEW_DIVERGE, instructions=fetched
                        )
            fetched += len(block)
            self._step_walker(walker)

    def _fetch_dpred_static_path_fast(
        self,
        function: str,
        start_block,
        cam: CfmCam,
        resolution: int,
        limit: int,
        watch_diverge: bool,
        restart_after: int = 0,
    ) -> PathResult:
        """:meth:`_fetch_dpred_static_path` over block plans: the
        :class:`StaticWalker` stepping (including its shadow call stack
        and per-branch predict/spec-update) is replayed over the plan's
        direct successor references, with identical call sequence into
        the predictor and fetch-cycle bookkeeping."""
        if start_block is None:
            return PathResult(PathOutcome.EXHAUSTED)
        watchdog = self.watchdog
        cam_matches = cam.matches
        block_plan = self.analysis.block_plan
        fetch_block = self._fetch_static_dpred_block
        usable_hint = self._usable_hint
        predictor = self.predictor
        predict = predictor.predict
        spec_update = predictor.spec_update
        confidence = self.confidence
        confidence_is_perfect = self._confidence_is_perfect
        call_stack = list(self.call_context)
        current = start_block
        cur_function = function
        fetched = 0
        while True:
            if watchdog is not None:
                watchdog.check(self, where="dpred-static-path")
            if current is None:
                return PathResult(
                    PathOutcome.EXHAUSTED, instructions=fetched
                )
            plan = current._plan
            if plan is None:
                plan = block_plan(current, cur_function)
            first_pc = plan.first_pc
            if cam_matches(first_pc):
                cam.lock(first_pc)
                return PathResult(
                    PathOutcome.REACHED_CFM,
                    instructions=fetched,
                    cfm_pc=first_pc,
                )
            if self.cycle >= resolution:
                return PathResult(
                    PathOutcome.RESOLVED, instructions=fetched
                )
            if fetched + plan.n > limit:
                return PathResult(PathOutcome.LIMIT, instructions=fetched)
            fetch_block(current)
            term_kind = plan.term_kind
            if (
                watch_diverge
                and fetched >= restart_after
                and term_kind == TERM_BR
            ):
                if usable_hint(plan.term_pc) is not None:
                    confident = confidence_is_perfect or (
                        confidence.is_confident(
                            plan.term_pc, predictor.snapshot()
                        )
                    )
                    if not confident:
                        return PathResult(
                            PathOutcome.NEW_DIVERGE, instructions=fetched
                        )
            fetched += plan.n
            # _step_walker over the plan's successor references.
            if term_kind == TERM_BR:
                prediction = predict(plan.term_pc)
                taken = prediction.taken
                spec_update(taken)
                if taken:
                    self._advance_fetch_cycle()  # taken ends the cycle
                    current = plan.taken_block
                else:
                    current = plan.fall_block
            elif term_kind == TERM_NONE:
                current = plan.fall_block
            else:
                self._advance_fetch_cycle()  # jmp/call/ret redirect
                if term_kind == TERM_JMP:
                    current = plan.target_block
                elif term_kind == TERM_CALL:
                    if plan.fallthrough_name is not None:
                        call_stack.append(
                            (cur_function, plan.fallthrough_name)
                        )
                    cur_function = plan.callee_name
                    current = plan.callee_block
                else:  # TERM_RET
                    if not call_stack:
                        current = None  # walked off the program
                    else:
                        cur_function, return_block = call_stack.pop()
                        current = self.program.function(
                            cur_function
                        ).block(return_block)

    def _fetch_static_dpred_block(self, block) -> None:
        """Fetch and 'execute' one predicate-FALSE block: the instructions
        occupy fetch/window/retire resources and are counted, but their
        values are wrong-path garbage nothing downstream reads."""
        depth = self.config.pipeline_depth
        for instr in block.instructions:
            fetch_cycle = self._fetch_slot(instr.is_cond_branch)
            self.stats.fetched_wrong_cd += 1
            base = max(fetch_cycle + depth, self._sources_ready(instr))
            if instr.is_load:
                completion = base + self.hierarchy.l1d.latency
            else:
                completion = base + max(instr.latency, 1)
            if instr.writes_register:
                self.rat.rename_dest(instr.dest)
                self.reg_ready[instr.dest] = completion
            # Predicate-FALSE work frees its window resources as soon as
            # the predicate resolves; like the inserted uops it is kept out
            # of the reorder-buffer ring (see _dispatch_uop's rationale).
            self.stats.executed_instructions += 1
            self.stats.predicated_false_instructions += 1

    def _fetch_static_dpred_block_fast(self, block) -> None:
        """:meth:`_fetch_static_dpred_block` over the block's plan:
        identical accounting (including the window-full stall — these
        instructions check the reorder buffer but never allocate into
        it), with the fetch state on locals and batched stats."""
        plan = block._plan
        if plan is None:
            plan = self.analysis.block_plan(block)
        rows = plan.rows
        if not rows:
            return
        cycle = self.cycle
        slots = self.slots
        branches_left = self.branches_left
        seq = self.seq
        dual_until = self.dual_until
        retire_ring = self.retire_ring
        reg_ready = self.reg_ready
        depth = self._pipeline_depth
        rob_size = self._rob_size
        fetch_width = self._fetch_width
        half_width = self._half_width
        max_branches = self._max_branches
        # rat.rename_dest, inlined (see _fetch_trace_block_fast: nothing
        # rebinds the RAT's lists inside a block fetch).
        rat = self.rat
        rat_mapping = rat._mapping
        rat_modified = rat._modified
        next_tag = rat._next_tag
        l1d_latency = self.hierarchy.l1d.latency
        executed = 0
        for cond, kind, _latency, latency1, dest, srcs in rows:
            if seq >= rob_size:
                oldest = retire_ring[seq % rob_size]
                if cycle < oldest:
                    cycle = oldest  # max(cycle + 1, oldest) with cycle < oldest
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
            base = cycle + depth
            for src in srcs:
                ready = reg_ready[src]
                if ready > base:
                    base = ready
            if kind == 1:  # KIND_LOAD: false-path loads charge an L1 hit
                completion = base + l1d_latency
            else:
                completion = base + latency1
            if dest >= 0:
                rat_mapping[dest] = next_tag
                rat_modified[dest] = True
                next_tag += 1
                reg_ready[dest] = completion
            executed += 1
        self.cycle = cycle
        self.slots = slots
        self.branches_left = branches_left
        rat._next_tag = next_tag
        stats = self.stats
        stats.fetched_wrong_cd += executed
        stats.executed_instructions += executed
        stats.predicated_false_instructions += executed

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _successor_block(self, function: str, block, taken: bool):
        """The block reached by taking (or not taking) a branch."""
        cfg = self.program.function(function)
        instr = block.instructions[-1]
        if taken:
            return cfg.block(instr.target)
        if block.fallthrough is None:
            return None
        return cfg.block(block.fallthrough)
