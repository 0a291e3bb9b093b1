"""Dynamic merge-point prediction (hint-free DMP, mode ``"mpp"``).

The paper's deployment weak spot is the profiling pass: every diverge
branch and CFM point is compiler-selected (Section 2.1), so a binary
with no profile — or a phase-changing input — gets no dynamic
predication at all.  Pruett & Patt's *Dynamic Merge Point Prediction*
(TR-HPS-2020-001) shows the reconvergence points can be learned at run
time from retired control flow.  This module implements that mechanism
at the fidelity this repository needs:

* :class:`MergePointPredictor` — a small tagged table, keyed by branch
  PC with LRU replacement, that observes the retired block/branch
  stream through the post-branch observation windows of
  :mod:`repro.profiling.windows` (the rule profile run 2 uses).  Each
  entry keeps a bounded candidate set of block-start PCs seen (soon)
  after both directions of the branch, plus a saturating confidence
  counter driven by episode outcomes: a dpred episode whose alternate
  path reaches the learned point reinforces it, one that provably
  cannot reach it decays it, and a confidence collapse *retrains* the
  entry (its candidate statistics are cleared so the point is
  re-learned from scratch — the table-side half of mispredicted-merge
  recovery; the pipeline-side half is the ordinary Table 1 case-6
  flush).  :func:`learn_hints_from_trace` runs it offline over a trace
  prefix and freezes what it learned into a compiler-style hint table.

* :class:`LearnedHintTable` — duck-types the read side of
  :class:`~repro.isa.encoding.HintTable` over a predictor, so
  ``PredicationAwareSimulator`` consumes learned CFM points through the
  exact interface compiler hints arrive on.  Lookups are strictly
  side-effect-free: the engines call ``hints.get`` from nested-branch
  and static-path code too, and bit-identity between the reference and
  fast engines requires that a lookup never advances predictor state.
  All learning happens in ``observe_to`` (called from the shared
  ``_maybe_enter_dpred`` hook at identical points in both engines) and
  ``feedback`` (called from the shared episode exit handlers).

See docs/merge_point_prediction.md for table geometry, the recovery
policy and measured accuracy.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.isa.encoding import DivergeHint, HintTable
from repro.profiling.windows import ObservationWindows


class _MergeEntry:
    """One tagged table entry: the learning state for one static branch."""

    __slots__ = (
        "seen", "instances", "distance", "max_candidates", "confidence",
        "tick",
    )

    def __init__(self, max_candidates: int, confidence: int) -> None:
        #: candidate pc -> [count_after_not_taken, count_after_taken]
        self.seen: Dict[int, List[int]] = {}
        self.instances = [0, 0]
        self.distance: Dict[int, int] = {}
        self.max_candidates = max_candidates
        self.confidence = confidence
        self.tick = 0

    def record_instance(self, side: int, first_seen: Dict[int, int]) -> None:
        """One closed observation window (``side`` 1 = taken)."""
        self.instances[side] += 1
        seen = self.seen
        for pc, distance in first_seen.items():
            counts = seen.get(pc)
            if counts is None:
                if len(seen) >= self.max_candidates:
                    continue  # table full: drop late arrivals
                counts = seen[pc] = [0, 0]
                self.distance[pc] = distance
            counts[side] += 1

    def retrain(self, confidence: int) -> None:
        """Confidence collapsed: clear the candidate statistics so the
        merge point is re-learned (the tag itself stays allocated)."""
        self.seen.clear()
        self.instances[0] = 0
        self.instances[1] = 0
        self.distance.clear()
        self.confidence = confidence


class MergePointPredictor:
    """Online merge-point learning over the retired stream.

    Observation windows (:mod:`repro.profiling.windows`) feed a
    hardware-shaped tagged table with LRU replacement, whose entries
    carry an episode-outcome confidence loop.
    """

    def __init__(
        self,
        table_entries: int = 128,
        max_candidates: int = 8,
        window_instructions: int = 120,
        min_instances: int = 16,
        min_fraction: float = 0.7,
        conf_init: int = 2,
        conf_max: int = 7,
        miss_penalty: int = 2,
    ) -> None:
        self.table_entries = table_entries
        self.max_candidates = max_candidates
        self.window_instructions = window_instructions
        self.min_instances = min_instances
        self.min_fraction = min_fraction
        self.conf_init = conf_init
        self.conf_max = conf_max
        self.miss_penalty = miss_penalty
        self._entries: Dict[int, _MergeEntry] = {}
        self._windows = ObservationWindows(window_instructions)
        self._tick = 0
        #: Trace position up to which the retired stream has been
        #: observed (see :meth:`observe_to`).
        self.observed_upto = 0
        #: Lifetime counters (table behaviour, not episode outcomes —
        #: those land on :class:`~repro.uarch.stats.SimStats`).
        self.evictions = 0
        self.retrains = 0

    @classmethod
    def from_config(cls, config) -> "MergePointPredictor":
        """Build a predictor from a :class:`MachineConfig`'s sizing knobs."""
        return cls(
            table_entries=config.merge_table_entries,
            max_candidates=config.merge_max_candidates,
            window_instructions=config.merge_window_instructions,
            min_instances=config.merge_min_instances,
            min_fraction=config.merge_min_fraction,
            conf_init=config.merge_conf_init,
            conf_max=config.merge_conf_max,
            miss_penalty=config.merge_miss_penalty,
        )

    # -- the retired-stream interface ----------------------------------

    def observe_to(self, records, upto: int) -> None:
        """Catch the predictor up with the retired stream: observe every
        trace record in ``[observed_upto, upto)``.

        Both engines call this from the shared ``_maybe_enter_dpred``
        hook with the same cursor positions in the same order, so the
        table state at every hint lookup is identical between them —
        the mpp bit-identity argument in one sentence.
        """
        pos = self.observed_upto
        if upto <= pos:
            return
        observe_block = self._windows.observe
        for record in records[pos:upto]:
            block = record.block
            observe_block(block.first_pc, len(block.instructions))
            if record.taken is not None:
                self.observe_branch(
                    block.instructions[-1].pc,
                    record.taken,
                    block_pc=block.first_pc,
                )
        self.observed_upto = upto

    def observe_block(self, block_pc: int, block_size: int) -> None:
        """A basic block retired: feed every open observation window."""
        self._windows.observe(block_pc, block_size)

    def observe_branch(
        self, pc: int, taken: bool, block_pc: Optional[int] = None
    ) -> None:
        """A conditional branch retired: touch its table entry (allocating
        — and possibly evicting — on a tag miss) and open a window."""
        self._tick += 1
        entry = self._entries.get(pc)
        if entry is None:
            if len(self._entries) >= self.table_entries:
                victim = min(
                    self._entries, key=lambda p: (self._entries[p].tick, p)
                )
                del self._entries[victim]
                self.evictions += 1
            entry = self._entries[pc] = _MergeEntry(
                self.max_candidates, self.conf_init
            )
        entry.tick = self._tick
        own = block_pc if block_pc is not None else pc
        self._windows.open(entry, int(taken), own)

    # -- queries (side-effect-free) ------------------------------------

    def predict(self, pc: int) -> Tuple[int, ...]:
        """The learned merge-point candidates for a branch, closest
        first (empty when nothing qualifies yet).  Strictly pure: the
        engines look up learned hints from nested-branch and static-path
        code, and those lookups must not perturb table state.
        """
        entry = self._entries.get(pc)
        if entry is None:
            return ()
        instances = entry.instances
        if instances[0] < self.min_instances or instances[1] < self.min_instances:
            return ()
        threshold = self.min_fraction
        qualifying = []
        for candidate, counts in entry.seen.items():
            if candidate == pc:
                continue  # a branch can never merge at itself
            if (
                counts[0] / instances[0] >= threshold
                and counts[1] / instances[1] >= threshold
            ):
                qualifying.append((entry.distance[candidate], candidate))
        qualifying.sort()
        return tuple(candidate for _, candidate in qualifying)

    def trained_branches(self) -> List[int]:
        """Branch PCs with at least one qualifying merge point."""
        return sorted(pc for pc in self._entries if self.predict(pc))

    # -- the episode-outcome confidence loop ---------------------------

    def feedback(self, pc: int, hit: bool) -> bool:
        """An episode opened with this branch's learned point resolved:
        reinforce on a merge, decay on a provable non-merge.  Returns
        True when the miss collapsed confidence and retrained the entry.
        """
        entry = self._entries.get(pc)
        if entry is None:
            return False  # evicted between the episode and its exit
        if hit:
            if entry.confidence < self.conf_max:
                entry.confidence += 1
            return False
        entry.confidence -= self.miss_penalty
        if entry.confidence <= 0:
            entry.retrain(self.conf_init)
            self.retrains += 1
            return True
        return False


def learn_hints_from_trace(trace, warmup_fraction: float = 0.25) -> HintTable:
    """The hint table a compiler-free DMP would operate with: train a
    default :class:`MergePointPredictor` on the first ``warmup_fraction``
    of the trace, freeze it, and hint each learned branch at its closest
    merge point.

    The rest of the trace is what a timing simulation then measures; in
    real hardware learning continues, so this is conservative.
    """
    predictor = MergePointPredictor()
    predictor.observe_to(
        trace.records, int(len(trace.records) * warmup_fraction)
    )
    table = HintTable()
    for pc in predictor.trained_branches():
        table.add(pc, DivergeHint(predictor.predict(pc)[:1]))
    return table


class LearnedHintTable:
    """The read side of :class:`~repro.isa.encoding.HintTable`, backed by
    a :class:`MergePointPredictor` instead of compiler output.

    ``get`` builds a fresh :class:`DivergeHint` from the current learned
    candidates — so a branch's hint appears once the predictor trains,
    changes as candidates shift, and vanishes after a retrain — and is
    as side-effect-free as the predictor's ``predict``.  Learned hints
    never mark loops and never carry a compiler early-exit threshold.
    """

    __slots__ = ("_predictor",)

    def __init__(self, predictor: MergePointPredictor) -> None:
        self._predictor = predictor

    @property
    def predictor(self) -> MergePointPredictor:
        return self._predictor

    def get(self, branch_pc: int) -> Optional[DivergeHint]:
        cfm_pcs = self._predictor.predict(branch_pc)
        if not cfm_pcs:
            return None
        return DivergeHint(cfm_pcs)

    def is_diverge_branch(self, branch_pc: int) -> bool:
        return self.get(branch_pc) is not None

    def __contains__(self, branch_pc: int) -> bool:
        return self.get(branch_pc) is not None

    def __len__(self) -> int:
        return len(self._predictor.trained_branches())

    def __iter__(self):
        for pc in self._predictor.trained_branches():
            yield pc, self.get(pc)
