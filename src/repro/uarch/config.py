"""Machine configuration, mirroring Table 2 of the paper.

The defaults reproduce the baseline processor: 8-wide fetch ending at the
first predicted-taken branch and at most 3 conditional branches per cycle,
a 30-stage pipeline (minimum misprediction penalty), a 512-entry reorder
buffer, perceptron direction prediction, a JRS confidence estimator, and
the Table 2 cache hierarchy.  ``mode`` selects the front-end policy under
evaluation (baseline / DMP / DHP / dual-path); the three ``enhanced-*``
flags correspond to the cumulative enhancements of Figure 9.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

from repro.branch.btb import BranchTargetBuffer

#: Sizes a machine needs at least one of, and latencies and budgets
#: that may be zero but not negative.
_POSITIVE = (
    "fetch_width", "rob_size", "retire_width", "max_branches_per_cycle",
    "store_buffer_size", "ras_depth", "btb_entries", "dpred_path_limit",
)
_NON_NEGATIVE = (
    "pipeline_depth", "memory_latency", "prefetch_lines",
    "early_exit_default_threshold", "max_nested_diverge",
)

#: Valid front-end policies.  ``"mpp"`` is hint-free DMP: the same
#: dynamic-predication engine, with the CFM points learned at run time
#: by the dynamic merge-point predictor instead of supplied by the
#: compiler (docs/merge_point_prediction.md).
MODES = ("baseline", "dmp", "dhp", "dualpath", "wish", "mpp")


@dataclasses.dataclass
class MachineConfig:
    # Front end (Table 2)
    fetch_width: int = 8
    max_branches_per_cycle: int = 3
    pipeline_depth: int = 30
    # Execution core (Table 2)
    rob_size: int = 512
    retire_width: int = 8
    store_buffer_size: int = 128
    # Predictors
    predictor_kind: str = "perceptron"
    predictor_args: Dict = dataclasses.field(default_factory=dict)
    confidence_kind: str = "jrs"
    confidence_args: Dict = dataclasses.field(default_factory=dict)
    btb_entries: int = 4096
    ras_depth: int = 64
    # Policy under evaluation
    mode: str = "baseline"
    # DMP enhancements (Section 2.7), cumulative in the paper's Figure 9
    multiple_cfm: bool = False
    early_exit: bool = False
    multiple_diverge: bool = False
    #: Static alternate-path instruction budget for early exit when the
    #: compiler did not choose a per-branch threshold.
    early_exit_default_threshold: int = 48
    #: Hard bound on instructions fetched per dpred path (a real machine
    #: bounds this by checkpoint/ROB resources).
    dpred_path_limit: int = 256
    #: Predicate hard-to-predict loop-exit branches marked ``is_loop``
    #: (the Section 2.7.4 "diverge loop branches" extension, wish-loop
    #: style).  Off by default: the paper's mainline machine skips them.
    loop_predication: bool = False
    #: How the multiple-diverge-branch enhancement handles a newer
    #: low-confidence diverge branch on the predicted path:
    #: ``"restart"`` (the paper's mainline Section 2.7.3 policy: exit and
    #: re-enter) or ``"nested"`` (the Section 2.7.4 alternative: predicate
    #: it too, with AND-ed predicates).
    multiple_diverge_policy: str = "restart"
    #: Maximum nesting depth under the "nested" policy.
    max_nested_diverge: int = 2
    #: Section 2.7.4's "selective branch predictor update policy": do not
    #: train the direction predictor with dynamically-predicated diverge
    #: branch instances (Klauser et al. found this removes destructive
    #: interference).
    selective_predictor_update: bool = False
    # Dynamic merge-point predictor sizing (mode "mpp" only; see
    # docs/merge_point_prediction.md for the geometry rationale)
    #: Tagged-table capacity (static branches tracked, LRU replacement).
    merge_table_entries: int = 128
    #: Merge-point candidates kept per branch entry.
    merge_max_candidates: int = 8
    #: Observation-window budget: how far past a branch instance the
    #: hardware looks for its reconvergence point, in instructions.
    merge_window_instructions: int = 120
    #: Instances required on BOTH directions before an entry predicts.
    merge_min_instances: int = 16
    #: Fraction of instances (per direction) a candidate must follow.
    merge_min_fraction: float = 0.7
    #: Saturating episode-outcome confidence counter: initial value,
    #: ceiling, and the decay per provable non-merge.  Confidence
    #: reaching zero retrains the entry (mispredicted-merge recovery).
    merge_conf_init: int = 2
    merge_conf_max: int = 7
    merge_miss_penalty: int = 2
    #: Which path's final global history survives a normal dpred exit:
    #: ``"predicted"`` or ``"alternate"``.  The paper chose the alternate
    #: path's GHR "based on simulation results" (footnote 7); on our
    #: synthetic workloads — whose branches are more history-correlated
    #: than SPEC — the predicted path's GHR measures better, so that is
    #: the default.  Both are equally implementable (both GHRs are
    #: checkpointed during dynamic predication).
    dpred_ghr_policy: str = "predicted"
    #: Simulation engine: ``"fast"`` (default) runs the pre-decoded
    #: block-plan inner loops (:mod:`repro.uarch.plan`);
    #: ``"reference"`` keeps the original per-instruction loops;
    #: ``"batch"`` routes the run through the vectorized lockstep
    #: engine (:mod:`repro.uarch.batch`), which simulates many cells
    #: over numpy struct-of-arrays and falls back to the fast engine
    #: for configurations outside its vector envelope.  All engines
    #: produce bit-identical :class:`~repro.uarch.stats.SimStats`
    #: (asserted by tests/core/test_engine_differential.py and
    #: tests/core/test_engine_batch.py), and the choice deliberately
    #: does not appear in :meth:`describe` so the stats of the engines
    #: compare equal field-for-field.
    engine: str = "fast"
    # Memory
    memory_latency: int = 300
    #: Sequential-stream prefetch depth on L1D misses (0 disables); an
    #: extension knob for the memory-system ablations.
    prefetch_lines: int = 0
    # Robustness / validation (docs/robustness.md)
    #: Cross-check the run against the functional trace and the
    #: dynamic-predication invariants (repro.validation.oracle); raises
    #: :class:`~repro.errors.OracleMismatchError` on any violation.
    oracle_checks: bool = False
    #: Bound simulated cycles and forward progress
    #: (repro.validation.watchdog); raises
    #: :class:`~repro.errors.SimulationHangError` instead of hanging.
    watchdog: bool = False
    #: Explicit watchdog cycle budget; ``None`` derives one from the
    #: trace length (AUTO_CYCLE_FACTOR cycles per instruction).
    watchdog_cycle_limit: Optional[int] = None

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.dpred_ghr_policy not in ("predicted", "alternate"):
            raise ValueError(
                "dpred_ghr_policy must be 'predicted' or 'alternate'"
            )
        if self.multiple_diverge_policy not in ("restart", "nested"):
            raise ValueError(
                "multiple_diverge_policy must be 'restart' or 'nested'"
            )
        if self.engine not in ("fast", "reference", "batch"):
            raise ValueError(
                f"engine must be 'fast', 'reference' or 'batch', "
                f"got {self.engine!r}"
            )
        for name in _POSITIVE:
            if getattr(self, name) < 1:
                raise ValueError(
                    f"{name} must be positive, got {getattr(self, name)}"
                )
        for name in _NON_NEGATIVE:
            if getattr(self, name) < 0:
                raise ValueError(
                    f"{name} must be non-negative, got {getattr(self, name)}"
                )
        ways = BranchTargetBuffer.DEFAULT_WAYS
        if self.btb_entries % ways:
            raise ValueError(
                f"btb_entries must divide into the BTB's {ways} ways, "
                f"got {self.btb_entries}"
            )
        if (
            self.merge_table_entries <= 0
            or self.merge_max_candidates <= 0
            or self.merge_window_instructions <= 0
            or self.merge_min_instances <= 0
        ):
            raise ValueError("merge-predictor sizes must be positive")
        if not 0.0 < self.merge_min_fraction <= 1.0:
            raise ValueError("merge_min_fraction must be in (0, 1]")
        if self.merge_conf_init <= 0 or self.merge_conf_max < self.merge_conf_init:
            raise ValueError(
                "merge confidence needs 0 < merge_conf_init <= merge_conf_max"
            )
        if self.merge_miss_penalty < 0:
            raise ValueError("merge_miss_penalty must be non-negative")
        if self.watchdog_cycle_limit is not None and self.watchdog_cycle_limit <= 0:
            raise ValueError("watchdog_cycle_limit must be positive or None")

    # -- named configurations ---------------------------------------------

    @classmethod
    def baseline(cls, **overrides) -> "MachineConfig":
        """The Table 2 baseline processor."""
        return cls(**overrides)

    @classmethod
    def dmp(cls, enhanced: bool = False, **overrides) -> "MachineConfig":
        """Basic DMP, or the fully-enhanced DMP of Figure 9 when
        ``enhanced`` is set."""
        flags = dict(mode="dmp")
        if enhanced:
            flags.update(
                multiple_cfm=True, early_exit=True, multiple_diverge=True
            )
        flags.update(overrides)
        return cls(**flags)

    @classmethod
    def dhp(cls, **overrides) -> "MachineConfig":
        """Dynamic Hammock Predication (Klauser et al.)."""
        return cls(mode="dhp", **overrides)

    @classmethod
    def dualpath(cls, **overrides) -> "MachineConfig":
        """Selective dual-path execution (Heil & Smith).

        Forks only on fully-unconfident branches (saturated JRS
        threshold): forking costs half the fetch bandwidth, so it needs a
        much higher misprediction probability than dynamic predication to
        pay off."""
        overrides.setdefault("confidence_args", {"threshold": None})
        return cls(mode="dualpath", **overrides)

    def replace(self, **overrides) -> "MachineConfig":
        """A copy with the given fields overridden."""
        return dataclasses.replace(self, **overrides)

    def hardened(self, cycle_limit: Optional[int] = None) -> "MachineConfig":
        """A copy with the oracle cross-checker and watchdog armed (the
        ``--paranoid`` configuration; see docs/robustness.md)."""
        return self.replace(
            oracle_checks=True,
            watchdog=True,
            watchdog_cycle_limit=cycle_limit,
        )

    @classmethod
    def wish(cls, **overrides) -> "MachineConfig":
        """Wish branches (Kim et al.): compile-time if-converted regions
        with a run-time choice between predicated execution and normal
        branch prediction.  With ``confidence_kind="never"`` this machine
        degenerates to classic always-on compile-time predication."""
        return cls(mode="wish", **overrides)

    @classmethod
    def mpp(cls, **overrides) -> "MachineConfig":
        """Hint-free DMP (dynamic merge-point prediction, after Pruett &
        Patt): CFM points are learned at run time from retired control
        flow, so no profiling pass — and no hint table — exists anywhere
        in the loop.  Episodes run on the same dynamic-predication
        engine as ``dmp``."""
        return cls(mode="mpp", **overrides)

    @property
    def is_predicating(self) -> bool:
        return self.mode in ("dmp", "dhp", "wish", "mpp")

    def describe(self) -> str:
        """Human-readable one-line summary (used by the harness tables)."""
        extras = []
        if self.mode == "dmp":
            for flag, label in (
                (self.multiple_cfm, "mcfm"),
                (self.early_exit, "eexit"),
                (self.multiple_diverge, "mdb"),
            ):
                if flag:
                    extras.append(label)
        suffix = f" +{'+'.join(extras)}" if extras else ""
        return (
            f"{self.mode}{suffix}: {self.fetch_width}-wide, "
            f"{self.pipeline_depth}-stage, {self.rob_size}-entry ROB, "
            f"{self.predictor_kind}/{self.confidence_kind}"
        )
