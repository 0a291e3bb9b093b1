"""The traced round: which ``repro`` functions are wrapped, and the
per-layer metrics their spans yield.

Each function is wrapped at the attribute its caller looks up: the
names ``repro.harness.experiment`` and ``repro.fuzz.harness`` import
from the profiling and simulation modules, ``repro.core.processors``
for the batch engine's per-cell fallbacks, and methods on their
classes.  Nothing inside ``repro`` is traced.
"""

from __future__ import annotations

from typing import Dict, List

from spans import Patches, Recorder, Span, reconcile, self_times

#: Selection passes wrapped under ``profiling.select``, per module.
_SELECT = (
    "candidate_branch_pcs",
    "collect_reconvergence",
    "select_diverge_branches",
    "build_hint_table",
    "find_simple_hammocks",
)


def _simulate_span(args, kwargs) -> str:
    config = args[2] if len(args) > 2 else kwargs.get("config")
    engine = config.engine if config is not None else "fast"
    return f"uarch.{engine}.simulate"


def _count_insts(span: Span, args, kwargs, result) -> None:
    span.attrs["insts"] = result.retired_instructions


def _count_trace(span: Span, args, kwargs, result) -> None:
    span.attrs["insts"] = result.instruction_count


def _count_hit(span: Span, args, kwargs, result) -> None:
    span.attrs["hit"] = result is not None


def _count_findings(span: Span, args, kwargs, result) -> None:
    span.attrs["findings"] = len(result)


def install(recorder: Recorder) -> Patches:
    """Wrap every layer boundary; the caller must ``restore()`` the
    returned patches."""
    import repro.uarch.batch as batch
    from repro.core import processors
    from repro.fuzz import harness as fuzz
    from repro.harness import experiment
    from repro.harness.cache import ArtifactCache
    from repro.profiling import wish_selection
    from repro.workloads.generator import Workload

    patches = Patches()

    def wrap(owner, attr, name, on_exit=None):
        patches.wrap(owner, attr, recorder, name, on_exit)

    wrap(experiment, "build_benchmark", "workloads.build")
    wrap(fuzz, "build_fuzz_workload", "workloads.build")
    wrap(Workload, "run", "program.interpret", _count_trace)
    for module in (experiment, fuzz):
        wrap(module, "profile_trace", "profiling.profile")
        for attr in _SELECT:
            wrap(module, attr, "profiling.select")
        wrap(module, "simulate", _simulate_span, _count_insts)
    wrap(fuzz, "select_diverge_loop_branches", "profiling.select")
    wrap(fuzz, "merge_hint_tables", "profiling.select")
    wrap(wish_selection, "select_wish_branches", "profiling.select")
    wrap(processors, "simulate", _simulate_span, _count_insts)
    patches.replace(
        batch, "run_batch", _counting_run_batch(batch.run_batch, recorder)
    )
    wrap(batch, "run_batch", "uarch.batch.run")
    for attr in ("load_bytes", "load_pickle", "load_hints"):
        wrap(ArtifactCache, attr, "harness.cache.load", _count_hit)
    for attr in ("store_bytes", "store_pickle", "store_hints"):
        wrap(ArtifactCache, attr, "harness.cache.store")
    wrap(experiment, "run_suite", "harness.suite")
    wrap(fuzz, "check_spec", "fuzz.check", _count_findings)
    return patches


def _counting_run_batch(original, recorder: Recorder):
    """``run_batch`` with its public ``profile=``, ``gang_stats=`` and
    ``fallback_reasons=`` outputs always collected into the enclosing
    ``uarch.batch.run`` span; whatever the caller asked for is still
    filled in."""

    def run_batch(cells, fallback_reasons=None, profile=None,
                  gang_stats=None):
        reasons: Dict[str, int] = {}
        phases: Dict[str, float] = {}
        gangs: Dict[str, int] = {}
        out = original(
            cells, fallback_reasons=reasons, profile=phases, gang_stats=gangs
        )
        for mine, theirs in (
            (reasons, fallback_reasons), (phases, profile), (gangs, gang_stats)
        ):
            if theirs is None:
                continue
            for key, value in mine.items():
                if key == "max_gang":
                    theirs[key] = max(theirs.get(key, 0), value)
                else:
                    theirs[key] = theirs.get(key, 0) + value
        recorder.current.attrs.update(
            cells=len(cells),
            fallback_cells=sum(reasons.values()),
            insts=sum(stats.retired_instructions for stats in out),
            phases=phases,
            gangs=gangs,
        )
        return out

    return run_batch


#: Per-layer metric names this module computes from spans, in order.
SPAN_METRICS = (
    "workloads.build_s",
    "program.interpret_s",
    "program.interpret_minst_per_s",
    "profiling.profile_s",
    "profiling.select_s",
    "uarch.fast.simulate_s",
    "uarch.fast.ns_per_inst",
    "uarch.fast.cells",
    "uarch.reference.simulate_s",
    "uarch.reference.ns_per_inst",
    "uarch.batch.run_s",
    "uarch.batch.arena_build_s",
    "uarch.batch.step_loop_s",
    "uarch.batch.episode_tails_s",
    "uarch.batch.scalar_walks_s",
    "uarch.batch.scalar_fallback_s",
    "uarch.batch.vector_cells",
    "uarch.batch.fallback_cells",
    "uarch.batch.ns_per_inst",
    "uarch.batch.gang_lane_frac",
    "harness.cache.load_s",
    "harness.cache.hits",
    "harness.cache.misses",
    "harness.cache.hit_frac",
    "harness.cache.store_s",
    "harness.cache.stores",
    "harness.suite.self_s",
    "fuzz.check_s",
    "fuzz.specs",
    "fuzz.findings",
    "trace.unattributed_frac",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def span_metrics(spans: List[Span], wall: float) -> Dict[str, float]:
    """Per-layer metrics of one traced run whose timed region lasted
    ``wall`` seconds.  Raises ``ValueError`` when the spans do not
    reconcile with ``wall``."""
    check = reconcile(spans, wall)
    if check["sum_error_frac"] > 0.02 or check["unattributed_frac"] > 0.03:
        raise ValueError(
            "spans do not reconcile with the traced wall time: "
            f"self times {check['attributed_s']:.3f}s + unattributed "
            f"{check['unattributed_s']:.3f}s vs wall {wall:.3f}s"
        )
    own = self_times(spans)
    by_id = {span.id: span for span in spans}

    def named(name: str) -> List[Span]:
        return [span for span in spans if span.name == name]

    def self_s(name: str) -> float:
        return sum(own[span.id] for span in named(name))

    def outermost(name: str) -> List[Span]:
        return [
            span for span in named(name)
            if span.parent is None or by_id[span.parent].name != name
        ]

    def attr_sum(found: List[Span], key: str) -> float:
        return float(sum(span.attrs.get(key, 0) for span in found))

    out: Dict[str, float] = {
        "workloads.build_s": self_s("workloads.build"),
        "profiling.profile_s": self_s("profiling.profile"),
        "profiling.select_s": self_s("profiling.select"),
        "harness.suite.self_s": self_s("harness.suite"),
        "fuzz.check_s": self_s("fuzz.check"),
        "fuzz.specs": float(len(named("fuzz.check"))),
        "fuzz.findings": attr_sum(named("fuzz.check"), "findings"),
        "trace.unattributed_frac": check["unattributed_frac"],
    }
    interpret = named("program.interpret")
    out["program.interpret_s"] = self_s("program.interpret")
    out["program.interpret_minst_per_s"] = _ratio(
        attr_sum(interpret, "insts") / 1e6, out["program.interpret_s"]
    )
    for engine in ("fast", "reference"):
        name = f"uarch.{engine}.simulate"
        seconds = self_s(name)
        out[f"uarch.{engine}.simulate_s"] = seconds
        out[f"uarch.{engine}.ns_per_inst"] = _ratio(
            seconds * 1e9, attr_sum(named(name), "insts")
        )
    out["uarch.fast.cells"] = float(len(named("uarch.fast.simulate")))

    batch = named("uarch.batch.run")
    fallback_insts = sum(
        span.attrs.get("insts", 0) for span in spans
        if span.parent is not None and by_id[span.parent].name
        == "uarch.batch.run"
    )
    phases: Dict[str, float] = {}
    gangs: Dict[str, float] = {}
    for span in batch:
        for key, value in span.attrs.get("phases", {}).items():
            phases[key] = phases.get(key, 0.0) + value
        for key, value in span.attrs.get("gangs", {}).items():
            gangs[key] = gangs.get(key, 0) + value
    out["uarch.batch.run_s"] = sum(span.duration for span in batch)
    for phase in ("arena_build", "step_loop", "episode_tails",
                  "scalar_walks", "scalar_fallback"):
        out[f"uarch.batch.{phase}_s"] = phases.get(phase, 0.0)
    fallback_cells = attr_sum(batch, "fallback_cells")
    out["uarch.batch.vector_cells"] = attr_sum(batch, "cells") - fallback_cells
    out["uarch.batch.fallback_cells"] = fallback_cells
    out["uarch.batch.ns_per_inst"] = _ratio(
        self_s("uarch.batch.run") * 1e9,
        attr_sum(batch, "insts") - fallback_insts,
    )
    ganged = gangs.get("ganged_lanes", 0)
    out["uarch.batch.gang_lane_frac"] = _ratio(
        ganged, ganged + gangs.get("singleton_lanes", 0)
    )

    loads = outermost("harness.cache.load")
    hits = float(sum(1 for span in loads if span.attrs.get("hit")))
    out["harness.cache.load_s"] = self_s("harness.cache.load")
    out["harness.cache.hits"] = hits
    out["harness.cache.misses"] = float(len(loads)) - hits
    out["harness.cache.hit_frac"] = _ratio(hits, len(loads))
    out["harness.cache.store_s"] = self_s("harness.cache.store")
    out["harness.cache.stores"] = float(len(outermost("harness.cache.store")))
    return {name: float(out[name]) for name in SPAN_METRICS}
