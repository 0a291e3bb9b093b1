"""Engine microbenchmark harness behind ``repro bench``.

Measures simulated-instructions-per-second for each benchmark x machine
configuration in three cells:

``reference_cold``
    the straight-line reference engine, static-analysis caches cleared
    before every repeat;
``fast_cold``
    the pre-decoded block-plan engine, caches cleared before every
    repeat (so plan building is charged to the run);
``fast_warm``
    the fast engine with the program-scoped analysis (block plans,
    postdominators, reconvergence points) already built.

On top of the per-cell matrix, the harness times the vectorized batch
engine on a lockstep design-space sweep (``suite/batch-sweep`` and the
CI-sized ``suite/batch-smoke`` cells — see :func:`_run_batch_group`),
with per-cell bit-identity asserted against the reference engine on a
deterministic sample of the grid.

Every fast cell is differentially checked against the reference stats —
a cell is only reported with ``identical: true`` if the two engines'
:class:`~repro.uarch.stats.SimStats` match bit for bit.

Timing uses :func:`time.process_time` (CPU time, immune to the wall
clock noise of shared hosts) and keeps the best of ``repeats`` runs.
Raw instructions-per-second is machine-dependent, so regression
checking (:func:`compare`) works on the *speedup ratios* between the
engines, which transfer across hosts.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import platform
import time
from typing import Dict, Iterable, List, Optional, Sequence

from repro.cfg.analysis import ProgramAnalysis
from repro.core.processors import simulate
from repro.harness.experiment import BenchmarkContext
from repro.obs.events import CollectorTracer
from repro.uarch.config import MachineConfig

#: JSON schema tag, bumped on incompatible report layout changes.
SCHEMA = "repro-bench/1"

#: Machine configurations the bench knows how to build.  The perfect-
#: predictor variants are excluded: they exercise the same engine code
#: paths with less work, which only adds noise to the matrix.
CONFIG_FACTORIES = {
    "base": MachineConfig.baseline,
    "dhp": MachineConfig.dhp,
    "dmp": MachineConfig.dmp,
    "dmp-enhanced": lambda: MachineConfig.dmp(enhanced=True),
    "dualpath": MachineConfig.dualpath,
}

DEFAULT_BENCHMARKS = ("parser", "gzip", "mcf")
DEFAULT_CONFIGS = ("base", "dmp-enhanced", "dhp", "dualpath")
DEFAULT_ITERATIONS = 500
DEFAULT_REPEATS = 3

#: The quick matrix the CI job runs (see ``repro bench --smoke``).
SMOKE_BENCHMARKS = ("parser", "gzip")
SMOKE_CONFIGS = ("base", "dmp-enhanced")
SMOKE_ITERATIONS = 300
SMOKE_REPEATS = 2

#: The design-space sweep the batch engine is measured on: every
#: benchmark in the suite at a grid of frontend/backend sizings, all
#: advanced as one lockstep group (the paper's figure 13/14 workload —
#: many configurations, few seeds).  Timing the reference engine on the
#: full grid is exactly what the batch engine exists to avoid, so the
#: reference is timed — and bit-identity asserted — on a deterministic
#: sample of cells, and the batch side is charged its uniform per-cell
#: share of one cold group run (arena + analysis caches cleared first).
BATCH_CONFIGS = ("base", "dualpath")
BATCH_WIDTHS = (4, 8)
BATCH_DEPTHS = (10, 30)
BATCH_ROBS = (128, 512)
BATCH_RETIRES = (4, 8)
BATCH_SWEEP_SEEDS = (0, 1)
BATCH_SWEEP_SAMPLE = 10
BATCH_SMOKE_SEEDS = (0,)
BATCH_SMOKE_SAMPLE = 4

#: The predicated design-space sweep (``suite/batch-dmp-sweep``): the
#: paper's figure 13/14 comparison arms — DMP against dual-path and the
#: baseline — across the same 16 frontend/backend sizings, with every
#: dmp cell running its dpred episodes on the batch engine's vector
#: path.  Identity is asserted against the reference engine on a
#: deterministic sample as usual; throughput is additionally measured
#: against the *fast* engine on sampled dmp-mode cells
#: (``speedup_fast_dmp``) — the scalar engine a predicated sweep would
#: otherwise have to run on.
DMP_BATCH_CONFIGS = ("dmp", "dualpath", "base")

#: Where one scalar cell's fast-engine run goes (``--profile``), as
#: self times that add up to the run: each phase is the named calls
#: (the predictor's or estimator's methods, the trace-row fetch, the
#: wrong-path walk, ``_maybe_enter_dpred``) minus phases nested in them;
#: ``compiled`` is the compiled lane's C loop, ``construct`` is
#: ``simulate`` outside ``run`` and that loop (so a lane cell splits into
#: its table build and its C loop), ``other`` the rest.
SCALAR_PHASES = {
    "predictor": ("predict", "train", "spec_update", "snapshot",
                  "restore", "repair", "set_oracle"),
    "confidence": ("is_confident", "update", "set_oracle"),
    "trace_fetch": ("_fetch_trace_block",),
    "wrong_path": ("_walk_wrong_path",),
    "dpred_episode": ("_maybe_enter_dpred",),
}


def geomean(values: Iterable[float]) -> float:
    vals = [v for v in values if v > 0]
    if not vals:
        return 0.0
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def _measure_cell(context: BenchmarkContext, ref_config: MachineConfig,
                  fast_config: MachineConfig, repeats: int):
    """Best-of-``repeats`` CPU seconds for the three cells of one
    (benchmark, config) pair.

    The reference, fast-cold and fast-warm runs are *interleaved* within
    each repeat rather than measured phase by phase: host speed drifts
    on the timescale of seconds, and interleaving exposes every engine
    to the same drift so the speedup *ratio* stays honest.  Bypasses the
    harness's stats memo on purpose — the memo would turn every repeat
    after the first into a dict lookup.
    """
    hints = context.hints_for(ref_config)
    warm_words = context.workload.memory.warm_words()
    program, trace = context.program, context.trace

    def timed(config):
        t0 = time.process_time()
        stats = simulate(program, trace, config, hints=hints,
                         benchmark=context.name, warm_words=warm_words)
        return time.process_time() - t0, stats

    best = [math.inf, math.inf, math.inf]
    stats = [None, None, None]
    for _ in range(repeats):
        ProgramAnalysis.reset(program)
        ref_s, stats[0] = timed(ref_config)
        ProgramAnalysis.reset(program)
        fast_s, stats[1] = timed(fast_config)
        # Analysis caches are warm from the run just above.
        warm_s, stats[2] = timed(fast_config)
        for i, elapsed in enumerate((ref_s, fast_s, warm_s)):
            if elapsed < best[i]:
                best[i] = elapsed
    return best, stats


def _profile_scalar_cell(context: BenchmarkContext,
                         config: MachineConfig) -> Dict[str, float]:
    """Phase split of one extra, untimed run of ``config``.

    The timing wrappers exist only for this run: ``TimingSimulator.run``
    is swapped for one that wraps the new simulator's own attributes,
    and the compiled lane's C call for a timed one; both are put back
    afterwards.  The wrappers' own cost lands mostly in
    the phase they wrap, so the many-call phases read a little high."""
    from repro.uarch import lane
    from repro.uarch.timing import TimingSimulator

    seconds = dict.fromkeys(
        ("construct", *SCALAR_PHASES, "compiled", "other"), 0.0
    )
    covered: List[float] = []  # per open call: time of nested calls

    def timed(phase, call):
        def wrapper(*args, **kwargs):
            covered.append(0.0)
            t0 = time.perf_counter()
            try:
                return call(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                seconds[phase] += elapsed - covered.pop()
                if covered:
                    covered[-1] += elapsed
        return wrapper

    original_run = TimingSimulator.run

    def run(sim):
        for phase, names in SCALAR_PHASES.items():
            owner = {"predictor": sim.predictor,
                     "confidence": sim.confidence}.get(phase, sim)
            for name in names:
                if hasattr(owner, name):
                    setattr(owner, name, timed(phase, getattr(owner, name)))
        return timed("other", original_run)(sim)

    original_execute = lane._execute
    TimingSimulator.run = run
    lane._execute = timed("compiled", original_execute)
    try:
        t0 = time.perf_counter()
        simulate(context.program, context.trace, config,
                 hints=context.hints_for(config), benchmark=context.name,
                 warm_words=context.workload.memory.warm_words())
        wall = time.perf_counter() - t0
    finally:
        TimingSimulator.run = original_run
        lane._execute = original_execute
    seconds["construct"] = wall - sum(seconds.values())
    # Only a cell that ran on the compiled lane carries that phase.
    return {
        k: round(v, 4) for k, v in seconds.items()
        if k != "compiled" or v
    }


def _batch_grid(
    config_names: Sequence[str] = BATCH_CONFIGS,
) -> List[MachineConfig]:
    """A lockstep sweep grid: ``config_names`` modes x 16 sizings."""
    grid = []
    for config_name in config_names:
        base = CONFIG_FACTORIES[config_name]()
        for width in BATCH_WIDTHS:
            for depth in BATCH_DEPTHS:
                for rob in BATCH_ROBS:
                    for retire in BATCH_RETIRES:
                        grid.append(base.replace(
                            engine="batch", fetch_width=width,
                            pipeline_depth=depth, rob_size=rob,
                            retire_width=retire,
                        ))
    return grid


def _run_batch_group(label: str, benchmarks: Sequence[str],
                     iterations: int, seeds: Sequence[int], sample: int,
                     cache, say,
                     config_names: Sequence[str] = BATCH_CONFIGS,
                     use_hints: bool = False,
                     fast_modes: Sequence[str] = ()) -> Optional[Dict]:
    """One cold lockstep run of the batch sweep; returns a report cell.

    ``speedup_cold`` is the geomean, over the sampled cells, of the
    reference engine's per-cell time against the batch engine's uniform
    per-cell share (group total / cell count) — lockstep execution has
    no per-cell attribution finer than that.  Every sampled cell's
    :class:`~repro.uarch.stats.SimStats` must match the batch result
    bit for bit (``identical``).  Returns ``None`` when numpy is
    unavailable (the batch engine then degrades to the fast engine, and
    a throughput claim for it would be meaningless).

    ``use_hints`` attaches each context's CFM/hammock hint table to its
    cells (predicated grids are meaningless without one); ``fast_modes``
    additionally times the *fast* engine — warm, the way a scalar sweep
    would actually run — on sampled cells of those modes and reports
    the geomean against the batch per-cell share as
    ``speedup_fast_dmp``.
    """
    from repro.uarch.batch import BatchCell, batch_supported, run_batch

    if not batch_supported():
        say(f"{label}: numpy unavailable, batch sweep skipped")
        return None
    if not benchmarks or not seeds or not config_names:
        # An empty sweep has no per-cell share to divide by; report the
        # skip instead of dying on batch_s / len(cells).
        say(f"{label}: empty sweep (no cells), batch group skipped")
        return None
    cells: List[BatchCell] = []
    programs = []
    for name in benchmarks:
        for seed in seeds:
            context = BenchmarkContext(
                name, iterations=iterations, seed=seed, cache=cache
            )
            program, trace = context.program, context.trace
            warm_words = context.workload.memory.warm_words()
            programs.append(program)
            for config in _batch_grid(config_names):
                cells.append(BatchCell(
                    program, trace, config,
                    hints=(context.hints_for(config)
                           if use_hints else None),
                    benchmark=name, warm_words=warm_words,
                ))
    # Cold: the batch run pays for its own block plans (run_batch
    # builds its program and trace tables on every call anyway).
    for program in programs:
        ProgramAnalysis.reset(program)
    fallback_reasons: Dict[str, int] = {}
    profile: Dict[str, float] = {}
    gang_stats: Dict[str, int] = {}
    t0 = time.process_time()
    results = run_batch(cells, fallback_reasons=fallback_reasons,
                        profile=profile, gang_stats=gang_stats)
    batch_s = time.process_time() - t0
    percell = batch_s / len(cells)

    stride = max(1, len(cells) // sample)
    sampled = list(range(0, len(cells), stride))[:sample]
    identical = True
    ref_times: List[float] = []
    speedups: List[float] = []
    for index in sampled:
        cell = cells[index]
        t0 = time.process_time()
        ref_stats = simulate(
            cell.program, cell.trace,
            cell.config.replace(engine="reference"), hints=cell.hints,
            benchmark=cell.benchmark, warm_words=cell.warm_words,
        )
        ref_s = time.process_time() - t0
        if dataclasses.asdict(ref_stats) != dataclasses.asdict(
                results[index]):
            identical = False
            say(f"{label}: stats mismatch on sampled cell {index} "
                f"({cell.benchmark}/{cell.config.mode})")
        if ref_s > 0:
            ref_times.append(ref_s)
            if percell > 0:
                speedups.append(ref_s / percell)
    # The fast-engine comparator for predicated grids: sampled warm
    # (analysis caches are hot from the runs above — a scalar sweep
    # would pay for them once, not per cell).
    fast_times: List[float] = []
    fast_speedups: List[float] = []
    if fast_modes:
        targets = [
            i for i, cell in enumerate(cells)
            if cell.config.mode in fast_modes
        ]
        fstride = max(1, len(targets) // sample)
        for index in targets[::fstride][:sample]:
            cell = cells[index]
            t0 = time.process_time()
            simulate(
                cell.program, cell.trace,
                cell.config.replace(engine="fast"), hints=cell.hints,
                benchmark=cell.benchmark, warm_words=cell.warm_words,
            )
            fast_s = time.process_time() - t0
            if fast_s > 0:
                fast_times.append(fast_s)
                if percell > 0:
                    fast_speedups.append(fast_s / percell)
    degenerate = not (percell > 0 and speedups)
    cell_dict = {
        "benchmark": "suite",
        "config": label,
        "retired_instructions": sum(
            r.retired_instructions for r in results
        ),
        "identical": identical,
        "degenerate": degenerate,
        "sweep_cells": len(cells),
        "sampled_reference_cells": len(sampled),
        "batch_total_s": batch_s,
        "batch_percell_s": percell,
        "reference_percell_s": geomean(ref_times),
        "speedup_cold": geomean(speedups),
        # Wall-time phase attribution for the group's one cold run
        # (`repro bench --profile` prints it): where a lockstep sweep
        # actually spends its time — the vector driver, dpred episode
        # tails, wrong-path walks, arena construction, or cells that
        # fell off the vector path entirely.
        "profile": {k: round(v, 4) for k, v in sorted(profile.items())},
        "gang_stats": dict(sorted(gang_stats.items())),
        "fallback_reasons": dict(sorted(fallback_reasons.items())),
    }
    if fast_modes:
        cell_dict["fast_sampled_cells"] = len(fast_times)
        cell_dict["fast_percell_s"] = geomean(fast_times)
        cell_dict["speedup_fast_dmp"] = geomean(fast_speedups)
    say(f"{'suite':8s} {label:12s} "
        f"batch {batch_s:6.1f}s / {len(cells)} cells = "
        f"{1000 * percell:6.1f} ms/cell  "
        f"ref sample {geomean(ref_times):6.3f} s/cell  "
        f"speedup {cell_dict['speedup_cold']:.2f}x  "
        + (f"fast-dmp {cell_dict['speedup_fast_dmp']:.2f}x  "
           if fast_modes else "")
        + f"identical={identical}"
        + (" DEGENERATE" if degenerate else ""))
    return cell_dict


def run_bench(
    benchmarks: Sequence[str] = DEFAULT_BENCHMARKS,
    configs: Sequence[str] = DEFAULT_CONFIGS,
    iterations: int = DEFAULT_ITERATIONS,
    seed: int = 0,
    repeats: int = DEFAULT_REPEATS,
    cache=None,
    progress=None,
    trace_dir: Optional[str] = None,
    batch: str = "full",
    profile: bool = False,
) -> Dict:
    """Run the engine benchmark matrix and return the report dict.

    Every cell also performs one *traced* fast run to prove the
    observability layer does not perturb the simulation
    (``traced_identical``); with ``trace_dir`` set, those runs stream
    their JSONL event traces there instead of an in-memory collector.

    ``batch`` controls the lockstep-sweep cells: ``"full"`` times both
    the full-suite sweep (``suite/batch-sweep``) and the quick CI shape
    (``suite/batch-smoke``, so a committed full report doubles as the
    smoke baseline), ``"smoke"`` only the latter, ``"off"`` neither.
    Batch cells are excluded from the fast-engine geomeans and
    summarized under ``geomean_batch_speedup``.

    ``profile`` adds each scalar cell's :data:`SCALAR_PHASES` split of
    one extra, untimed fast-engine run (:func:`_profile_scalar_cell`)
    as ``cell["profile"]``.  ``summary.profile`` sums the splits into
    ``scalar`` and ``batch`` groups.
    """
    if batch not in ("full", "smoke", "off"):
        raise ValueError(f"unknown batch mode {batch!r}")
    unknown = [c for c in configs if c not in CONFIG_FACTORIES]
    if unknown:
        raise ValueError(f"unknown bench configs: {', '.join(unknown)}")
    if trace_dir is not None:
        os.makedirs(trace_dir, exist_ok=True)
    say = progress or (lambda msg: None)
    cells: List[Dict] = []
    for name in benchmarks:
        context = BenchmarkContext(name, iterations=iterations, seed=seed,
                                   cache=cache)
        for config_name in configs:
            base_config = CONFIG_FACTORIES[config_name]()
            ref_config = base_config.replace(engine="reference")
            fast_config = base_config.replace(engine="fast")
            (ref_s, fast_s, warm_s), (ref_stats, fast_stats, warm_stats) = (
                _measure_cell(context, ref_config, fast_config, repeats)
            )
            ref_dict = dataclasses.asdict(ref_stats)
            identical = (
                ref_dict == dataclasses.asdict(fast_stats)
                and ref_dict == dataclasses.asdict(warm_stats)
            )
            # Observability contract: a traced run must not perturb the
            # simulation (the tracer only observes).  One extra fast run
            # with a tracer attached proves it per cell.
            if trace_dir is not None:
                from repro.obs.events import JsonlTracer
                from repro.obs.runtime import trace_path

                tracer = JsonlTracer(
                    trace_path(trace_dir, name, config_name),
                    meta={"benchmark": name, "config": config_name,
                          "iterations": iterations, "seed": seed},
                )
            else:
                tracer = CollectorTracer()
            try:
                traced_stats = simulate(
                    context.program, context.trace, fast_config,
                    hints=context.hints_for(fast_config),
                    benchmark=context.name,
                    warm_words=context.workload.memory.warm_words(),
                    tracer=tracer,
                )
            finally:
                tracer.close()
            traced_identical = ref_dict == dataclasses.asdict(traced_stats)
            insts = ref_stats.retired_instructions
            # A zero CPU-time measurement means the cell finished below
            # the process_time tick: its speedup ratios are meaningless,
            # not merely "0.0".  Mark it so the geomean and regression
            # gates can exclude it instead of ingesting a fake zero.
            degenerate = not (ref_s > 0 and fast_s > 0 and warm_s > 0)
            cell = {
                "benchmark": name,
                "config": config_name,
                "retired_instructions": insts,
                "identical": identical,
                "traced_identical": traced_identical,
                "traced_events": tracer.events_emitted,
                "degenerate": degenerate,
                "reference_cold_s": ref_s,
                "fast_cold_s": fast_s,
                "fast_warm_s": warm_s,
                "reference_cold_ips": insts / ref_s if ref_s else 0.0,
                "fast_cold_ips": insts / fast_s if fast_s else 0.0,
                "fast_warm_ips": insts / warm_s if warm_s else 0.0,
                "speedup_cold": ref_s / fast_s if fast_s else 0.0,
                "speedup_warm": ref_s / warm_s if warm_s else 0.0,
            }
            if profile:
                cell["profile"] = _profile_scalar_cell(context, fast_config)
            cells.append(cell)
            say(f"{name:8s} {config_name:12s} "
                f"ref {ref_s:6.3f}s  fast {fast_s:6.3f}s  "
                f"warm {warm_s:6.3f}s  "
                f"speedup {cell['speedup_cold']:.2f}x/"
                f"{cell['speedup_warm']:.2f}x  "
                f"identical={identical}"
                + (" DEGENERATE" if degenerate else ""))
    if batch != "off":
        from repro.workloads.suite import BENCHMARK_NAMES

        if batch == "full":
            sweep = _run_batch_group(
                "batch-sweep", BENCHMARK_NAMES, iterations,
                BATCH_SWEEP_SEEDS, BATCH_SWEEP_SAMPLE, cache, say,
            )
            if sweep is not None:
                cells.append(sweep)
            dmp_sweep = _run_batch_group(
                "batch-dmp-sweep", BENCHMARK_NAMES, iterations,
                BATCH_SWEEP_SEEDS, BATCH_SWEEP_SAMPLE, cache, say,
                config_names=DMP_BATCH_CONFIGS, use_hints=True,
                fast_modes=("dmp",),
            )
            if dmp_sweep is not None:
                cells.append(dmp_sweep)
        smoke = _run_batch_group(
            "batch-smoke", SMOKE_BENCHMARKS, SMOKE_ITERATIONS,
            BATCH_SMOKE_SEEDS, BATCH_SMOKE_SAMPLE, cache, say,
        )
        if smoke is not None:
            cells.append(smoke)
        dmp_smoke = _run_batch_group(
            "batch-dmp-smoke", SMOKE_BENCHMARKS, SMOKE_ITERATIONS,
            BATCH_SMOKE_SEEDS, BATCH_SMOKE_SAMPLE, cache, say,
            config_names=DMP_BATCH_CONFIGS, use_hints=True,
            fast_modes=("dmp",),
        )
        if dmp_smoke is not None:
            cells.append(dmp_smoke)
    is_batch = [c["config"].startswith("batch-") for c in cells]
    live = [
        c for c, bat in zip(cells, is_batch)
        if not (bat or c["degenerate"])
    ]
    batch_live = [
        c for c, bat in zip(cells, is_batch)
        if bat and not c["degenerate"]
    ]
    profile_total: Dict[str, Dict[str, float]] = {"scalar": {}, "batch": {}}
    gang_total: Dict[str, int] = {}
    for c, bat in zip(cells, is_batch):
        split = profile_total["batch" if bat else "scalar"]
        for key, val in c.get("profile", {}).items():
            if not c["degenerate"]:
                split[key] = round(split.get(key, 0.0) + val, 4)
    for c in batch_live:
        for key, val in c.get("gang_stats", {}).items():
            if key.startswith("max_"):
                gang_total[key] = max(gang_total.get(key, 0), val)
            else:
                gang_total[key] = gang_total.get(key, 0) + val
    summary = {
        "geomean_speedup_cold": geomean(c["speedup_cold"] for c in live),
        "geomean_speedup_warm": geomean(c["speedup_warm"] for c in live),
        "geomean_batch_speedup": geomean(
            c["speedup_cold"] for c in batch_live
        ),
        "geomean_dmp_fast_speedup": geomean(
            c["speedup_fast_dmp"] for c in batch_live
            if "speedup_fast_dmp" in c
        ),
        "profile": {g: split for g, split in profile_total.items() if split},
        "gang_stats": dict(sorted(gang_total.items())),
        "all_identical": all(c["identical"] for c in cells),
        "all_traced_identical": all(
            c.get("traced_identical", True) for c in cells
        ),
        "degenerate_cells": [
            f"{c['benchmark']}/{c['config']}" for c in cells
            if c["degenerate"]
        ],
    }
    return {
        "schema": SCHEMA,
        "parameters": {
            "benchmarks": list(benchmarks),
            "configs": list(configs),
            "iterations": iterations,
            "seed": seed,
            "repeats": repeats,
            "batch": batch,
        },
        "host": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
        },
        "cells": cells,
        "summary": summary,
    }


def _cell_map(report: Dict) -> Dict:
    return {(c["benchmark"], c["config"]): c for c in report["cells"]}


def _degenerate(cell: Dict) -> bool:
    """Degenerate marker, inferred for pre-marker reports where a zero
    speedup was the only (ambiguous) signal.

    A non-positive speedup is treated as degenerate even when the cell
    carries an explicit ``degenerate: false`` marker: such a cell holds
    no ratio information, and feeding it to the per-cell regression
    check would divide by zero.
    """
    if bool(cell.get("degenerate", False)):
        return True
    return cell.get("speedup_cold", 0) <= 0


def compare(current: Dict, baseline: Dict,
            max_regression: float = 0.25) -> List[str]:
    """Regressions of ``current`` against a ``baseline`` report.

    Raw instructions-per-second depends on the host, so the comparison
    is between *speedup ratios* (fast vs reference on the same host at
    the same moment): a cell regresses when its cold speedup falls more
    than ``max_regression`` below the baseline's for the same
    (benchmark, config) pair.  Cells present on only one side are
    skipped, as are cells marked degenerate on either side (a zero
    CPU-time measurement carries no ratio information); a
    fast/reference or traced/untraced stats mismatch is always a
    failure.  Returns a list of human-readable violations (empty =
    pass).
    """
    problems: List[str] = []
    for cell in current["cells"]:
        if not cell["identical"]:
            problems.append(
                f"{cell['benchmark']}/{cell['config']}: fast engine stats "
                f"diverge from the reference engine"
            )
        if not cell.get("traced_identical", True):
            problems.append(
                f"{cell['benchmark']}/{cell['config']}: tracing perturbed "
                f"the simulation stats"
            )
    base_cells = _cell_map(baseline)
    for key, cell in _cell_map(current).items():
        base = base_cells.get(key)
        if base is None or _degenerate(base) or _degenerate(cell):
            continue
        ratio = cell["speedup_cold"] / base["speedup_cold"]
        if ratio < 1.0 - max_regression:
            problems.append(
                f"{key[0]}/{key[1]}: cold speedup {cell['speedup_cold']:.2f}x "
                f"is {1 - ratio:.0%} below baseline "
                f"{base['speedup_cold']:.2f}x "
                f"(allowed {max_regression:.0%})"
            )
    cur_g = current["summary"].get("geomean_speedup_cold", 0.0)
    base_g = baseline["summary"].get("geomean_speedup_cold", 0.0)
    if base_g > 0 and cur_g / base_g < 1.0 - max_regression:
        problems.append(
            f"overall: geomean cold speedup {cur_g:.2f}x is "
            f"{1 - cur_g / base_g:.0%} below baseline {base_g:.2f}x"
        )
    return problems


def find_latest_baseline(directory: str = ".") -> str:
    """Path of the newest committed ``BENCH_*.json`` in ``directory``.

    Report names embed a UTC timestamp (``BENCH_20260807T034511Z.json``),
    so lexicographic order *is* chronological order — the resolver
    behind ``repro bench --baseline latest``.  Raises
    :class:`FileNotFoundError` with an actionable message when the
    directory holds no baseline at all.
    """
    import glob

    paths = sorted(glob.glob(os.path.join(directory, "BENCH_*.json")))
    if not paths:
        raise FileNotFoundError(
            f"no BENCH_*.json baseline found in "
            f"{os.path.abspath(directory)} — run `repro bench` "
            f"and commit the report first"
        )
    return paths[-1]


def load_report(path) -> Dict:
    with open(path, "r", encoding="utf-8") as handle:
        report = json.load(handle)
    if report.get("schema") != SCHEMA:
        raise ValueError(
            f"{path}: unsupported bench schema {report.get('schema')!r}"
        )
    return report


def save_report(report: Dict, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
