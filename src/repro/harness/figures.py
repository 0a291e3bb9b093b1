"""Per-figure/table experiment drivers.

Each ``figN``/``tableN`` function regenerates the data behind one exhibit
of the paper's evaluation and returns a :class:`FigureResult` holding the
series (rows keyed by benchmark) plus a paper-style text rendering.

All drivers share a ``contexts`` dict (benchmark name →
:class:`~repro.harness.experiment.BenchmarkContext`) so the expensive
artifacts — traces and profiles — are built once per benchmark no matter
how many figures are generated.  A reused context whose parameters do
not match the current call raises :class:`~repro.errors.ReproError`
instead of silently serving stale data.

Every simulation-driven exhibit routes its runs through
:func:`~repro.harness.experiment.run_suite`, so the drivers uniformly
accept ``jobs=N`` (process-pool fan-out) and ``cache=...`` (persistent
artifact/stats cache) — the CLI's ``repro figure --jobs/--cache-dir``
flags (docs/performance.md).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.analysis.classify import classify_mispredictions
from repro.analysis.wrongpath import wrong_path_breakdown
from repro.harness.cache import ArtifactCache
from repro.harness.experiment import (
    BenchmarkContext,
    SuiteResult,
    figure7_configs,
    figure9_configs,
    run_suite,
)
from repro.harness.tables import format_table
from repro.uarch.config import MachineConfig
from repro.workloads.suite import BENCHMARK_NAMES


class FigureResult:
    """Data + rendering for one regenerated exhibit."""

    def __init__(self, name: str, headers: List[str], rows: List[list],
                 notes: str = "") -> None:
        self.name = name
        self.headers = headers
        self.rows = rows
        self.notes = notes

    def format(self) -> str:
        text = format_table(self.headers, self.rows, title=self.name)
        if self.notes:
            text += f"\n{self.notes}"
        return text

    def by_benchmark(self) -> Dict[str, list]:
        return {row[0]: row[1:] for row in self.rows}


def _contexts(
    contexts: Optional[Dict[str, BenchmarkContext]],
    benchmarks: Iterable[str],
    iterations: Optional[int],
    cache=None,
) -> Dict[str, BenchmarkContext]:
    cache = ArtifactCache.resolve(cache)
    contexts = contexts if contexts is not None else {}
    for name in benchmarks:
        context = contexts.get(name)
        if context is None:
            contexts[name] = BenchmarkContext(name, iterations, cache=cache)
        else:
            context.check_compatible(iterations, seed=context.seed)
            context.attach_cache(cache)
    return contexts


def _suite(
    configs: Dict[str, MachineConfig],
    contexts: Dict[str, BenchmarkContext],
    benchmarks: Iterable[str],
    iterations: Optional[int],
    jobs: int = 1,
    cache=None,
    engine: str = "",
) -> SuiteResult:
    """Run one config sweep through the shared contexts (parallel/cached
    when asked).  ``engine`` overrides every config's simulation engine
    (the CLI's ``--engine`` flag); results are bit-identical across
    engines, so this only changes how fast the sweep runs."""
    if engine:
        configs = {
            label: config.replace(engine=engine)
            for label, config in configs.items()
        }
    return run_suite(
        configs,
        benchmarks,
        iterations,
        contexts=contexts,
        jobs=jobs,
        cache=cache,
    )


def _mean_row(label: str, columns: List[List[float]]) -> list:
    return [label] + [sum(col) / len(col) if col else 0.0 for col in columns]


# ---------------------------------------------------------------------------
# Figure 1 — wrong-path control-(in)dependence
# ---------------------------------------------------------------------------

def fig1(
    contexts=None,
    benchmarks: Iterable[str] = BENCHMARK_NAMES,
    iterations: Optional[int] = None,
    jobs: int = 1,
    cache=None,
    engine: str = "",
) -> FigureResult:
    cache = ArtifactCache.resolve(cache)
    contexts = _contexts(contexts, benchmarks, iterations, cache)
    suite = _suite(
        {"base": MachineConfig.baseline()},
        contexts, benchmarks, iterations, jobs, cache, engine,
    )
    rows = []
    cd_col, ci_col = [], []
    for name in benchmarks:
        breakdown = wrong_path_breakdown(suite.stats(name, "base"))
        rows.append(
            [name, breakdown.pct_wrong_cd, breakdown.pct_wrong_ci,
             breakdown.pct_wrong]
        )
        cd_col.append(breakdown.pct_wrong_cd)
        ci_col.append(breakdown.pct_wrong_ci)
    rows.append(_mean_row("amean", [cd_col, ci_col,
                                    [a + b for a, b in zip(cd_col, ci_col)]]))
    return FigureResult(
        "Figure 1: % of fetched instructions on the wrong path",
        ["benchmark", "%wrong-CD", "%wrong-CI", "%wrong-total"],
        rows,
        notes=("Paper: ~52% of fetched instructions are wrong-path; "
               "~63% of those control-independent."),
    )


# ---------------------------------------------------------------------------
# Table 1 — exit cases (definitional; rendered for completeness)
# ---------------------------------------------------------------------------

def table1() -> FigureResult:
    rows = [
        [1, "reach CFM", "reach CFM", "correct", "normal exit"],
        [2, "reach CFM", "reach CFM", "mispredicted", "normal exit"],
        [3, "reach CFM", "no reach", "correct", "re-direct fetch"],
        [4, "reach CFM", "no reach", "mispredicted", "no special action"],
        [5, "no reach", "-", "correct", "no special action"],
        [6, "no reach", "-", "mispredicted", "flush the pipeline"],
    ]
    return FigureResult(
        "Table 1: exit cases of dynamic predication mode",
        ["case", "predicted path", "alternate path", "prediction", "action"],
        rows,
    )


# ---------------------------------------------------------------------------
# Table 2 — baseline configuration
# ---------------------------------------------------------------------------

def table2(config: Optional[MachineConfig] = None) -> FigureResult:
    config = config or MachineConfig.baseline()
    rows = [
        ["fetch width", config.fetch_width],
        ["conditional branches/cycle", config.max_branches_per_cycle],
        ["fetch ends at taken branch", True],
        ["pipeline depth (min mispredict penalty)", config.pipeline_depth],
        ["reorder buffer", config.rob_size],
        ["retire width", config.retire_width],
        ["direction predictor", config.predictor_kind],
        ["confidence estimator", config.confidence_kind],
        ["BTB entries", config.btb_entries],
        ["return address stack", config.ras_depth],
        ["store buffer", config.store_buffer_size],
        ["memory latency (cycles)", config.memory_latency],
    ]
    return FigureResult(
        "Table 2: baseline processor configuration",
        ["parameter", "value"],
        rows,
    )


# ---------------------------------------------------------------------------
# Table 3 — baseline characteristics
# ---------------------------------------------------------------------------

def table3(
    contexts=None,
    benchmarks: Iterable[str] = BENCHMARK_NAMES,
    iterations: Optional[int] = None,
    jobs: int = 1,
    cache=None,
    engine: str = "",
) -> FigureResult:
    cache = ArtifactCache.resolve(cache)
    contexts = _contexts(contexts, benchmarks, iterations, cache)
    suite = _suite(
        {"base": MachineConfig.baseline()},
        contexts, benchmarks, iterations, jobs, cache, engine,
    )
    rows = []
    for name in benchmarks:
        stats = suite.stats(name, "base")
        rows.append(
            [
                name,
                round(stats.ipc, 2),
                stats.retired_instructions,
                stats.retired_branches,
                stats.mispredictions,
                round(stats.mpki, 2),
            ]
        )
    return FigureResult(
        "Table 3: baseline characteristics",
        ["benchmark", "IPC", "insts", "branches", "mispredicted", "MPKI"],
        rows,
    )


# ---------------------------------------------------------------------------
# Figure 6 — misprediction classification
# ---------------------------------------------------------------------------

def fig6(
    contexts=None,
    benchmarks: Iterable[str] = BENCHMARK_NAMES,
    iterations: Optional[int] = None,
    jobs: int = 1,
    cache=None,
    engine: str = "",
) -> FigureResult:
    # No timing simulations here — only profiles and hint tables, which
    # the artifact cache covers; ``jobs`` is accepted for driver
    # uniformity.
    cache = ArtifactCache.resolve(cache)
    contexts = _contexts(contexts, benchmarks, iterations, cache)
    rows = []
    cols = [[], [], []]
    shares = []
    for name in benchmarks:
        context = contexts[name]
        classification = classify_mispredictions(
            name,
            context.profile,
            context.diverge_hints,
            context.hammock_hints,
        )
        rows.append(
            [
                name,
                classification.mpki_simple_hammock,
                classification.mpki_complex_diverge,
                classification.mpki_other,
            ]
        )
        cols[0].append(classification.mpki_simple_hammock)
        cols[1].append(classification.mpki_complex_diverge)
        cols[2].append(classification.mpki_other)
        shares.append(classification.diverge_share)
    rows.append(_mean_row("amean", cols))
    mean_share = 100 * sum(shares) / len(shares) if shares else 0.0
    return FigureResult(
        "Figure 6: mispredictions per 1k instructions by class",
        ["benchmark", "simple-hammock", "complex-diverge", "other"],
        rows,
        notes=(f"Diverge branches cover {mean_share:.0f}% of mispredictions "
               "(paper: 57% average, ~9% from simple hammocks)."),
    )


# ---------------------------------------------------------------------------
# Figures 7/9 — IPC improvement studies
# ---------------------------------------------------------------------------

def _improvement_figure(
    name: str,
    configs: Dict[str, MachineConfig],
    contexts,
    benchmarks,
    iterations,
    notes: str = "",
    jobs: int = 1,
    cache=None,
    engine: str = "",
) -> FigureResult:
    cache = ArtifactCache.resolve(cache)
    contexts = _contexts(contexts, benchmarks, iterations, cache)
    suite = _suite(
        configs, contexts, benchmarks, iterations, jobs, cache, engine
    )
    labels = [label for label in configs if label != "base"]
    rows = []
    columns = {label: [] for label in labels}
    for benchmark in benchmarks:
        row = [benchmark]
        for label in labels:
            value = 100.0 * (
                suite.stats(benchmark, label).ipc
                / suite.stats(benchmark, "base").ipc
                - 1.0
            )
            row.append(value)
            columns[label].append(value)
        rows.append(row)
    rows.append(_mean_row("amean", [columns[label] for label in labels]))
    result = FigureResult(
        name, ["benchmark"] + [f"%{label}" for label in labels], rows, notes
    )
    result.suite = suite  # expose raw stats for downstream figures
    return result


def fig7(contexts=None, benchmarks=BENCHMARK_NAMES, iterations=None,
         jobs=1, cache=None, engine=""):
    return _improvement_figure(
        "Figure 7: % IPC improvement over base (basic DMP study)",
        figure7_configs(),
        contexts,
        benchmarks,
        iterations,
        notes=("Paper shapes: diverge > DHP > dual-path; perfect confidence "
               "well above JRS for DMP; perfect-cbp far above everything."),
        jobs=jobs,
        cache=cache,
        engine=engine,
    )


def fig9(contexts=None, benchmarks=BENCHMARK_NAMES, iterations=None,
         jobs=1, cache=None, engine=""):
    return _improvement_figure(
        "Figure 9: % IPC improvement, enhanced DMP (cumulative)",
        figure9_configs(),
        contexts,
        benchmarks,
        iterations,
        notes="Paper: enhanced-mcfm-eexit-mdb averages +10.8% over base.",
        jobs=jobs,
        cache=cache,
        engine=engine,
    )


# ---------------------------------------------------------------------------
# Figures 8/10 — exit-case distributions
# ---------------------------------------------------------------------------

def _exit_case_figure(
    name: str,
    config: MachineConfig,
    contexts,
    benchmarks,
    iterations,
    jobs: int = 1,
    cache=None,
    engine: str = "",
) -> FigureResult:
    cache = ArtifactCache.resolve(cache)
    contexts = _contexts(contexts, benchmarks, iterations, cache)
    suite = _suite(
        {"dmp": config}, contexts, benchmarks, iterations, jobs, cache,
        engine
    )
    rows = []
    cols = [[] for _ in range(6)]
    for benchmark in benchmarks:
        stats = suite.stats(benchmark, "dmp")
        total = max(sum(stats.exit_cases.values()), 1)
        shares = [
            100.0 * stats.exit_cases[case] / total for case in range(1, 7)
        ]
        rows.append([benchmark] + shares)
        for i, share in enumerate(shares):
            cols[i].append(share)
    rows.append(_mean_row("amean", cols))
    return FigureResult(
        name,
        ["benchmark"] + [f"%case{c}" for c in range(1, 7)],
        rows,
        notes="Cases 2 and 4 save a flush; cases 1 and 3 are pure overhead.",
    )


def fig8(contexts=None, benchmarks=BENCHMARK_NAMES, iterations=None,
         jobs=1, cache=None, engine=""):
    return _exit_case_figure(
        "Figure 8: exit-case distribution, basic DMP",
        MachineConfig.dmp(),
        contexts, benchmarks, iterations, jobs, cache, engine,
    )


def fig10(contexts=None, benchmarks=BENCHMARK_NAMES, iterations=None,
          jobs=1, cache=None, engine=""):
    return _exit_case_figure(
        "Figure 10: exit-case distribution, enhanced DMP",
        MachineConfig.dmp(enhanced=True),
        contexts, benchmarks, iterations, jobs, cache, engine,
    )


# ---------------------------------------------------------------------------
# Figure 11 — pipeline-flush reduction
# ---------------------------------------------------------------------------

def fig11(contexts=None, benchmarks=BENCHMARK_NAMES, iterations=None,
          jobs=1, cache=None, engine=""):
    cache = ArtifactCache.resolve(cache)
    contexts = _contexts(contexts, benchmarks, iterations, cache)
    suite = _suite(
        {
            "base": MachineConfig.baseline(),
            "enhanced": MachineConfig.dmp(enhanced=True),
        },
        contexts, benchmarks, iterations, jobs, cache, engine,
    )
    rows = []
    col = []
    for benchmark in benchmarks:
        base = suite.stats(benchmark, "base")
        enhanced = suite.stats(benchmark, "enhanced")
        if base.pipeline_flushes:
            reduction = 100.0 * (
                1.0 - enhanced.pipeline_flushes / base.pipeline_flushes
            )
        else:
            reduction = 0.0
        rows.append([benchmark, reduction])
        col.append(reduction)
    rows.append(_mean_row("amean", [col]))
    return FigureResult(
        "Figure 11: % reduction in pipeline flushes (enhanced DMP)",
        ["benchmark", "%flush reduction"],
        rows,
        notes="Paper: 31% average; >40% on bzip2/parser/twolf/vpr/mesa/fma3d.",
    )


# ---------------------------------------------------------------------------
# Figure 12 — fetched / executed instruction counts
# ---------------------------------------------------------------------------

def fig12(contexts=None, benchmarks=BENCHMARK_NAMES, iterations=None,
          jobs=1, cache=None, engine=""):
    cache = ArtifactCache.resolve(cache)
    contexts = _contexts(contexts, benchmarks, iterations, cache)
    suite = _suite(
        {
            "base": MachineConfig.baseline(),
            "dmp": MachineConfig.dmp(enhanced=True),
        },
        contexts, benchmarks, iterations, jobs, cache, engine,
    )
    rows = []
    fetch_ratio, exec_ratio = [], []
    for benchmark in benchmarks:
        base = suite.stats(benchmark, "base")
        dmp = suite.stats(benchmark, "dmp")
        rows.append(
            [
                benchmark,
                base.fetched_total,
                dmp.fetched_total,
                base.executed_instructions,
                dmp.executed_instructions,
                dmp.extra_uops,
                dmp.select_uops,
            ]
        )
        fetch_ratio.append(dmp.fetched_total / max(base.fetched_total, 1))
        exec_ratio.append(
            dmp.total_executed_with_uops / max(base.executed_instructions, 1)
        )
    mean_fetch = 100 * (sum(fetch_ratio) / len(fetch_ratio) - 1)
    mean_exec = 100 * (sum(exec_ratio) / len(exec_ratio) - 1)
    return FigureResult(
        "Figure 12: fetched and executed instructions",
        ["benchmark", "fetch(base)", "fetch(DMP)", "exec(base)",
         "exec(DMP)", "extra-uops", "select-uops"],
        rows,
        notes=(f"Fetched change {mean_fetch:+.1f}% (paper: -18%); executed "
               f"change incl. uops {mean_exec:+.1f}% (paper: +9%)."),
    )


# ---------------------------------------------------------------------------
# Figure 13 — window-size and pipeline-depth sweeps
# ---------------------------------------------------------------------------

def fig13(
    contexts=None,
    benchmarks=BENCHMARK_NAMES,
    iterations=None,
    windows=(128, 256, 512),
    depths=(10, 20, 30),
    sweep_rob=512,
    jobs=1,
    cache=None,
    engine="",
) -> FigureResult:
    cache = ArtifactCache.resolve(cache)
    contexts = _contexts(contexts, benchmarks, iterations, cache)
    # One flat sweep so every point parallelizes together.
    configs: Dict[str, MachineConfig] = {}
    points = []
    for window in windows:
        points.append(("window", window, dict(rob_size=window)))
    for depth in depths:
        points.append(
            ("depth", depth, dict(rob_size=256, pipeline_depth=depth))
        )
    for kind, value, overrides in points:
        configs[f"{kind}-{value}-base"] = MachineConfig.baseline(**overrides)
        configs[f"{kind}-{value}-dhp"] = MachineConfig.dhp(**overrides)
        configs[f"{kind}-{value}-dmp"] = MachineConfig.dmp(
            enhanced=True, **overrides
        )
    suite = _suite(
        configs, contexts, benchmarks, iterations, jobs, cache, engine
    )
    rows = []
    for kind, value, _ in points:
        means = []
        for machine in ("base", "dhp", "dmp"):
            label = f"{kind}-{value}-{machine}"
            ipcs = [suite.stats(b, label).ipc for b in benchmarks]
            means.append(sum(ipcs) / len(ipcs))
        rows.append([kind, value] + means)
    return FigureResult(
        "Figure 13: IPC vs. window size (top) and pipeline depth (bottom)",
        ["sweep", "value", "base IPC", "DHP IPC", "enhanced-diverge IPC"],
        rows,
        notes=("Paper: DMP's edge grows with window size (6.9/9.4/10.8%) "
               "and pipeline depth (3.3/6.8/9.4%)."),
    )


# ---------------------------------------------------------------------------
# Hint-free DMP — dynamic merge-point prediction vs compiler hints
# ---------------------------------------------------------------------------

def figmpp(contexts=None, benchmarks=BENCHMARK_NAMES, iterations=None,
           jobs=1, cache=None, engine=""):
    """Hint-free DMP (mode ``"mpp"``) against compiler-hinted DMP.

    Not a paper exhibit — the follow-on study behind
    docs/merge_point_prediction.md: how much of the compiler-hinted IPC
    gain the learned merge points recover, and how accurate the learned
    points are (fraction of outcome-resolving episodes whose alternate
    path reached the learned CFM)."""
    cache = ArtifactCache.resolve(cache)
    contexts = _contexts(contexts, benchmarks, iterations, cache)
    suite = _suite(
        {
            "base": MachineConfig.baseline(),
            "dmp": MachineConfig.dmp(enhanced=True),
            "mpp": MachineConfig.mpp(),
        },
        contexts, benchmarks, iterations, jobs, cache, engine,
    )
    rows = []
    cols = [[], [], [], []]
    for benchmark in benchmarks:
        base = suite.stats(benchmark, "base")
        dmp = suite.stats(benchmark, "dmp")
        mpp = suite.stats(benchmark, "mpp")
        dmp_gain = 100.0 * (dmp.ipc / base.ipc - 1.0)
        mpp_gain = 100.0 * (mpp.ipc / base.ipc - 1.0)
        accuracy = 100.0 * mpp.merge_accuracy
        row = [benchmark, dmp_gain, mpp_gain, mpp.mpp_predictions, accuracy]
        rows.append(row)
        for col, value in zip(cols, row[1:]):
            col.append(value)
    rows.append(_mean_row("amean", cols))
    return FigureResult(
        "Hint-free DMP: learned vs compiler merge points",
        ["benchmark", "%IPC dmp", "%IPC mpp", "mpp episodes", "%merge acc"],
        rows,
        notes=("mpp opens episodes only after the predictor trains, so it "
               "trails compiler hints early in a run; accuracy counts "
               "outcome-resolving episodes (resolution-truncated ones are "
               "neutral)."),
    )


#: Everything, in paper order (used by the full-reproduction example).
ALL_DRIVERS = {
    "fig1": fig1,
    "table1": table1,
    "table2": table2,
    "table3": table3,
    "fig6": fig6,
    "fig7": fig7,
    "fig8": fig8,
    "fig9": fig9,
    "fig10": fig10,
    "fig11": fig11,
    "fig12": fig12,
    "fig13": fig13,
    "figmpp": figmpp,
}
