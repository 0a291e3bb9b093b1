"""Benchmark contexts and suite runners.

A :class:`BenchmarkContext` owns everything one benchmark needs that is
*independent of the machine configuration*: the built workload, its
functional trace, the two profile runs, and every hint table a machine
reads (:meth:`BenchmarkContext.hints_for`).  All of it is computed
lazily and cached, so sweeping N machine configurations over one
benchmark pays the (comparatively expensive) profiling cost once.

Two further layers sit on top (docs/performance.md):

* every artifact and every completed :class:`~repro.uarch.stats.SimStats`
  can be persisted to an :class:`~repro.harness.cache.ArtifactCache`,
  keyed by canonical fingerprints (never ``repr``), so repeated CLI
  invocations skip work they have already done; and
* :func:`run_suite` accepts ``jobs=N`` to fan the
  ``(benchmark, config)`` simulations out over a process pool
  (:mod:`repro.harness.parallel`), merging results deterministically —
  a parallel or cache-warm run is bit-identical to a serial cold run.
"""

from __future__ import annotations

import dataclasses
import os
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro.core.processors import simulate
from repro.errors import HintValidationError, ReproError
from repro.harness.cache import ArtifactCache, CacheCounters
from repro.harness.fingerprint import config_fingerprint, context_fingerprint
from repro.isa.encoding import HintTable
from repro.profiling.diverge_selection import (
    SelectionThresholds,
    build_hint_table,
    candidate_branch_pcs,
    select_diverge_branches,
)
from repro.profiling.hammock import find_simple_hammocks
from repro.profiling.loop_selection import (
    merge_hint_tables,
    select_diverge_loop_branches,
)
from repro.profiling.profiler import (
    ProgramProfile,
    collect_reconvergence,
    profile_trace,
)
from repro.uarch.config import MachineConfig
from repro.uarch.stats import SimStats
from repro.validation.hints import check_hint_table
from repro.validation.runtime import paranoid_enabled
from repro.workloads.suite import BENCHMARK_NAMES, build_benchmark

#: Timed stages of a context, in pipeline order; each has a
#: ``SuiteTimings.<stage>_seconds`` field.
_STAGES = ("build", "interpret", "profile", "select", "simulate")


class BenchmarkContext:
    """One benchmark's machine-independent artifacts, lazily built.

    ``thresholds`` defaults to a *fresh* :class:`SelectionThresholds`
    per instance (a ``None`` sentinel, not a shared default-argument
    object), so mutating one context's thresholds can never leak into
    another.  Pass ``cache`` (an :class:`ArtifactCache` or a directory
    path) to persist artifacts and simulation stats across processes.
    """

    def __init__(
        self,
        name: str,
        iterations: Optional[int] = None,
        seed: int = 0,
        thresholds: Optional[SelectionThresholds] = None,
        cache: Union[None, str, "ArtifactCache"] = None,
    ) -> None:
        self.name = name
        self.iterations = iterations
        self.seed = seed
        self.thresholds = (
            SelectionThresholds() if thresholds is None else thresholds
        )
        self._cache = ArtifactCache.resolve(cache)
        self._fingerprint: Optional[str] = None
        self._workload = None
        self._trace = None
        self._profile: Optional[ProgramProfile] = None
        self._selections = None
        #: Hint tables by disk-cache kind (see :meth:`hints_for`).
        self._hints: Dict[str, HintTable] = {}
        self._sim_cache: Dict[str, SimStats] = {}
        #: Wall-clock seconds spent in each stage *by this process*.  The
        #: stages are disjoint: each timer starts only after the artifacts
        #: it consumes are resolved, so they sum to at most wall clock.
        self.stage_seconds: Dict[str, float] = dict.fromkeys(_STAGES, 0.0)
        self.sims_run = 0        # timing simulations actually executed
        self.sim_memo_hits = 0   # served from the in-memory memo
        self.sim_cache_hits = 0  # served from the on-disk cache

    # -- identity / cache plumbing ----------------------------------------

    @property
    def fingerprint(self) -> str:
        """Canonical key of this context's machine-independent inputs."""
        if self._fingerprint is None:
            self._fingerprint = context_fingerprint(
                self.name, self.iterations, self.seed, self.thresholds
            )
        return self._fingerprint

    @property
    def cache(self) -> Optional[ArtifactCache]:
        return self._cache

    def attach_cache(
        self, cache: Union[None, str, "ArtifactCache"]
    ) -> None:
        """Adopt an on-disk cache if this context does not have one."""
        if self._cache is None:
            self._cache = ArtifactCache.resolve(cache)

    def check_compatible(
        self, iterations: Optional[int], seed: int
    ) -> None:
        """Raise :class:`ReproError` unless this context was built with
        the given parameters (guards ``run_suite(..., contexts=...)``
        against silently reusing a stale context)."""
        if self.iterations != iterations or self.seed != seed:
            raise ReproError(
                f"stale context for benchmark {self.name!r}: built with "
                f"iterations={self.iterations} seed={self.seed}, but this "
                f"run wants iterations={iterations} seed={seed}; pass a "
                "fresh contexts dict (or matching parameters)"
            )

    def _timed(self, stage: str, t0: float) -> None:
        self.stage_seconds[stage] += time.perf_counter() - t0

    def __getstate__(self):
        # A pickled context (shipped to a worker process) never carries
        # its cache handle: caches are process-local, and only the
        # parent writes to disk.
        state = self.__dict__.copy()
        state["_cache"] = None
        return state

    # -- artifacts --------------------------------------------------------

    def _build_workload(self):
        """Program + initialized memory (subclasses build other sources)."""
        return build_benchmark(self.name, self.iterations, self.seed)

    @property
    def workload(self):
        if self._workload is None:
            t0 = time.perf_counter()
            self._workload = self._build_workload()
            self._timed("build", t0)
        return self._workload

    @property
    def program(self):
        return self.workload.program

    @property
    def trace(self):
        if self._trace is None:
            if self._cache is not None:
                self._trace = self._cache.load_pickle(
                    "trace", self.fingerprint
                )
            if self._trace is None:
                workload = self.workload  # timed as "build"
                t0 = time.perf_counter()
                self._trace = workload.run()
                self._timed("interpret", t0)
                if self._cache is not None:
                    self._cache.store_pickle(
                        "trace", self.fingerprint, self._trace
                    )
        return self._trace

    @property
    def profile(self) -> ProgramProfile:
        """Profile run 1 (edge counts + mispredictions)."""
        if self._profile is None:
            if self._cache is not None:
                self._profile = self._cache.load_pickle(
                    "profile", self.fingerprint
                )
            if self._profile is None:
                program, trace = self.program, self.trace
                t0 = time.perf_counter()
                self._profile = profile_trace(program, trace)
                self._timed("profile", t0)
                if self._cache is not None:
                    self._cache.store_pickle(
                        "profile", self.fingerprint, self._profile
                    )
        return self._profile

    @property
    def selections(self):
        """Diverge-branch selections (profile run 2 + Section 3.2 rules)."""
        if self._selections is None:
            profile, trace = self.profile, self.trace
            t0 = time.perf_counter()
            candidates = candidate_branch_pcs(profile, self.thresholds)
            reconvergence = collect_reconvergence(
                self.program,
                trace,
                candidates,
                max_distance=self.thresholds.max_cfm_distance,
            )
            self._selections = select_diverge_branches(
                profile, reconvergence, self.thresholds
            )
            self._timed("select", t0)
        return self._selections

    def _hint_table(
        self, kind: str, select: Callable[[], HintTable]
    ) -> HintTable:
        """The hint table cached under ``kind``: memoized, else loaded from
        the disk cache, else ``select()``-ed and stored.

        A cached table is re-validated against this program; a
        structurally-broken one (the :class:`HintValidationError`
        pathway) is discarded and selected afresh."""
        table = self._hints.get(kind)
        if table is not None:
            return table
        if self._cache is not None:
            table = self._cache.load_hints(kind, self.fingerprint)
            if table is not None:
                try:
                    check_hint_table(self.program, table)
                except HintValidationError:
                    self._cache.mark_corrupt(kind, self.fingerprint)
                    table = None
        if table is None:
            table = select()
            if self._cache is not None:
                self._cache.store_hints(kind, self.fingerprint, table)
        self._hints[kind] = table
        return table

    def _select(self, select, *args, **kwargs) -> HintTable:
        """``select(*args, **kwargs)``, validated.

        The arguments are context artifacts, each resolved under its own
        stage timer before the call, so only the selection and the check
        are timed as ``"select"``.  A structurally-broken table (a
        selection bug, or a stale profile) raises
        :class:`~repro.errors.HintValidationError` here, before it can
        steer the fetch engine."""
        t0 = time.perf_counter()
        table = select(*args, **kwargs)
        check_hint_table(self.program, table)
        self._timed("select", t0)
        return table

    @property
    def diverge_hints(self) -> HintTable:
        """The DMP hint table (all qualifying CFM points per branch)."""
        return self._hint_table("hints-dmp", lambda: self._select(
            build_hint_table, self.selections, self.thresholds,
            multiple_cfm=True,
        ))

    @property
    def loop_hints(self) -> HintTable:
        """The Section 2.7.4 loop-predication table: every diverge hint
        plus an ``is_loop`` hint per hard-to-predict loop exit (a forward
        hint wins a PC collision)."""
        return self._hint_table("hints-loop", lambda: self._select(
            _with_loop_hints, self.diverge_hints, self.program, self.trace,
            self.profile, self.thresholds,
        ))

    @property
    def hammock_hints(self) -> HintTable:
        """The DHP hint table: simple hammocks whose branches are actually
        hard to predict (same rate floor the DMP selection uses, so the
        DHP-vs-DMP comparison is apples-to-apples)."""
        return self._hint_table("hints-dhp", lambda: self._select(
            find_simple_hammocks, self.program, profile=self.profile,
            min_misprediction_rate=self.thresholds.min_misprediction_rate,
        ))

    @property
    def wish_hints(self) -> HintTable:
        """The wish-branch table: if-convertible regions whose branches
        are hard to predict (same rate floor as the other machines)."""
        return self._hint_table("hints-wish", lambda: self._select(
            _wish_table, self.program, profile=self.profile,
            min_misprediction_rate=self.thresholds.min_misprediction_rate,
        ))

    def prepare(self, configs: Iterable[MachineConfig] = ()) -> None:
        """Materialize every machine-independent artifact the given
        configurations will need (used before fanning simulations out to
        worker processes, so workers never duplicate profiling work)."""
        _ = self.workload, self.trace, self.profile
        for config in configs:
            self.hints_for(config)

    # -- simulation ---------------------------------------------------------

    def hints_for(self, config: MachineConfig) -> Optional[HintTable]:
        """The hint table ``config``'s machine reads, or ``None`` for the
        hint-free modes (baseline, dual-path, and ``mpp``, which learns
        its merge points at run time)."""
        if config.mode == "dmp":
            if config.loop_predication:
                return self.loop_hints
            return self.diverge_hints
        if config.mode == "dhp":
            return self.hammock_hints
        if config.mode == "wish":
            return self.wish_hints
        return None

    @staticmethod
    def sim_key(config: MachineConfig) -> str:
        """Canonical memo key for one simulation under ``config``: the
        fingerprint of the configuration that will actually run,
        mirroring the paranoid-mode upgrade in
        :func:`repro.core.processors.simulate` — so memo/cache keys
        always describe the run they index.  It does not depend on the
        benchmark, so a suite run computes it once per configuration."""
        if paranoid_enabled() and not (
            config.oracle_checks and config.watchdog
        ):
            config = config.hardened()
        return config_fingerprint(config)

    def cached_stats(self, key: str) -> Optional[SimStats]:
        """Already-known stats under the :meth:`sim_key` ``key``
        (in-memory memo first, then the on-disk cache), or ``None``.
        Counts hits."""
        stats = self._sim_cache.get(key)
        if stats is not None:
            self.sim_memo_hits += 1
            return stats
        if self._cache is not None:
            stats = self._cache.load_pickle("sim", f"{self.fingerprint}-{key}")
            if isinstance(stats, SimStats):
                self.sim_cache_hits += 1
                self._sim_cache[key] = stats
                return stats
        return None

    def store_stats(self, key: str, stats: SimStats) -> None:
        """Adopt externally-computed stats (e.g. from a worker process)
        into the memo and the on-disk cache under the :meth:`sim_key`
        ``key``."""
        self._sim_cache[key] = stats
        if self._cache is not None:
            self._cache.store_pickle("sim", f"{self.fingerprint}-{key}", stats)

    def simulate(self, config: MachineConfig, tracer=None) -> SimStats:
        """Simulate under one configuration (memoized: the same config is
        returned from cache, so figure drivers can share runs).

        The memo key is the canonical fingerprint of the *effective*
        configuration — two equal configs whose dict-valued fields merely
        differ in insertion order share one run, and every field
        participates in the key (``repr`` omissions cannot collide two
        different configs onto the same cached stats)."""
        key = self.sim_key(config)
        if tracer is None:
            # A traced run cannot be satisfied from the memo/cache: the
            # event stream only exists if the simulator actually runs.
            stats = self.cached_stats(key)
            if stats is not None:
                return stats
        hints = self.hints_for(config)  # timed as "select" if first use
        trace = self.trace  # timed as "interpret" if first use
        warm = self.workload.memory.warm_words()
        t0 = time.perf_counter()
        stats = simulate(
            self.program,
            trace,
            config,
            hints=hints,
            benchmark=self.name,
            warm_words=warm,
            tracer=tracer,
        )
        self._timed("simulate", t0)
        self.sims_run += 1
        self.store_stats(key, stats)
        return stats


def _with_loop_hints(diverge, program, trace, profile, thresholds):
    """``diverge`` merged with the loop-exit hints (forward hints win)."""
    loops = select_diverge_loop_branches(program, trace, profile, thresholds)
    return merge_hint_tables(diverge, loops)


def _wish_table(program, **kwargs) -> HintTable:
    """The table half of :func:`select_wish_branches`."""
    from repro.profiling.wish_selection import select_wish_branches

    table, _ = select_wish_branches(program, **kwargs)
    return table


#: The machine configurations of Figure 7 (basic DMP study).
def figure7_configs() -> Dict[str, MachineConfig]:
    return {
        "base": MachineConfig.baseline(),
        "DHP-jrs": MachineConfig.dhp(),
        "DHP-perf-conf": MachineConfig.dhp(confidence_kind="perfect"),
        "diverge-jrs": MachineConfig.dmp(),
        "diverge-perf-conf": MachineConfig.dmp(confidence_kind="perfect"),
        "dualpath": MachineConfig.dualpath(),
        "perfect-cbp": MachineConfig.baseline(predictor_kind="perfect"),
    }


#: The cumulative-enhancement configurations of Figure 9.
def figure9_configs() -> Dict[str, MachineConfig]:
    return {
        "base": MachineConfig.baseline(),
        "basic-diverge": MachineConfig.dmp(),
        "enhanced-mcfm": MachineConfig.dmp(multiple_cfm=True),
        "enhanced-mcfm-eexit": MachineConfig.dmp(
            multiple_cfm=True, early_exit=True
        ),
        "enhanced-mcfm-eexit-mdb": MachineConfig.dmp(enhanced=True),
    }


@dataclasses.dataclass
class SuiteTimings:
    """Per-stage wall-clock + cache accounting for one suite run, so
    speedups are measured rather than asserted (``repro suite
    --timings``)."""

    jobs: int = 1
    wall_seconds: float = 0.0
    build_seconds: float = 0.0
    #: Functional interpretation (producing the dynamic trace).
    interpret_seconds: float = 0.0
    #: Profile run 1 (edge counts + mispredictions).
    profile_seconds: float = 0.0
    #: Diverge selection (profile run 2 + Section 3.2 rules) and the
    #: dmp/loop/dhp/wish hint-table builds.
    select_seconds: float = 0.0
    #: Aggregate simulation seconds (across workers when parallel, so it
    #: can exceed ``wall_seconds``).
    simulate_seconds: float = 0.0
    simulations_run: int = 0
    sim_memo_hits: int = 0
    sim_cache_hits: int = 0
    #: Batch executor only: cells that ran in the lockstep group vs
    #: cells that fell back to the fast engine, the latter grouped by
    #: the ``cell_supported`` reason string.
    batch_vector_cells: int = 0
    batch_fallbacks: Dict[str, int] = dataclasses.field(
        default_factory=dict
    )
    cache: Optional[CacheCounters] = None

    def report(self) -> str:
        lines = [
            f"timings (jobs={self.jobs}): wall={self.wall_seconds:.2f}s",
            f"  build={self.build_seconds:.2f}s  "
            f"interpret={self.interpret_seconds:.2f}s  "
            f"profile={self.profile_seconds:.2f}s  "
            f"select={self.select_seconds:.2f}s  "
            f"simulate={self.simulate_seconds:.2f}s (aggregate)",
            f"  simulations: {self.simulations_run} run, "
            f"{self.sim_memo_hits} memo hit(s), "
            f"{self.sim_cache_hits} disk hit(s)",
        ]
        fell = sum(self.batch_fallbacks.values())
        if self.batch_vector_cells or fell:
            lines.append(
                f"  batch: {self.batch_vector_cells} cell(s) on the "
                f"vector path, {fell} fast-engine fallback(s)"
            )
            for reason, count in sorted(
                self.batch_fallbacks.items(), key=lambda kv: (-kv[1], kv[0])
            ):
                lines.append(f"    {count:4d}  {reason}")
        if self.cache is not None:
            lines.append("  " + self.cache.summary().replace("\n", "\n  "))
        return "\n".join(lines)


class SuiteResult:
    """Results of sweeping configurations over benchmarks.

    Two results compare equal iff they carry identical stats for
    identical ``(benchmark, config)`` cells — the property the parallel
    and cached execution paths are tested against.  ``timings`` (when a
    suite runner attached one) is diagnostic and excluded from
    equality."""

    def __init__(self) -> None:
        #: ``{benchmark: {config_label: SimStats}}``
        self.results: Dict[str, Dict[str, SimStats]] = {}
        #: Filled in by :func:`run_suite`.
        self.timings: Optional[SuiteTimings] = None

    def add(self, benchmark: str, label: str, stats: SimStats) -> None:
        self.results.setdefault(benchmark, {})[label] = stats

    def __eq__(self, other) -> bool:
        if not isinstance(other, SuiteResult):
            return NotImplemented
        return self.results == other.results

    def __ne__(self, other) -> bool:
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    @property
    def benchmarks(self) -> List[str]:
        return list(self.results)

    def stats(self, benchmark: str, label: str) -> SimStats:
        return self.results[benchmark][label]

    def ipc_improvements(self, label: str, base: str = "base") -> Dict[str, float]:
        """Per-benchmark % IPC improvement of ``label`` over ``base``.

        A degenerate run (zero baseline IPC — an empty trace or a
        zero-cycle simulation) raises :class:`~repro.errors.ReproError`
        rather than dividing by zero."""
        out = {}
        for benchmark, per_config in self.results.items():
            base_ipc = per_config[base].ipc
            if base_ipc == 0:
                raise ReproError(
                    f"benchmark {benchmark!r}: base config {base!r} has "
                    "zero IPC (degenerate run); cannot compute improvement"
                )
            out[benchmark] = 100.0 * (per_config[label].ipc / base_ipc - 1.0)
        return out


def _context_snapshot(context: BenchmarkContext) -> Tuple:
    return (
        dict(context.stage_seconds),
        context.sims_run,
        context.sim_memo_hits,
        context.sim_cache_hits,
    )


def _accumulate_deltas(
    timings: SuiteTimings,
    contexts: List[BenchmarkContext],
    before: List[Tuple],
) -> None:
    for context, (stages, sims, memo, disk) in zip(contexts, before):
        for stage in _STAGES:
            attr = f"{stage}_seconds"
            setattr(timings, attr, getattr(timings, attr)
                    + context.stage_seconds[stage] - stages[stage])
        timings.simulations_run += context.sims_run - sims
        timings.sim_memo_hits += context.sim_memo_hits - memo
        timings.sim_cache_hits += context.sim_cache_hits - disk


def _cell_tracer(context: BenchmarkContext, label: str, trace_dir):
    """A JSONL tracer for one suite cell, or ``None`` when untraced."""
    if trace_dir is None:
        return None
    from repro.obs.events import JsonlTracer
    from repro.obs.runtime import trace_path

    return JsonlTracer(
        trace_path(trace_dir, context.name, label),
        meta={
            "benchmark": context.name,
            "config": label,
            "iterations": context.iterations,
            "seed": context.seed,
        },
    )


def _simulate_cell(
    context: BenchmarkContext, label: str, config: MachineConfig,
    trace_dir, verbose: bool,
) -> SimStats:
    """One (benchmark, config) cell through the context (memo/cache
    aware), with optional event tracing."""
    tracer = _cell_tracer(context, label, trace_dir)
    try:
        stats = context.simulate(config, tracer=tracer)
    finally:
        if tracer is not None:
            tracer.close()
    if verbose:
        print(
            f"  {context.name:8s} {label:24s} IPC={stats.ipc:.3f} "
            f"flushes={stats.pipeline_flushes}"
        )
    return stats


def _execute_serial(
    run_contexts, configs, *, jobs, verbose, trace_dir, result, timings
) -> None:
    """One cell at a time, in deterministic order."""
    for context in run_contexts:
        for label, config in configs.items():
            stats = _simulate_cell(context, label, config, trace_dir, verbose)
            result.add(context.name, label, stats)


def _execute_pool(
    run_contexts, configs, *, jobs, verbose, trace_dir, result, timings
) -> None:
    """Fan the cells out over a process pool (repro.harness.parallel)."""
    from repro.harness.parallel import run_simulations_parallel

    stats_map = run_simulations_parallel(
        run_contexts, configs, jobs=max(jobs, 2), verbose=verbose,
        trace_dir=trace_dir,
    )
    timings.simulate_seconds += stats_map.worker_seconds
    timings.simulations_run += stats_map.worker_runs
    for context in run_contexts:
        for label, config in configs.items():
            result.add(context.name, label, stats_map[(context.name, label)])


def _execute_batch(
    run_contexts, configs, *, jobs, verbose, trace_dir, result, timings
) -> None:
    """All cells through the vectorized lockstep engine in one group.

    Every config is run with ``engine="batch"`` (the engine is
    bit-identical, and cells outside the vector envelope fall back to
    the fast engine inside ``run_batch``).  Memoized / disk-cached cells
    are served without simulating; traced cells cannot batch (the event
    stream needs a live scalar simulator) and run serially instead.
    """
    from repro.uarch.batch import BatchCell, run_batch

    # Each label's batch config and memo key, derived once per suite run
    # (neither depends on the benchmark).
    plan: Dict[str, Tuple[MachineConfig, str]] = {}
    for label, config in configs.items():
        if config.engine != "batch":
            config = config.replace(engine="batch")
        plan[label] = (config, BenchmarkContext.sim_key(config))
    cells: List = []
    meta: List[Tuple[BenchmarkContext, str, str]] = []
    for context in run_contexts:
        for label, (effective, key) in plan.items():
            if trace_dir is not None:
                stats = _simulate_cell(
                    context, label, effective, trace_dir, verbose
                )
                result.add(context.name, label, stats)
                continue
            stats = context.cached_stats(key)
            if stats is not None:
                result.add(context.name, label, stats)
                continue
            hints = context.hints_for(effective)
            warm = context.workload.memory.warm_words()
            cells.append(BatchCell(
                context.program, context.trace, effective, hints=hints,
                benchmark=context.name, warm_words=warm,
            ))
            meta.append((context, label, key))
    if not cells:
        return
    fell_before = sum(timings.batch_fallbacks.values())
    t0 = time.perf_counter()
    stats_list = run_batch(cells, fallback_reasons=timings.batch_fallbacks)
    per_cell = (time.perf_counter() - t0) / len(cells)
    fell = sum(timings.batch_fallbacks.values()) - fell_before
    timings.batch_vector_cells += len(cells) - fell
    for (context, label, key), stats in zip(meta, stats_list):
        context.stage_seconds["simulate"] += per_cell
        context.sims_run += 1
        context.store_stats(key, stats)
        result.add(context.name, label, stats)
        if verbose:
            print(
                f"  {context.name:8s} {label:24s} IPC={stats.ipc:.3f} "
                f"flushes={stats.pipeline_flushes}"
            )


#: Pluggable suite executors: how the (benchmark, config) cells of one
#: suite run are simulated.  All three produce bit-identical results;
#: tests/harness/test_parallel.py and tests/core/test_engine_batch.py
#: hold them to it.
SUITE_EXECUTORS = {
    "serial": _execute_serial,
    "pool": _execute_pool,
    "batch": _execute_batch,
}


def _resolve_executor(
    executor: Optional[str], configs: Dict[str, MachineConfig], jobs: int
) -> str:
    if executor is not None:
        if executor not in SUITE_EXECUTORS:
            raise ReproError(
                f"unknown executor {executor!r}; expected one of "
                f"{sorted(SUITE_EXECUTORS)}"
            )
        return executor
    if any(config.engine == "batch" for config in configs.values()):
        return "batch"
    return "pool" if jobs > 1 else "serial"


def run_suite(
    configs: Dict[str, MachineConfig],
    benchmarks: Iterable[str] = BENCHMARK_NAMES,
    iterations: Optional[int] = None,
    seed: int = 0,
    contexts: Optional[Dict[str, BenchmarkContext]] = None,
    verbose: bool = False,
    jobs: int = 1,
    cache: Union[None, str, ArtifactCache] = None,
    trace_dir: Optional[str] = None,
    executor: Optional[str] = None,
) -> SuiteResult:
    """Run every configuration over every benchmark.

    Pass ``contexts`` to reuse already-built benchmark artifacts across
    several figures (the per-figure drivers all accept the same dict); a
    reused context whose ``iterations``/``seed`` do not match this call
    raises :class:`~repro.errors.ReproError` instead of silently
    returning stats for different parameters.

    The cells are dispatched through a pluggable *executor*
    (``SUITE_EXECUTORS``): ``"serial"`` simulates one cell at a time,
    ``"pool"`` fans out over a process pool, and ``"batch"`` runs every
    cell through the vectorized lockstep engine
    (:mod:`repro.uarch.batch`) in one group.  When ``executor`` is not
    given it is inferred: ``"batch"`` if any config selects
    ``engine="batch"``, else ``"pool"`` when ``jobs > 1``, else
    ``"serial"``.  All executors return bit-identical results.

    ``cache`` (an :class:`ArtifactCache` or directory path) persists
    artifacts and stats across invocations.

    ``trace_dir`` (or the process-wide toggle set by
    :func:`repro.obs.runtime.set_trace_dir` — the CLI's ``--trace``
    flags) writes one JSONL event trace per ``(benchmark, config)``
    cell into the directory; traced cells always simulate (never come
    from memo or cache) and produce the same stats as untraced ones.
    """
    if jobs < 1:
        raise ReproError(f"jobs must be >= 1, got {jobs}")
    if trace_dir is None:
        from repro.obs.runtime import active_trace_dir

        trace_dir = active_trace_dir()
    if trace_dir is not None:
        os.makedirs(trace_dir, exist_ok=True)
    cache = ArtifactCache.resolve(cache)
    benchmarks = list(benchmarks)
    result = SuiteResult()
    wall_start = time.perf_counter()

    run_contexts: List[BenchmarkContext] = []
    for name in benchmarks:
        if contexts is not None:
            context = contexts.get(name)
            if context is None:
                context = BenchmarkContext(name, iterations, seed, cache=cache)
                contexts[name] = context
            else:
                context.check_compatible(iterations, seed)
                context.attach_cache(cache)
        else:
            context = BenchmarkContext(name, iterations, seed, cache=cache)
        run_contexts.append(context)

    before = [_context_snapshot(context) for context in run_contexts]
    timings = SuiteTimings(jobs=jobs)

    execute = SUITE_EXECUTORS[_resolve_executor(executor, configs, jobs)]
    execute(
        run_contexts, configs, jobs=jobs, verbose=verbose,
        trace_dir=trace_dir, result=result, timings=timings,
    )

    _accumulate_deltas(timings, run_contexts, before)
    timings.wall_seconds = time.perf_counter() - wall_start
    timings.cache = cache.counters if cache is not None else None
    result.timings = timings
    return result


class MultiSeedResult:
    """Per-seed suite results with mean/spread summaries.

    Synthetic workloads are seeded; a conclusion that flips sign across
    seeds is noise.  ``improvement_stats`` reports mean and spread of the
    % IPC improvement so benches can assert *sign stability* rather than
    point values.
    """

    def __init__(self) -> None:
        #: ``{seed: SuiteResult}``
        self.by_seed: Dict[int, SuiteResult] = {}

    def add(self, seed: int, result: SuiteResult) -> None:
        self.by_seed[seed] = result

    def improvement_stats(
        self, benchmark: str, label: str, base: str = "base"
    ) -> Tuple[float, float, float]:
        """(mean, min, max) % IPC improvement across seeds."""
        values = [
            result.ipc_improvements(label, base)[benchmark]
            for result in self.by_seed.values()
        ]
        return (sum(values) / len(values), min(values), max(values))

    def sign_stable(
        self,
        benchmark: str,
        label: str,
        base: str = "base",
        tolerance: float = 1.0,
    ) -> bool:
        """True when the improvement has the same sign for every seed
        (values within ±tolerance count as zero)."""
        _, lo, hi = self.improvement_stats(benchmark, label, base)
        return lo >= -tolerance or hi <= tolerance


def run_multi_seed(
    configs: Dict[str, MachineConfig],
    benchmarks: Iterable[str],
    seeds: Iterable[int],
    iterations: Optional[int] = None,
    jobs: int = 1,
    cache: Union[None, str, ArtifactCache] = None,
    executor: Optional[str] = None,
) -> MultiSeedResult:
    """Run the suite once per seed (each seed regenerates every data
    array, so traces and profiles differ while CFG shapes stay fixed).
    ``jobs``/``cache``/``executor`` are forwarded to each per-seed
    :func:`run_suite` — multi-seed sweeps are exactly the shape the
    ``"batch"`` executor exists for."""
    out = MultiSeedResult()
    benchmarks = list(benchmarks)
    for seed in seeds:
        out.add(
            seed,
            run_suite(
                configs,
                benchmarks,
                iterations=iterations,
                seed=seed,
                jobs=jobs,
                cache=cache,
                executor=executor,
            ),
        )
    return out
