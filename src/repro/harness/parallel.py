"""Process-pool fan-out of ``(benchmark, config)`` simulations.

The timing simulations dominate a suite's wall clock and are
embarrassingly parallel once the machine-independent artifacts exist.
:func:`run_simulations_parallel` therefore:

1. materializes every artifact (trace, profile, hint tables) in the
   parent — through the on-disk cache when one is attached — so workers
   never duplicate profiling work;
2. resolves cells already satisfied by the in-memory memo or the
   persistent cache;
3. ships the prepared contexts to each worker once (pickled via the
   pool initializer, so it works under ``fork``, ``forkserver`` and
   ``spawn`` start methods alike) and fans the remaining cells out;
4. merges results deterministically — insertion order is the caller's
   ``benchmarks x configs`` order, never completion order — and stores
   fresh stats back into the parent's memo and cache.

Workers inherit the process-wide paranoid flag, so the PR-1 oracle
cross-checker and watchdog stay armed inside the pool exactly as they
would serially; simulation is deterministic, so a parallel run is
bit-identical to a serial one (asserted by the test suite).
"""

from __future__ import annotations

import multiprocessing
import pickle
import time
from typing import Dict, List, Tuple

from repro.errors import ReproError
from repro.uarch.config import MachineConfig
from repro.uarch.stats import SimStats
from repro.validation.runtime import paranoid_enabled, set_paranoid

#: Per-worker context table, installed by :func:`_init_worker`.
_WORKER_CONTEXTS: Dict[str, "BenchmarkContext"] = {}


def _init_worker(payload: bytes, paranoid_flag: bool) -> None:
    global _WORKER_CONTEXTS
    _WORKER_CONTEXTS = pickle.loads(payload)
    set_paranoid(paranoid_flag)


def _run_cell(task: Tuple[str, str, MachineConfig, str]):
    """Simulate one ``(benchmark, label)`` cell inside a worker.

    When the cell carries a trace path, the worker streams the cell's
    event trace there itself — trace files are per-cell, so the merge
    back in the parent needs no event shuffling and stays deterministic
    (the parent's caller-order iteration; docs/observability.md)."""
    benchmark, label, config, trace_file = task
    context = _WORKER_CONTEXTS[benchmark]
    tracer = None
    if trace_file is not None:
        from repro.obs.events import JsonlTracer

        tracer = JsonlTracer(
            trace_file,
            meta={
                "benchmark": benchmark,
                "config": label,
                "iterations": context.iterations,
                "seed": context.seed,
            },
        )
    start = time.perf_counter()
    try:
        stats = context.simulate(config, tracer=tracer)
    finally:
        if tracer is not None:
            tracer.close()
    return benchmark, label, stats, time.perf_counter() - start


class ParallelStats:
    """Stats for every requested cell, plus worker-side accounting."""

    def __init__(self) -> None:
        self._cells: Dict[Tuple[str, str], SimStats] = {}
        #: Aggregate simulation seconds across all workers.
        self.worker_seconds: float = 0.0
        #: Simulations actually executed in workers (cache hits excluded).
        self.worker_runs: int = 0

    def __getitem__(self, cell: Tuple[str, str]) -> SimStats:
        return self._cells[cell]

    def __setitem__(self, cell: Tuple[str, str], stats: SimStats) -> None:
        self._cells[cell] = stats

    def __len__(self) -> int:
        return len(self._cells)


def run_simulations_parallel(
    contexts: List["BenchmarkContext"],
    configs: Dict[str, MachineConfig],
    jobs: int,
    verbose: bool = False,
    trace_dir: str = None,
) -> ParallelStats:
    """Fill every ``(benchmark, label)`` cell, fanning uncached cells
    over a ``multiprocessing`` pool of ``jobs`` workers.

    With ``trace_dir`` set, every cell runs in a worker and streams its
    own JSONL event trace — cached stats cannot produce the event
    stream, so stage 1's cache resolution is skipped entirely."""
    from repro.harness.experiment import BenchmarkContext

    out = ParallelStats()
    by_name = {context.name: context for context in contexts}
    if len(by_name) != len(contexts):
        raise ReproError("duplicate benchmark contexts in parallel run")
    if trace_dir is not None:
        from repro.obs.runtime import trace_path

    # Stage 1: resolve cells the memo / persistent cache already has
    # (no artifacts needed to compute the keys — a fully cache-warm run
    # skips profiling entirely).  Traced runs resolve nothing here.
    keys = {
        label: BenchmarkContext.sim_key(config)
        for label, config in configs.items()
    }
    pending: List[Tuple[str, str, MachineConfig, str]] = []
    for context in contexts:
        for label, config in configs.items():
            stats = None if trace_dir is not None else (
                context.cached_stats(keys[label])
            )
            if stats is not None:
                out[(context.name, label)] = stats
            else:
                trace_file = (
                    trace_path(trace_dir, context.name, label)
                    if trace_dir is not None
                    else None
                )
                pending.append((context.name, label, config, trace_file))

    if not pending:
        return out

    # Stage 2: machine-independent artifacts for the contexts that still
    # have work, built (or cache-loaded) once in the parent.
    config_list = list(configs.values())
    pending_names = {task[0] for task in pending}
    for context in contexts:
        if context.name in pending_names:
            context.prepare(config_list)

    # Stage 3: fan the rest out.  Contexts travel once per worker via
    # the initializer; BenchmarkContext.__getstate__ drops the cache
    # handle, so only the parent ever touches the cache directory.
    payload = pickle.dumps(
        {name: by_name[name] for name in pending_names}, protocol=4
    )
    workers = min(jobs, len(pending))
    with multiprocessing.Pool(
        processes=workers,
        initializer=_init_worker,
        initargs=(payload, paranoid_enabled()),
    ) as pool:
        for benchmark, label, stats, elapsed in pool.imap_unordered(
            _run_cell, pending, chunksize=1
        ):
            out[(benchmark, label)] = stats
            out.worker_seconds += elapsed
            out.worker_runs += 1
            # Stage 4 (incremental): adopt into the parent memo + cache.
            by_name[benchmark].store_stats(keys[label], stats)
            if verbose:
                print(
                    f"  {benchmark:8s} {label:24s} IPC={stats.ipc:.3f} "
                    f"flushes={stats.pipeline_flushes}"
                )
    return out
